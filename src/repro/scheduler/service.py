"""``repro serve``: the scheduler daemon and its line-JSON wire protocol.

:class:`SchedulerService` fronts a :class:`~repro.scheduler.JobScheduler`
with a TCP listener speaking newline-delimited JSON -- one request object
per line in, one (or, for ``results``, a stream of) response object(s) per
line out -- so external clients submit *named* workflows (the
:mod:`repro.scheduler.catalog`), feed tuples and stream results with
nothing but a socket, no library import.  The server is built on
:class:`repro.net.core.SocketServer`, as is ``RespTCPServer``; this module
adds the line framing (:meth:`SchedulerService.handle`) and the operations.

Requests: ``{"op": ..., ...}``.  Responses: ``{"ok": true, ...}`` or
``{"ok": false, "error": "..."}``; protocol errors never kill the
connection, malformed lines get an error reply.

==========  ===========================================================
op          request -> reply
==========  ===========================================================
ping        ``{}`` -> ``{"pong": true}``
workflows   ``{}`` -> ``{"workflows": {name: [param, ...]}}``
submit      ``{"workflow", "params"?, "inputs"?, "tenant"?,
            "priority"?, "deadline"?, "mapping"?, "processes"?,
            "seed"?, "time_scale"?}`` -> ``{"job", "mapping",
            "streaming", "roots"}`` (omit ``inputs`` for the catalog
            default stream; pass ``null`` for none; ``roots`` are the
            valid ``send`` targets; a malformed ``inputs`` spec or an
            unenactable graph is the error reply, nothing is queued)
send        ``{"job", "target", "tuples"}`` -> ``{"sent": n}``
close       ``{"job"}`` -> ``{"closed": true}``
results     ``{"job", "timeout"?}`` -> one ``{"key", "value"}`` line
            per result, then ``{"done": true, "state": ...}``
wait        ``{"job", "timeout"?}`` -> ``{"state", "summary"}``
cancel      ``{"job", "reason"?}`` -> ``{"cancelled": bool}``
stats       ``{}`` -> ``{"stats": {...}}`` (:class:`SchedulerStats`)
quit        closes the connection after ``{"bye": true}``
==========  ===========================================================

A terminal job is forgotten once a ``wait`` reply and a ``results`` end both
told it; of the others, the :data:`RETAINED_JOBS` newest are kept.  A
forgotten id is answered ``expired``, one never handed out ``unknown job``.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Dict, Optional, Tuple

from repro.core.exceptions import ReproError
from repro.jobs import Job, check_seconds
from repro.net.core import Connection, SocketServer
from repro.scheduler.catalog import (
    build_named_workflow,
    workflow_names,
    workflow_params,
)
from repro.scheduler.scheduler import JobScheduler

#: Terminal jobs kept that have not had both a ``wait`` and a ``results`` end.
RETAINED_JOBS = 64


def _encode(payload: Dict[str, Any]) -> bytes:
    """One reply line; non-JSON values degrade to ``repr`` over the wire."""
    return (json.dumps(payload, default=repr) + "\n").encode("utf-8")


class SchedulerService(SocketServer):
    """Line-JSON TCP front-end over one :class:`JobScheduler`.

    ``close()`` leaves the scheduler (and its engine) to the caller --
    ``repro serve`` closes them after the service.  A handler streaming
    ``results`` is blocked in the job, not in ``recv``: its client reads
    EOF at once, its thread ends when the job next yields or finishes.
    """

    thread_prefix = "sched"

    def __init__(
        self,
        scheduler: JobScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(host, port)
        self.scheduler = scheduler
        #: Live and retained jobs by id, oldest submission first.
        self._jobs: Dict[str, Job] = {}
        #: Job id -> the first of ``wait`` / ``results`` that told its end.
        self._told: Dict[str, str] = {}
        self._jobs_lock = threading.Lock()
        self._job_seq = 0

    # -------------------------------------------------------------- framing
    def handle(self, conn: Connection) -> None:
        """One JSON request per line in, reply line(s) out, until ``quit``/EOF."""
        sock = conn.sock
        with sock.makefile("rb") as reader:
            for raw in reader:
                line = raw.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("expected a JSON object")
                except ValueError as exc:
                    sock.sendall(_encode({"ok": False, "error": f"bad request: {exc}"}))
                    continue
                if self._dispatch(sock, request):
                    return

    # -------------------------------------------------------------- dispatch
    def _dispatch(self, sock: socket.socket, request: Dict[str, Any]) -> bool:
        """Handle one request; returns True when the connection should close."""
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            sock.sendall(_encode({"ok": False, "error": f"unknown op {op!r}"}))
            return False
        try:
            reply, stop = handler(sock, request)
        except (KeyError, TypeError, ValueError, RuntimeError, ReproError) as exc:
            reply, stop = {"ok": False, "error": str(exc) or type(exc).__name__}, False
        if reply is not None:
            sock.sendall(_encode(reply))
            if op in ("wait", "results") and "state" in reply:
                self._told_end(request.get("job"), op)
        return stop

    def _job(self, request: Dict[str, Any]) -> Job:
        job_id = request.get("job")
        with self._jobs_lock:
            job = self._jobs.get(job_id)
            last = self._job_seq
        if job is None:
            seq = job_id[1:] if isinstance(job_id, str) and job_id[:1] == "j" else ""
            if seq.isdecimal() and 0 < int(seq) <= last:
                raise ValueError(f"expired job {job_id!r}")
            raise ValueError(f"unknown job {job_id!r}")
        return job

    def _told_end(self, job_id: Any, op: str) -> None:
        """Forget a terminal job once ``wait`` and ``results`` both told it."""
        with self._jobs_lock:
            job = self._jobs.get(job_id)
            if job is not None and job.done() and self._told.setdefault(job_id, op) != op:
                del self._jobs[job_id], self._told[job_id]

    # ------------------------------------------------------------ operations
    def _op_ping(self, sock, request) -> Tuple[Dict[str, Any], bool]:
        return {"ok": True, "pong": True}, False

    def _op_quit(self, sock, request) -> Tuple[Dict[str, Any], bool]:
        return {"ok": True, "bye": True}, True

    def _op_workflows(self, sock, request) -> Tuple[Dict[str, Any], bool]:
        return {
            "ok": True,
            "workflows": {
                name: list(workflow_params(name)) for name in workflow_names()
            },
        }, False

    def _op_submit(self, sock, request) -> Tuple[Dict[str, Any], bool]:
        name = request.get("workflow")
        if not isinstance(name, str):
            raise ValueError("submit needs a 'workflow' name")
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise ValueError("'params' must be an object")
        graph, default_inputs = build_named_workflow(name, **params)
        # Absent "inputs" means the catalog's default stream; an explicit
        # null means "none, I will send tuples myself".
        inputs = request["inputs"] if "inputs" in request else default_inputs
        job = self.scheduler.submit(
            graph,
            inputs,
            tenant=request.get("tenant", "default"),
            priority=int(request.get("priority", 0)),
            deadline=request.get("deadline"),
            processes=request.get("processes"),
            seed=request.get("seed"),
            mapping=request.get("mapping"),
            time_scale=request.get("time_scale"),
        )
        with self._jobs_lock:
            self._job_seq += 1
            job_id = f"j{self._job_seq}"
            self._jobs[job_id] = job
            ended = [key for key, known in self._jobs.items() if known.done()]
            for key in ended[: max(0, len(ended) - RETAINED_JOBS)]:
                del self._jobs[key]
                self._told.pop(key, None)
        return {
            "ok": True,
            "job": job_id,
            "workflow": job.workflow,
            "mapping": job.mapping,
            "streaming": job.streaming,
            # Valid send targets, so clients need not know the graph shape.
            "roots": sorted(pe.name for pe in graph.roots()),
        }, False

    def _op_send(self, sock, request) -> Tuple[Dict[str, Any], bool]:
        job = self._job(request)
        tuples = request.get("tuples")
        if not isinstance(tuples, list):
            raise ValueError("'tuples' must be an array")
        job.send(request.get("target"), tuples)
        return {"ok": True, "sent": len(tuples)}, False

    def _op_close(self, sock, request) -> Tuple[Dict[str, Any], bool]:
        self._job(request).close_input()
        return {"ok": True, "closed": True}, False

    def _op_results(self, sock, request) -> Tuple[Optional[Dict[str, Any]], bool]:
        job = self._job(request)
        timeout = check_seconds("timeout", request.get("timeout"))
        try:
            for key, value in job.results(timeout=timeout):
                sock.sendall(_encode({"ok": True, "key": key, "value": value}))
        except TimeoutError as exc:
            return {"ok": False, "error": str(exc)}, False
        except Exception as exc:  # job failed/cancelled after its last result
            return {
                "ok": False,
                "error": str(exc) or type(exc).__name__,
                "state": job.state.value,
            }, False
        return {"ok": True, "done": True, "state": job.state.value}, False

    def _op_wait(self, sock, request) -> Tuple[Dict[str, Any], bool]:
        job = self._job(request)
        timeout = check_seconds("timeout", request.get("timeout"))
        try:
            result = job.wait(timeout=timeout)
        except TimeoutError as exc:
            return {"ok": False, "error": str(exc)}, False
        except Exception as exc:
            return {
                "ok": False,
                "error": str(exc) or type(exc).__name__,
                "state": job.state.value,
            }, False
        return {"ok": True, "state": job.state.value, "summary": result.summary()}, False

    def _op_cancel(self, sock, request) -> Tuple[Dict[str, Any], bool]:
        job = self._job(request)
        flipped = job.cancel(reason=request.get("reason"))
        return {"ok": True, "cancelled": flipped, "state": job.state.value}, False

    def _op_stats(self, sock, request) -> Tuple[Dict[str, Any], bool]:
        return {"ok": True, "stats": self.scheduler.stats.snapshot()}, False

    def __repr__(self) -> str:
        state = "stopped" if self._stopping.is_set() else "serving"
        return f"SchedulerService({self.address}, {state})"
