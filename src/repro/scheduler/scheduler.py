"""Multi-job admission over shared warm deployment pools.

:class:`JobScheduler` is the service layer the paper's long-lived enactment
scenario needs: where ``Engine.submit`` serves one job per mapping at a
time (busy submissions fall back to cold ephemeral deployments), the
scheduler multiplexes N concurrent :class:`~repro.jobs.Job` handles over a
:class:`~repro.mappings.base.DeploymentPool` of warm deployments per
mapping and *queues* the overflow instead of paying cold spin-ups.

Admission control, in decision order:

1. **Concurrency cap** -- at most ``max_concurrent`` jobs enact at once.
2. **Fair share** -- among tenants with admissible work, the next slot
   goes to the tenant with the largest *weighted deficit*
   (``total_admitted * weight_share - admitted``): over time every tenant
   receives slots proportional to its :class:`TenantQuota` weight,
   regardless of submission bursts.  Ties break toward the higher weight,
   then submission order.
3. **Priority with aging** -- within the chosen tenant, the job with the
   highest *effective* priority (``priority + waited/aging_interval``)
   wins, so a low-priority job's rank rises the longer it waits and
   starvation is impossible.  Ties break FIFO.

Hard per-tenant ``max_outstanding`` quotas reject at submit time
(:class:`QuotaExceededError`); queue-depth backpressure surfaces through
``Job.send`` on not-yet-admitted jobs (block or
:class:`BackpressureError`, per ``backpressure=``).  Lifecycle metrics
live on :attr:`JobScheduler.stats` (:class:`SchedulerStats`).

One submission is one :class:`~repro.jobs.Job`: ``submit`` *prepares* it
through the engine (validated, wired, buffering ``send``), queues it, and
admission *launches that same object* on a leased deployment -- prepare ->
queue -> launch.  A scheduled job therefore costs the threads a direct one
does (its ``job-*`` driver) plus the shared dispatcher; callers
``send``/``results``/``wait`` identically, and
``Engine.submit(scheduler=...)`` routes through here so the in-process and
daemon (``repro serve``) paths share one code path.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.jobs import Job, JobState
from repro.mappings.base import DeploymentPool, InputSpec


class QuotaExceededError(RuntimeError):
    """A tenant's ``max_outstanding`` quota refused a submission."""


class BackpressureError(RuntimeError):
    """``Job.send`` on a queued job overflowed the scheduler's high-water mark."""


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission policy.

    ``weight`` scales the tenant's fair share of admission slots (a
    weight-3 tenant receives three slots for every one a weight-1 tenant
    gets, when both have work queued).  ``max_outstanding`` caps the
    tenant's queued+running jobs; further submissions raise
    :class:`QuotaExceededError` until jobs finish.  ``None`` leaves the
    tenant uncapped.
    """

    weight: float = 1.0
    max_outstanding: Optional[int] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"quota weight must be > 0, got {self.weight}")
        if self.max_outstanding is not None and self.max_outstanding < 1:
            raise ValueError(
                f"max_outstanding must be >= 1, got {self.max_outstanding}"
            )


class _QueuedJob:
    """One submission's admission-side record (scheduler-internal)."""

    __slots__ = (
        "job", "tenant", "priority", "seq", "submitted_at", "processes", "sent",
    )

    def __init__(self, job, tenant, priority, seq, processes):
        self.job = job
        self.tenant = tenant
        self.priority = priority
        self.seq = seq
        self.submitted_at = time.monotonic()
        self.processes = processes
        # Tuples sent ahead of the launch, metered against ``high_water``
        # under the scheduler lock; ``None`` once the gate is lifted (the
        # job launched, or reached a terminal state without launching).
        self.sent: Optional[int] = 0


class JobScheduler:
    """Fair-share admission of concurrent jobs over warm deployment pools.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.Engine` whose mappings, platform and
        defaults enact the jobs.  One scheduler per engine.
    max_concurrent:
        Global cap on concurrently enacting jobs (queued jobs wait).
    pool_size:
        Warm deployments kept per mapping (default: ``max_concurrent``).
    quotas:
        ``{tenant: TenantQuota}``; unlisted tenants get weight 1.0 and no
        outstanding cap.
    high_water:
        Max tuples ``Job.send`` accepts for a not-yet-admitted job (they
        wait in the job's own ingestion buffer).
    backpressure:
        What an over-high-water ``send`` does: ``"block"`` until the job is
        admitted and launched, or ``"error"`` (:class:`BackpressureError`).
    aging_interval:
        Seconds of queue wait worth one priority level -- smaller values
        age starved jobs upward faster.
    """

    def __init__(
        self,
        engine: Any,
        *,
        max_concurrent: int = 4,
        pool_size: Optional[int] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        high_water: int = 1024,
        backpressure: str = "block",
        aging_interval: float = 5.0,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        if pool_size is not None and pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if high_water < 1:
            raise ValueError(f"high_water must be >= 1, got {high_water}")
        if backpressure not in ("block", "error"):
            raise ValueError(
                f"backpressure must be 'block' or 'error', got {backpressure!r}"
            )
        if aging_interval <= 0:
            raise ValueError(f"aging_interval must be > 0, got {aging_interval}")
        self.engine = engine
        self.max_concurrent = max_concurrent
        self.pool_size = pool_size if pool_size is not None else max_concurrent
        self.quotas = dict(quotas or {})
        self.high_water = high_water
        self.backpressure = backpressure
        self.aging_interval = aging_interval
        from repro.scheduler.stats import SchedulerStats

        self.stats = SchedulerStats()
        self._cond = threading.Condition()
        self._queue: List[_QueuedJob] = []
        self._live: List[_QueuedJob] = []
        self._running_count = 0
        self._admitted_count: Dict[str, int] = {}
        self._seq = itertools.count()
        self._pools: Dict[str, DeploymentPool] = {}
        self._closed = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="job-scheduler", daemon=True
        )
        self._dispatcher.start()

    # ----------------------------------------------------------- submission
    def submit(
        self,
        workflow: Any,
        inputs: InputSpec = None,
        *,
        tenant: str = "default",
        priority: int = 0,
        deadline: Optional[float] = None,
        processes: Optional[int] = None,
        seed: Optional[int] = None,
        mapping: Optional[str] = None,
        time_scale: Optional[float] = None,
        **options: Any,
    ) -> Job:
        """Queue a workflow for admission and return its :class:`Job` now.

        The job is prepared here -- a bad ``inputs`` spec or an unenactable
        graph raises the same error ``Engine.submit`` would, before
        anything is queued -- and stays ``PENDING`` until admission leases
        it a deployment from the mapping's warm pool and launches it;
        ``send``/``close_input``/``results`` work immediately (sends wait
        in the job's ingestion buffer, bounded by the scheduler's
        high-water mark).  ``priority`` ranks the job within its ``tenant``
        (higher first, aged upward while waiting); ``deadline`` counts from
        *submission*, so it covers queue wait too.  Remaining parameters
        mirror :meth:`repro.engine.Engine.submit`.

        An admitted job holds its concurrency slot until its input closes
        and the run drains -- ``inputs`` seeds the stream but does *not*
        close it.  Batch-style callers should ``close_input()`` right
        after submitting (or ``wait()``, which closes first), otherwise an
        idle open-input job can hold a slot other queued jobs need.

        Raises :class:`QuotaExceededError` when the tenant is at its
        ``max_outstanding`` cap, ``RuntimeError`` on a closed scheduler or
        engine, and every refusal ``Engine.submit`` would raise (the
        mapping's ``prepare`` is the one legality gate) -- all
        synchronously, before the job is queued or counted.
        """
        # Prepared off the scheduler lock (planning can be slow): every
        # legality refusal raises here, before anything is queued.
        job, procs = self.engine._prepare_job(
            workflow, inputs, processes, seed, mapping, time_scale, deadline,
            options, stream=None, results_channel=True,
        )
        with self._cond:
            if self._closed:
                job.cancel()  # never handed out: disarm its deadline
                raise RuntimeError("JobScheduler is closed; create a new one")
            quota = self.quotas.get(tenant)
            if quota is not None and quota.max_outstanding is not None:
                outstanding = sum(
                    1 for r in self._queue + self._live if r.tenant == tenant
                )
                if outstanding >= quota.max_outstanding:
                    job.cancel()  # as above
                    self.stats.note_rejected()
                    raise QuotaExceededError(
                        f"tenant {tenant!r} has {outstanding} outstanding "
                        f"job(s), at its max_outstanding quota of "
                        f"{quota.max_outstanding}; wait for completions or "
                        f"raise the quota"
                    )
            record = _QueuedJob(job, tenant, float(priority), next(self._seq), procs)
            job._gate_send(functools.partial(self._gated_send, record))
            submitted_at = record.submitted_at
            job._set_first_result_hook(
                lambda: self.stats.note_first_result(
                    time.monotonic() - submitted_at
                )
            )
            self._queue.append(record)
            self.stats.note_submitted()
            # Registered once queued: a deadline that already expired fires
            # the hook at once, and finds the record where it looks for it.
            job._on_terminal(lambda j: self._job_terminal(record, j))
            self._cond.notify_all()
        # Tracked by the engine so Engine.close() cancels queued scheduler
        # jobs along with its own.
        self.engine._adopt_job(job)
        return job

    def prewarm(
        self,
        mapping: str,
        processes: Optional[int] = None,
        count: Optional[int] = None,
    ) -> int:
        """Deploy warm capacity for ``mapping`` ahead of submissions.

        Fills up to ``count`` of the mapping's pool slots (default: all
        ``pool_size`` of them) at ``processes`` workers each (default: the
        engine's configured process count).  Returns the number of
        deployments added.  Jobs admitted onto prewarmed deployments count
        ``deploy_warm`` -- the spin-up happened here, outside any job.
        """
        procs = processes if processes is not None else self.engine.config.processes
        try:
            return self._pool_for(mapping).prewarm(procs, self.engine.platform, count)
        finally:
            # Prewarming holds slots as "deploying" and hands them back
            # without an on_release: re-run admission for jobs queued behind.
            self._wake()

    # ------------------------------------------------------------ job wiring
    def _gated_send(
        self,
        record: _QueuedJob,
        send: Callable[[Any, Any], None],
        target: Any,
        tuples: Any,
    ) -> None:
        """``Job.send`` behind the high-water meter; a pass-through once launched."""
        if record.sent is None:
            send(target, tuples)
            return
        tuples = list(tuples)
        count = len(tuples)
        with self._cond:
            while record.sent is not None and record.sent + count > self.high_water:
                if self.backpressure == "error":
                    raise BackpressureError(
                        f"job {record.job.workflow!r} is not yet admitted "
                        f"and its send budget is used up ({record.sent} "
                        f"tuple(s) sent ahead of admission, "
                        f"high_water={self.high_water}); wait for "
                        f"admission or raise high_water"
                    )
                # Woken by launch, cancel, any terminal transition and close.
                self._cond.wait()
            if record.sent is not None:
                record.sent += count
        record.job._raise_if_failed()  # cancelled or failed while blocked
        try:
            send(target, tuples)
        except BaseException:
            with self._cond:
                if record.sent is not None:
                    record.sent -= count  # a refused send costs no budget
            raise

    def _job_terminal(self, record: _QueuedJob, job: Job) -> None:
        """The one terminal hook: leave the queue or free the slot, count it."""
        with self._cond:
            if record in self._queue:  # cancelled / deadline while queued
                self._queue.remove(record)
                self.stats.note_dequeued()
            else:
                self._live.remove(record)
                self.stats.note_slot_released()
                self._running_count -= 1
            record.sent = None
            self._cond.notify_all()
        outcome = {
            JobState.DONE: "done",
            JobState.FAILED: "failed",
        }.get(job.state, "cancelled")
        self.stats.note_terminal(outcome)

    # ------------------------------------------------------------ dispatcher
    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                record = None
                while not self._closed:
                    record = self._pick_locked(time.monotonic())
                    if record is not None:
                        break
                    # Untimed: aging only reorders the queue at pick time,
                    # and every event that can make a pick succeed (submit,
                    # slot freed, pool release, prewarm, close) notifies.
                    self._cond.wait()
                if self._closed:
                    return
                self._queue.remove(record)
                self._live.append(record)
                self._running_count += 1
                self._admitted_count[record.tenant] = (
                    self._admitted_count.get(record.tenant, 0) + 1
                )
                # Under the lock with the move to ``_live``: a cancel landing
                # now releases the slot in ``_job_terminal`` *after* this count.
                self.stats.note_admitted(
                    record.tenant, time.monotonic() - record.submitted_at
                )
            self._admit(record)

    def _pick_locked(self, now: float) -> Optional[_QueuedJob]:
        """The next record to admit, or ``None`` (holding the scheduler lock).

        Weighted-deficit fair share across tenants, priority-with-aging
        within the winner; a mapping whose pool has no free slot makes its
        jobs temporarily inadmissible without blocking other mappings.
        """
        if self._running_count >= self.max_concurrent:
            return None
        eligible: Dict[str, List[_QueuedJob]] = {}
        for record in self._queue:
            pool = self._pools.get(record.job.mapping)
            if pool is not None and pool.free_slots() == 0:
                continue
            eligible.setdefault(record.tenant, []).append(record)
        if not eligible:
            return None
        considered = set(eligible) | {r.tenant for r in self._live}
        weight = {t: self._weight(t) for t in considered}
        total_weight = sum(weight.values())
        total_admitted = sum(self._admitted_count.get(t, 0) for t in considered)

        def deficit(tenant: str) -> float:
            share = weight[tenant] / total_weight
            return total_admitted * share - self._admitted_count.get(tenant, 0)

        tenant = max(
            eligible,
            key=lambda t: (
                deficit(t),
                weight[t],
                -min(r.seq for r in eligible[t]),
            ),
        )

        def effective(record: _QueuedJob) -> float:
            waited = max(0.0, now - record.submitted_at)
            return record.priority + waited / self.aging_interval

        return max(eligible[tenant], key=lambda r: (effective(r), -r.seq))

    def _weight(self, tenant: str) -> float:
        quota = self.quotas.get(tenant)
        return quota.weight if quota is not None else 1.0

    def _admit(self, record: _QueuedJob) -> None:
        """Lease a deployment and launch the job on it (off the scheduler lock)."""
        job = record.job
        pool = self._pool_for(job.mapping)
        deployment = None
        try:
            deployment, _busy = pool.try_acquire(
                record.processes, self.engine.platform
            )
            launched = job._launch(deployment)  # False: cancelled meanwhile
        except BaseException as exc:  # noqa: BLE001 - admission boundary
            job._fail(exc)  # the lease failed (a failed launch already did this)
            launched = False
        if launched and deployment is not None:
            job._on_terminal(
                lambda j: pool.release(deployment, reusable=j.state is JobState.DONE)
            )
        elif deployment is not None:
            # Never touched: its warmth survives for the next job.
            pool.release(deployment, reusable=True)
        with self._cond:
            record.sent = None
            self._cond.notify_all()

    def _pool_for(self, name: str) -> DeploymentPool:
        with self._cond:
            pool = self._pools.get(name)
            if pool is None:
                pool = DeploymentPool(
                    self.engine._engine_for(name),
                    size=self.pool_size,
                    on_release=self._wake,
                )
                if self._closed:
                    pool.close()  # a straggling admission leases nothing
                else:
                    self._pools[name] = pool
        return pool

    def _wake(self) -> None:
        with self._cond:
            self._cond.notify_all()

    # -------------------------------------------------------------- context
    def close(self, grace: float = 5.0) -> None:
        """Cancel queued and live jobs, tear down the pools.  Idempotent.

        Queued jobs resolve ``CANCELLED`` without ever enacting; live jobs
        are cancelled and given ``grace`` seconds to unwind before their
        deployments are torn down.
        """
        with self._cond:
            already = self._closed
            self._closed = True
            records = self._queue + self._live
            pools, self._pools = list(self._pools.values()), {}
            self._cond.notify_all()
        if already and not (records or pools):
            return
        for record in records:
            record.job.cancel(reason="scheduler closed")
        for record in records:
            record.job._terminal.wait(timeout=grace)
        for pool in pools:
            pool.close()
        self._dispatcher.join(timeout=grace)

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        with self._cond:
            state = "closed" if self._closed else "open"
            return (
                f"JobScheduler(max_concurrent={self.max_concurrent}, "
                f"pool_size={self.pool_size}, queued={len(self._queue)}, "
                f"running={self._running_count}, {state})"
            )
