"""Static Multiprocessing mapping (the paper's ``multi`` baseline).

The native dispel4py parallel mapping: the abstract workflow is statically
partitioned (Figure 1 rule, :mod:`repro.core.partition`), every PE instance
gets a dedicated worker with a private input queue, and data flows
port-to-port.  Termination uses counted poison pills: each finishing
upstream instance sends one pill to every downstream instance, and an
instance closes an input port after collecting one pill per producer
instance.

Characteristics the evaluation relies on:

- handles stateful PEs and groupings natively (each instance is a dedicated
  worker holding local state) -- "an appropriate baseline for all
  experimentation";
- needs at least one process per instance
  (:class:`~repro.core.exceptions.InsufficientProcessesError` below the
  minimum -- Seismic forces 12, Sentiment forces 14);
- static allocation wastes leftover processes and cannot adapt to skewed
  loads, which is what dynamic scheduling improves on.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.autoscale.trace import ScalingTrace
from repro.core.concrete import ConcreteWorkflow
from repro.core.partition import minimum_processes
from repro.mappings.base import (
    EnactmentState,
    Mapping,
    dispatch_emissions,
    instantiate,
    live_feeder,
    resolve_batch_size,
    run_workers,
)
from repro.mappings.registry import Capabilities, register_mapping
from repro.runtime.queues import (
    POISON_PILL,
    BatchingBuffer,
    CloseableQueue,
    Empty,
    batch_items,
)

#: Message tags on instance queues.
_DATA = "data"
_PILL = "pill"
#: Dropped on every instance queue and live channel when the job is
#: cancelled, to wake workers blocked in ``get()``; never interpreted -- a
#: worker checks the cancel flag before looking at what it received.
_CANCEL_WAKE = ("cancel", None, None)


class _WorkerCancelled(BaseException):
    """Internal: a worker observed the job's cancel flag."""


@register_mapping(
    Capabilities(
        stateful=True,
        batching=True,
        streaming=True,
        description="Static Multiprocessing baseline (one process per instance)",
    )
)
class MultiMapping(Mapping):
    """Static one-instance-per-process enactment.

    Every *source* instance reads a private input channel fed round-robin:
    filled and pilled before the workers start on a one-shot run, fed by
    the live :class:`~repro.mappings.base.LiveFeed` and pilled at
    ``close_input`` on a streaming one.  After that pill the usual
    counted-pill termination cascades downstream.  Workers run on the
    session's warm pool (cold: on threads of their own) and block in
    ``get()``, flushing their batched outbox first; cancellation wakes
    each with a marker message, and a cancelled worker still closes its
    downstream ports so no peer blocks on a dead producer.
    """

    name = "multi"

    #: One process per PE instance of the static allocation.
    process_floor = staticmethod(minimum_processes)

    def _enact(self, state: EnactmentState) -> Optional[ScalingTrace]:
        graph = state.graph
        concrete = ConcreteWorkflow.from_static(graph, state.processes)
        allocation = concrete.allocation
        batch_size = resolve_batch_size(state.options)
        state.counters.inc("instances", concrete.total_instances())
        state.counters.inc("idle_processes", state.processes - concrete.total_instances())

        queues: Dict[Tuple[str, int], CloseableQueue] = {
            (name, idx): CloseableQueue()
            for name, count in allocation.items()
            for idx in range(count)
        }

        # Expected pills per (instance, port): one per upstream instance per
        # in-edge.  Pills are broadcast to *all* destination instances
        # regardless of grouping, so every instance can prove closure.
        expected_pills: Dict[Tuple[str, int], Dict[str, int]] = {}
        for name, count in allocation.items():
            per_port: Dict[str, int] = {}
            for edge in graph.in_edges(name):
                per_port[edge.dst_port] = per_port.get(edge.dst_port, 0) + allocation[edge.src]
            for idx in range(count):
                expected_pills[(name, idx)] = dict(per_port)

        send_lock = threading.Lock()

        def send(dst: str, dst_index: int, message: Any) -> None:
            # Queue transfer cost is charged to the sender (as a pickle +
            # pipe write would be), once per queue item -- a batch envelope
            # is one transfer; no core is held while waiting.
            if state.platform.queue_latency > 0:
                state.ctx.io_wait(state.platform.queue_latency)
            queues[(dst, dst_index)].put(message)
            state.counters.inc("queue_puts")

        def make_deliver():
            """Per-worker delivery path: direct sends, or batched via a
            worker-local :class:`BatchingBuffer` per destination instance.

            Buffers are worker-owned (no locking on the hot path).  The
            returned ``flush`` runs whenever the worker is about to wait
            for input -- so a tuple is held only while its producer is busy
            -- and before the worker's pills go out, so end-of-stream never
            overtakes buffered tuples on the same FIFO channel.
            """
            if batch_size <= 1:
                return send, lambda: None
            buffers: Dict[Tuple[str, int], BatchingBuffer] = {}

            def deliver(dst: str, dst_index: int, message: Any) -> None:
                key = (dst, dst_index)
                buffer = buffers.get(key)
                if buffer is None:
                    buffer = buffers[key] = BatchingBuffer(
                        lambda item: send(dst, dst_index, item), batch_size
                    )
                buffer.add(message)

            def flush() -> None:
                for buffer in buffers.values():
                    buffer.flush()

            return deliver, flush

        def broadcast_pills(pe_name: str) -> None:
            """A finished instance closes every downstream instance's port."""
            with send_lock:
                for edge in graph.out_edges(pe_name):
                    for dst_index in range(allocation[edge.dst]):
                        send(edge.dst, dst_index, (_PILL, edge.dst_port, None))
                        state.counters.inc("pills")

        def route_out(
            pe_name: str, index: int, emissions: List[Tuple[str, Any]], deliver
        ) -> None:
            for dst, dst_port, dst_index, data in dispatch_emissions(
                concrete, state.collector, pe_name, index, emissions
            ):
                deliver(dst, dst_index, (_DATA, dst_port, data))

        # Every source instance reads its own inputs from a private channel,
        # fed round-robin (item i to instance i mod n) and ended by one pill:
        # filled and closed up front for a one-shot run, by the live feed
        # below for a streaming one.
        channels: Dict[Tuple[str, int], CloseableQueue] = {
            (root, idx): CloseableQueue()
            for root in state.provided
            for idx in range(allocation[root])
        }
        rr: Dict[str, int] = {}

        def feed_sink(root: str, item: Dict[str, Any]) -> None:
            index = rr.get(root, 0)
            rr[root] = index + 1
            channels[(root, index % allocation[root])].put(item)

        def feed_close() -> None:
            for channel in channels.values():
                channel.close(1)

        def worker(pe_name: str, index: int) -> None:
            worker_id = f"{pe_name}.{index}"
            deliver, flush_outbox = make_deliver()

            def receive(source: CloseableQueue) -> Any:
                # Flush exactly when about to wait: a buffered tuple waits
                # only while this producer is busy.
                try:
                    item = source.get_nowait()
                except Empty:
                    flush_outbox()
                    item = source.get()
                if state.cancelled():
                    raise _WorkerCancelled()
                return item

            try:
                instance = instantiate(graph.pe(pe_name), index, allocation[pe_name], state.ctx)
                instance.preprocess()
                channel = channels.get((pe_name, index))
                if channel is not None:
                    for item in iter(lambda: receive(channel), POISON_PILL):
                        emissions = instance._invoke(item)
                        state.counters.inc("tasks")
                        route_out(pe_name, index, emissions, deliver)
                remaining = dict(expected_pills[(pe_name, index)])
                queue = queues[(pe_name, index)]
                while any(v > 0 for v in remaining.values()):
                    # A queue item is a message or a batch envelope of
                    # messages; iterate without re-polling per tuple.
                    for tag, port, payload in batch_items(receive(queue)):
                        if tag == _PILL:
                            remaining[port] -= 1
                            continue
                        emissions = instance._invoke({port: payload})
                        state.counters.inc("tasks")
                        route_out(pe_name, index, emissions, deliver)
                route_out(pe_name, index, instance._flush_postprocess(), deliver)
                # Flush buffered tuples BEFORE the pills: per-queue FIFO
                # then guarantees no consumer sees end-of-stream with our
                # data still buffered behind it.
                flush_outbox()
                broadcast_pills(pe_name)
            except _WorkerCancelled:
                # Abandon in-flight data, but still close downstream so no
                # peer blocks on a producer that will never finish.
                try:
                    broadcast_pills(pe_name)
                except BaseException as exc:  # pragma: no cover
                    state.record_error(exc)
            except BaseException as exc:  # noqa: BLE001 - worker boundary
                state.record_error(exc)
                # Close downstream anyway so peers do not hang on a dead
                # producer; the error is re-raised after the run.
                try:
                    flush_outbox()
                    broadcast_pills(pe_name)
                except BaseException as cleanup_exc:  # pragma: no cover
                    state.record_error(cleanup_exc)
            finally:
                state.meter.deactivate(worker_id)

        # Metered from launch initiation, not first schedule: the spawn
        # stagger is a substrate artifact, and a static process is active
        # from launch to termination (accounting module docs).
        for name, idx in concrete.all_instances():
            state.meter.activate(f"{name}.{idx}")

        calls = [
            (f"multi-{name}.{idx}", worker, (name, idx))
            for name, idx in concrete.all_instances()
        ]
        if not state.streaming:
            for root, items in state.provided.items():
                for item in items:
                    feed_sink(root, item)
            feed_close()
            run_workers(state, calls)
            return None

        def wake_workers() -> None:
            for blocked_on in (*queues.values(), *channels.values()):
                blocked_on.put(_CANCEL_WAKE)

        state.control.on_cancel(wake_workers)

        def live_sink(root: str, item: Dict[str, Any]) -> None:
            feed_sink(root, item)
            state.counters.inc("stream_inputs")

        # The *feed* stage: drain initial inputs into the live channels
        # (lazily, while workers already consume), then forward sends until
        # close_input pills the channels.
        def run_feed() -> None:
            try:
                state.feed.attach(live_sink, feed_close)
            except BaseException as exc:  # noqa: BLE001 - feed boundary
                # A failing input iterable must not strand the workers:
                # close the channels so they drain out, and surface the
                # error through the normal error path.
                state.record_error(exc)
                feed_close()

        with live_feeder(state, run_feed):
            run_workers(state, calls)
        return None
