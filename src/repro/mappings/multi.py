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
    marshal,
    resolve_batch_linger,
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
        fusion=True,
        streaming=True,
        description="Static Multiprocessing baseline (one process per instance)",
    )
)
class MultiMapping(Mapping):
    """Static one-instance-per-process enactment.

    Streaming submissions give every *source* instance a private input
    channel fed round-robin by the live :class:`~repro.mappings.base.
    LiveFeed`; the channel's poison pill (sent at ``close_input``) plays
    the role the exhausted input share plays in the one-shot path, after
    which the usual counted-pill termination cascades downstream.  Workers
    run on the session's warm pool (cold: on threads of their own) and
    block in ``get()``; cancellation wakes each with a marker message, and
    a cancelled worker still closes its downstream ports so no peer blocks
    on a dead producer.
    """

    name = "multi"

    #: One process per PE instance of the static allocation.
    process_floor = staticmethod(minimum_processes)

    def _enact(self, state: EnactmentState) -> Optional[ScalingTrace]:
        graph = state.graph
        concrete = ConcreteWorkflow.from_static(graph, state.processes)
        allocation = concrete.allocation
        batch_size = resolve_batch_size(state.options)
        batch_linger = resolve_batch_linger(state.options)
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

            Buffers are worker-owned (no locking on the hot path); the
            returned ``flush`` MUST run before the worker's pills go out,
            so end-of-stream can never overtake buffered tuples on the
            same channel (FIFO per queue then guarantees pill-after-data).
            The third element, ``poll``, is non-None when a linger bound is
            set: the worker calls it while idle so a buffered tail honours
            the bound even with no further traffic to that destination.
            """
            if batch_size <= 1:
                return send, lambda: None, None
            buffers: Dict[Tuple[str, int], BatchingBuffer] = {}

            def deliver(dst: str, dst_index: int, message: Any) -> None:
                key = (dst, dst_index)
                buffer = buffers.get(key)
                if buffer is None:
                    buffer = BatchingBuffer(
                        lambda item, _key=key: send(_key[0], _key[1], item),
                        batch_size=batch_size,
                        linger=batch_linger,
                    )
                    # Attached so a close() of the destination channel can
                    # never strand (or outrace) a buffered tail tuple.
                    queues[key].attach_buffer(buffer)
                    buffers[key] = buffer
                buffer.add(message)

            def flush() -> None:
                for buffer in buffers.values():
                    buffer.flush()

            def poll() -> None:
                for buffer in buffers.values():
                    buffer.poll()

            return deliver, flush, (poll if batch_linger > 0 else None)

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
            for delivery in dispatch_emissions(
                concrete, state.collector, pe_name, index, emissions
            ):
                deliver(delivery.dst, delivery.dst_index, (_DATA, delivery.dst_port, marshal(delivery.data)))

        streaming = state.streaming
        root_shares: Dict[Tuple[str, int], List[Dict[str, Any]]] = {}
        channels: Dict[Tuple[str, int], CloseableQueue] = {}
        if streaming:
            # Source instances read from private live-input channels instead
            # of pre-split shares; the feed round-robins across instances
            # exactly as split_inputs does below.
            for root in state.provided:
                for idx in range(allocation[root]):
                    channels[(root, idx)] = CloseableQueue()
        else:

            def split_inputs(items: List[Dict[str, Any]], count: int) -> List[List[Dict[str, Any]]]:
                shares: List[List[Dict[str, Any]]] = [[] for _ in range(count)]
                for i, item in enumerate(items):
                    shares[i % count].append(item)
                return shares

            for root, items in state.provided.items():
                shares = split_inputs(items, allocation[root])
                for idx, share in enumerate(shares):
                    root_shares[(root, idx)] = share

        def worker(pe_name: str, index: int) -> None:
            worker_id = f"{pe_name}.{index}"
            deliver, flush_outbox, poll_outbox = make_deliver()

            def receive(source: CloseableQueue) -> Any:
                if poll_outbox is None:
                    item = source.get()
                else:
                    # Wake at the linger cadence so a buffered tail
                    # flushes on deadline even while we are starved of
                    # input (the documented upper bound on buffering).
                    while True:
                        try:
                            item = source.get(timeout=batch_linger)
                            break
                        except Empty:
                            poll_outbox()
                if state.cancelled():
                    raise _WorkerCancelled()
                return item

            try:
                instance = instantiate(graph.pe(pe_name), index, allocation[pe_name], state.ctx)
                instance.preprocess()
                # A source instance's own inputs: its pre-split share, or
                # its live channel up to the pill close_input sends.
                channel = channels.get((pe_name, index))
                if channel is None:
                    own_inputs = root_shares.get((pe_name, index), ())
                else:
                    own_inputs = iter(lambda: receive(channel), POISON_PILL)
                for item in own_inputs:
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
        if not streaming:
            run_workers(state, calls)
            return None

        def wake_workers() -> None:
            for blocked_on in (*queues.values(), *channels.values()):
                blocked_on.put(_CANCEL_WAKE)

        state.control.on_cancel(wake_workers)

        # The *feed* stage: drain initial inputs into the live channels
        # (lazily, while workers already consume), then forward sends until
        # close_input pills the channels.
        rr: Dict[str, int] = {}

        def feed_sink(root: str, item: Dict[str, Any]) -> None:
            index = rr.get(root, 0)
            rr[root] = index + 1
            channels[(root, index % allocation[root])].put(item)
            state.counters.inc("stream_inputs")

        def feed_close() -> None:
            for channel in channels.values():
                channel.close(1)

        def run_feed() -> None:
            try:
                state.feed.attach(feed_sink, feed_close)
            except BaseException as exc:  # noqa: BLE001 - feed boundary
                # A failing input iterable must not strand the workers:
                # close the channels so they drain out, and surface the
                # error through the normal error path.
                state.record_error(exc)
                feed_close()

        with live_feeder(state, run_feed):
            run_workers(state, calls)
        return None
