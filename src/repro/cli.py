"""Command-line interface.

Examples::

    # run a workflow with a mapping (auto-selects one by default)
    repro run galaxy --mapping auto --processes 10 --scale 1
    repro run sentiment --mapping hybrid_redis --processes 14

    # regenerate one paper artifact
    repro bench fig08
    repro bench table3

    # explain what the planner would fuse, with measured costs (no enactment)
    repro plan sentiment
    repro run galaxy --optimize --processes 8

    # list what is available (includes the mapping capability table)
    repro list

    # networked substrate: serve a RESP keyspace, join a run from outside
    repro serve-redis --port 6399
    repro run sentiment-scoring --mapping cluster_redis --address 127.0.0.1:6399
    repro join 127.0.0.1:6399 repro:my-run --index 5

    # multi-job daemon: clients submit named workflows, feed tuples and
    # stream results over line-JSON/TCP (wire protocol: docs/cli.md)
    repro serve --port 6388 --max-jobs 4
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.bench.experiments import get_experiment, list_experiments
from repro.bench.harness import BenchConfig
from repro.engine import Engine
from repro.mappings import capability_table, mapping_names
from repro.platforms.profiles import get_platform
from repro.scheduler.catalog import (
    build_named_workflow,
    workflow_names,
    workflow_params,
)


def _build_workflow(name: str, args: argparse.Namespace):
    """Build a catalog workflow from the CLI's workload flags."""
    params = {key: getattr(args, key) for key in workflow_params(name)}
    return build_named_workflow(name, **params)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stream-based workflow engine with auto-scaling and "
        "stateful hybrid mappings (WORKS 2023 reproduction).",
        epilog="Transport levers: --batch-size amortizes per-tuple queue/"
        "stream costs; --fuse removes hops entirely by collapsing 1:1 PE "
        "chains into in-process fused operators (see README, 'Operator "
        "fusion'); --stream consumes results as they are produced through "
        "the streaming Job API (see README, 'Streaming sessions').",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one workflow with one mapping")
    run_p.add_argument("workflow", choices=workflow_names())
    run_p.add_argument(
        "--mapping",
        default="auto",
        choices=["auto", *mapping_names()],
        help="enactment mapping; 'auto' selects by workflow capability",
    )
    run_p.add_argument("--processes", type=int, default=8)
    run_p.add_argument("--platform", default="laptop")
    run_p.add_argument("--time-scale", type=float, default=0.02)
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument("--scale", type=int, default=1, help="galaxy workload multiplier")
    run_p.add_argument("--heavy", action="store_true", help="galaxy heavy variant")
    run_p.add_argument("--stations", type=int, default=50)
    run_p.add_argument("--articles", type=int, default=200)
    run_p.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint pinned stateful instances every N deliveries "
        "(enables crash recovery on recoverable mappings)",
    )
    run_p.add_argument(
        "--batch-size",
        type=int,
        default=1,
        metavar="N",
        help="micro-batch up to N tuples per queue/stream operation "
        "(1 = unbatched transport, identical to the classic engine)",
    )
    run_p.add_argument(
        "--address",
        default=None,
        metavar="HOST:PORT",
        help="RESP server address for networked mappings (cluster_redis); "
        "omit to self-provision a loopback server",
    )
    run_p.add_argument(
        "--fuse",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="collapse fusable 1:1 PE chains into in-process fused "
        "operators before enactment (--no-fuse, the default, runs the "
        "graph as written)",
    )
    run_p.add_argument(
        "--optimize",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="run the graph planner (chain fusion; no profiling) before "
        "enactment; outputs are unchanged by contract -- see 'repro plan' "
        "for the profiled explanation",
    )
    output_mode = run_p.add_mutually_exclusive_group()
    output_mode.add_argument(
        "--stream",
        action="store_true",
        help="submit as a streaming job and print results as they arrive "
        "(live ingestion on mappings with the 'stream' capability, "
        "buffered elsewhere)",
    )
    output_mode.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable JSON run summary (mapping, timings, "
        "counters, output sizes) instead of the human-readable report",
    )

    plan_p = sub.add_parser(
        "plan",
        help="explain what the planner would fuse in a workflow, with "
        "per-PE costs measured by a profiling dry-run",
    )
    plan_p.add_argument("workflow", choices=workflow_names())
    plan_p.add_argument("--platform", default="laptop")
    plan_p.add_argument("--seed", type=int, default=0)
    plan_p.add_argument("--scale", type=int, default=1, help="galaxy workload multiplier")
    plan_p.add_argument("--heavy", action="store_true", help="galaxy heavy variant")
    plan_p.add_argument("--stations", type=int, default=50)
    plan_p.add_argument("--articles", type=int, default=200)

    bench_p = sub.add_parser("bench", help="regenerate one paper figure/table")
    bench_p.add_argument("experiment", choices=list_experiments())
    bench_p.add_argument("--time-scale", type=float, default=None)
    bench_p.add_argument("--repeats", type=int, default=1)

    sub.add_parser("list", help="list workflows, mappings and experiments")

    serve_p = sub.add_parser(
        "serve-redis",
        help="serve the in-memory keyspace over RESP/TCP (redisim daemon)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=6399, help="0 picks an ephemeral port"
    )

    join_p = sub.add_parser(
        "join",
        help="join a cluster_redis run as an external worker process",
    )
    join_p.add_argument("address", metavar="HOST:PORT")
    join_p.add_argument("namespace", help="run namespace, e.g. repro:sentiment:ab12cd34")
    join_p.add_argument(
        "--index", type=int, default=0, help="worker index (names the consumer)"
    )

    daemon_p = sub.add_parser(
        "serve",
        help="serve the multi-job scheduler over line-JSON/TCP (repro daemon)",
        description="Run a JobScheduler daemon: clients submit catalog "
        "workflows, feed tuples and stream results over a newline-"
        "delimited JSON protocol (see docs/cli.md) without importing the "
        "library.",
    )
    daemon_p.add_argument("--host", default="127.0.0.1")
    daemon_p.add_argument(
        "--port", type=int, default=6388, help="0 picks an ephemeral port"
    )
    daemon_p.add_argument("--processes", type=int, default=8)
    daemon_p.add_argument("--platform", default="laptop")
    daemon_p.add_argument("--time-scale", type=float, default=0.02)
    daemon_p.add_argument("--seed", type=int, default=0)
    daemon_p.add_argument(
        "--max-jobs",
        type=int,
        default=4,
        metavar="N",
        help="admission cap: at most N jobs enact concurrently",
    )
    daemon_p.add_argument(
        "--pool-size",
        type=int,
        default=None,
        metavar="N",
        help="warm deployments kept per mapping (default: --max-jobs)",
    )
    daemon_p.add_argument(
        "--high-water",
        type=int,
        default=1024,
        metavar="N",
        help="max tuples a queued job may buffer before backpressure",
    )
    daemon_p.add_argument(
        "--backpressure",
        choices=["block", "error"],
        default="block",
        help="what an over-high-water send does while a job waits for "
        "admission",
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    graph, inputs = _build_workflow(args.workflow, args)
    extra = {"address": args.address} if args.address else {}
    engine = Engine(
        mapping=args.mapping,
        platform=get_platform(args.platform),
        processes=args.processes,
        time_scale=args.time_scale,
        seed=args.seed,
        batch_size=args.batch_size,
        fuse=args.fuse,
        optimize=args.optimize,
        checkpoint_interval=args.checkpoint_interval,
        **extra,
    )
    if args.json:
        # Machine-readable mode: the summary is the only stdout output.
        result = engine.run(graph, inputs=inputs)
        print(json.dumps(result.summary(), indent=2, sort_keys=True))
        return 0
    if args.mapping == "auto":
        print(f"auto-selected mapping: {engine.resolve_mapping(graph)}")
    if args.stream:
        job = engine.submit(graph, inputs=inputs)
        job.close_input()
        streamed = 0
        for key, value in job.results():
            streamed += 1
            print(f"  -> {key}: {value!r}")
        result = job.wait()
        print(
            f"streamed     = {streamed} data units as they arrived "
            f"({'live' if job.streaming else 'buffered'} ingestion)"
        )
        engine.close()
    else:
        result = engine.run(graph, inputs=inputs)
    print(
        f"workflow={result.workflow} mapping={result.mapping} "
        f"processes={result.processes}"
    )
    print(f"runtime      = {result.runtime:.3f} s (real, time_scale={args.time_scale})")
    print(f"process time = {result.process_time:.3f} s")
    print(f"outputs      = {result.total_outputs()} data units")
    fused_chains = result.counters.get("fused_chains", 0)
    if fused_chains:
        print(
            f"fusion       = {fused_chains} chain(s), "
            f"{result.counters.get('fused_members', 0)} PEs collapsed"
        )
    planner_rules = result.counters.get("planner_rules", 0)
    if planner_rules:
        print(f"optimizer    = {planner_rules} rewrite rule(s) fired")
    top = result.top_pes(3)
    if top:
        ranked = ", ".join(f"{name} {seconds:.3f}s" for name, seconds in top)
        print(f"top PEs      = {ranked}")
    for key, values in sorted(result.outputs.items()):
        print(f"  {key}: {len(values)} items")
    if result.trace is not None:
        if len(result.trace):
            print(
                f"auto-scaler  = {len(result.trace)} iterations, "
                f"active size range [{result.trace.min_active()}, "
                f"{result.trace.max_active()}]"
            )
        events = result.trace.events
        if events:
            print(f"recovery     = {len(events)} events")
            for event in events:
                print(f"  t={event.timestamp:.3f} {event.kind}: {event.detail}")
    checkpoints = result.counters.get("checkpoints", 0)
    if checkpoints:
        print(
            f"checkpoints  = {checkpoints} taken, "
            f"{result.counters.get('restores', 0)} restores, "
            f"{result.counters.get('crashes', 0)} crashes"
        )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.mappings.base import normalize_inputs
    from repro.planner import Planner

    graph, inputs = _build_workflow(args.workflow, args)
    provided = normalize_inputs(graph, inputs)
    plan = Planner.default().plan(
        graph,
        provided=provided,
        platform=get_platform(args.platform),
        seed=args.seed,
    )
    print(plan.explain())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    experiment = get_experiment(args.experiment)
    config = experiment.config
    if args.time_scale is not None or args.repeats != 1:
        config = BenchConfig(
            time_scale=args.time_scale or config.time_scale,
            repeats=args.repeats,
        )
    report, _grids = experiment.run_and_report(config)
    print(report)
    return 0


#: ``repro list`` capability columns: header -> cell renderer.
_CAPABILITY_COLUMNS = (
    ("name", lambda name, caps: name),
    ("stateful", lambda name, caps: "yes" if caps.stateful else "no"),
    ("redis", lambda name, caps: "yes" if caps.requires_redis else "no"),
    ("autoscale", lambda name, caps: "yes" if caps.autoscaling else "no"),
    ("dynamic", lambda name, caps: "yes" if caps.dynamic else "no"),
    ("recover", lambda name, caps: "yes" if caps.recoverable else "no"),
    ("batch", lambda name, caps: "yes" if caps.batching else "no"),
    ("stream", lambda name, caps: "yes" if caps.streaming else "no"),
    ("net", lambda name, caps: "yes" if caps.networked else "no"),
)


def _cmd_list(_args: argparse.Namespace) -> int:
    print("workflows  :", ", ".join(workflow_names()))
    print("experiments:", ", ".join(list_experiments()))
    print("mappings   :")
    rows = capability_table()
    # Column widths come from the registry's actual contents (longest
    # registered name / cell, headers included), so out-of-tree backends
    # with long names can never shear the table.
    widths = [
        max(len(header), *(len(render(name, caps)) for name, caps in rows))
        for header, render in _CAPABILITY_COLUMNS
    ]
    cells = [header.ljust(width) for (header, _), width in zip(_CAPABILITY_COLUMNS, widths)]
    print("  " + " ".join(cells) + " description")
    for name, caps in rows:
        cells = [
            render(name, caps).ljust(width)
            for (_, render), width in zip(_CAPABILITY_COLUMNS, widths)
        ]
        print("  " + " ".join(cells) + " " + caps.description)
    return 0


def _cmd_serve_redis(args: argparse.Namespace) -> int:
    from repro.net.server import RespTCPServer

    server = RespTCPServer(host=args.host, port=args.port).start()
    print(f"redisim serving RESP on {server.address} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _cmd_join(args: argparse.Namespace) -> int:
    from repro.mappings.cluster import run_worker

    print(f"joining {args.address} namespace={args.namespace} index={args.index}")
    run_worker(args.address, args.namespace, args.index)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.scheduler import JobScheduler, SchedulerService

    engine = Engine(
        mapping="auto",
        platform=get_platform(args.platform),
        processes=args.processes,
        time_scale=args.time_scale,
        seed=args.seed,
    )
    scheduler = JobScheduler(
        engine,
        max_concurrent=args.max_jobs,
        pool_size=args.pool_size,
        high_water=args.high_water,
        backpressure=args.backpressure,
    )
    service = SchedulerService(scheduler, host=args.host, port=args.port).start()
    # Flushed immediately so wrappers (tests, orchestrators) spawning the
    # daemon as a subprocess can read the bound address without a TTY.
    print(
        f"repro scheduler serving line-JSON on {service.address} "
        f"(Ctrl-C to stop)",
        flush=True,
    )
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
        scheduler.close()
        engine.close()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "plan": _cmd_plan,
        "bench": _cmd_bench,
        "list": _cmd_list,
        "serve-redis": _cmd_serve_redis,
        "serve": _cmd_serve,
        "join": _cmd_join,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
