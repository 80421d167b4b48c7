"""A settable value lands with its first non-test caller.

Two surfaces are pinned.

**Mapping options.**  A mapping option is a key read from a run's options
under ``src/repro/mappings`` (``options.get("…")``, ``options["…"]`` or
``options.pop("…")``).  Unknown keys pass through silently --
``mapping="auto"`` forwards every option to whichever mapping it picks --
so an option that stops being read must be refused by name
(:data:`repro.mappings.registry.REMOVED_OPTIONS`), and one that starts
being read lands here with its first caller.

**Constructor keyword parameters.**  Every defaulted parameter of a public
class's ``__init__`` under ``src/repro`` -- a hand-written one, or the one
``@dataclass`` generates from the class's fields (``ClassVar`` and
``init=False`` fields are not parameters) -- must be set by some call outside
``tests/`` -- in ``src/``, ``benchmarks/``, ``scripts/`` or ``examples/``
-- or carry a reason in :data:`EXEMPT` (``repro.workflows`` is exempt
whole, as workflow knobs).  A call sets a parameter when it
names the class (or ``cls`` inside it, or ``super().__init__`` in a
subclass) and passes the parameter by keyword or by position.  The
constructors these rules trimmed are also pinned to their exact
signatures.
"""

import ast
import inspect
import re
from pathlib import Path

import repro
import repro.mappings
import repro.scheduler
from repro.autoscale.autoscaler import Autoscaler
from repro.autoscale.strategies import (
    BacklogStrategy,
    IdleTimeStrategy,
    QueueSizeStrategy,
    RateStrategy,
)
from repro.bench.experiments import Experiment
from repro.bench.harness import BenchConfig
from repro.core.fusion import FusedPE
from repro.engine import Engine
from repro.mappings.base import EnactmentState
from repro.mappings.redis_tasks import RedisTaskBoard
from repro.mappings.registry import REMOVED_OPTIONS
from repro.net.client import SocketRedisClient
from repro.redisim.client import RedisClient
from repro.runtime.queues import CloseableQueue
from repro.scheduler import JobScheduler

READ = re.compile(r'options\.(?:get|pop)\(\s*"(\w+)"|options\[\s*"(\w+)"\s*\]')

#: Every option a mapping reads.
OPTIONS = {
    "address",
    "batch_size",
    "checkpoint_interval",
    "crash_after",
    "crash_injector",
    "crash_workers",
    "fuse",
    "namespace",
    "net_server",
    "optimize",
    "redis_server",
    "start_method",
    "state_store",
    "strategy",
    "termination",
}


def read_keys():
    package = Path(repro.mappings.__file__).parent
    return {
        first or second
        for path in package.glob("*.py")
        for first, second in READ.findall(path.read_text(encoding="utf-8"))
    }


def test_mappings_read_exactly_the_listed_options():
    assert read_keys() == OPTIONS


def test_no_removed_option_is_read():
    assert read_keys() & REMOVED_OPTIONS.keys() == set()
    assert set(REMOVED_OPTIONS) == {
        "plan",
        "session_chunk",
        "initial_active",
        "scale_interval",
        "max_respawns",
        "reclaim_idle_ms",
        "join_timeout",
        "scheduler",
        "tenant",
        "priority",
    }


# ------------------------------------------------------------ constructors
REPO = Path(repro.__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"
#: The trees whose calls count as callers (``tests/`` does not).
CALLER_TREES = ("src", "benchmarks", "scripts", "examples")

#: The trimmed constructors' full parameter lists, in order.
SIGNATURES = {
    JobScheduler: (
        "engine", "max_concurrent", "pool_size", "high_water", "backpressure",
    ),
    Autoscaler: ("pool", "strategy", "monitor", "clock", "trace"),
    BacklogStrategy: (),
    IdleTimeStrategy: ("threshold_ms",),
    RateStrategy: ("alpha",),
    QueueSizeStrategy: ("min_queue",),
    RedisClient: ("server", "op_latency", "clock"),
    SocketRedisClient: ("address", "op_latency", "clock"),
    CloseableQueue: (),
    RedisTaskBoard: ("client", "namespace"),
    Engine: (
        "mapping", "platform", "processes", "time_scale", "seed", "prefer",
        "batch_size", "fuse", "optimize", "checkpoint_interval",
        "state_store", "extra_options",
    ),
    EnactmentState: (
        "graph", "provided", "processes", "ctx", "platform", "meter",
        "collector", "counters", "options", "control",
    ),
    FusedPE: ("members", "internal_edges", "stateful"),
    BenchConfig: ("time_scale", "repeats"),
    Experiment: (
        "id", "title", "platform", "mappings", "processes", "workloads", "kind",
        "comparisons", "config",
    ),
}

TEST_SEAM = "test seam"
DEPLOYMENT = "deployment setting"
WORKFLOW = "workflow knob"
E2E_BENCH = "e2e_bench caller"
REPLACED = "set through dataclasses.replace"

#: ``(class, parameter)`` kept although no caller outside ``tests/`` sets
#: it, with the kind of reason and what it is for.
EXEMPT = {
    ("Engine", "state_store"): (
        DEPLOYMENT, "where checkpoints live; None keeps them on the run's deployment"),
    ("RedisServer", "now"): (TEST_SEAM, "a synthetic clock for idle-time tests"),
    ("SocketRedisClient", "op_latency"): (
        TEST_SEAM, "injected round-trip latency, as on RedisClient"),
    ("SocketRedisClient", "clock"): (TEST_SEAM, "the clock op_latency sleeps on"),
    ("CrashInjector", "max_crashes"): (TEST_SEAM, "fault injection budget"),
    ("CrashInjector", "point"): (TEST_SEAM, "fault injection site"),
    ("ProducerPE", "name"): (WORKFLOW, "a user PE's node name in its graph"),
    ("ConsumerPE", "name"): (WORKFLOW, "a user PE's node name in its graph"),
    ("FunctionPE", "name"): (WORKFLOW, "a user PE's node name in its graph"),
    ("Plan", "cost"): (REPLACED, "Planner.plan attaches the profiled cost model"),
}
#: Every parameter of the paper's workflow PEs and data services is a
#: workflow knob: how a workflow is shaped, not how the system runs it.
WORKFLOW_PACKAGE = SRC / "workflows"


def _defaulted(fn):
    """``(names with a default, positional names)`` of a function."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [
        a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return defaulted, [name for name in positional if name != "self"]


def _is_dataclass(node):
    """Whether a class statement is decorated ``@dataclass`` (any form)."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _fields(node):
    """``(defaulted fields, positional fields)`` of a dataclass's generated
    ``__init__``: annotated names, minus ``ClassVar``s and ``init=False``."""
    positional, defaulted = [], []
    for item in node.body:
        if not isinstance(item, ast.AnnAssign) or not isinstance(item.target, ast.Name):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and any(
            k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in value.keywords
        ):
            continue
        positional.append(item.target.id)
        if value is not None:
            defaulted.append(item.target.id)
    return defaulted, positional


def _public_constructors():
    """``{class name: [(path, defaulted params, positional params)]}``: the
    hand-written ``__init__`` of every public class, or a dataclass's fields."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            inits = [
                item for item in node.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__"
            ]
            if inits:
                defaulted, positional = _defaulted(inits[0])
            elif _is_dataclass(node):
                defaulted, positional = _fields(node)
            else:
                continue
            found.setdefault(node.name, []).append((path, defaulted, positional))
    return found


def _callee(node, owner, bases):
    """The class name a call constructs, or ``None``."""
    func = node.func
    if isinstance(func, ast.Name):
        return owner if func.id == "cls" else func.id
    if not isinstance(func, ast.Attribute):
        return None
    target = func.value
    if (
        func.attr == "__init__"
        and isinstance(target, ast.Call)
        and getattr(target.func, "id", None) == "super"
    ):
        return (bases.get(owner) or [None])[0]
    return func.attr


def _set_parameters(constructors):
    """``{class name: parameters some non-test call sets}``."""
    modules = [
        ast.parse(path.read_text(encoding="utf-8"))
        for tree in CALLER_TREES
        for path in sorted((REPO / tree).rglob("*.py"))
        if "tests" not in path.relative_to(REPO).parts
    ]
    bases = {
        node.name: [getattr(b, "id", getattr(b, "attr", None)) for b in node.bases]
        for module in modules
        for node in ast.walk(module)
        if isinstance(node, ast.ClassDef)
    }

    def resolve(name):
        # A subclass without its own __init__ constructs through its base's.
        seen = set()
        while name is not None and name not in constructors and name not in seen:
            seen.add(name)
            name = (bases.get(name) or [None])[0]
        return name if name in constructors else None

    set_by = {name: set() for name in constructors}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, ast.ClassDef) else owner)
        if not isinstance(node, ast.Call):
            return
        target = resolve(_callee(node, owner, bases))
        if target is None:
            return
        for _path, _defaulted_names, positional in constructors[target]:
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred) or index >= len(positional):
                    break
                set_by[target].add(positional[index])
        set_by[target].update(k.arg for k in node.keywords if k.arg)

    for module in modules:
        visit(module, None)
    return set_by


def unset_parameters():
    """``{(class, parameter)}`` no call outside ``tests/`` sets."""
    constructors = _public_constructors()
    set_by = _set_parameters(constructors)
    return {
        (name, param)
        for name, entries in constructors.items()
        for path, defaulted, _positional in entries
        if WORKFLOW_PACKAGE not in path.parents
        for param in defaulted
        if param not in set_by[name]
    }


def test_trimmed_constructors_have_exactly_the_pinned_parameters():
    actual = {
        cls.__name__: tuple(inspect.signature(cls).parameters) for cls in SIGNATURES
    }
    assert actual == {cls.__name__: params for cls, params in SIGNATURES.items()}


def test_removed_scheduler_names_are_gone():
    for module in (repro, repro.scheduler):
        for name in ("TenantQuota", "QuotaExceededError"):
            assert name not in module.__all__
            assert not hasattr(module, name)


def test_every_keyword_parameter_has_a_non_test_caller_or_a_reason():
    assert unset_parameters() - EXEMPT.keys() == set()


def test_every_exemption_is_still_needed_and_reasoned():
    assert EXEMPT.keys() <= unset_parameters()
    for kind, why in EXEMPT.values():
        assert kind in (TEST_SEAM, DEPLOYMENT, WORKFLOW, E2E_BENCH, REPLACED) and why
