"""Processing element (PE) base classes.

PEs are the computational building blocks of a workflow (Section 2.1).
Subclass one of:

- :class:`GenericPE` -- arbitrary named input/output ports; override
  :meth:`GenericPE.process`.
- :class:`IterativePE` -- one input, one output; override ``_process(data)``.
- :class:`ProducerPE` -- no inputs, one output; driven by the engine's
  iteration count; override ``_process(None)`` or generate in ``process``.
- :class:`ConsumerPE` -- one input, no outputs.
- :class:`FunctionPE` -- wraps a plain function as an IterativePE.

A PE *class* describes behaviour; at enactment each PE is replicated into
one or more *instances* (Section 2.1, "Instance").  Instance-scoped fields
(``instance_id``, ``ctx``, RNG) are assigned by the mapping right before
``preprocess`` runs.

Statefulness: a PE is treated as stateful if it sets ``stateful = True`` or
if any of its input connections declares a state-pinning grouping (GroupBy /
AllToOne / OneToAll).  Stateful PEs are rejected by plain dynamic mappings
and handled by ``hybrid_redis`` (Section 3.1.2).
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.exceptions import PortError
from repro.core.groupings import Grouping, as_grouping
from repro.core.context import ExecutionContext

_name_counters: Dict[str, "itertools.count[int]"] = {}


def _auto_name(cls_name: str) -> str:
    counter = _name_counters.setdefault(cls_name, itertools.count())
    return f"{cls_name}{next(counter)}"


def reset_auto_names() -> None:
    """Reset the auto-naming counters (``Double0``, ``Double1``, ...).

    Auto-generated PE names count up per class for the lifetime of the
    process, so graph construction is only deterministic relative to how
    many unnamed PEs were created before.  Test suites and long-lived
    services that build many graphs call this between graphs to get
    reproducible names; the repo's test fixtures do so automatically.
    Graphs additionally re-slot colliding auto-names on
    :meth:`~repro.core.graph.WorkflowGraph.add`.
    """
    _name_counters.clear()


class GenericPE:
    """Base processing element.

    Parameters
    ----------
    name:
        Unique name within a graph.  Auto-generated from the class name if
        omitted; :class:`~repro.core.graph.WorkflowGraph` enforces
        uniqueness.

    Attributes
    ----------
    inputconnections / outputconnections:
        Port tables (name -> port descriptor dict), mirroring dispel4py's
        attribute names.
    numprocesses:
        Requested instance count, or ``None`` to let the partitioner decide
        (the paper pins ``happy State`` to 4 and ``top 3 happiest`` to 2).
    stateful:
        Explicit statefulness marker (groupings can also imply it).
    """

    INPUT_NAME = "input"
    OUTPUT_NAME = "output"

    def __init__(self, name: Optional[str] = None) -> None:
        self._auto_named = name is None
        self.name = name or _auto_name(type(self).__name__)
        self.inputconnections: Dict[str, Dict[str, Any]] = {}
        self.outputconnections: Dict[str, Dict[str, Any]] = {}
        self.numprocesses: Optional[int] = None
        self.stateful: bool = False
        # Instance-scoped fields, assigned by the mapping before preprocess().
        self.instance_id: Optional[str] = None
        self.instance_index: int = 0
        self.num_instances: int = 1
        self.ctx: ExecutionContext = ExecutionContext()
        self.rng = None  # assigned per instance
        self._output_buffer: List[Tuple[str, Any]] = []

    # ------------------------------------------------------------- port API
    def _add_input(self, name: str, grouping: Any = None) -> None:
        """Declare an input port, optionally with a default grouping."""
        self.inputconnections[name] = {
            "name": name,
            "grouping": as_grouping(grouping) if grouping is not None else None,
        }

    def _add_output(self, name: str) -> None:
        """Declare an output port."""
        self.outputconnections[name] = {"name": name}

    def input_grouping(self, name: str) -> Optional[Grouping]:
        port = self.inputconnections.get(name)
        if port is None:
            raise PortError(f"PE {self.name!r} has no input port {name!r}")
        return port.get("grouping")

    def set_grouping(self, input_name: str, grouping: Any) -> None:
        """Declare/override the grouping of an input port (dispel4py style)."""
        if input_name not in self.inputconnections:
            raise PortError(f"PE {self.name!r} has no input port {input_name!r}")
        self.inputconnections[input_name]["grouping"] = as_grouping(grouping)

    # ---------------------------------------------------------- statefulness
    def is_stateful(self) -> bool:
        """Stateful if flagged, or if any input grouping pins instances."""
        if self.stateful:
            return True
        for port in self.inputconnections.values():
            grouping = port.get("grouping")
            if grouping is not None and grouping.requires_state:
                return True
        return False

    # ----------------------------------------------------------- state hooks
    #: Attributes that describe the PE or its wiring rather than accumulated
    #: processing state; the default get_state/set_state skip them.
    _STATE_EXCLUDE = frozenset(
        {
            "name",
            "_auto_named",
            "inputconnections",
            "outputconnections",
            "numprocesses",
            "stateful",
            "instance_id",
            "instance_index",
            "num_instances",
            "ctx",
            "rng",
            "_output_buffer",
        }
    )

    def get_state(self) -> Dict[str, Any]:
        """Capture this instance's mutable state for checkpointing.

        The default captures every instance attribute that is not part of
        the PE's structural description (ports, instance wiring, run
        context) -- so accumulators like ``self.counts`` or ``self._totals``
        are checkpointed without any per-PE code.  Override together with
        :meth:`set_state` when the state needs trimming or is not directly
        picklable (open handles, caches derivable from elsewhere).
        """
        return {
            key: value
            for key, value in self.__dict__.items()
            if key not in self._STATE_EXCLUDE
        }

    def set_state(self, state: Dict[str, Any]) -> None:
        """Restore state previously captured by :meth:`get_state`.

        Called after ``__init__`` and ``preprocess`` on a freshly pinned
        instance (e.g. when a crashed worker's instance is re-pinned to a
        new process), before any further data is processed.
        """
        self.__dict__.update(state)

    # ------------------------------------------------------------- lifecycle
    def preprocess(self) -> None:
        """Hook run once per instance before any data is processed."""

    def process(self, inputs: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Process one unit of input.

        May return ``{output_name: value}`` and/or call :meth:`write` any
        number of times.  Returning ``None`` emits nothing.
        """
        raise NotImplementedError

    def postprocess(self) -> None:
        """Hook run once per instance after the input streams are exhausted.

        Stateful PEs typically flush aggregates here via :meth:`write`.
        """

    # ------------------------------------------------------------ output API
    def write(self, name: str, data: Any) -> None:
        """Emit a data unit on output port ``name``."""
        if name not in self.outputconnections:
            raise PortError(f"PE {self.name!r} has no output port {name!r}")
        self._output_buffer.append((name, data))

    # engine-facing -----------------------------------------------------------
    def _invoke(self, inputs: Optional[Dict[str, Any]]) -> List[Tuple[str, Any]]:
        """Run ``process`` once and collect all emissions (engine hook)."""
        self._output_buffer = []
        returned = self.process(inputs if inputs is not None else {})
        emissions = list(self._output_buffer)
        self._output_buffer = []
        if returned:
            for name, value in returned.items():
                if name not in self.outputconnections:
                    raise PortError(
                        f"PE {self.name!r} returned data for unknown output {name!r}"
                    )
                emissions.append((name, value))
        return emissions

    def _flush_postprocess(self) -> List[Tuple[str, Any]]:
        """Run ``postprocess`` and collect anything it wrote (engine hook)."""
        self._output_buffer = []
        self.postprocess()
        emissions = list(self._output_buffer)
        self._output_buffer = []
        return emissions

    # ------------------------------------------------------------ fluent API
    def out(self, name: str) -> "Any":
        """Reference a named output port for fluent wiring: ``pe.out("x") >> other``."""
        from repro.core.fluent import OutPort

        return OutPort(self, name)

    def in_(self, name: str) -> "Any":
        """Reference a named input port for fluent wiring: ``other >> pe.in_("x")``."""
        from repro.core.fluent import InPort

        return InPort(self, name)

    def __rshift__(self, other: Any) -> "Any":
        """Chain PEs through default ports: ``producer >> double >> sink``.

        Returns a :class:`~repro.core.fluent.Chain`; see
        :mod:`repro.core.fluent` for the full operator grammar (named ports,
        inline groupings, branching).
        """
        from repro.core.fluent import Chain

        return Chain._start(self) >> other

    # ---------------------------------------------------------- conveniences
    def compute(self, nominal_seconds: float) -> None:
        """Synthetic CPU-bound work (holds an emulated core)."""
        self.ctx.compute(nominal_seconds)

    def io_wait(self, nominal_seconds: float) -> None:
        """Synthetic IO wait (does not hold a core)."""
        self.ctx.io_wait(nominal_seconds)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class IterativePE(GenericPE):
    """One input port, one output port; override :meth:`_process`.

    A subclass that overrides :meth:`process` instead is invoked through
    :meth:`GenericPE._invoke`, which calls it.
    """

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name)
        self._add_input(self.INPUT_NAME)
        self._add_output(self.OUTPUT_NAME)

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if cls.process is not IterativePE.process and "_invoke" not in vars(cls):
            cls._invoke = GenericPE._invoke

    def _invoke(self, inputs: Optional[Dict[str, Any]]) -> List[Tuple[str, Any]]:
        """:meth:`GenericPE._invoke` without the ``process`` frame: the input
        port's value goes to ``_process``, the result straight after what
        it wrote (engine hook)."""
        emissions = self._output_buffer = []
        result = self._process(inputs.get(self.INPUT_NAME) if inputs is not None else None)
        self._output_buffer = []
        if result is not None:
            if self.OUTPUT_NAME not in self.outputconnections:
                raise PortError(
                    f"PE {self.name!r} returned data for unknown output {self.OUTPUT_NAME!r}"
                )
            emissions.append((self.OUTPUT_NAME, result))
        return emissions

    def process(self, inputs: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        data = inputs.get(self.INPUT_NAME)
        result = self._process(data)
        if result is not None:
            return {self.OUTPUT_NAME: result}
        return None

    def _process(self, data: Any) -> Any:
        raise NotImplementedError


class ProducerPE(GenericPE):
    """No inputs; one output.  Driven by the engine's iteration count."""

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name)
        self._add_output(self.OUTPUT_NAME)

    def process(self, inputs: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        result = self._process(None)
        if result is not None:
            return {self.OUTPUT_NAME: result}
        return None

    def _process(self, data: None) -> Any:
        raise NotImplementedError


class ConsumerPE(GenericPE):
    """One input; no outputs.  Override :meth:`_process`."""

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name)
        self._add_input(self.INPUT_NAME)

    def process(self, inputs: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        self._process(inputs.get(self.INPUT_NAME))
        return None

    def _process(self, data: Any) -> None:
        raise NotImplementedError


class FunctionPE(IterativePE):
    """Wrap a plain ``data -> result`` function as a PE."""

    def __init__(self, func: Callable[[Any], Any], name: Optional[str] = None) -> None:
        super().__init__(name or getattr(func, "__name__", None))
        self._func = func

    def _process(self, data: Any) -> Any:
        return self._func(data)
