"""Tests for the PE base classes."""

import copy

import pytest

from repro.core.exceptions import PortError
from repro.core.pe import (
    ConsumerPE,
    FunctionPE,
    GenericPE,
    IterativePE,
    ProducerPE,
)


class TwoPort(GenericPE):
    def __init__(self, name=None):
        super().__init__(name)
        self._add_input("left")
        self._add_input("right", grouping=[0])
        self._add_output("sum")
        self._add_output("log")

    def process(self, inputs):
        if "left" in inputs:
            self.write("sum", inputs["left"])
            self.write("log", ("left", inputs["left"]))
        return None


class TestPorts:
    def test_declared_ports_visible(self):
        pe = TwoPort()
        assert set(pe.inputconnections) == {"left", "right"}
        assert set(pe.outputconnections) == {"sum", "log"}

    def test_write_unknown_port_raises(self):
        pe = TwoPort()
        with pytest.raises(PortError):
            pe.write("nope", 1)

    def test_input_grouping_lookup(self):
        pe = TwoPort()
        assert pe.input_grouping("left") is None
        assert pe.input_grouping("right") is not None

    def test_input_grouping_unknown_port(self):
        with pytest.raises(PortError):
            TwoPort().input_grouping("nope")

    def test_set_grouping(self):
        pe = TwoPort()
        pe.set_grouping("left", "global")
        assert pe.input_grouping("left").requires_state

    def test_set_grouping_unknown_port(self):
        with pytest.raises(PortError):
            TwoPort().set_grouping("nope", [0])


class TestInvoke:
    def test_collects_writes(self):
        pe = TwoPort()
        emissions = pe._invoke({"left": 42})
        assert ("sum", 42) in emissions
        assert ("log", ("left", 42)) in emissions

    def test_returned_dict_merged(self):
        class Both(GenericPE):
            def __init__(self):
                super().__init__("both")
                self._add_input("input")
                self._add_output("a")
                self._add_output("b")

            def process(self, inputs):
                self.write("a", 1)
                return {"b": 2}

        emissions = Both()._invoke({"input": None})
        assert sorted(emissions) == [("a", 1), ("b", 2)]

    def test_returned_unknown_port_raises(self):
        class Bad(GenericPE):
            def __init__(self):
                super().__init__("bad")
                self._add_output("ok")

            def process(self, inputs):
                return {"nope": 1}

        with pytest.raises(PortError):
            Bad()._invoke({})

    def test_buffer_cleared_between_invocations(self):
        pe = TwoPort()
        pe._invoke({"left": 1})
        emissions = pe._invoke({"left": 2})
        assert ("sum", 1) not in emissions

    def test_flush_postprocess_collects_writes(self):
        class Flusher(GenericPE):
            def __init__(self):
                super().__init__("flusher")
                self._add_output("out")

            def process(self, inputs):
                return None

            def postprocess(self):
                self.write("out", "bye")

        assert Flusher()._flush_postprocess() == [("out", "bye")]


class TestIterativeInvoke:
    """``IterativePE._invoke`` calls ``_process`` without the ``process`` frame."""

    def test_write_precedes_the_returned_value(self):
        class Chatty(IterativePE):
            def _process(self, data):
                self.write("output", ("note", data))
                return data + 1

        pe = Chatty()
        assert pe._invoke({"input": 1}) == [("output", ("note", 1)), ("output", 2)]
        assert pe._invoke({"input": 5}) == [("output", ("note", 5)), ("output", 6)]

    def test_none_input_and_none_result(self):
        class Echo(IterativePE):
            def _process(self, data):
                return data

        pe = Echo()
        assert pe._invoke(None) == [] and pe._invoke({}) == []
        assert pe._invoke({"input": 0}) == [("output", 0)]  # falsy, but not None

    def test_an_overridden_process_still_runs(self):
        class Wrapped(IterativePE):
            def process(self, inputs):
                return {"output": ("wrapped", inputs["input"])}

            def _process(self, data):
                raise AssertionError("process is overridden; _process is its business")

        class Further(Wrapped):
            pass

        assert Wrapped._invoke is GenericPE._invoke and Further._invoke is GenericPE._invoke
        assert Further()._invoke({"input": 3}) == [("output", ("wrapped", 3))]

    def test_an_undeclared_output_still_raises(self):
        class Portless(IterativePE):
            def __init__(self):
                super().__init__("portless")
                del self.outputconnections[self.OUTPUT_NAME]

            def _process(self, data):
                return data

        pe = Portless()
        assert pe._invoke({"input": None}) == []
        with pytest.raises(PortError, match="unknown output 'output'"):
            pe._invoke({"input": 1})


class TestStatefulness:
    def test_default_stateless(self):
        class Plain(IterativePE):
            def _process(self, data):
                return data

        assert not Plain().is_stateful()

    def test_explicit_flag(self):
        class Flagged(IterativePE):
            def _process(self, data):
                return data

        pe = Flagged()
        pe.stateful = True
        assert pe.is_stateful()

    def test_grouping_implies_stateful(self):
        assert TwoPort().is_stateful()


class TestConvenienceBases:
    def test_iterative_pe(self):
        class Inc(IterativePE):
            def _process(self, data):
                return data + 1

        emissions = Inc()._invoke({"input": 1})
        assert emissions == [("output", 2)]

    def test_iterative_none_emits_nothing(self):
        class Skip(IterativePE):
            def _process(self, data):
                return None

        assert Skip()._invoke({"input": 1}) == []

    def test_producer_pe(self):
        class Source(ProducerPE):
            def _process(self, data):
                return "item"

        assert Source()._invoke({}) == [("output", "item")]

    def test_consumer_pe(self):
        class Sink(ConsumerPE):
            def __init__(self):
                super().__init__("sink")
                self.got = []

            def _process(self, data):
                self.got.append(data)

        sink = Sink()
        assert sink._invoke({"input": "x"}) == []
        assert sink.got == ["x"]

    def test_function_pe(self):
        pe = FunctionPE(lambda x: x * 10)
        assert pe._invoke({"input": 3}) == [("output", 30)]

    def test_function_pe_name_from_func(self):
        def my_transform(x):
            return x

        assert FunctionPE(my_transform).name == "my_transform"


class TestNamingAndCopying:
    def test_auto_names_unique(self):
        class Auto(IterativePE):
            def _process(self, data):
                return data

        assert Auto().name != Auto().name

    def test_deepcopy_shares_context(self):
        pe = TwoPort()
        clone = copy.deepcopy(pe)
        assert clone.ctx is pe.ctx

    def test_deepcopy_isolates_state(self):
        class Hoarder(IterativePE):
            def __init__(self):
                super().__init__("hoarder")
                self.items = []

            def _process(self, data):
                self.items.append(data)
                return data

        original = Hoarder()
        clone = copy.deepcopy(original)
        clone._invoke({"input": 1})
        assert original.items == []

    def test_repr_contains_name(self):
        assert "hoard" in repr(TwoPort(name="hoard"))
