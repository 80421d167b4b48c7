"""Tests for the Seismic Cross-Correlation workflow."""

import hashlib
import os

import numpy as np
import pytest

from repro import run
from repro.workflows.seismic.pes import (
    Bandpass,
    CalcFFT,
    CrossCorrelation,
    Decimate,
    Demean,
    Detrend,
    RemoveResponse,
    Whiten,
    WriteOutput,
)
from repro.workflows.seismic.phase1 import build_seismic_phase1_workflow
from repro.workflows.seismic.phase2 import build_seismic_phase2_workflow
from repro.workflows.seismic.waveform import station_code, synth_trace
from tests.conftest import FAST_SCALE, run_in_fresh_interpreter


def quiet(pe):
    """Zero out declared costs so unit tests run instantly."""
    for attr in ("cost", "io_cost", "read_latency", "parse_cost"):
        if hasattr(pe, attr):
            setattr(pe, attr, 0.0)
    return pe


class TestWaveform:
    def test_deterministic(self):
        a = synth_trace(3)
        b = synth_trace(3)
        assert np.array_equal(a["data"], b["data"])

    def test_stations_differ(self):
        assert not np.array_equal(synth_trace(1)["data"], synth_trace(2)["data"])

    def test_station_code(self):
        assert station_code(7) == "ST007"
        with pytest.raises(ValueError):
            station_code(-1)

    def test_has_dc_and_trend(self):
        data = synth_trace(0)["data"]
        assert abs(data.mean()) > 0.1  # DC offset present

    def test_min_samples(self):
        with pytest.raises(ValueError):
            synth_trace(0, samples=4)


class TestSignalPEs:
    @pytest.fixture
    def trace(self):
        return synth_trace(5, samples=800)

    def test_decimate_reduces_rate(self, trace):
        [(_, out)] = quiet(Decimate(factor=4))._invoke({"input": trace})
        assert out["fs"] == trace["fs"] / 4
        assert len(out["data"]) == len(trace["data"]) // 4

    def test_decimate_factor_one_identity_rate(self, trace):
        [(_, out)] = quiet(Decimate(factor=1))._invoke({"input": trace})
        assert len(out["data"]) == len(trace["data"])

    def test_decimate_invalid_factor(self):
        with pytest.raises(ValueError):
            Decimate(factor=0)

    def test_detrend_removes_slope(self, trace):
        [(_, out)] = quiet(Detrend())._invoke({"input": trace})
        x = np.arange(len(out["data"]))
        slope = np.polyfit(x, out["data"], 1)[0]
        raw_slope = np.polyfit(np.arange(len(trace["data"])), trace["data"], 1)[0]
        assert abs(slope) < abs(raw_slope) / 5

    def test_demean_zeroes_mean(self, trace):
        [(_, out)] = quiet(Demean())._invoke({"input": trace})
        assert abs(out["data"].mean()) < 1e-9

    def test_remove_response_preserves_length(self, trace):
        [(_, out)] = quiet(RemoveResponse())._invoke({"input": trace})
        assert len(out["data"]) == len(trace["data"])

    def test_bandpass_attenuates_out_of_band(self, trace):
        pe = quiet(Bandpass(low=0.05, high=2.0))
        [(_, out)] = pe._invoke({"input": trace})
        spectrum = np.abs(np.fft.rfft(out["data"]))
        freqs = np.fft.rfftfreq(len(out["data"]), 1.0 / out["fs"])
        in_band = spectrum[(freqs > 0.05) & (freqs < 2.0)].mean()
        out_band = spectrum[freqs > 10.0].mean()
        assert out_band < in_band / 3

    def test_bandpass_invalid_band(self):
        with pytest.raises(ValueError):
            Bandpass(low=2.0, high=1.0)

    def test_whiten_flattens_spectrum(self, trace):
        [(_, out)] = quiet(Whiten())._invoke({"input": trace})
        spectrum = np.abs(np.fft.rfft(out["data"]))[1:-1]
        assert spectrum.std() / spectrum.mean() < 0.2

    def test_calcfft_output_shape(self, trace):
        [(_, out)] = quiet(CalcFFT())._invoke({"input": trace})
        assert out["station"] == trace["station"]
        assert len(out["fft"]) == len(trace["data"]) // 2 + 1

    def test_write_output_creates_file(self, tmp_path, trace):
        writer = quiet(WriteOutput(out_dir=str(tmp_path)))
        writer.preprocess()
        fft_record = {"station": "ST001", "fs": 25.0, "n": 100, "fft": np.zeros(51, dtype=complex)}
        [(_, out)] = writer._invoke({"input": fft_record})
        assert os.path.exists(out["path"])
        assert out["bytes"] > 0

    def test_xcorr_peak_at_zero_lag_for_identical(self):
        fft = np.fft.rfft(np.sin(np.linspace(0, 20, 256)))
        record = {"station": "A", "fs": 25.0, "n": 256, "fft": fft}
        other = dict(record, station="B")
        [(_, out)] = quiet(CrossCorrelation())._invoke({"input": {"a": record, "b": other}})
        assert out["lag_samples"] == 0
        assert out["pair"] == ("A", "B")


class TestPhase1Workflow:
    def test_nine_pes_stateless(self):
        g, inputs = build_seismic_phase1_workflow(stations=50)
        assert len(g.pes) == 9
        assert not g.is_stateful()
        assert len(inputs) == 50

    def test_invalid_stations(self):
        with pytest.raises(ValueError):
            build_seismic_phase1_workflow(stations=0)

    def test_end_to_end(self, tmp_path):
        g, inputs = build_seismic_phase1_workflow(
            stations=6, samples=400, out_dir=str(tmp_path)
        )
        result = run(g, inputs=inputs, processes=5, mapping="dyn_multi", time_scale=FAST_SCALE)
        written = result.output("writeOutput")
        assert len(written) == 6
        assert {w["station"] for w in written} == {station_code(i) for i in range(6)}
        assert all(os.path.exists(w["path"]) for w in written)


class TestPhase2Workflow:
    def test_structure_is_stateful(self):
        g, inputs = build_seismic_phase2_workflow(stations=5)
        assert g.is_stateful()
        stateful = {pe.name for pe in g.stateful_pes()}
        assert stateful == {"pairAggregator", "writeXCorr"}

    def test_pair_count(self):
        g, inputs = build_seismic_phase2_workflow(stations=5, samples=256)
        # 11 PEs with xcorr pinned to 2 instances: multi needs 12 processes.
        result = run(g, inputs=inputs, processes=12, mapping="multi", time_scale=FAST_SCALE)
        [summary] = result.output("writeXCorr", "summary")
        assert len(summary) == 5 * 4 // 2  # all pairs

    def test_invalid_stations(self):
        with pytest.raises(ValueError):
            build_seismic_phase2_workflow(stations=1)

    def test_hybrid_equals_multi(self):
        def peaks(mapping, processes):
            g, inputs = build_seismic_phase2_workflow(stations=4, samples=256)
            result = run(g, inputs=inputs, processes=processes, mapping=mapping, time_scale=FAST_SCALE)
            [summary] = result.output("writeXCorr", "summary")
            return sorted((row["pair"], row["lag_samples"]) for row in summary)

        # hybrid only pins the 2 stateful instances; multi needs all 12.
        assert peaks("multi", 12) == peaks("hybrid_redis", 6)


def quantised(values) -> bytes:
    """``values`` as integers in millionths of the array's peak, so a
    last-bit difference between numpy/scipy builds does not move a digest."""
    values = np.asarray(values)
    parts = np.stack([values.real, values.imag]) if np.iscomplexobj(values) else values
    return np.round(parts / np.abs(values).max() * 1e6).astype(np.int64).tobytes()


PHASE1_DIGEST = "1fea017c9999d12adc83f11b3d0b539afd6fb8547d7ab578bb433d6f0c88a65c"
PHASE2_DIGEST = "b4b19eed485e01220281761dd4623974b67f311029eee593eb19f3a5d44e2b98"


class TestOutputsPinnedAcrossTheLazyImport:
    """Digests taken at the commit that still imported scipy.signal eagerly
    (a241b37): resolving it through ``pes._signal()`` changes no output."""

    def test_phase1_digest(self, tmp_path):
        g, inputs = build_seismic_phase1_workflow(stations=6, samples=400, out_dir=str(tmp_path))
        result = run(g, inputs=inputs, mapping="simple", time_scale=FAST_SCALE)
        digest = hashlib.sha256()
        for record in sorted(result.output("writeOutput"), key=lambda r: r["station"]):
            digest.update(f"{record['station']}:{record['bytes']}:".encode())
            digest.update(quantised(np.load(record["path"])))
        assert digest.hexdigest() == PHASE1_DIGEST

    def test_phase2_digest(self):
        g, inputs = build_seismic_phase2_workflow(stations=5, samples=256)
        result = run(g, inputs=inputs, mapping="simple", time_scale=FAST_SCALE)
        [summary] = result.output("writeXCorr", "summary")
        digest = hashlib.sha256()
        digest.update(repr([(row["pair"], row["lag_samples"]) for row in summary]).encode())
        digest.update(quantised([row["peak"] for row in summary]))
        assert digest.hexdigest() == PHASE2_DIGEST


def test_scipy_loads_with_the_first_filter_pe_not_with_the_package():
    """In a fresh interpreter: importing the package loads no scipy; a filter
    PE that ran no ``__init__`` of its own (as a spawned worker unpickles it)
    loads it on its first trace; constructing one loads it up front."""
    probe = """
import sys
import repro.workflows.seismic as seismic
from repro.core.pe import IterativePE

pe = seismic.Detrend.__new__(seismic.Detrend)
IterativePE.__init__(pe, "detrend")
pe.cost = 0.0
assert "scipy" not in sys.modules, "scipy loaded before any trace was filtered"
if sys.argv[1] == "trace":
    pe._invoke({"input": seismic.synth_trace(1, samples=64)})
else:
    seismic.Detrend()
assert "scipy.signal" in sys.modules, sys.argv[1] + " did not load scipy.signal"
"""
    for first_use in ("trace", "construct"):
        run_in_fresh_interpreter(probe, first_use)
