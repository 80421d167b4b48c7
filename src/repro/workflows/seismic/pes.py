"""Processing elements of the Seismic Cross-Correlation workflow.

Phase 1: nine stateless PEs from raw trace to FFT-on-disk.  The signal
processing is real (numpy/scipy); the declared nominal costs model the
relative stage weights of the paper's deployment, with the writer's disk
IO dominating -- the imbalance Section 4.2 highlights.

Phase 2: a stateful aggregation (global grouping) collecting every
station's spectrum, followed by stateless pairwise cross-correlation.
"""

from __future__ import annotations

import functools
import itertools
import os
import tempfile
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.pe import GenericPE, IterativePE
from repro.workflows.seismic.waveform import synth_trace


@functools.cache
def _signal() -> Any:
    """``scipy.signal``, imported when the first filter PE needs it.

    It costs ~1.3 s and ~85 MB to load and only the three filter PEs below
    use it, so importing this module (and with it :mod:`repro.workflows`,
    the catalog, ``repro serve`` and every spawned worker) must not load
    it.  The filter PEs call this from ``__init__`` as well as from
    ``_process``: building a seismic graph then pays the import, not the
    first trace of a timed run (that read 0.09 s -> 0.91 s runtime).  A
    copy unpickled in a fresh process has run no ``__init__`` and loads
    it on its first trace.
    """
    try:
        from scipy import signal
    except ImportError as exc:
        raise ImportError(
            "the seismic workflow's filters need scipy: pip install 'scipy>=1.10'"
        ) from exc
    return signal


class ReadTraces(IterativePE):
    """Stream raw station traces (synthetic FDSN substitute)."""

    def __init__(
        self,
        name: str = "readTraces",
        samples: int = 3000,
        read_latency: float = 0.02,
        parse_cost: float = 0.005,
    ) -> None:
        super().__init__(name)
        self.samples = samples
        self.read_latency = read_latency
        self.parse_cost = parse_cost

    def _process(self, data: Any) -> Dict[str, Any]:
        station = int(data)
        self.io_wait(self.read_latency)
        self.compute(self.parse_cost)
        return synth_trace(station, samples=self.samples)


class Decimate(IterativePE):
    """Downsample the trace by an integer factor (anti-aliased)."""

    def __init__(self, name: str = "decimate", factor: int = 4, cost: float = 0.012) -> None:
        super().__init__(name)
        if factor < 1:
            raise ValueError("decimation factor must be >= 1")
        _signal()
        self.factor = factor
        self.cost = cost

    def _process(self, trace: Dict[str, Any]) -> Dict[str, Any]:
        self.compute(self.cost)
        data = np.asarray(trace["data"], dtype=np.float64)
        if self.factor > 1:
            data = _signal().decimate(data, self.factor, zero_phase=True)
        return {**trace, "fs": trace["fs"] / self.factor, "data": data}


class Detrend(IterativePE):
    """Remove the linear trend."""

    def __init__(self, name: str = "detrend", cost: float = 0.010) -> None:
        super().__init__(name)
        _signal()
        self.cost = cost

    def _process(self, trace: Dict[str, Any]) -> Dict[str, Any]:
        self.compute(self.cost)
        return {**trace, "data": _signal().detrend(np.asarray(trace["data"]), type="linear")}


class Demean(IterativePE):
    """Remove the DC offset."""

    def __init__(self, name: str = "demean", cost: float = 0.005) -> None:
        super().__init__(name)
        self.cost = cost

    def _process(self, trace: Dict[str, Any]) -> Dict[str, Any]:
        self.compute(self.cost)
        data = np.asarray(trace["data"])
        return {**trace, "data": data - data.mean()}


class RemoveResponse(IterativePE):
    """Deconvolve a synthetic instrument response in the frequency domain."""

    def __init__(self, name: str = "removeResponse", cost: float = 0.020, water_level: float = 1e-6) -> None:
        super().__init__(name)
        self.cost = cost
        self.water_level = water_level

    def _process(self, trace: Dict[str, Any]) -> Dict[str, Any]:
        self.compute(self.cost)
        data = np.asarray(trace["data"])
        spectrum = np.fft.rfft(data)
        freqs = np.fft.rfftfreq(len(data), d=1.0 / trace["fs"])
        # Single-pole high-pass instrument response with 0.05 Hz corner.
        response = freqs / np.sqrt(freqs**2 + 0.05**2)
        response[0] = self.water_level
        corrected = spectrum / np.maximum(response, self.water_level)
        return {**trace, "data": np.fft.irfft(corrected, n=len(data))}


class Bandpass(IterativePE):
    """Butterworth band-pass filter."""

    def __init__(
        self,
        name: str = "bandpass",
        low: float = 0.05,
        high: float = 2.0,
        order: int = 4,
        cost: float = 0.018,
    ) -> None:
        super().__init__(name)
        if not 0 < low < high:
            raise ValueError("need 0 < low < high")
        _signal()
        self.low = low
        self.high = high
        self.order = order
        self.cost = cost

    def _process(self, trace: Dict[str, Any]) -> Dict[str, Any]:
        self.compute(self.cost)
        nyquist = trace["fs"] / 2.0
        high = min(self.high, nyquist * 0.95)
        signal = _signal()
        sos = signal.butter(
            self.order, [self.low / nyquist, high / nyquist], btype="band", output="sos"
        )
        return {**trace, "data": signal.sosfiltfilt(sos, np.asarray(trace["data"]))}


class Whiten(IterativePE):
    """Spectral whitening: flatten the amplitude spectrum, keep the phase."""

    def __init__(self, name: str = "whiten", cost: float = 0.020, eps: float = 1e-10) -> None:
        super().__init__(name)
        self.cost = cost
        self.eps = eps

    def _process(self, trace: Dict[str, Any]) -> Dict[str, Any]:
        self.compute(self.cost)
        data = np.asarray(trace["data"])
        spectrum = np.fft.rfft(data)
        whitened = spectrum / (np.abs(spectrum) + self.eps)
        return {**trace, "data": np.fft.irfft(whitened, n=len(data))}


class CalcFFT(IterativePE):
    """Final spectrum computation feeding the cross-correlation phase."""

    def __init__(self, name: str = "calcFFT", cost: float = 0.015) -> None:
        super().__init__(name)
        self.cost = cost

    def _process(self, trace: Dict[str, Any]) -> Dict[str, Any]:
        self.compute(self.cost)
        data = np.asarray(trace["data"])
        return {
            "station": trace["station"],
            "fs": trace["fs"],
            "n": len(data),
            "fft": np.fft.rfft(data),
        }


class WriteOutput(IterativePE):
    """Persist the pre-processed spectrum to disk (the IO-heavy tail PE).

    Writes real bytes (``numpy.save``) to a per-run temporary directory,
    plus a configurable IO wait modelling the slower shared filesystem of
    the paper's platforms.  Emits ``{station, path, bytes}`` records.
    """

    def __init__(
        self,
        name: str = "writeOutput",
        out_dir: Optional[str] = None,
        io_cost: float = 0.12,
        cost: float = 0.004,
    ) -> None:
        super().__init__(name)
        self.out_dir = out_dir
        self.io_cost = io_cost
        self.cost = cost

    def preprocess(self) -> None:
        if self.out_dir is None:
            self.out_dir = tempfile.mkdtemp(prefix="repro-seismic-")
        os.makedirs(self.out_dir, exist_ok=True)

    def _process(self, record: Dict[str, Any]) -> Dict[str, Any]:
        self.compute(self.cost)
        self.io_wait(self.io_cost)
        path = os.path.join(self.out_dir, f"{record['station']}.npy")
        np.save(path, record["fft"])
        return {
            "station": record["station"],
            "path": path,
            "bytes": int(os.path.getsize(path)),
        }


# --------------------------------------------------------------------- phase 2


class PairAggregator(GenericPE):
    """Collect every station's spectrum, emit all station pairs at close.

    A *global* grouping routes every spectrum to one instance, making this
    PE stateful -- the reason phase 2 is out of scope for plain dynamic
    scheduling and handled by ``multi`` / ``hybrid_redis``.
    """

    def __init__(self, name: str = "pairAggregator", cost: float = 0.002) -> None:
        super().__init__(name)
        self._add_input(self.INPUT_NAME, grouping="global")
        self._add_output("pairs")
        self.cost = cost
        self._spectra: List[Dict[str, Any]] = []

    def process(self, inputs: Dict[str, Any]) -> None:
        self.compute(self.cost)
        self._spectra.append(inputs[self.INPUT_NAME])
        return None

    def postprocess(self) -> None:
        ordered = sorted(self._spectra, key=lambda r: r["station"])
        for left, right in itertools.combinations(ordered, 2):
            self.write("pairs", {"a": left, "b": right})


class CrossCorrelation(IterativePE):
    """Frequency-domain cross-correlation of one station pair."""

    def __init__(self, name: str = "xcorr", cost: float = 0.010) -> None:
        super().__init__(name)
        self.cost = cost

    def _process(self, pair: Dict[str, Any]) -> Dict[str, Any]:
        self.compute(self.cost)
        a, b = pair["a"], pair["b"]
        n = min(a["n"], b["n"])
        cross = np.fft.irfft(a["fft"][: n // 2 + 1] * np.conj(b["fft"][: n // 2 + 1]), n=n)
        lag = int(np.argmax(np.abs(cross)))
        if lag > n // 2:
            lag -= n
        return {
            "pair": (a["station"], b["station"]),
            "peak": float(np.abs(cross).max()),
            "lag_samples": lag,
        }


class WriteXCorr(GenericPE):
    """Aggregate cross-correlation peaks (global grouping sink)."""

    def __init__(self, name: str = "writeXCorr") -> None:
        super().__init__(name)
        self._add_input(self.INPUT_NAME, grouping="global")
        self._add_output("summary")
        self._rows: List[Dict[str, Any]] = []

    def process(self, inputs: Dict[str, Any]) -> None:
        self._rows.append(inputs[self.INPUT_NAME])
        return None

    def postprocess(self) -> None:
        ranked = sorted(self._rows, key=lambda r: -r["peak"])
        self.write("summary", ranked)
