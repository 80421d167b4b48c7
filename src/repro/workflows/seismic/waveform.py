"""Synthetic seismic waveform generation.

The paper's workflow consumes continuous waveform data from FDSN stations.
Offline substitution: deterministic synthetic seismograms --
a superposition of microseism-band sinusoids, transient "events", a linear
instrument drift and white noise.  The composition is a pure function of
the station index, so every mapping processes identical data.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

#: Default sampling rate (Hz) of the raw synthetic traces.
DEFAULT_FS = 100.0
#: Default trace length in samples (30 s at 100 Hz).
DEFAULT_SAMPLES = 3000


def station_code(index: int) -> str:
    """Human-readable synthetic station code, e.g. ``"ST007"``."""
    if index < 0:
        raise ValueError(f"station index must be >= 0, got {index}")
    return f"ST{index:03d}"


def synth_trace(
    station: int,
    samples: int = DEFAULT_SAMPLES,
    fs: float = DEFAULT_FS,
    seed: int = 11,
) -> Dict[str, object]:
    """Generate one station's raw trace.

    Returns a trace record: ``{station, fs, data}`` with ``data`` a float64
    numpy array.  The signal contains:

    - two microseism-band tones (0.1-0.5 Hz) with station-dependent phase,
    - a decaying "event" wavelet at a station-dependent onset,
    - a linear drift (to give ``detrend`` real work),
    - a DC offset (for ``demean``),
    - white noise.
    """
    if samples < 16:
        raise ValueError("samples must be >= 16")
    rng = np.random.default_rng(np.random.SeedSequence([seed, station]))
    t = np.arange(samples) / fs
    f1, f2 = 0.1 + 0.05 * (station % 5), 0.3 + 0.02 * (station % 7)
    signal = (
        0.8 * np.sin(2 * np.pi * f1 * t + station)
        + 0.5 * np.sin(2 * np.pi * f2 * t + 2.0 * station)
    )
    onset = int(samples * (0.2 + 0.6 * ((station * 0.37) % 1.0)))
    event_t = t[onset:] - t[onset]
    signal[onset:] += 2.0 * np.exp(-event_t / 2.0) * np.sin(2 * np.pi * 5.0 * event_t)
    drift = 0.002 * t * (1 + station % 3)
    dc = 0.5 + 0.1 * (station % 4)
    noise = rng.normal(0.0, 0.2, size=samples)
    return {
        "station": station_code(station),
        "fs": fs,
        "data": signal + drift + dc + noise,
    }
