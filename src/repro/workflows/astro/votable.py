"""Simulated Virtual Observatory table service.

The paper's workflow downloads VOTables for each galaxy from a VO service
over the network.  Offline substitution: a deterministic
synthetic catalog.  Given sky coordinates, the service synthesizes a small
photometry table whose contents are a pure function of the coordinates, so
repeated runs (and different mappings) observe identical data.

The columns mirror what the internal-extinction computation needs from the
real HyperLEDA-style tables:

- ``MType`` -- numeric morphological type code (de Vaucouleurs T-type,
  -5..10),
- ``logr25`` -- decimal log of the apparent axis ratio ``r25 = a/b``,
- ``BT`` / ``VT`` -- apparent magnitudes (carried along, filtered out by
  ``filter Columns``),
- ``e_logr25`` -- measurement error (likewise filtered out).

Query latency is modelled as an IO wait configured by the caller; the
*heavy* workload variant layers extra random sleeps on top (in the PE, not
here, matching where the paper injected them).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

#: Columns every synthetic VOTable carries, in order.
VOTABLE_COLUMNS = ("MType", "logr25", "BT", "VT", "e_logr25")


def catalog_coordinates(index: int) -> Dict[str, float]:
    """Deterministic (ra, dec) for catalog entry ``index``.

    A low-discrepancy golden-angle spiral over the sphere: well spread,
    reproducible, and with no two entries alike.
    """
    if index < 0:
        raise ValueError(f"catalog index must be >= 0, got {index}")
    golden = (1 + 5**0.5) / 2
    ra = (index * 360.0 / golden) % 360.0
    dec = float(np.degrees(np.arcsin(2 * ((index * golden) % 1.0) - 1)))
    return {"id": index, "ra": round(ra, 6), "dec": round(dec, 6)}


class VOTableService:
    """Deterministic synthetic VO service.

    Parameters
    ----------
    rows_per_table:
        Number of photometry rows returned per query (the real service
        returns the matching sources near the coordinates).
    seed:
        Base seed mixed with the query coordinates.
    """

    def __init__(self, rows_per_table: int = 32, seed: int = 7) -> None:
        if rows_per_table < 1:
            raise ValueError("rows_per_table must be >= 1")
        self.rows_per_table = rows_per_table
        self.seed = seed
        self.queries_served = 0

    def query(self, ra: float, dec: float) -> Dict[str, np.ndarray]:
        """Synthesize the VOTable for the given coordinates.

        Returns a column-oriented table (dict of 1-D numpy arrays), the
        in-memory shape a parsed VOTable has.
        """
        # Derive a stable seed from the coordinates (quantized so float
        # round-trips cannot change the draw).
        key = (int(round(ra * 1e6)) & 0xFFFFFFFF, int(round(dec * 1e6)) & 0xFFFFFFFF)
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, *key]))
        n = self.rows_per_table
        # T-type: integer -5..10, weighted towards spirals (where internal
        # extinction matters).
        mtype = rng.integers(-5, 11, size=n).astype(np.float64)
        # The four normal columns in one draw: the same stream (and the same
        # values, ``loc + scale * z``) as four ``rng.normal`` calls, but one
        # GIL release instead of four -- each release costs a contended
        # re-acquire when many workers query at once.
        z = rng.standard_normal(4 * n)
        # Apparent axis ratio r25 >= 1; log10 thereof in [0, ~1.2].
        logr25 = np.abs(0.25 + 0.2 * z[:n]).clip(0.0, 1.2)
        bt = 14.0 + 1.5 * z[n:2 * n]
        vt = bt - np.abs(0.6 + 0.2 * z[2 * n:3 * n])
        e_logr25 = np.abs(0.02 + 0.01 * z[3 * n:])
        self.queries_served += 1
        return {
            "MType": mtype,
            "logr25": logr25,
            "BT": bt,
            "VT": vt,
            "e_logr25": e_logr25,
        }
