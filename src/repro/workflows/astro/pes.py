"""Processing elements of the Internal Extinction of Galaxies workflow.

Costs are expressed in nominal seconds and drawn from the behaviour of the
original dispel4py example: the VO query dominates (network IO), the
filter/compute stages are light CPU.  The *heavy* variant adds random
``beta(2, 5)`` sleeps (0..1 nominal seconds) to ``getVO Table`` and
``filter Columns``, exactly where the paper added them.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np

from repro.core.pe import IterativePE
from repro.workflows.astro.votable import VOTableService, catalog_coordinates


class ReadRaDec(IterativePE):
    """Stream galaxy coordinates from the (synthetic) input catalog.

    Driven with iteration indices; emits one ``{id, ra, dec}`` record per
    input.
    """

    def __init__(self, name: str = "readRaDec", read_cost: float = 0.002) -> None:
        super().__init__(name)
        self.read_cost = read_cost

    def _process(self, data: Any) -> Dict[str, float]:
        index = int(data)
        self.compute(self.read_cost)
        return catalog_coordinates(index)


class GetVOTable(IterativePE):
    """Download the galaxy's VOTable from the VO service (simulated).

    Parameters
    ----------
    service:
        Synthetic VO service (one per PE; deep-copied per instance).
    query_latency:
        Nominal IO wait per query (network round trip + transfer).
    parse_cost:
        Nominal CPU cost of parsing the returned table.
    heavy:
        Inject a ``beta(2, 5)``-distributed extra sleep of up to
        ``heavy_max_sleep`` nominal seconds (the paper's "heavy" knob).
    """

    def __init__(
        self,
        name: str = "getVOTable",
        service: Optional[VOTableService] = None,
        query_latency: float = 0.12,
        parse_cost: float = 0.02,
        heavy: bool = False,
        heavy_max_sleep: float = 1.0,
    ) -> None:
        super().__init__(name)
        self.service = service if service is not None else VOTableService()
        self.query_latency = query_latency
        self.parse_cost = parse_cost
        self.heavy = heavy
        self.heavy_max_sleep = heavy_max_sleep

    def _process(self, data: Dict[str, float]) -> Dict[str, Any]:
        self.io_wait(self.query_latency)
        if self.heavy:
            self.io_wait(float(self.rng.beta(2, 5)) * self.heavy_max_sleep)
        table = self.service.query(data["ra"], data["dec"])
        self.compute(self.parse_cost)
        return {"id": data["id"], "table": table}


class FilterColumns(IterativePE):
    """Project the VOTable down to the columns the computation needs."""

    #: Columns kept for the internal-extinction computation.
    KEEP = ("MType", "logr25")

    def __init__(
        self,
        name: str = "filterColumns",
        filter_cost: float = 0.03,
        heavy: bool = False,
        heavy_max_sleep: float = 1.0,
    ) -> None:
        super().__init__(name)
        self.filter_cost = filter_cost
        self.heavy = heavy
        self.heavy_max_sleep = heavy_max_sleep

    def _process(self, data: Dict[str, Any]) -> Dict[str, Any]:
        self.compute(self.filter_cost)
        if self.heavy:
            self.io_wait(float(self.rng.beta(2, 5)) * self.heavy_max_sleep)
        table = data["table"]
        missing = [c for c in self.KEEP if c not in table]
        if missing:
            raise KeyError(f"VOTable for galaxy {data['id']} lacks columns {missing}")
        filtered = {column: np.asarray(table[column]) for column in self.KEEP}
        return {"id": data["id"], "table": filtered}


#: Inclusive upper T-type bounds of the spiral bands, and each band's
#: coefficient; the last coefficient is for types above 10 (and NaN).
_BAND_EDGES = np.array([3.0, 5.0, 7.0, 10.0])
_BAND_COEFFICIENTS = np.array([1.58, 1.33, 1.10, 0.92, 0.0])


def internal_extinction(mtype: np.ndarray, logr25: np.ndarray) -> np.ndarray:
    """Vectorized internal-extinction computation.

    Follows the classic HyperLEDA-style correction used by the original
    dispel4py astrophysics example: the B-band internal extinction of a
    spiral galaxy is ``A_int = C(T) * log10(r25)``, with the coefficient
    ``C`` depending on the morphological T-type, and ellipticals/lenticular
    types (T < 1) taking no correction.
    """
    mtype = np.asarray(mtype, dtype=np.float64)
    logr25 = np.asarray(logr25, dtype=np.float64)
    if mtype.shape != logr25.shape:
        raise ValueError("MType and logr25 must have identical shapes")
    # A band lookup: ``searchsorted`` finds the first edge >= T (NaN sorts
    # past every edge), then types below 1 are zeroed.
    band = np.searchsorted(_BAND_EDGES, mtype)
    coefficient = np.where(mtype < 1, 0.0, _BAND_COEFFICIENTS[band])
    return coefficient * logr25


class InternalExtinction(IterativePE):
    """Compute the per-source internal extinction and its galaxy mean."""

    def __init__(self, name: str = "internalExtinction", compute_cost: float = 0.02) -> None:
        super().__init__(name)
        self.compute_cost = compute_cost

    def _process(self, data: Dict[str, Any]) -> Dict[str, Any]:
        self.compute(self.compute_cost)
        table = data["table"]
        extinction = internal_extinction(table["MType"], table["logr25"])
        return {
            "id": data["id"],
            "extinction": extinction,
            "mean_extinction": float(extinction.mean()),
        }
