"""Tests for the Internal Extinction of Galaxies workflow."""

import numpy as np
import pytest

from repro import run
from repro.workflows.astro.pes import (
    FilterColumns,
    GetVOTable,
    InternalExtinction,
    ReadRaDec,
    internal_extinction,
)
from repro.workflows.astro.votable import VOTableService, catalog_coordinates
from repro.workflows.astro.workflow import (
    GALAXIES_PER_X,
    build_internal_extinction_workflow,
)
from tests.conftest import FAST_SCALE


class TestCatalog:
    def test_coordinates_deterministic(self):
        assert catalog_coordinates(7) == catalog_coordinates(7)

    def test_coordinates_distinct(self):
        coords = {(catalog_coordinates(i)["ra"], catalog_coordinates(i)["dec"]) for i in range(50)}
        assert len(coords) == 50

    def test_valid_ranges(self):
        for i in range(100):
            c = catalog_coordinates(i)
            assert 0 <= c["ra"] < 360
            assert -90 <= c["dec"] <= 90

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            catalog_coordinates(-1)


class TestVOTableService:
    def test_deterministic_per_coordinates(self):
        service = VOTableService()
        a = service.query(10.5, -20.25)
        b = VOTableService().query(10.5, -20.25)
        assert np.array_equal(a["MType"], b["MType"])

    def test_columns_complete(self):
        table = VOTableService().query(1.0, 2.0)
        assert set(table) == {"MType", "logr25", "BT", "VT", "e_logr25"}

    def test_row_count(self):
        table = VOTableService(rows_per_table=12).query(0.0, 0.0)
        assert all(len(col) == 12 for col in table.values())

    def test_invalid_rows(self):
        with pytest.raises(ValueError):
            VOTableService(rows_per_table=0)

    def test_query_counter(self):
        service = VOTableService()
        service.query(1, 2)
        service.query(3, 4)
        assert service.queries_served == 2

    def test_normal_columns_match_per_column_draws(self):
        """The one ``standard_normal`` draw reproduces, bit for bit, the
        four ``rng.normal`` calls the columns are documented by."""
        for index in range(25):
            coords = catalog_coordinates(index)
            table = VOTableService().query(coords["ra"], coords["dec"])
            key = (
                int(round(coords["ra"] * 1e6)) & 0xFFFFFFFF,
                int(round(coords["dec"] * 1e6)) & 0xFFFFFFFF,
            )
            rng = np.random.default_rng(np.random.SeedSequence([7, *key]))
            mtype = rng.integers(-5, 11, size=32).astype(np.float64)
            logr25 = np.abs(rng.normal(0.25, 0.2, size=32)).clip(0.0, 1.2)
            bt = rng.normal(14.0, 1.5, size=32)
            vt = bt - np.abs(rng.normal(0.6, 0.2, size=32))
            e_logr25 = np.abs(rng.normal(0.02, 0.01, size=32))
            expected = {
                "MType": mtype, "logr25": logr25, "BT": bt, "VT": vt,
                "e_logr25": e_logr25,
            }
            for column, values in expected.items():
                assert table[column].tobytes() == values.tobytes(), (index, column)


class TestInternalExtinctionFormula:
    def test_ellipticals_have_no_extinction(self):
        result = internal_extinction(np.array([-5.0, 0.0]), np.array([0.5, 0.5]))
        assert np.all(result == 0.0)

    def test_spirals_have_positive_extinction(self):
        result = internal_extinction(np.array([2.0, 4.0, 6.0, 9.0]), np.full(4, 0.3))
        assert np.all(result > 0)

    def test_coefficient_decreases_with_type(self):
        logr = np.full(4, 0.5)
        early, mid, late, latest = internal_extinction(
            np.array([2.0, 4.0, 6.0, 9.0]), logr
        )
        assert early > mid > late > latest

    def test_face_on_galaxy_zero(self):
        """logr25 = 0 (face-on): nothing to correct."""
        assert internal_extinction(np.array([3.0]), np.array([0.0]))[0] == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            internal_extinction(np.zeros(2), np.zeros(3))

    @pytest.mark.parametrize(
        "mtype, coefficient",
        [
            (0.999, 0.0),
            (1.0, 1.58),
            (3.0, 1.58),
            (3.5, 1.33),
            (5.0, 1.33),
            (7.0, 1.10),
            (10.0, 0.92),
            (10.5, 0.0),
            (float("nan"), 0.0),
        ],
    )
    def test_band_boundaries(self, mtype, coefficient):
        """Bands are closed above (T <= 3, 5, 7, 10); T < 1, T > 10 and an
        unknown (NaN) type take no correction."""
        [result] = internal_extinction(np.array([mtype]), np.array([2.0]))
        assert result == 2.0 * coefficient


class TestAstroPEs:
    def test_read_radec(self):
        pe = ReadRaDec()
        [(port, record)] = pe._invoke({"input": 5})
        assert port == "output" and record == catalog_coordinates(5)

    def test_get_votable_emits_table(self):
        pe = GetVOTable(query_latency=0.0)
        [(_, record)] = pe._invoke({"input": {"id": 1, "ra": 5.0, "dec": 5.0}})
        assert "table" in record and record["id"] == 1

    def test_filter_keeps_two_columns(self):
        vo = GetVOTable(query_latency=0.0)
        [(_, record)] = vo._invoke({"input": {"id": 1, "ra": 5.0, "dec": 5.0}})
        filt = FilterColumns(filter_cost=0.0)
        [(_, filtered)] = filt._invoke({"input": record})
        assert set(filtered["table"]) == {"MType", "logr25"}

    def test_filter_missing_columns_raises(self):
        filt = FilterColumns(filter_cost=0.0)
        with pytest.raises(KeyError):
            filt._invoke({"input": {"id": 0, "table": {"BT": np.zeros(2)}}})

    def test_extinction_pe_output(self):
        pe = InternalExtinction(compute_cost=0.0)
        table = {"MType": np.array([3.0]), "logr25": np.array([0.4])}
        [(_, record)] = pe._invoke({"input": {"id": 9, "table": table}})
        assert record["mean_extinction"] == pytest.approx(1.58 * 0.4)


class TestWorkflowFactory:
    def test_scale_controls_stream_length(self):
        _g, inputs = build_internal_extinction_workflow(scale=3)
        assert len(inputs) == 3 * GALAXIES_PER_X

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            build_internal_extinction_workflow(scale=0)

    def test_graph_shape(self):
        g, _ = build_internal_extinction_workflow()
        assert len(g.pes) == 4
        assert not g.is_stateful()
        assert g.topological_order() == [
            "readRaDec",
            "getVOTable",
            "filterColumns",
            "internalExtinction",
        ]

    def test_heavy_flag_propagates(self):
        g, _ = build_internal_extinction_workflow(heavy=True)
        assert g.pe("getVOTable").heavy
        assert g.pe("filterColumns").heavy

    def test_end_to_end_counts(self):
        g, inputs = build_internal_extinction_workflow(scale=1, query_latency=0.0)
        result = run(g, inputs=inputs[:20], processes=4, mapping="dyn_multi", time_scale=FAST_SCALE)
        outs = result.output("internalExtinction")
        assert len(outs) == 20
        assert {o["id"] for o in outs} == set(range(20))

    def test_results_identical_across_mappings(self):
        def means(mapping):
            g, inputs = build_internal_extinction_workflow(scale=1, query_latency=0.0)
            result = run(g, inputs=inputs[:10], processes=4, mapping=mapping, time_scale=FAST_SCALE)
            return sorted(
                (o["id"], round(o["mean_extinction"], 12))
                for o in result.output("internalExtinction")
            )

        assert means("simple") == means("multi") == means("dyn_redis")
