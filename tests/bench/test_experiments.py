"""Sanity tests for the experiment drivers (tiny scales)."""

import pytest

from repro.bench.experiments import (
    chain_comparison,
    interval_census,
    io_traffic,
    merging_benefit,
    query_effort,
    storage_vs_degree,
    storage_vs_size,
    tree_cover_ablation,
    update_cost,
    worst_case_bipartite,
)


class TestStorageVsDegree:
    def test_row_shape(self):
        rows = storage_vs_degree(60, (1, 2, 3), seed=7)
        assert [row["degree"] for row in rows] == [1, 2, 3]
        for row in rows:
            assert row["relation"] == 60 * row["degree"]
            assert row["compressed_multiple"] == pytest.approx(
                row["compressed"] / row["relation"], rel=1e-6)

    def test_inverse_included_on_request(self):
        rows = storage_vs_degree(40, (2,), seed=7, include_inverse=True)
        assert "inverse" in rows[0] and "inverse_multiple" in rows[0]

    def test_trials_average(self):
        one = storage_vs_degree(40, (2,), seed=7, trials=1)
        many = storage_vs_degree(40, (2,), seed=7, trials=3)
        assert one[0]["relation"] == many[0]["relation"] == 80


class TestStorageVsSize:
    def test_row_shape(self):
        rows = storage_vs_size((30, 60), degree=2, seed=7)
        assert [row["nodes"] for row in rows] == [30, 60]

    def test_local_workload(self):
        rows = storage_vs_size((50, 100), degree=2, seed=7, workload="local")
        assert all(row["compressed"] <= row["full_closure"] for row in rows)

    def test_unknown_workload(self):
        with pytest.raises(ValueError):
            storage_vs_size((30,), workload="martian")


class TestCensus:
    def test_exhaustive_n3(self):
        histogram = interval_census(3, sample=None)
        assert sum(histogram.values()) == 8
        assert min(histogram) >= 3          # at least one interval per node

    def test_sampled(self):
        histogram = interval_census(6, sample=30, seed=1)
        assert sum(histogram.values()) == 30


class TestOtherDrivers:
    def test_merging_rows(self):
        rows = merging_benefit((40,), (2,), seed=7)
        assert rows[0]["merged_intervals"] <= rows[0]["intervals"]
        assert 0 <= rows[0]["saving_percent"] <= 100

    def test_worst_case_rows(self):
        direct, hubbed = worst_case_bipartite(4, 5)
        assert direct["intervals"] > hubbed["intervals"]

    def test_chain_rows(self):
        rows = chain_comparison((25,), (2,), seed=7)
        assert rows[0]["intervals"] <= rows[0]["chain_entries_optimal"]

    def test_ablation_rows(self):
        rows = tree_cover_ablation((30,), (2,), seed=7)
        for row in rows:
            assert row["alg1"] <= row["min_pred"]

    def test_update_cost_rows(self):
        rows = update_cost(60, 2, batch=8, seed=7)
        assert [row["workload"].split()[0] for row in rows] == [
            "insert", "refine:", "insert", "delete"]
        assert all(row["incremental_s"] >= 0 for row in rows)

    def test_query_effort_rows(self):
        (row,) = query_effort(60, 2, queries=40, seed=7)
        assert row["queries"] == 40
        assert 0 <= row["positive_fraction"] <= 1

    def test_io_rows(self):
        full_row, compressed_row = io_traffic(50, 2, queries=60, seed=7)
        assert full_row["layout"] == "full closure"
        assert compressed_row["pages"] <= full_row["pages"]
