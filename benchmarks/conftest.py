"""Shared infrastructure for the figure-regeneration benchmarks.

Every ``bench_*.py`` file regenerates one paper figure (or one extension
experiment): it computes the data series with :mod:`repro.bench`, asserts
the qualitative *shape* the paper reports (who wins, direction of trends,
crossovers), saves the printed table under ``benchmarks/results/``, and
times a representative kernel with pytest-benchmark.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable:

* ``paper`` (default) — the paper's sizes (1000-node graphs, etc.);
* ``quick`` — reduced sizes for smoke runs.
"""

from __future__ import annotations

import os

import pytest


@pytest.fixture(scope="session")
def scale() -> dict:
    """Experiment sizes for the selected scale."""
    if os.environ.get("REPRO_BENCH_SCALE", "paper") == "quick":
        return {
            "nodes": 200,
            "degrees": tuple(range(1, 8)),
            "extended_degrees": (1, 2, 4, 8, 12),
            "sizes": (50, 100, 200, 400),
            "census_samples": 2000,
            "queries": 500,
            "update_batch": 40,
            "renumber_nodes": (500,),
        }
    return {
        "nodes": 1000,
        "degrees": tuple(range(1, 11)),
        "extended_degrees": (1, 2, 4, 8, 12, 16, 20, 30, 40),
        "sizes": (125, 250, 500, 1000, 2000),
        "census_samples": 20000,
        "queries": 2000,
        "update_batch": 100,
        "renumber_nodes": (5000, 20000),
    }
