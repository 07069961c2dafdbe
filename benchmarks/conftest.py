"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints the
reproduced values next to the published ones.  The heavyweight part is the
Table III / Fig. 5 / Fig. 6 kernel simulation; its input sizes are controlled
by the ``REPRO_BENCH_SCALE`` environment variable (1.0 = the paper's sizes,
default 0.5 keeps a full benchmark run to a couple of minutes) and its
process fan-out by ``REPRO_JOBS`` (see :mod:`repro.runtime.parallel`).

The benches assert and print; they write no files.  Host-time measurements
live in ``perfbench/run.py``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.eval.benchmarks import Table3Data, run_table3
from repro.eval.tables import build_physical_versions
from repro.tech.technology import Technology, default_65nm

BENCH_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    """Mark everything under ``benchmarks/`` as ``bench``.

    The root ``pytest.ini`` deselects that marker by default, so the tier-1
    run (`pytest -x -q`) skips the paper-regeneration harness; run it with
    ``pytest -m bench benchmarks``.
    """
    for item in items:
        try:
            Path(item.fspath).relative_to(BENCH_DIR)
        except ValueError:
            continue
        item.add_marker(pytest.mark.bench)


def bench_scale() -> float:
    """Input-size scale factor for the simulation-heavy benchmarks."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


@pytest.fixture(scope="session")
def input_scale() -> float:
    """The effective ``REPRO_BENCH_SCALE`` (fixture so benches need no conftest import)."""
    return bench_scale()


@pytest.fixture(scope="session")
def tech() -> Technology:
    return default_65nm()


@pytest.fixture(scope="session")
def table3_measurements() -> Table3Data:
    """One shared Table III measurement reused by the Table III / Fig. 5 / Fig. 6 benches."""
    return run_table3(scale=bench_scale())


@pytest.fixture(scope="session")
def physical_layouts(tech):
    """The four physically implemented versions (shared by Table II and Figs. 3-4)."""
    return build_physical_versions(tech)
