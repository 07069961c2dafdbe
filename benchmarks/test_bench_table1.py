"""Regenerate Table I: the 12 G-GPU versions after logic synthesis.

Prints the reproduced table next to the paper's values and checks the shape:
51/93/177/345 macros at 500 MHz, near-linear area scaling with CU count, and
the modest area cost of the higher-frequency versions.
"""

from __future__ import annotations

import pytest

from repro.eval.paper_data import PAPER_TABLE1
from repro.eval.tables import build_table1
from repro.eval.reports import table1_report
from repro.synth.report import SynthesisReportRow


def _regenerate(tech):
    return build_table1(tech)


@pytest.mark.benchmark(group="table1")
def test_table1_logic_synthesis_of_12_versions(benchmark, tech):
    results = benchmark.pedantic(_regenerate, args=(tech,), rounds=1, iterations=1)
    assert len(results) == 12

    print("\n=== Reproduced Table I ===")
    print(table1_report(results).text())
    print("\n=== Paper Table I (reference) ===")
    for label, row in PAPER_TABLE1.items():
        print(f"{label:12s} area={row[0]:6.2f} mem={row[1]:6.2f} ff={row[2]:7d} "
              f"comb={row[3]:7d} mem#={row[4]:4d} leak={row[5]:6.2f} dyn={row[6]:6.2f}")

    by_label = {SynthesisReportRow.from_result(result).label: result for result in results}
    # Macro counts at 500 MHz match the paper exactly.
    for num_cus, macros in ((1, 51), (2, 93), (4, 177), (8, 345)):
        assert by_label[f"{num_cus}@500MHz"].num_macros == macros
    # Area scales roughly linearly with the CU count.
    assert by_label["8@500MHz"].total_area_mm2 > 5.5 * by_label["1@500MHz"].total_area_mm2
    # Every version closes timing at its target frequency after optimization.
    assert all(result.timing_met for result in results)
    # Optimized versions cost more area and more macros than the 500 MHz ones.
    assert by_label["1@667MHz"].total_area_mm2 > by_label["1@500MHz"].total_area_mm2
    assert by_label["1@667MHz"].num_macros > by_label["1@500MHz"].num_macros
    # Within 20% of the paper's absolute area for the anchor versions.
    assert by_label["1@500MHz"].total_area_mm2 == pytest.approx(PAPER_TABLE1["1@500MHz"][0], rel=0.2)
    assert by_label["8@500MHz"].total_area_mm2 == pytest.approx(PAPER_TABLE1["8@500MHz"][0], rel=0.2)
