"""Tests for the energy-efficiency extension and the report exporters."""

from __future__ import annotations

import csv
import io

import pytest

from repro.errors import KernelError
from repro.eval.benchmarks import run_table3
from repro.eval.comparison import compute_area_ratios, compute_speedups, derate_by_area
from repro.eval.energy import (
    EnergyFigures,
    build_energy_comparison,
    riscv_power_w,
    synthesized_power_w,
)
from repro.eval.reports import (
    energy_report,
    speedup_report,
    table1_report,
    table2_report,
    table3_report,
    write_report_bundle,
)
from repro.eval.tables import build_table1, build_table2


@pytest.fixture(scope="module")
def small_table3():
    """A scaled-down Table III shared by the energy and report tests."""
    return run_table3(kernels=["copy", "div_int"], cu_counts=(1, 2), scale=0.125)


@pytest.fixture(scope="module")
def energy_comparison(small_table3, tech):
    return build_energy_comparison(small_table3, tech, frequency_mhz=667.0, cu_counts=(1, 2))


# --------------------------------------------------------------------------- #
# Energy model
# --------------------------------------------------------------------------- #
def test_energy_figures_runtime_energy_and_edp():
    figures = EnergyFigures(
        kernel="copy", target="riscv", cycles=667_000.0, frequency_mhz=667.0, power_w=0.5
    )
    assert figures.runtime_ms == pytest.approx(1.0)
    assert figures.energy_mj == pytest.approx(0.5)
    assert figures.edp_mj_ms == pytest.approx(0.5)


def test_synthesized_power_grows_with_cu_count(tech):
    powers = synthesized_power_w(tech, (1, 2), 667.0)
    assert powers[2] > 1.5 * powers[1]
    assert riscv_power_w(tech, 667.0) < powers[1]


def test_energy_comparison_has_every_kernel_and_cu_count(energy_comparison):
    assert sorted(energy_comparison.kernels) == ["copy", "div_int"]
    assert energy_comparison.cu_counts == [1, 2]
    assert energy_comparison.riscv_power_w > 0
    for kernel in energy_comparison.kernels:
        for num_cus in energy_comparison.cu_counts:
            assert energy_comparison.gpu[kernel][num_cus].energy_mj > 0


def test_energy_gain_follows_the_parallelism_split(energy_comparison):
    """The parallel kernel gains far more energy efficiency than the divergent one."""
    copy_gain = energy_comparison.gain("copy", 1)
    div_gain = energy_comparison.gain("div_int", 1)
    assert copy_gain > div_gain
    assert energy_comparison.best() >= copy_gain


def test_energy_gain_for_unknown_kernel_raises(energy_comparison):
    with pytest.raises(KernelError):
        energy_comparison.gain("fft", 1)


def test_energy_gain_series_and_text_table(energy_comparison):
    series = energy_comparison.gain_series()
    assert series.metric == "energy_gain"
    assert series.value("copy", 2) == pytest.approx(energy_comparison.gain("copy", 2))
    text = energy_report(energy_comparison).text()
    assert "kernel" in text and "copy" in text and "gain" in text


# --------------------------------------------------------------------------- #
# Report exporters
# --------------------------------------------------------------------------- #
def _parse_csv(text: str):
    return list(csv.reader(io.StringIO(text)))


def test_table1_exports(tech):
    results = build_table1(tech, cu_counts=(1,), frequencies_mhz=(500.0,))
    report = table1_report(results)
    rows = _parse_csv(report.csv())
    assert rows[0][0] == "version"
    assert rows[1][0] == "1@500MHz"
    assert len(rows) == 2
    markdown = report.markdown()
    assert markdown.count("|") > 10
    assert "1@500MHz" in markdown


def test_table2_export_lists_six_metal_layers(tech):
    estimates = build_table2(tech)
    rows = _parse_csv(table2_report(estimates).csv())
    assert [row[0] for row in rows[1:]] == ["M2", "M3", "M4", "M5", "M6", "M7"]
    assert len(rows[0]) == 1 + len(estimates)


def test_table3_and_speedup_exports(small_table3, tech):
    rows = _parse_csv(table3_report(small_table3).csv())
    assert rows[0][:3] == ["kernel", "riscv_size", "gpu_size"]
    assert {row[0] for row in rows[1:]} == {"copy", "div_int"}
    assert "copy" in table3_report(small_table3).markdown()

    speedups = compute_speedups(small_table3)
    csv_rows = _parse_csv(speedup_report(speedups).csv())
    assert csv_rows[0] == ["kernel", "1cu", "2cu"]
    markdown = speedup_report(speedups).markdown()
    assert "| kernel |" in markdown

    ratios = compute_area_ratios(tech, cu_counts=(1, 2))
    derated = derate_by_area(speedups, ratios)
    derated_rows = _parse_csv(speedup_report(derated).csv())
    assert float(derated_rows[1][1]) < float(csv_rows[1][1])


def test_energy_csv_export(energy_comparison):
    rows = _parse_csv(energy_report(energy_comparison).csv())
    assert rows[0][0] == "kernel"
    assert len(rows) == 1 + len(energy_comparison.kernels)
    assert all(len(row) == len(rows[0]) for row in rows)


def test_write_report_bundle_skips_missing_and_writes_given(tmp_path, small_table3, energy_comparison):
    speedups = compute_speedups(small_table3)
    written = write_report_bundle(
        str(tmp_path / "reports"),
        table3=small_table3,
        figure5=speedups,
        energy=energy_comparison,
    )
    assert set(written) == {
        "table3.csv",
        "table3.md",
        "figure5_speedup.csv",
        "figure5_speedup.md",
        "energy_extension.csv",
        "energy_extension.md",
    }
    for path in written.values():
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read().strip()
