"""Evaluation harness: Table III measurements, speed-ups, tables, and figures.

All simulation here runs at strongly reduced input sizes so the suite stays
fast; the full paper-sized regeneration lives in ``benchmarks/``.
"""

from dataclasses import asdict

import pytest

from repro.errors import KernelError
from repro.eval.benchmarks import (
    BenchmarkSizes,
    measure_gpu_kernel,
    measure_riscv_program,
    run_table3,
)
from repro.eval.comparison import (
    AreaRatios,
    compute_area_ratios,
    compute_speedups,
    derate_by_area,
)
from repro.eval.figures import build_figure3, build_figure4, format_speedup_chart
from repro.eval.paper_data import (
    PAPER_AREA_RATIOS,
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    paper_speedup,
    paper_speedup_per_area,
)
from repro.eval.multidevice import (
    run_multidevice_table,
    run_pipeline_table,
    run_topology_table,
)
from repro.eval.reports import multidevice_report, pipeline_report, table3_report
from repro.eval.tables import build_physical_versions, build_table2


@pytest.fixture(scope="module")
def small_table3():
    return run_table3(kernels=["copy", "div_int"], cu_counts=(1, 2), scale=0.125)


def test_benchmark_sizes_scaling():
    sizes = BenchmarkSizes.paper("vec_mul")
    assert sizes.riscv_size == 1024 and sizes.gpu_size == 65536
    scaled = sizes.scaled(0.01)
    assert scaled.riscv_size >= 64 and scaled.gpu_size >= 64
    assert scaled.gpu_size % 64 == 0
    with pytest.raises(KernelError):
        sizes.scaled(2.0)


def test_measurements_report_cycles_and_sizes():
    gpu = measure_gpu_kernel("copy", num_cus=1, input_size=256)
    riscv = measure_riscv_program("copy", input_size=64)
    assert gpu.cycles > 0 and riscv.cycles > 0
    assert gpu.kcycles == pytest.approx(gpu.cycles / 1000)
    assert gpu.input_size == 256 and riscv.input_size == 64


def test_table3_structure(small_table3):
    assert small_table3.kernels == ["copy", "div_int"]
    row = small_table3.row("copy")
    assert row.riscv_size >= 64
    assert set(row.gpu) == {1, 2}
    assert row.gpu_kcycles(1) >= row.gpu_kcycles(2) * 0.9
    with pytest.raises(KernelError):
        small_table3.row("missing")
    text = table3_report(small_table3).text()
    assert "copy" in text and "riscv_kcycles" in text


def test_multidevice_table_structure_and_rendering():
    table = run_multidevice_table(
        device_counts=(1, 2), kernels=["copy", "saxpy"], scale=0.125, jobs=1
    )
    assert table.device_counts == [1, 2]
    assert table.kernels == ["copy", "saxpy"]
    baseline = table.cell(1)
    wide = table.cell(2)
    assert baseline.launches == 2 and wide.launches == 2
    # Independent launches: two devices can only help (or tie).
    assert wide.makespan <= baseline.makespan
    assert table.speedup(1) == pytest.approx(1.0)
    assert table.speedup(2) >= 1.0
    # The same launch costs the same simulated cycles in every cell.
    assert [entry[5] for entry in baseline.schedule] == [
        entry[5] for entry in wide.schedule
    ]
    assert baseline.makespan >= baseline.critical_path_cycles
    with pytest.raises(KernelError):
        table.cell(8)
    with pytest.raises(KernelError):
        run_multidevice_table(device_counts=())
    with pytest.raises(KernelError):
        run_multidevice_table(device_counts=(2, 2))

    report = multidevice_report(table)
    text = report.text()
    assert "devices" in text and "makespan_kcycles" in text and "2 kernels" in text
    csv_text = report.csv()
    assert csv_text.splitlines()[0].startswith("devices,makespan_kcycles,speedup")
    assert len(csv_text.strip().splitlines()) == 3
    markdown = report.markdown()
    assert markdown.startswith("| devices |")


def test_multidevice_table_identical_serial_vs_fanned_out():
    """jobs=1 (shared, reset pool, launch memo) and jobs=2 (fresh pools,
    every launch simulated) agree bit-exactly, cell for cell."""
    serial = run_multidevice_table(
        device_counts=(1, 2), kernels=["copy", "dot"], scale=0.125, jobs=1
    )
    fanned = run_multidevice_table(
        device_counts=(1, 2), kernels=["copy", "dot"], scale=0.125, jobs=2
    )
    for count in (1, 2):
        assert asdict(serial.cell(count)) == asdict(fanned.cell(count))


def test_pipeline_table_modes_structure_and_rendering():
    table = run_pipeline_table(device_counts=(1, 2), lanes=4, size=128, jobs=1)
    assert table.device_counts == [1, 2]
    assert table.modes == ["host", "p2p", "p2p-prefetch"]
    # Host baseline defines the improvement ratio.
    assert table.improvement("host", 2) == pytest.approx(1.0)
    # Direct transfers can only help (or tie) the cross-device shuffle.
    assert table.improvement("p2p", 2) >= 1.0
    assert table.cell("p2p", 2).transfers_p2p > 0
    assert table.cell("p2p", 2).transfers_from_device == 0
    # One device never crosses devices: the modes tie exactly.
    assert table.cell("p2p", 1).makespan == table.cell("host", 1).makespan
    # Per-launch cycles identical across every (mode, device count) cell.
    reference = [entry[5] for entry in sorted(table.cell("host", 1).schedule)]
    for key in table.cells:
        assert [entry[5] for entry in sorted(table.cells[key].schedule)] == reference
    with pytest.raises(KernelError):
        table.cell("host", 8)
    with pytest.raises(KernelError):
        run_pipeline_table(device_counts=(), lanes=4, size=128)
    with pytest.raises(KernelError):
        run_pipeline_table(device_counts=(1,), lanes=1, size=128)
    with pytest.raises(KernelError):
        run_pipeline_table(device_counts=(1,), lanes=4, size=128, modes=("p2p",))

    report = pipeline_report(table)
    text = report.text()
    assert "mode" in text and "p2p-prefetch" in text and "4 lanes" in text
    csv_text = report.csv()
    assert csv_text.splitlines()[0].startswith("mode,devices,makespan_kcycles")
    assert len(csv_text.strip().splitlines()) == 1 + 3 * 2
    markdown = report.markdown()
    assert markdown.startswith("| mode |")


def test_pipeline_table_identical_serial_vs_fanned_out():
    serial = run_pipeline_table(device_counts=(1, 2), lanes=4, size=128, jobs=1)
    fanned = run_pipeline_table(device_counts=(1, 2), lanes=4, size=128, jobs=2)
    assert set(serial.cells) == set(fanned.cells)
    for key in serial.cells:
        assert asdict(serial.cells[key]) == asdict(fanned.cells[key])


def test_speedup_computation_uses_input_ratio(small_table3):
    speedups = compute_speedups(small_table3)
    row = small_table3.row("copy")
    expected = row.riscv.cycles * (row.gpu_size / row.riscv_size) / row.gpu[1].cycles
    assert speedups.value("copy", 1) == pytest.approx(expected)
    assert speedups.best() > 0
    assert speedups.best_kernel() in ("copy", "div_int")
    with pytest.raises(KernelError):
        speedups.value("copy", 8)
    chart = format_speedup_chart(speedups)
    assert "copy" in chart and "#" in chart


def test_area_ratio_derating(small_table3):
    speedups = compute_speedups(small_table3)
    ratios = AreaRatios(riscv_area_mm2=0.5, ggpu_area_mm2={1: 2.0, 2: 4.0})
    derated = derate_by_area(speedups, ratios)
    assert derated.value("copy", 1) == pytest.approx(speedups.value("copy", 1) / 4.0)
    assert ratios.ratio(2) == pytest.approx(8.0)
    with pytest.raises(KernelError):
        ratios.ratio(8)


def test_computed_area_ratios_match_paper_shape(tech):
    ratios = compute_area_ratios(tech, cu_counts=(1, 8))
    assert ratios.ratio(1) == pytest.approx(PAPER_AREA_RATIOS[1], rel=0.15)
    assert ratios.ratio(8) == pytest.approx(PAPER_AREA_RATIOS[8], rel=0.15)
    assert ratios.ratio(8) > 5 * ratios.ratio(1)


@pytest.fixture(scope="module")
def physical_layouts(tech):
    return build_physical_versions(tech)


def test_table2_and_figures_3_4(tech, physical_layouts):
    estimates = build_table2(tech, physical_layouts)
    assert len(estimates) == 4
    labels = [f"{estimate.design}@{estimate.frequency_mhz:.0f}MHz" for estimate in estimates]
    assert labels[0] == "1CU@500MHz"
    assert labels[3].startswith("8CU@")  # achieved ~600 MHz, not the 667 target
    assert not labels[3].endswith("667MHz")
    slow_1cu, fast_1cu = build_figure3(tech, physical_layouts)
    assert fast_1cu.floorplan.die_area_mm2 > slow_1cu.floorplan.die_area_mm2
    slow_8cu, fast_8cu = build_figure4(tech, physical_layouts)
    assert len(fast_8cu.floorplan.cu_placements) == 8
    assert fast_8cu.achieved_frequency_mhz < 667.0


def test_paper_data_consistency():
    assert len(PAPER_TABLE1) == 12
    assert set(PAPER_TABLE2) == {"M2", "M3", "M4", "M5", "M6", "M7"}
    assert len(PAPER_TABLE3) == 7
    # The abstract's headline: up to 223x raw speed-up, up to ~10x per area.
    assert paper_speedup("mat_mul", 8) == pytest.approx(223.0, rel=0.05)
    assert paper_speedup_per_area("mat_mul", 1) == pytest.approx(10.2, rel=0.05)
    # Derated by area the 8-CU configuration is the worst (paper's Fig. 6 trend).
    assert paper_speedup_per_area("mat_mul", 8) < paper_speedup_per_area("mat_mul", 1)


def test_topology_table_structure_and_rendering():
    from repro.eval.multidevice import run_topology_table
    from repro.eval.reports import topology_report

    table = run_topology_table(
        device_counts=(2, 4),
        width=8,
        depth=4,
        size=128,
        lanes=4,
        stages=2,
        jobs=1,
    )
    assert table.device_counts == [2, 4]
    assert table.dags == ["layered", "shuffle"]
    assert table.topologies == ["flat", "two-switch", "ring"]
    assert table.schedulers == ["lpt", "heft", "stealing"]
    # LPT is its own baseline in every cell.
    for dag in table.dags:
        for topo in table.topologies:
            assert table.speedup_vs_lpt(dag, topo, "lpt", 2) == pytest.approx(1.0)
    # Per-launch cycles identical across every (topology, scheduler, count)
    # cell of a DAG — run_topology_table asserts it internally; spot-check.
    reference = {
        entry[0]: entry[5] for entry in table.cell("layered", "flat", "lpt", 2).schedule
    }
    other = table.cell("layered", "ring", "stealing", 4)
    assert {entry[0]: entry[5] for entry in other.schedule} == reference
    with pytest.raises(KernelError):
        table.cell("layered", "flat", "lpt", 8)
    with pytest.raises(KernelError):
        run_topology_table(device_counts=())
    with pytest.raises(KernelError):
        run_topology_table(device_counts=(2, 2))
    with pytest.raises(KernelError):
        run_topology_table(device_counts=(2,), schedulers=("heft",))

    report = topology_report(table)
    text = report.text()
    assert "topology" in text and "stealing" in text and "speedup_vs_lpt" in text
    csv_text = report.csv()
    assert csv_text.splitlines()[0].startswith("dag,topology,scheduler,devices")
    assert len(csv_text.strip().splitlines()) == 1 + 2 * 3 * 3 * 2
    markdown = report.markdown()
    assert markdown.startswith("| dag |")


SMALL_TOPOLOGY = {
    "device_counts": (2, 4),
    "topologies": ("flat", "ring"),
    "width": 8,
    "depth": 4,
    "size": 128,
    "lanes": 4,
    "stages": 2,
}


def test_topology_table_identical_serial_vs_fanned_out():
    """The memoized serial sweep equals the fully simulated fan-out, for
    both DAGs, cell for cell."""
    from repro.eval.multidevice import run_topology_table

    serial = run_topology_table(jobs=1, **SMALL_TOPOLOGY)
    fanned = run_topology_table(jobs=2, **SMALL_TOPOLOGY)
    assert serial.dags == ["layered", "shuffle"]
    assert set(serial.cells) == set(fanned.cells)
    for key in serial.cells:
        assert asdict(serial.cells[key]) == asdict(fanned.cells[key])


def test_topology_table_simulates_each_distinct_launch_once(simulated_launches):
    from repro.eval.multidevice import run_topology_table

    table = run_topology_table(jobs=1, **SMALL_TOPOLOGY)
    distinct = {
        (cell.dag, entry[0]) for cell in table.cells.values() for entry in cell.schedule
    }
    assert len(simulated_launches) == len(distinct)
    assert sum(len(cell.schedule) for cell in table.cells.values()) > len(distinct)


@pytest.mark.parametrize(
    "sweep, options",
    [
        (run_pipeline_table, {"lanes": 4, "size": 128, "modes": ("host", "bogus")}),
        (run_topology_table, {**SMALL_TOPOLOGY, "schedulers": ("lpt", "bogus")}),
        (run_topology_table, {**SMALL_TOPOLOGY, "dags": ("layered", "bogus")}),
        (run_topology_table, {**SMALL_TOPOLOGY, "topologies": ("flat", "bogus")}),
    ],
    ids=["pipeline-mode", "scheduler", "dag", "topology"],
)
def test_unknown_grid_coordinates_fail_before_any_cell_runs(simulated_launches, sweep, options):
    with pytest.raises(KernelError):
        sweep(jobs=1, **{"device_counts": (1, 2), **options})
    assert simulated_launches == []
