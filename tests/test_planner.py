"""GPUPlanner: spec, optimizer, estimator, DSE, flow, and versions."""

import pytest

from repro.arch.config import GGPUConfig
from repro.errors import ConfigurationError, PlanningError
from repro.eval.benchmarks import BenchmarkSizes, measure_gpu_kernel
from repro.planner.dse import DesignSpaceExplorer
from repro.planner.estimator import PpaMap
from repro.planner.flow import GpuPlannerFlow
from repro.planner.optimizer import TimingOptimizer
from repro.planner.spec import GGPUSpec
from repro.planner.versions import (
    PAPER_CU_COUNTS,
    PAPER_FREQUENCIES_MHZ,
    PHYSICAL_VERSION_SPECS,
    paper_version_labels,
    paper_version_specs,
)
from repro.rtl.generator import generate_ggpu_netlist
from repro.rtl.timing import analyze_timing


# --------------------------------------------------------------------------- #
# Spec
# --------------------------------------------------------------------------- #
def test_spec_validation_and_label():
    spec = GGPUSpec(num_cus=2, target_frequency_mhz=590.0)
    assert spec.label == "2cu_590mhz"
    assert spec.architecture().num_cus == 2
    assert spec.with_frequency(667.0).target_frequency_mhz == 667.0
    with pytest.raises(ConfigurationError):
        GGPUSpec(num_cus=0, target_frequency_mhz=500.0)
    with pytest.raises(ConfigurationError):
        GGPUSpec(num_cus=1, target_frequency_mhz=-1.0)
    with pytest.raises(ConfigurationError):
        GGPUSpec(num_cus=1, target_frequency_mhz=500.0, max_area_mm2=0.0)
    with pytest.raises(ConfigurationError):
        GGPUSpec(num_cus=2, target_frequency_mhz=500.0, config=GGPUConfig(num_cus=4))


# --------------------------------------------------------------------------- #
# Optimizer
# --------------------------------------------------------------------------- #
def test_optimizer_closes_590_by_dividing_memories(tech):
    netlist = generate_ggpu_netlist(GGPUConfig(num_cus=1))
    result = TimingOptimizer(tech).close_timing(netlist, 590.0)
    assert result.met
    assert result.num_divisions > 0
    assert analyze_timing(netlist, tech, 590.0).met
    # Paper Table I: the 1-CU version grows from 51 to ~68 macros at 590 MHz.
    assert 60 <= netlist.total_macros() <= 72
    rf = netlist.memory_groups["cu0/register_file0"]
    assert rf.num_macros == 2 and rf.macro.words == 1024


def test_optimizer_closes_667_with_pipelines_too(tech):
    netlist = generate_ggpu_netlist(GGPUConfig(num_cus=1))
    result = TimingOptimizer(tech).close_timing(netlist, 667.0)
    assert result.met
    assert result.num_pipelines > 0
    assert netlist.pipeline_ff() > 0
    assert analyze_timing(netlist, tech, 667.0).met
    assert "memory divisions" in result.summary()


def test_optimizer_reports_infeasible_targets(tech):
    netlist = generate_ggpu_netlist(GGPUConfig(num_cus=1))
    result = TimingOptimizer(tech).close_timing(netlist, 1500.0)
    assert not result.met
    assert result.achieved_frequency_mhz < 1500.0
    with pytest.raises(PlanningError):
        TimingOptimizer(tech).close_timing(netlist, 0.0)


def test_optimizer_500_needs_no_transforms(tech):
    netlist = generate_ggpu_netlist(GGPUConfig(num_cus=1))
    result = TimingOptimizer(tech).close_timing(netlist, 500.0)
    assert result.met
    assert result.num_divisions == 0 and result.num_pipelines == 0
    assert netlist.total_macros() == 51


# --------------------------------------------------------------------------- #
# First-order estimator (the map)
# --------------------------------------------------------------------------- #
def test_map_unoptimized_frequency_is_500(tech):
    ppa_map = PpaMap(tech)
    assert ppa_map.unoptimized_frequency_mhz() == pytest.approx(500.0, abs=15.0)


def test_map_recommends_dividing_the_register_file(tech):
    estimate = PpaMap(tech).estimate(GGPUSpec(num_cus=1, target_frequency_mhz=590.0))
    assert estimate.feasible
    divided_roles = {recommendation.role for recommendation in estimate.divisions}
    assert "cu/register_file" in divided_roles
    assert estimate.total_extra_macros > 0
    assert "divide" in estimate.summary()


def test_map_estimates_scale_with_cus(tech):
    ppa_map = PpaMap(tech)
    one = ppa_map.estimate(GGPUSpec(1, 500.0))
    eight = ppa_map.estimate(GGPUSpec(8, 500.0))
    assert eight.estimated_area_mm2 > 5 * one.estimated_area_mm2
    assert eight.estimated_macros == 8 * 42 + 9
    assert one.estimated_area_mm2 == pytest.approx(4.1, rel=0.2)


def test_map_flags_unreachable_frequency_and_budgets(tech):
    unreachable = PpaMap(tech).estimate(GGPUSpec(1, 1500.0))
    assert not unreachable.feasible
    over_budget = PpaMap(tech).estimate(GGPUSpec(8, 500.0, max_area_mm2=1.0))
    assert not over_budget.feasible
    assert any("exceeds" in note for note in over_budget.notes)


def test_map_accepts_user_memory_delays(tech):
    slow = PpaMap(tech, memory_delay_overrides_ns={"register_file": 2.5})
    assert slow.unoptimized_frequency_mhz() < 400.0


# --------------------------------------------------------------------------- #
# Design-space exploration
# --------------------------------------------------------------------------- #
def test_dse_explores_the_grid(tech):
    explorer = DesignSpaceExplorer(tech)
    points = explorer.explore(cu_counts=(1, 2), frequencies_mhz=(500.0, 590.0))
    assert len(points) == 4
    assert all(point.met for point in points)
    feasible = explorer.feasible_points(points)
    assert len(feasible) == 4
    frontier = explorer.pareto_frontier(points)
    assert frontier and len(frontier) <= len(points)
    assert all(point.efficiency_proxy > 0 for point in points)
    with pytest.raises(PlanningError):
        explorer.explore(cu_counts=(), frequencies_mhz=(500.0,))


# --------------------------------------------------------------------------- #
# Flow
# --------------------------------------------------------------------------- #
def test_flow_meets_spec_for_1cu_667(tech):
    flow = GpuPlannerFlow(tech)
    result = flow.run(GGPUSpec(num_cus=1, target_frequency_mhz=667.0))
    assert result.meets_specification
    assert result.achieved_frequency_mhz == pytest.approx(667.0)
    assert result.layout is not None
    assert result.estimate.feasible
    assert "specification met" in result.summary()


def test_flow_reports_8cu_667_shortfall(tech):
    flow = GpuPlannerFlow(tech)
    result = flow.run(GGPUSpec(num_cus=8, target_frequency_mhz=667.0))
    assert not result.meets_specification
    assert any("post-route" in issue for issue in result.issues)
    assert result.achieved_frequency_mhz < 667.0


def test_flow_checks_area_budget_and_skips_physical(tech):
    flow = GpuPlannerFlow(tech, run_physical=False)
    result = flow.run(GGPUSpec(num_cus=1, target_frequency_mhz=500.0, max_area_mm2=1.0))
    assert result.layout is None
    assert any("area" in issue for issue in result.issues)
    with pytest.raises(PlanningError):
        flow.run_many([])


# --------------------------------------------------------------------------- #
# Versions
# --------------------------------------------------------------------------- #
def test_paper_versions_cover_the_12_points():
    specs = paper_version_specs()
    assert len(specs) == 12
    assert {spec.num_cus for spec in specs} == set(PAPER_CU_COUNTS)
    assert {spec.target_frequency_mhz for spec in specs} == set(PAPER_FREQUENCIES_MHZ)
    assert paper_version_labels()[0] == "1@500MHz"
    assert len(PHYSICAL_VERSION_SPECS) == 4


# --------------------------------------------------------------------------- #
# Workload-scored design-space exploration
# --------------------------------------------------------------------------- #
def test_workload_suites_match_the_kernel_registry():
    """The literal suite tuples in dse.py must track the kernel registry."""
    from repro.kernels import all_kernel_names
    from repro.kernels.library import PAPER_KERNEL_NAMES
    from repro.planner.dse import EXTENDED_WORKLOAD_SUITE, PAPER_WORKLOAD_SUITE

    assert list(PAPER_WORKLOAD_SUITE) == list(PAPER_KERNEL_NAMES)
    assert list(EXTENDED_WORKLOAD_SUITE) == all_kernel_names()


def test_explore_workloads_scores_points_against_measured_kernels(tech):
    explorer = DesignSpaceExplorer(tech)
    points = explorer.explore_workloads(
        cu_counts=(1, 2),
        frequencies_mhz=(500.0, 667.0),
        workloads=("saxpy", "transpose"),
        scale=0.25,
    )
    assert len(points) == 4
    measured = {
        (kernel, num_cus): measure_gpu_kernel(
            kernel, num_cus, BenchmarkSizes.paper(kernel).scaled(0.25).gpu_size
        ).cycles
        for kernel in ("saxpy", "transpose")
        for num_cus in (1, 2)
    }
    for point in points:
        assert set(point.kernel_cycles) == {"saxpy", "transpose"}
        for kernel, cycles in point.kernel_cycles.items():
            assert cycles == measured[(kernel, point.spec.num_cus)]
        assert point.total_runtime_ms > 0
        assert point.runtime_ms("saxpy") > 0
        assert point.runtime_per_area > 0
    with pytest.raises(PlanningError):
        points[0].runtime_ms("mat_mul")
    with pytest.raises(PlanningError):
        explorer.explore_workloads(workloads=())
    # More CUs -> fewer cycles for the parallel-friendly pair at this size.
    by_spec = {(p.spec.num_cus, p.spec.target_frequency_mhz): p for p in points}
    assert (
        by_spec[(2, 500.0)].kernel_cycles["saxpy"]
        <= by_spec[(1, 500.0)].kernel_cycles["saxpy"]
    )
