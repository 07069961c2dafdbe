"""Floorplanning, macro placement, routing estimation, and layout."""

import json

import pytest

from repro.arch.config import GGPUConfig
from repro.errors import PhysicalDesignError
from repro.physical.floorplan import Floorplanner, Rect
from repro.physical.layout import PhysicalSynthesis
from repro.physical.placement import place_macros
from repro.eval.reports import table2_report
from repro.physical.routing import SIGNAL_LAYERS, RoutingEstimator
from repro.planner.optimizer import TimingOptimizer
from repro.rtl.generator import generate_ggpu_netlist
from repro.synth.logic import LogicSynthesis


def _synthesized(tech, num_cus=1, frequency=500.0, optimize=False):
    netlist = generate_ggpu_netlist(GGPUConfig(num_cus=num_cus), name=f"{num_cus}CU")
    if optimize:
        TimingOptimizer(tech).close_timing(netlist, frequency)
    synthesis = LogicSynthesis(tech).run(netlist, frequency)
    return netlist, synthesis


def test_rect_geometry():
    rect = Rect(0, 0, 100, 50)
    assert rect.area == 5000
    assert rect.center == (50, 25)
    assert rect.manhattan_distance_to(Rect(100, 100, 100, 50)) == 100 + 100
    with pytest.raises(PhysicalDesignError):
        Rect(0, 0, 0, 10)


def test_floorplan_die_size_matches_fig3(tech):
    """Fig. 3: the 1CU@500MHz die is roughly 2.7 x 2.5 mm."""
    _, synthesis = _synthesized(tech, 1, 500.0)
    floorplan = Floorplanner().plan(synthesis, 500.0)
    assert floorplan.die_width_um == pytest.approx(2700, rel=0.10)
    assert floorplan.die_height_um == pytest.approx(2500, rel=0.10)
    assert floorplan.die_area_mm2 > synthesis.total_area_mm2  # whitespace exists


def test_floorplan_contains_all_partitions(tech):
    _, synthesis = _synthesized(tech, 4, 500.0)
    floorplan = Floorplanner().plan(synthesis, 500.0)
    assert len(floorplan.cu_placements) == 4
    assert floorplan.memory_controller() is not None
    assert floorplan.placement("top") is not None
    with pytest.raises(PhysicalDesignError):
        floorplan.placement("cu99")
    assert floorplan.max_cu_distance_um() > 0
    assert "4 CU partition" in floorplan.summary()


def test_higher_frequency_needs_more_whitespace(tech):
    _, synthesis = _synthesized(tech, 1, 500.0)
    planner = Floorplanner()
    assert planner.whitespace_factor(667.0) > planner.whitespace_factor(500.0)
    small = planner.plan(synthesis, 500.0)
    large = planner.plan(synthesis, 667.0)
    assert large.die_area_mm2 > small.die_area_mm2


def test_eight_cu_floorplan_has_far_peripheral_cus(tech):
    _, small_synth = _synthesized(tech, 1, 500.0)
    _, big_synth = _synthesized(tech, 8, 500.0)
    planner = Floorplanner()
    single = planner.plan(small_synth, 500.0)
    eight = planner.plan(big_synth, 500.0)
    assert eight.max_cu_distance_um() > 5 * single.max_cu_distance_um()


def test_macro_placement_places_every_macro(tech):
    netlist, synthesis = _synthesized(tech, 1, 500.0)
    floorplan = Floorplanner().plan(synthesis, 500.0)
    macros = place_macros(netlist, floorplan, tech)
    assert len(macros) == netlist.total_macros()
    assert all(macro.rect.area > 0 for macro in macros)
    assert not any(macro.divided for macro in macros)  # unoptimized design


def test_divided_macros_are_tagged(tech):
    netlist, synthesis = _synthesized(tech, 1, 667.0, optimize=True)
    floorplan = Floorplanner().plan(synthesis, 667.0)
    macros = place_macros(netlist, floorplan, tech)
    assert any(macro.divided for macro in macros)


def test_routing_estimate_layers_and_growth(tech):
    netlist, synthesis = _synthesized(tech, 1, 500.0)
    floorplan = Floorplanner().plan(synthesis, 500.0)
    estimator = RoutingEstimator()
    estimate = estimator.estimate(netlist, synthesis, floorplan, tech, 500.0)
    assert set(estimate.per_layer_um) == set(SIGNAL_LAYERS)
    assert estimate.layer("M3") > estimate.layer("M7")
    netlist8, synthesis8 = _synthesized(tech, 8, 500.0)
    floorplan8 = Floorplanner().plan(synthesis8, 500.0)
    estimate8 = estimator.estimate(netlist8, synthesis8, floorplan8, tech, 500.0)
    assert estimate8.total_um > 5 * estimate.total_um
    assert estimator.effort_factor(667.0) > estimator.effort_factor(500.0) == 1.0


def test_wire_delay_annotation_targets_crossing_paths(tech):
    netlist, synthesis = _synthesized(tech, 8, 500.0)
    floorplan = Floorplanner().plan(synthesis, 500.0)
    delays = RoutingEstimator().annotate_wire_delays(netlist, floorplan, tech)
    assert len(delays) == 16  # request + response per CU
    assert all(delay > 0 for delay in delays.values())
    assert netlist.timing_paths["top/cu7_request"].wire_delay_ns == delays["top/cu7_request"]


def test_physical_synthesis_8cu_limited_to_600mhz(tech):
    """The paper's key physical result: 8CU@667MHz only closes ~600 MHz."""
    netlist, synthesis = _synthesized(tech, 8, 667.0, optimize=True)
    layout = PhysicalSynthesis(tech).run(netlist, synthesis, 667.0)
    assert not layout.timing_met
    assert 560.0 <= layout.achieved_frequency_mhz <= 640.0


def test_physical_synthesis_1cu_meets_667mhz(tech):
    netlist, synthesis = _synthesized(tech, 1, 667.0, optimize=True)
    layout = PhysicalSynthesis(tech).run(netlist, synthesis, 667.0)
    assert layout.timing_met
    assert layout.num_divided_macros > 0
    assert "meets" in layout.summary()


def test_layout_export_json_and_ascii(tech, tmp_path):
    netlist, synthesis = _synthesized(tech, 1, 500.0)
    layout = PhysicalSynthesis(tech).run(netlist, synthesis, 500.0)
    path = tmp_path / "layout.json"
    layout.write_json(str(path))
    data = json.loads(path.read_text())
    assert data["design"] == "1CU"
    assert len(data["macros"]) == netlist.total_macros()
    sketch = layout.ascii_floorplan()
    assert "M" in sketch and "C" in sketch
    with pytest.raises(PhysicalDesignError):
        layout.ascii_floorplan(columns=2, rows=2)


def test_table2_report_formatting(tech):
    netlist, synthesis = _synthesized(tech, 1, 500.0)
    layout = PhysicalSynthesis(tech).run(netlist, synthesis, 500.0)
    report = table2_report([layout.routing])
    assert "M2" in report.text() and "1CU@500MHz_um" in report.text()
    assert [row[0] for row in report.rows] == list(SIGNAL_LAYERS)


def test_floorplanner_validation():
    with pytest.raises(PhysicalDesignError):
        Floorplanner(cu_density=0.0)
