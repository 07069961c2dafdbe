"""Logic synthesis model and Table-I reporting."""

import pytest

from repro.arch.config import GGPUConfig
from repro.errors import SynthesisError
from repro.eval.paper_data import PAPER_TABLE1
from repro.rtl.generator import generate_ggpu_netlist
from repro.rtl.netlist import Partition
from repro.synth.logic import LogicSynthesis
from repro.eval.reports import table1_report
from repro.synth.report import SynthesisReportRow


@pytest.fixture
def synthesis(tech) -> LogicSynthesis:
    return LogicSynthesis(tech)


def test_synthesis_result_counts_match_netlist(synthesis):
    netlist = generate_ggpu_netlist(GGPUConfig(num_cus=2))
    result = synthesis.run(netlist, 500.0)
    assert result.num_macros == netlist.total_macros()
    assert result.num_ff == netlist.total_ff()
    assert result.num_comb == netlist.total_gates()
    assert result.total_area_mm2 == pytest.approx(
        result.memory_area_mm2 + result.logic_area_mm2
    )
    assert result.total_power_w == pytest.approx(
        result.dynamic_w + result.leakage_mw / 1000.0
    )
    assert result.timing_met


def test_area_grows_roughly_linearly_with_cus(synthesis):
    """Paper: 'the G-GPU size grows linearly with the number of CUs'."""
    areas = {}
    for num_cus in (1, 2, 4, 8):
        netlist = generate_ggpu_netlist(GGPUConfig(num_cus=num_cus))
        areas[num_cus] = synthesis.run(netlist, 500.0).total_area_mm2
    per_cu_increment = (areas[8] - areas[1]) / 7
    assert areas[2] == pytest.approx(areas[1] + per_cu_increment, rel=0.05)
    assert areas[4] == pytest.approx(areas[1] + 3 * per_cu_increment, rel=0.05)


def test_1cu_500mhz_matches_paper_scale(synthesis):
    netlist = generate_ggpu_netlist(GGPUConfig(num_cus=1))
    result = synthesis.run(netlist, 500.0)
    paper_area, paper_memory, paper_ff, paper_comb, paper_macros, paper_leak, paper_dyn, _ = PAPER_TABLE1["1@500MHz"]
    assert result.total_area_mm2 == pytest.approx(paper_area, rel=0.15)
    assert result.memory_area_mm2 == pytest.approx(paper_memory, rel=0.15)
    assert result.num_macros == paper_macros
    assert result.num_ff == pytest.approx(paper_ff, rel=0.05)
    assert result.leakage_mw == pytest.approx(paper_leak, rel=0.30)
    assert result.dynamic_w == pytest.approx(paper_dyn, rel=0.35)


def test_partition_breakdown_covers_everything(synthesis):
    netlist = generate_ggpu_netlist(GGPUConfig(num_cus=1))
    result = synthesis.run(netlist, 500.0)
    total = sum(area.total_area_um2 for area in result.partitions.values())
    assert total == pytest.approx(
        (result.memory_area_mm2 + result.logic_area_mm2) * 1.0e6
    )
    cu_area = result.partitions[Partition.CU]
    assert cu_area.num_macros == 42
    assert result.area_per_cu_mm2() > 0


def test_power_scales_with_frequency(synthesis):
    netlist = generate_ggpu_netlist(GGPUConfig(num_cus=1))
    at_500 = synthesis.run(netlist, 500.0)
    at_667 = synthesis.run(netlist, 667.0)
    assert at_667.dynamic_w > at_500.dynamic_w
    assert at_667.leakage_mw == pytest.approx(at_500.leakage_mw)
    assert not at_667.timing_met  # unoptimized netlist cannot run at 667 MHz


def test_synthesis_validation(tech):
    with pytest.raises(SynthesisError):
        LogicSynthesis(tech, memory_activity=0.0)
    synthesis = LogicSynthesis(tech)
    netlist = generate_ggpu_netlist(GGPUConfig(num_cus=1))
    with pytest.raises(SynthesisError):
        synthesis.run(netlist, -5.0)


def test_table1_report_formatting(synthesis):
    netlist = generate_ggpu_netlist(GGPUConfig(num_cus=1))
    result = synthesis.run(netlist, 500.0)
    row = SynthesisReportRow.from_result(result)
    assert row.label == "1@500MHz"
    assert len(row.as_tuple()) == 9
    text = table1_report([result]).text()
    assert "1@500MHz" in text
    assert "num_memory" in text
    assert str(result.num_macros) in text
