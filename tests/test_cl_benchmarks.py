"""Cross-checks between the compiled and the hand-written benchmark kernels.

The OpenCL-C sources in :mod:`repro.cl.sources` must produce exactly the
same output buffers as the hand-written kernels in :mod:`repro.kernels` (the
workload's numpy reference checks both), and their cycle counts must stay in
the same ballpark -- the compiler does not have the hand-tuned strength
reductions, so it is allowed to be slower, but not by an order of magnitude.
"""

from __future__ import annotations

import pytest

from repro.arch.config import GGPUConfig
from repro.cl import BENCHMARK_CL_SOURCES, compile_source, get_benchmark_source
from repro.errors import CompilationError
from repro.kernels import all_kernel_names, get_kernel_spec, run_workload
from repro.riscv.cpu import RiscvCpu
from repro.riscv.programs import get_riscv_program_spec
from repro.simt.gpu import GGPUSimulator

SMALL_SIZE = 128
#: Ten times the largest RISC-V run here (xcorr, 493,322 instructions), so an
#: ISS defect that makes a program loop fails in a fraction of a second
#: instead of spinning to the CPU's default limit of 200M instructions.
RISCV_INSTRUCTION_BUDGET = 5_000_000


def _small_workload(name: str, seed: int = 11):
    return get_kernel_spec(name).workload(SMALL_SIZE, seed)


def test_every_paper_benchmark_has_a_cl_source():
    assert sorted(BENCHMARK_CL_SOURCES) == sorted(all_kernel_names())


def test_unknown_benchmark_source_is_reported():
    with pytest.raises(CompilationError, match="no OpenCL source"):
        get_benchmark_source("fft")


@pytest.mark.parametrize("name", sorted(BENCHMARK_CL_SOURCES))
def test_compiled_kernel_matches_reference_outputs_on_gpu(name):
    program = compile_source(get_benchmark_source(name))
    kernel = program.to_ggpu_kernel()
    workload = _small_workload(name)
    simulator = GGPUSimulator(GGPUConfig(num_cus=1), memory_bytes=8 * 1024 * 1024)
    # run_workload checks every expected output buffer against numpy.
    result, outputs = run_workload(simulator, kernel, workload)
    assert result.cycles > 0
    assert outputs


@pytest.mark.parametrize("name", sorted(BENCHMARK_CL_SOURCES))
def test_compiled_kernel_matches_reference_outputs_on_riscv(name):
    program = compile_source(get_benchmark_source(name))
    workload = _small_workload(name)
    case = program.to_riscv_case(workload)
    cpu = RiscvCpu(case.memory, max_instructions=RISCV_INSTRUCTION_BUDGET)
    stats, outputs = case.run(check=True, cpu=cpu)
    assert stats.cycles > 0
    assert outputs


@pytest.mark.parametrize("name", ["copy", "vec_mul", "mat_mul"])
def test_compiled_gpu_kernel_cycle_count_is_close_to_hand_written(name):
    spec = get_kernel_spec(name)
    workload = _small_workload(name)
    compiled = compile_source(get_benchmark_source(name)).to_ggpu_kernel()

    sim_compiled = GGPUSimulator(GGPUConfig(num_cus=1), memory_bytes=8 * 1024 * 1024)
    compiled_cycles, _ = run_workload(sim_compiled, compiled, workload)
    sim_hand = GGPUSimulator(GGPUConfig(num_cus=1), memory_bytes=8 * 1024 * 1024)
    hand_cycles, _ = run_workload(sim_hand, spec.build(), workload)

    # The compiler misses the hand-tuned pointer-increment strength reduction,
    # so it may be slower -- but it must stay within ~3x, and never faster than
    # half the hand-written kernel (that would indicate it skipped work).
    ratio = compiled_cycles.cycles / hand_cycles.cycles
    assert 0.5 <= ratio <= 3.0


def test_compiled_riscv_baseline_is_comparable_to_hand_written_for_copy():
    name = "copy"
    workload = _small_workload(name)
    case = compile_source(get_benchmark_source(name)).to_riscv_case(workload)
    compiled_stats, _ = case.run(check=True)
    hand_case = get_riscv_program_spec(name).build_case(SMALL_SIZE, 11)
    hand_stats, _ = hand_case.run(check=True)
    assert compiled_stats.cycles / hand_stats.cycles <= 2.0


def test_compiled_kernels_scale_with_cu_count():
    """The compiled mat_mul still shows the multi-CU scaling the paper relies on."""
    program = compile_source(get_benchmark_source("mat_mul"))
    kernel = program.to_ggpu_kernel()
    # 1024 output elements = 4 workgroups of 256 work-items, enough to occupy 4 CUs.
    workload = get_kernel_spec("mat_mul").workload(1024, 5)
    cycles = {}
    for num_cus in (1, 4):
        simulator = GGPUSimulator(GGPUConfig(num_cus=num_cus), memory_bytes=8 * 1024 * 1024)
        result, _ = run_workload(simulator, kernel, workload)
        cycles[num_cus] = result.cycles
    assert cycles[4] < cycles[1] * 0.45


def test_divergence_costs_show_up_in_div_int():
    """div_int's masked inner region issues both sides, like the hand-written kernel."""
    program = compile_source(get_benchmark_source("div_int"))
    kernel = program.to_ggpu_kernel()
    workload = _small_workload("div_int")
    simulator = GGPUSimulator(GGPUConfig(num_cus=1), memory_bytes=8 * 1024 * 1024)
    result, _ = run_workload(simulator, kernel, workload)
    # Average active lanes per issue < wavefront size: divergence is real.
    stats = result.stats.cu_stats[0]
    assert stats.active_lane_issues < stats.instructions_issued * 64
