"""The benchmark kernel suite (paper + extended): registry, correctness on both targets."""

import dataclasses

import numpy as np
import pytest

from repro.errors import KernelError
from repro.eval import multidevice as multidevice_module
from repro.runtime import queue as queue_module
from repro.runtime.queue import BatchItem, QueueBatch, run_batch
from repro.kernels import all_kernel_names, get_kernel_spec, run_workload
from repro.kernels.library import pick_workgroup_size
from repro.riscv.programs import all_riscv_program_names, get_riscv_program_spec
from repro.simt.gpu import GGPUSimulator
from repro.arch.config import GGPUConfig

PAPER_KERNELS = ["mat_mul", "copy", "vec_mul", "fir", "div_int", "xcorr", "parallel_sel"]
EXTENDED_KERNELS = [
    "saxpy",
    "dot",
    "reduce_sum",
    "inclusive_scan",
    "histogram",
    "transpose",
]
DENSE_KERNELS = ["matmul2d", "conv2d", "bitonic_sort"]
ALL_KERNELS = PAPER_KERNELS + EXTENDED_KERNELS + DENSE_KERNELS
SMALL_SIZE = 128
SEED = 7


def test_registry_contains_the_full_suite():
    assert all_kernel_names() == ALL_KERNELS
    assert all_riscv_program_names() == ALL_KERNELS
    with pytest.raises(KernelError):
        get_kernel_spec("nonexistent")
    with pytest.raises(KernelError):
        get_riscv_program_spec("nonexistent")


def test_paper_input_sizes_match_table3():
    expected = {
        "mat_mul": (128, 2048),
        "copy": (512, 32768),
        "vec_mul": (1024, 65536),
        "fir": (128, 4096),
        "div_int": (512, 4096),
        "xcorr": (256, 4096),
        "parallel_sel": (128, 2048),
    }
    for name, (riscv_size, gpu_size) in expected.items():
        spec = get_kernel_spec(name)
        assert spec.paper_riscv_size == riscv_size
        assert spec.paper_gpu_size == gpu_size


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_gpu_kernel_matches_reference(name):
    spec = get_kernel_spec(name)
    simulator = GGPUSimulator(GGPUConfig(num_cus=2), memory_bytes=16 * 1024 * 1024)
    result, outputs = run_workload(simulator, spec.build(), spec.workload(SMALL_SIZE, SEED))
    assert result.cycles > 0
    assert outputs  # run_workload already verified against the numpy reference


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_riscv_program_matches_reference(name):
    spec = get_riscv_program_spec(name)
    case = spec.build_case(SMALL_SIZE, SEED)
    stats, outputs = case.run()
    assert stats.cycles > 0
    assert outputs


@pytest.mark.parametrize("name", ALL_KERNELS)
def test_gpu_and_riscv_compute_identical_results(name):
    """Both targets consume the same generated workload and must agree."""
    gpu_spec = get_kernel_spec(name)
    workload = gpu_spec.workload(SMALL_SIZE, SEED)
    simulator = GGPUSimulator(GGPUConfig(num_cus=1), memory_bytes=16 * 1024 * 1024)
    _, gpu_outputs = run_workload(simulator, gpu_spec.build(), workload)
    riscv_case = get_riscv_program_spec(name).build_case(SMALL_SIZE, SEED)
    _, riscv_outputs = riscv_case.run()
    for buffer_name, gpu_values in gpu_outputs.items():
        assert np.array_equal(gpu_values, riscv_outputs[buffer_name])


def test_workload_checking_detects_corruption(simulator):
    spec = get_kernel_spec("copy")
    workload = spec.workload(SMALL_SIZE, SEED)
    workload.expected["dst"] = workload.expected["dst"] + 1  # corrupt the reference
    with pytest.raises(KernelError):
        run_workload(simulator, spec.build(), workload)


def test_every_harness_reports_how_many_values_are_wrong(monkeypatch, simulator):
    spec = get_kernel_spec("copy")

    def corrupted(size, seed):
        workload = spec.workload(size, seed)
        workload.expected["dst"] = workload.expected["dst"] + 1  # every word wrong
        return workload

    bad_spec = dataclasses.replace(spec, workload=corrupted)
    monkeypatch.setattr(queue_module, "get_kernel_spec", lambda name: bad_spec)
    monkeypatch.setattr(multidevice_module, "get_kernel_spec", lambda name: bad_spec)
    case = get_riscv_program_spec("copy").build_case(SMALL_SIZE, SEED)
    case.expected["dst"] = case.expected["dst"] + 1
    with pytest.raises(KernelError, match=r"kernel 'copy' produced 128 wrong values in 'dst'"):
        run_workload(simulator, spec.build(), corrupted(SMALL_SIZE, SEED))
    with pytest.raises(KernelError, match=r"program 'copy' produced \d+ wrong values in 'dst'"):
        case.run()
    with pytest.raises(KernelError, match=r"kernel 'copy' produced 128 wrong values in 'dst'"):
        run_batch(QueueBatch(items=(BatchItem("copy", SMALL_SIZE, SEED),)))
    with pytest.raises(KernelError, match=r"queue produced \d+ wrong values in 'copy.dst'"):
        multidevice_module.run_multidevice_table((1,), kernels=["copy"], scale=0.05, jobs=1)


def test_mat_mul_requires_multiple_of_inner_dim():
    with pytest.raises(KernelError):
        get_kernel_spec("mat_mul").workload(100, SEED)


def test_div_int_is_divergent_and_parallel_sel_scatters(simulator):
    div_spec = get_kernel_spec("div_int")
    result, _ = run_workload(simulator, div_spec.build(), div_spec.workload(SMALL_SIZE, SEED))
    assert result.stats.simd_efficiency < 0.9  # predication wastes lanes
    sel_spec = get_kernel_spec("parallel_sel")
    workload = sel_spec.workload(SMALL_SIZE, SEED)
    assert sorted(workload.buffers["a"]) == list(workload.expected["out"])


def test_pick_workgroup_size():
    assert pick_workgroup_size(2048) == 256
    assert pick_workgroup_size(64) == 64
    assert pick_workgroup_size(320, preferred=256) == 64
    with pytest.raises(KernelError):
        pick_workgroup_size(100)


def test_kernel_programs_fit_the_cram():
    for name in ALL_KERNELS:
        program = get_kernel_spec(name).build().program
        assert len(program) <= 2048
        assert program.instructions[-1].opcode.mnemonic == "ret"


def test_default_workload_uses_paper_size():
    spec = get_kernel_spec("fir")
    workload = spec.default_workload(seed=SEED)
    assert workload.ndrange.global_size == spec.paper_gpu_size
