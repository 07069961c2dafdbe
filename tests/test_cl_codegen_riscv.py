"""Functional tests for the RISC-V back end of the OpenCL-C compiler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.kernel import NDRange
from repro.cl import compile_kernel_to_riscv_case, compile_source
from repro.errors import CompilationError, SimulationError
from repro.kernels.library import GpuWorkload
from repro.riscv.cpu import RiscvCpu
from repro.riscv.isa import RvOpcode


def make_workload(buffers, scalars, expected, n, workgroup=64):
    return GpuWorkload(
        buffers={name: np.asarray(data, dtype=np.int64) for name, data in buffers.items()},
        scalars=scalars,
        expected={name: np.asarray(data, dtype=np.int64) for name, data in expected.items()},
        ndrange=NDRange(n, workgroup),
    )


def test_vector_add_on_riscv():
    n = 128
    a = np.arange(n, dtype=np.int64)
    b = 7 - np.arange(n, dtype=np.int64)
    workload = make_workload(
        {"a": a, "b": b, "out": np.zeros(n, dtype=np.int64)},
        {"n": n},
        {"out": a + b},
        n,
    )
    case = compile_kernel_to_riscv_case(
        """
        __kernel void vec_add(__global int *a, __global int *b, __global int *out, int n) {
            int gid = get_global_id(0);
            out[gid] = a[gid] + b[gid];
        }
        """,
        workload,
    )
    stats, outputs = case.run(check=True)
    assert stats.instructions > n  # at least one instruction per work-item
    np.testing.assert_array_equal(outputs["out"].astype(np.int64), (a + b) & 0xFFFFFFFF)


def test_control_flow_and_divergence_free_loop_on_riscv():
    n = 64
    a = (np.arange(n, dtype=np.int64) % 9) + 1
    expected = np.array([int(v).bit_length() - 1 for v in a], dtype=np.int64)
    workload = make_workload(
        {"a": a, "out": np.zeros(n, dtype=np.int64)},
        {"n": n},
        {"out": expected},
        n,
    )
    case = compile_kernel_to_riscv_case(
        """
        __kernel void count_halvings(__global int *a, __global int *out, int n) {
            int gid = get_global_id(0);
            int v = a[gid];
            int steps = 0;
            while (v > 1) {
                v = v >> 1;
                steps += 1;
            }
            out[gid] = steps;
        }
        """,
        workload,
    )
    # A budget far above the run's 1,688 instructions: a looping ISS defect
    # fails here at once instead of spinning to the default 200M limit.
    stats, outputs = case.run(check=True, cpu=RiscvCpu(case.memory, max_instructions=100_000))
    np.testing.assert_array_equal(outputs["out"].astype(np.int64), expected)
    assert stats.taken_branches > 0


def test_if_else_and_builtins_on_riscv():
    n, wg = 128, 32
    expected = np.where(np.arange(n) % wg < 16, np.arange(n) // wg, -1) & 0xFFFFFFFF
    workload = make_workload(
        {"out": np.zeros(n, dtype=np.int64)},
        {"n": n},
        {"out": expected},
        n,
        workgroup=wg,
    )
    case = compile_kernel_to_riscv_case(
        """
        __kernel void groups(__global int *out, int n) {
            int gid = get_global_id(0);
            if (get_local_id(0) < 16) {
                out[gid] = get_group_id(0);
            } else {
                out[gid] = -1;
            }
        }
        """,
        workload,
    )
    _, outputs = case.run(check=True)
    np.testing.assert_array_equal(outputs["out"].astype(np.int64), expected)


def test_min_max_and_compound_assignment_on_riscv():
    n = 64
    a = np.arange(-32, 32, dtype=np.int64)
    expected = (np.clip(a, -10, 10) * 2) & 0xFFFFFFFF
    workload = make_workload(
        {"a": a},
        {"n": n},
        {"a": expected},
        n,
    )
    case = compile_kernel_to_riscv_case(
        """
        __kernel void clamp_scale(__global int *a, int n) {
            int gid = get_global_id(0);
            a[gid] = min(max(a[gid], -10), 10);
            a[gid] *= 2;
        }
        """,
        workload,
    )
    _, outputs = case.run(check=True)
    np.testing.assert_array_equal(outputs["a"].astype(np.int64), expected)


def test_barrier_is_a_noop_on_the_scalar_core():
    n = 64
    workload = make_workload(
        {"out": np.zeros(n, dtype=np.int64)},
        {"n": n},
        {"out": np.arange(n, dtype=np.int64) + 1},
        n,
    )
    case = compile_kernel_to_riscv_case(
        """
        __kernel void with_barrier(__global int *out, int n) {
            int gid = get_global_id(0);
            out[gid] = gid;
            barrier(CLK_LOCAL_MEM_FENCE);
            out[gid] += 1;
        }
        """,
        workload,
    )
    _, outputs = case.run(check=True)
    np.testing.assert_array_equal(outputs["out"], np.arange(n) + 1)


def test_program_ends_with_halt_and_uses_branches():
    n = 64
    workload = make_workload(
        {"out": np.zeros(n, dtype=np.int64)},
        {"n": n},
        {},
        n,
    )
    case = compile_kernel_to_riscv_case(
        "__kernel void f(__global int *out, int n) { int gid = get_global_id(0); out[gid] = gid; }",
        workload,
    )
    opcodes = [instruction.opcode for instruction in case.program.instructions]
    assert opcodes[-1] is RvOpcode.EBREAK
    assert RvOpcode.BGE in opcodes  # the work-item loop bound check
    assert case.program.encode()  # every instruction has a valid encoding


def test_missing_workload_values_are_reported():
    n = 64
    workload = make_workload({"a": np.zeros(n, dtype=np.int64)}, {}, {}, n)
    with pytest.raises(CompilationError, match="no value provided|provides no value"):
        compile_kernel_to_riscv_case(
            "__kernel void f(__global int *a, int n) { int gid = get_global_id(0); a[gid] = n; }",
            workload,
        )


def test_missing_buffer_is_reported():
    n = 64
    workload = make_workload({}, {"n": n}, {}, n)
    with pytest.raises(CompilationError, match="no buffer"):
        compile_kernel_to_riscv_case(
            "__kernel void f(__global int *a, int n) { int gid = get_global_id(0); a[gid] = n; }",
            workload,
        )


def test_oversized_workload_does_not_fit_the_32kb_memory():
    n = 16384  # 64 kB of data cannot fit the 32 kB tightly-coupled memory
    workload = make_workload(
        {"a": np.zeros(n, dtype=np.int64)},
        {"n": n},
        {},
        n,
    )
    with pytest.raises(SimulationError, match="does not fit"):
        compile_kernel_to_riscv_case(
            "__kernel void f(__global int *a, int n) { int gid = get_global_id(0); a[gid] = 1; }",
            workload,
        )


def test_same_source_compiles_for_both_targets():
    source = """
    __kernel void square(__global int *a, __global int *out, int n) {
        int gid = get_global_id(0);
        out[gid] = a[gid] * a[gid];
    }
    """
    n = 64
    a = np.arange(n, dtype=np.int64)
    program = compile_source(source)
    gpu_kernel = program.to_ggpu_kernel()
    assert gpu_kernel.name == "square"
    workload = make_workload(
        {"a": a, "out": np.zeros(n, dtype=np.int64)},
        {"n": n},
        {"out": a * a},
        n,
    )
    case = program.to_riscv_case(workload)
    _, outputs = case.run(check=True)
    np.testing.assert_array_equal(outputs["out"].astype(np.int64), a * a)


@pytest.mark.parametrize("expression", ["min(x, n)", "max(x, n)", "min(n, x)"])
def test_min_max_assigned_to_an_operand_agree_on_both_targets(expression):
    """``x = min(x, n)`` must not clobber ``x`` before the comparison.

    G-GPU, RISC-V and a python reference agree, with ``a`` cycling through
    0..7 and ``n = 4``.
    """
    from repro.arch.config import GGPUConfig
    from repro.kernels import run_workload
    from repro.simt.gpu import GGPUSimulator

    source = f"""
    __kernel void assign_minmax(__global int *a, __global int *out, int n) {{
        int gid = get_global_id(0);
        int x = a[gid];
        x = {expression};
        out[gid] = x;
    }}
    """
    n = 64
    a = np.arange(n, dtype=np.int64) % 8
    pick = max if expression.startswith("max") else min
    expected = np.array([pick(int(value), 4) for value in a], dtype=np.int64)
    workload = make_workload(
        {"a": a, "out": np.zeros(n, dtype=np.int64)}, {"n": 4}, {"out": expected}, n
    )
    program = compile_source(source)
    simulator = GGPUSimulator(GGPUConfig(num_cus=1))
    _, gpu_outputs = run_workload(simulator, program.to_ggpu_kernel(), workload, check=False)
    _, riscv_outputs = program.to_riscv_case(workload).run(check=False)
    np.testing.assert_array_equal(gpu_outputs["out"].astype(np.int64), expected)
    np.testing.assert_array_equal(riscv_outputs["out"].astype(np.int64), expected)
