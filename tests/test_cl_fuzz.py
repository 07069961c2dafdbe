"""Hypothesis fuzz tests for the CL compiler paths the extended suite exercises.

Three templates, each instantiated with randomly drawn constants, compiled
and executed on *both* backends (G-GPU SIMT and scalar RISC-V) and compared
bit-exactly against a pure-python model:

* **barriers in loops + local-memory accumulation** — a counted loop whose
  body stages through ``__local`` memory with two barriers per iteration;
* **cross-lane local gather** — lanes read a lower lane's slot after a
  barrier, under a divergent mask (serialization-safe: only *backward* lane
  dependencies, which the RISC-V work-item loop preserves);
* **strided global indexing** — block-transpose-style scatter stores plus
  modular strided gather reads.

The drawn constants steer register pressure, immediate-vs-register operand
selection, mask nesting, and address patterns through compiler paths the
fixed benchmark sources touch only at single points.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from repro.arch.config import GGPUConfig
from repro.arch.kernel import NDRange
from repro.cl import compile_source
from repro.kernels.library import GpuWorkload
from repro.riscv.cpu import RiscvCpu
from repro.simt.gpu import GGPUSimulator

MASK = 0xFFFFFFFF

#: Instruction budget of each draw's RISC-V run, far above the largest one
#: (13,320 instructions over hypothesis seeds 0-9), so an ISS defect that
#: makes a program loop fails its draw in a fraction of a second instead of
#: spinning to the CPU's default limit of 200M instructions.
RISCV_INSTRUCTION_BUDGET = 1_000_000

# No explain phase: it replays a failing draw hundreds of times under a line
# tracer, which held a failing test for five minutes instead of seconds.
FUZZ_SETTINGS = settings(
    max_examples=8,
    deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink),
    suppress_health_check=[HealthCheck.too_slow],
)


def _run_both_backends(source: str, workload: GpuWorkload, expected: np.ndarray):
    """Compile ``source`` and pin GGPU, RISC-V, and the model bit-exactly."""
    program = compile_source(source)
    expected_u32 = np.asarray(expected, dtype=np.int64) & MASK

    kernel = program.to_ggpu_kernel()
    simulator = GGPUSimulator(GGPUConfig(num_cus=2), memory_bytes=4 * 1024 * 1024)
    addresses = {}
    args = {}
    for name, contents in workload.buffers.items():
        addresses[name] = simulator.create_buffer(np.asarray(contents, dtype=np.int64) & MASK)
        args[name] = addresses[name]
    args.update({name: int(value) for name, value in workload.scalars.items()})
    simulator.launch(kernel, workload.ndrange, args)
    (out_name, out_expected), = workload.expected.items()
    gpu_out = simulator.read_buffer(addresses[out_name], len(out_expected)).astype(np.int64)
    assert np.array_equal(gpu_out, expected_u32), "G-GPU output diverges from the model"

    case = program.to_riscv_case(workload, memory_bytes=64 * 1024)
    cpu = RiscvCpu(case.memory, max_instructions=RISCV_INSTRUCTION_BUDGET)
    _, riscv_outputs = case.run(check=False, cpu=cpu)
    riscv_out = riscv_outputs[out_name].astype(np.int64)
    assert np.array_equal(riscv_out, expected_u32), "RISC-V output diverges from the model"


# --------------------------------------------------------------------------- #
# Template 1: barriers inside a counted loop, own-slot local accumulation
# --------------------------------------------------------------------------- #
@FUZZ_SETTINGS
@given(
    rounds=st.integers(min_value=1, max_value=4),
    c0=st.integers(min_value=0, max_value=8000),
    c1=st.integers(min_value=1, max_value=127),
    c2=st.integers(min_value=0, max_value=8000),
    op=st.sampled_from(["+", "^", "|"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fuzz_barrier_loop_local_accumulation(rounds, c0, c1, c2, op, seed):
    source = f"""
    __kernel void fuzz_local(__global int *a, __global int *out, int n) {{
        int gid = get_global_id(0);
        int lid = get_local_id(0);
        __local int tmp[64];
        int acc = {c0};
        for (int r = 0; r < {rounds}; r += 1) {{
            tmp[lid] = acc + a[gid] * (r + {c1});
            barrier(CLK_LOCAL_MEM_FENCE);
            acc = (acc {op} tmp[lid]) + {c2};
            barrier(CLK_LOCAL_MEM_FENCE);
        }}
        out[gid] = acc;
    }}
    """
    n = 128
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 16, size=n, dtype=np.int64)

    acc = np.full(n, c0, dtype=np.int64)
    for r in range(rounds):
        staged = (acc + a * (r + c1)) & MASK
        if op == "+":
            acc = acc + staged
        elif op == "^":
            acc = acc ^ staged
        else:
            acc = acc | staged
        acc = (acc + c2) & MASK

    workload = GpuWorkload(
        buffers={"a": a, "out": np.zeros(n, dtype=np.int64)},
        scalars={"n": n},
        expected={"out": acc},
        ndrange=NDRange(n, 64),
    )
    _run_both_backends(source, workload, acc)


# --------------------------------------------------------------------------- #
# Template 2: cross-lane local gather (backward dependencies only)
# --------------------------------------------------------------------------- #
@FUZZ_SETTINGS
@given(
    shift=st.integers(min_value=1, max_value=63),
    scale=st.integers(min_value=1, max_value=100),
    weight=st.integers(min_value=1, max_value=100),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fuzz_cross_lane_local_gather(shift, scale, weight, seed):
    source = f"""
    __kernel void fuzz_gather(__global int *a, __global int *out, int n) {{
        int gid = get_global_id(0);
        int lid = get_local_id(0);
        __local int tmp[64];
        tmp[lid] = a[gid] * {scale};
        barrier(CLK_LOCAL_MEM_FENCE);
        int acc = tmp[lid];
        if (lid >= {shift}) {{
            acc += tmp[lid - {shift}] * {weight};
        }}
        out[gid] = acc;
    }}
    """
    n = 192  # three 64-lane workgroups
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 16, size=n, dtype=np.int64)

    staged = (a * scale) & MASK
    acc = staged.copy()
    lids = np.arange(n) % 64
    gather = np.where(lids >= shift, np.roll(staged, shift), 0)
    acc = (acc + np.where(lids >= shift, gather * weight, 0)) & MASK

    workload = GpuWorkload(
        buffers={"a": a, "out": np.zeros(n, dtype=np.int64)},
        scalars={"n": n},
        expected={"out": acc},
        ndrange=NDRange(n, 64),
    )
    _run_both_backends(source, workload, acc)


# --------------------------------------------------------------------------- #
# Template 3: strided global indexing (scatter stores + modular gathers)
# --------------------------------------------------------------------------- #
@FUZZ_SETTINGS
@given(
    width=st.sampled_from([2, 4, 8, 16]),
    stride=st.integers(min_value=1, max_value=63),
    taps=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fuzz_strided_global_indexing(width, stride, taps, seed):
    source = f"""
    __kernel void fuzz_stride(__global int *a, __global int *out, int n) {{
        int gid = get_global_id(0);
        int acc = 0;
        for (int j = 0; j < {taps}; j += 1) {{
            acc += a[(gid + j * {stride}) % n];
        }}
        int row = gid / {width};
        int col = gid % {width};
        out[col * (n / {width}) + row] = acc;
    }}
    """
    n = 128
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 16, size=n, dtype=np.int64)

    gids = np.arange(n)
    acc = np.zeros(n, dtype=np.int64)
    for j in range(taps):
        acc = (acc + a[(gids + j * stride) % n]) & MASK
    out = np.zeros(n, dtype=np.int64)
    rows, cols = gids // width, gids % width
    out[cols * (n // width) + rows] = acc

    workload = GpuWorkload(
        buffers={"a": a, "out": np.zeros(n, dtype=np.int64)},
        scalars={"n": n},
        expected={"out": out},
        ndrange=NDRange(n, 64),
    )
    _run_both_backends(source, workload, out)


def test_fuzz_harness_rejects_wrong_model():
    """The comparison in the fuzz helper actually bites."""
    source = """
    __kernel void identity(__global int *a, __global int *out, int n) {
        int gid = get_global_id(0);
        out[gid] = a[gid];
    }
    """
    n = 64
    a = np.arange(n, dtype=np.int64)
    wrong = a + 1
    workload = GpuWorkload(
        buffers={"a": a, "out": np.zeros(n, dtype=np.int64)},
        scalars={"n": n},
        expected={"out": wrong},
        ndrange=NDRange(n, 64),
    )
    with pytest.raises(AssertionError):
        _run_both_backends(source, workload, wrong)
