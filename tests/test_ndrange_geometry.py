"""Property tests over NDRange geometry: ranks, shapes, and error paths.

Hypothesis draws launch geometries — rank 1 and rank 2, divisible and not —
and checks three things:

* :class:`NDRange` itself: flat totals are the shape products, bad geometry
  (rank mismatch, non-divisible extents, non-positive extents) raises
  ``KernelError`` with the offending dimension in the message;
* the per-dimension work-item ids a compiled CL kernel observes on the G-GPU
  match the row-major (dimension 0 fastest) reference with macro-stepped and
  single-stepped issue, and both modes report the same per-CU statistics;
* rank-mismatched ``get_*_id(dim)`` queries fail loudly on every backend:
  the SIMT issue loop (macro-stepped and single-stepped), the RISC-V code
  generator, and the dynamic race oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import run_oracle
from repro.arch.config import GGPUConfig
from repro.arch.isa import Opcode
from repro.arch.kernel import KernelArg, KernelBuilder, NDRange
from repro.cl import compile_source
from repro.cl.codegen_riscv import RiscvCodeGenerator
from repro.errors import CompilationError, KernelError, SimulationError
from repro.simt.gpu import GGPUSimulator
from test_simt_golden import _cu_stats, single_step

# Flat workgroup sizes must be wavefront multiples (64); these 2-D shapes
# cover tall, wide, square, and degenerate-axis factorizations.
WG_SHAPES_2D = [(8, 8), (16, 4), (4, 16), (64, 1), (1, 64), (32, 2), (16, 8)]

IDS2D_CL = """
__kernel void ids2d(__global int *g0, __global int *g1,
                    __global int *l0, __global int *l1,
                    __global int *w0, __global int *w1) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int flat = y * get_global_size(0) + x;
    g0[flat] = x;
    g1[flat] = y;
    l0[flat] = get_local_id(0);
    l1[flat] = get_local_id(1);
    w0[flat] = get_group_id(0);
    w1[flat] = get_group_id(1);
}
"""


# --------------------------------------------------------------------- #
# NDRange construction
# --------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(
    ws=st.sampled_from(WG_SHAPES_2D),
    nwg0=st.integers(min_value=1, max_value=5),
    nwg1=st.integers(min_value=1, max_value=5),
)
def test_rank2_ndrange_totals_are_shape_products(ws, nwg0, nwg1):
    gs = (ws[0] * nwg0, ws[1] * nwg1)
    ndrange = NDRange(gs, ws)
    assert ndrange.rank == 2
    assert ndrange.global_shape == gs
    assert ndrange.workgroup_shape == ws
    assert ndrange.global_size == gs[0] * gs[1]
    assert ndrange.total_items == ndrange.global_size
    assert ndrange.workgroup_size == ws[0] * ws[1]
    assert ndrange.groups_shape == (nwg0, nwg1)
    assert ndrange.num_workgroups == nwg0 * nwg1


@settings(max_examples=60, deadline=None)
@given(
    workgroup=st.integers(min_value=1, max_value=512),
    groups=st.integers(min_value=1, max_value=8),
)
def test_rank1_ndrange_matches_the_flat_form(workgroup, groups):
    ndrange = NDRange(workgroup * groups, workgroup)
    assert ndrange.rank == 1
    assert ndrange.global_shape == (workgroup * groups,)
    assert ndrange.total_items == workgroup * groups
    assert ndrange.num_workgroups == groups


@settings(max_examples=60, deadline=None)
@given(
    ws=st.sampled_from(WG_SHAPES_2D),
    nwg0=st.integers(min_value=1, max_value=4),
    nwg1=st.integers(min_value=1, max_value=4),
    off=st.integers(min_value=1, max_value=7),
    dim=st.integers(min_value=0, max_value=1),
)
def test_non_divisible_extents_are_rejected_with_the_dimension(
    ws, nwg0, nwg1, off, dim
):
    gs = [ws[0] * nwg0, ws[1] * nwg1]
    if off % ws[dim] == 0:
        off += 1  # keep the extent genuinely non-divisible
    gs[dim] += off % ws[dim] if ws[dim] > 1 else 0
    if gs[dim] % ws[dim] == 0:
        return  # degenerate draw (workgroup extent 1 divides everything)
    with pytest.raises(KernelError, match=f"dimension {dim}"):
        NDRange(tuple(gs), ws)


def test_rank_mismatch_and_nonpositive_extents_are_rejected():
    with pytest.raises(KernelError, match="same rank"):
        NDRange((128, 4), 64)
    with pytest.raises(KernelError, match="same rank"):
        NDRange(128, (8, 8))
    with pytest.raises(KernelError, match="positive"):
        NDRange((128, 0), (8, 8))
    with pytest.raises(KernelError, match="rank"):
        NDRange((8, 8, 8), (2, 2, 2))


# --------------------------------------------------------------------- #
# Per-dimension ids on the G-GPU, fuzzed over geometry and both issue modes
# --------------------------------------------------------------------- #
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ws=st.sampled_from(WG_SHAPES_2D),
    nwg0=st.integers(min_value=1, max_value=3),
    nwg1=st.integers(min_value=1, max_value=3),
    num_cus=st.sampled_from([1, 2, 4]),
)
def test_rank2_ids_match_row_major_reference(ws, nwg0, nwg1, num_cus):
    gs = (ws[0] * nwg0, ws[1] * nwg1)
    total = gs[0] * gs[1]
    kernel = compile_source(IDS2D_CL).to_ggpu_kernel()
    xs, ys = np.meshgrid(np.arange(gs[0]), np.arange(gs[1]))
    expected = {
        "g0": xs,
        "g1": ys,
        "l0": xs % ws[0],
        "l1": ys % ws[1],
        "w0": xs // ws[0],
        "w1": ys // ws[1],
    }
    stats = {}
    for macro in (True, False):
        with single_step(not macro):
            simulator = GGPUSimulator(GGPUConfig(num_cus=num_cus), memory_bytes=8 * 1024 * 1024)
            buffers = {name: simulator.allocate_buffer(total) for name in
                       ("g0", "g1", "l0", "l1", "w0", "w1")}
            result = simulator.launch(kernel, NDRange(gs, ws), dict(buffers))
        stats[macro] = (result.cycles, _cu_stats(result))
        for name, want in expected.items():
            got = np.asarray(simulator.read_buffer(buffers[name], total)).reshape(
                gs[1], gs[0]
            )
            assert np.array_equal(got, want), (
                f"{name} wrong for global {gs} workgroup {ws} on {num_cus} CU(s) "
                f"(macro-stepped: {macro})"
            )
    assert stats[True] == stats[False]


# --------------------------------------------------------------------- #
# Rank-mismatched dimension queries fail loudly on every backend
# --------------------------------------------------------------------- #
def _dim1_gpu_kernel():
    builder = KernelBuilder("wants_dim1", args=(KernelArg("out"),))
    gid1 = builder.alloc("gid1")
    out = builder.alloc("out")
    addr = builder.alloc("addr")
    builder.global_id(gid1, dim=1)
    builder.load_arg(out, "out")
    builder.address_of_element(addr, out, gid1)
    builder.emit(Opcode.SW, rs=addr, rt=gid1, imm=0)
    builder.ret()
    return builder.build()


@pytest.mark.parametrize("macro", [True, False])
def test_dim1_query_on_rank1_launch_raises_in_the_simt_engines(macro):
    kernel = _dim1_gpu_kernel()
    simulator = GGPUSimulator(GGPUConfig(num_cus=1))
    out = simulator.allocate_buffer(64)
    with single_step(not macro), pytest.raises(SimulationError, match="dimension 1 of a rank-1"):
        simulator.launch(kernel, NDRange(64, 64), {"out": out})


def test_dim1_query_on_rank1_launch_raises_in_riscv_codegen():
    program = compile_source(IDS2D_CL)
    with pytest.raises(CompilationError, match="dimension 1 of a rank-1"):
        RiscvCodeGenerator(
            program.declaration(),
            {name: 0 for name in ("g0", "g1", "l0", "l1", "w0", "w1")},
            global_size=128,
            workgroup_size=64,
        ).generate()


def test_dim1_query_on_rank1_launch_raises_in_the_oracle():
    program = compile_source(IDS2D_CL)
    buffers = {name: [0] * 128 for name in ("g0", "g1", "l0", "l1", "w0", "w1")}
    with pytest.raises(SimulationError, match="dimension 1 of a rank-1"):
        run_oracle(
            program.declaration(),
            global_size=128,
            workgroup_size=64,
            buffers=buffers,
            scalars={},
        )


def test_riscv_codegen_rejects_bad_rank2_geometry():
    program = compile_source(IDS2D_CL)
    params = {name: 0 for name in ("g0", "g1", "l0", "l1", "w0", "w1")}
    with pytest.raises(CompilationError, match="rank"):
        RiscvCodeGenerator(program.declaration(), params, (128, 2, 2), (64, 1, 1))
    with pytest.raises(CompilationError, match="divisible"):
        RiscvCodeGenerator(program.declaration(), params, (100, 4), (64, 4))
