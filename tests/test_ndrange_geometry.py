"""Property tests over NDRange geometry: ranks, shapes, and error paths.

Hypothesis draws launch geometries — rank 1 and rank 2, divisible and not —
and checks three things:

* :class:`NDRange` itself: flat totals are the shape products, bad geometry
  (rank mismatch, non-divisible extents, non-positive extents) raises
  ``KernelError`` with the offending dimension in the message;
* the per-dimension work-item ids a compiled CL kernel observes, at rank 1
  and rank 2, match the row-major (dimension 0 fastest) reference on the
  G-GPU with macro-stepped and single-stepped issue (both modes report the
  same per-CU statistics) and on the RISC-V back end, all three run from
  the same ``NDRange`` object;
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
from repro.kernels.library import GpuWorkload, run_workload
from repro.simt.gpu import GGPUSimulator
from test_simt_golden import _cu_stats, single_step

# Flat workgroup sizes must be wavefront multiples (64); these 2-D shapes
# cover tall, wide, square, and degenerate-axis factorizations.
WG_SHAPES_2D = [(8, 8), (16, 4), (4, 16), (64, 1), (1, 64), (32, 2), (16, 8)]

IDS1D_CL = """
__kernel void ids1d(__global int *g0, __global int *l0, __global int *w0) {
    int x = get_global_id(0);
    g0[x] = x;
    l0[x] = get_local_id(0);
    w0[x] = get_group_id(0);
}
"""

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
    assert ndrange.global_size == workgroup * groups
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
# Per-dimension ids on the G-GPU (both issue modes) and on RISC-V
# --------------------------------------------------------------------- #
def _row_major_ids(ndrange):
    """Expected ``g<d>``/``l<d>``/``w<d>`` of every work-item, by flat global id."""
    expected = {}
    # np.indices over the reversed shape enumerates dimension 0 fastest.
    grids = np.indices(ndrange.global_shape[::-1])[::-1]
    for dim, (grid, local) in enumerate(zip(grids, ndrange.workgroup_shape, strict=True)):
        gid = grid.reshape(-1)
        expected.update({f"g{dim}": gid, f"l{dim}": gid % local, f"w{dim}": gid // local})
    return expected


def _check_ids(source, ndrange, num_cus):
    """Run ``source`` over ``ndrange`` on the G-GPU in both issue modes and on
    RISC-V, each against the row-major reference."""
    program = compile_source(source)
    expected = _row_major_ids(ndrange)
    workload = GpuWorkload(
        buffers={name: np.zeros(ndrange.global_size, dtype=np.int64) for name in expected},
        scalars={},
        expected=expected,
        ndrange=ndrange,
    )
    stats = {}
    for macro in (True, False):
        with single_step(not macro):
            simulator = GGPUSimulator(GGPUConfig(num_cus=num_cus), memory_bytes=8 * 1024 * 1024)
            result, _ = run_workload(simulator, program.to_ggpu_kernel(), workload)
        stats[macro] = (result.cycles, _cu_stats(result))
    assert stats[True] == stats[False]
    # The RISC-V back end serializes the same NDRange object.
    program.to_riscv_case(workload, memory_bytes=64 * 1024).run()


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ws=st.sampled_from(WG_SHAPES_2D),
    nwg0=st.integers(min_value=1, max_value=3),
    nwg1=st.integers(min_value=1, max_value=3),
    num_cus=st.sampled_from([1, 2, 4]),
)
def test_rank2_ids_match_row_major_reference(ws, nwg0, nwg1, num_cus):
    _check_ids(IDS2D_CL, NDRange((ws[0] * nwg0, ws[1] * nwg1), ws), num_cus)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    workgroup=st.sampled_from([64, 128, 256]),
    groups=st.integers(min_value=1, max_value=3),
    num_cus=st.sampled_from([1, 2, 4]),
)
def test_rank1_ids_match_row_major_reference(workgroup, groups, num_cus):
    _check_ids(IDS1D_CL, NDRange(workgroup * groups, workgroup), num_cus)


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
            NDRange(128, 64),
        ).generate()


def test_dim1_query_on_rank1_launch_raises_in_the_oracle():
    program = compile_source(IDS2D_CL)
    buffers = {name: [0] * 128 for name in ("g0", "g1", "l0", "l1", "w0", "w1")}
    with pytest.raises(SimulationError, match="dimension 1 of a rank-1"):
        run_oracle(
            program.declaration(),
            ndrange=NDRange(128, 64),
            buffers=buffers,
            scalars={},
        )


def test_riscv_codegen_rejects_bad_rank2_geometry():
    """The RISC-V back end takes an ``NDRange``, which rejects a bad shape
    before any code is generated."""
    program = compile_source(IDS2D_CL)
    params = {name: 0 for name in ("g0", "g1", "l0", "l1", "w0", "w1")}
    with pytest.raises(KernelError, match="rank"):
        RiscvCodeGenerator(program.declaration(), params, NDRange((128, 2, 2), (64, 1, 1)))
    with pytest.raises(KernelError, match="dimension 0"):
        RiscvCodeGenerator(program.declaration(), params, NDRange((100, 4), (64, 4)))
