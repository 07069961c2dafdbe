"""Dynamic race-oracle tests and the static/dynamic soundness cross-check.

The oracle runs corpus kernels on a pure-python instrumented interpreter and
must observe the defects concretely; ``soundness_violations`` then asserts
the contract that anything the oracle catches carries a matching static
finding.  A hypothesis harness generates randomized local-memory access
patterns (stride, offset, optional barrier) and cross-validates every drawn
kernel the same way.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import check_source, run_oracle, soundness_violations
from repro.arch.kernel import NDRange
from repro.cl.compiler import compile_source
from repro.errors import KernelError, SimulationError

from analysis.analysis_corpus import (
    ALL_ENTRIES,
    CLEAN,
    DIVERGENT,
    OUT_OF_BOUNDS,
    RACY,
)

LAUNCHABLE = tuple(e for e in ALL_ENTRIES if e.launch is not None)


def _run(entry):
    program = compile_source(entry.source)
    launch = entry.launch
    return run_oracle(
        program.declaration(),
        ndrange=NDRange(launch.global_size, launch.workgroup_size),
        buffers=launch.buffer_dict(),
        scalars=launch.scalar_dict(),
    )


@pytest.mark.parametrize("entry", RACY, ids=lambda e: e.name)
def test_oracle_observes_corpus_races(entry) -> None:
    report = _run(entry)
    assert report.races, entry.name
    described = report.races[0].describe()
    assert entry.launch is not None
    assert "lane" in described


@pytest.mark.parametrize("entry", DIVERGENT, ids=lambda e: e.name)
def test_oracle_observes_barrier_divergence(entry) -> None:
    report = _run(entry)
    assert report.barrier_divergence, entry.name


@pytest.mark.parametrize("entry", OUT_OF_BOUNDS, ids=lambda e: e.name)
def test_oracle_observes_out_of_bounds(entry) -> None:
    report = _run(entry)
    assert report.out_of_bounds, entry.name


@pytest.mark.parametrize("entry", CLEAN, ids=lambda e: e.name)
def test_oracle_confirms_clean_kernels(entry) -> None:
    report = _run(entry)
    assert not report.racy
    assert not report.barrier_divergence
    assert not report.out_of_bounds
    assert report.num_accesses > 0


@pytest.mark.parametrize("entry", LAUNCHABLE, ids=lambda e: e.name)
def test_static_verdicts_are_sound_against_oracle(entry) -> None:
    static = check_source(entry.source)
    dynamic = _run(entry)
    assert soundness_violations(static, dynamic) == []


def test_oracle_rejects_bad_geometry() -> None:
    program = compile_source(CLEAN[0].source)
    with pytest.raises(KernelError, match="multiple of the workgroup size"):
        run_oracle(
            program.declaration(),
            ndrange=NDRange(10, 4),  # 10 % 4 != 0
            buffers={"x": [0] * 10, "y": [0] * 10, "out": [0] * 10},
            scalars={"a": 1},
        )


def test_oracle_rejects_missing_params() -> None:
    program = compile_source(CLEAN[0].source)
    with pytest.raises(SimulationError):
        run_oracle(
            program.declaration(),
            ndrange=NDRange(8, 4),
            buffers={"x": [0] * 8},  # y/out/a missing
            scalars={},
        )


def test_oracle_bounds_runaway_kernels() -> None:
    source = """
__kernel void spin(__global int *out) {
    int i = 1;
    while (i > 0) {
        i = i + 0;
    }
    out[get_global_id(0)] = i;
}
"""
    program = compile_source(source)
    with pytest.raises(SimulationError):
        run_oracle(
            program.declaration(),
            ndrange=NDRange(1, 1),
            buffers={"out": [0]},
            scalars={},
            max_steps=10_000,
        )


_TEMPLATE = """
__kernel void fuzz(__global int *a, __global int *out) {{
    __local int tmp[1024];
    int lid = get_local_id(0);
    tmp[lid * {wstride} + {woffset}] = a[get_global_id(0)];
    {sync}
    int v = tmp[lid * {rstride} + {roffset}];
    out[get_global_id(0)] = v;
}}
"""


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    wstride=st.integers(min_value=1, max_value=4),
    woffset=st.integers(min_value=0, max_value=8),
    rstride=st.integers(min_value=0, max_value=4),
    roffset=st.integers(min_value=0, max_value=8),
    barrier=st.booleans(),
    wg=st.sampled_from([4, 8, 16]),
)
def test_fuzzed_local_patterns_never_violate_soundness(
    wstride: int, woffset: int, rstride: int, roffset: int, barrier: bool, wg: int
) -> None:
    source = _TEMPLATE.format(
        wstride=wstride,
        woffset=woffset,
        rstride=rstride,
        roffset=roffset,
        sync="barrier(CLK_LOCAL_MEM_FENCE);" if barrier else "",
    )
    static = check_source(source)
    program = compile_source(source)
    dynamic = run_oracle(
        program.declaration(),
        ndrange=NDRange(2 * wg, wg),
        buffers={"a": list(range(2 * wg)), "out": [0] * (2 * wg)},
        scalars={},
    )
    assert soundness_violations(static, dynamic) == []
