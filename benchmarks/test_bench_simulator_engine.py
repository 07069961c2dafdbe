"""Benchmark the SIMT engine itself: simulation throughput, not kernel cycles.

The Table III / Fig. 5 / Fig. 6 measurement loop spends its time in the SIMT
issue loop: pre-decoded programs, residents kept sorted by ready time so the
common pick needs no scan, macro-stepped straight-line runs,
wavefront-uniform registers kept as one Python int instead of a 64-lane
vector, and lane ramps (work-item ids and the addresses computed from them)
kept as an ``Affine`` base and stride that the memory path coalesces, loads
and stores by arithmetic and slices, and whose runs of lines the cache
serves by slices.
``perfbench/run.py --workload table3_sweep`` measures that loop end to end;
this bench is the quick check CI runs.

It measures the engine's simulation throughput in wavefront-instructions per
wall-clock second over a representative kernel mix, and the macro-stepping
batching factor.  That macro-stepping leaves every result unchanged is pinned
in the tier-1 suite: in ``tests/test_simt_golden.py``,
``test_uniform_registers_match_lane_vector_reference_on_library_kernels``
runs every library kernel, vec_mul, div_int and xcorr included, against the
single-step reference.  On a 2-vCPU container running at about half the
benchmark's reference speed the mix runs at ~225k instr/s with the sorted
scheduler, slice-served runs and closed-form AXI bursts (~220k before,
medians of six runs each, alternately on the same host, a gap inside that
host's run-to-run spread; ~195k when every statistic was charged per
instruction, ~170k before affine registers, ~100k before each CU issued
its private events in one loop, ~70k before uniform registers).  The
floor asserted here is well below that, so it
only catches gross regressions (e.g. re-introducing per-issue decode,
per-line Python cache probes, or 64-lane numpy work for every uniform
register), not machine noise.
"""

from __future__ import annotations

import time

import pytest

from repro.arch.config import GGPUConfig
from repro.kernels import get_kernel_spec, run_workload
from repro.simt.gpu import GGPUSimulator

# kernel -> input size: a mix of streaming (vec_mul), divergent (div_int),
# and scatter-heavy (xcorr) behaviour, the latter dominating the runtime of
# the real Table III sweep.
ENGINE_MIX = {"vec_mul": 4096, "div_int": 512, "xcorr": 512}


def _simulate_mix(num_cus: int = 4):
    instructions = 0
    events = 0
    elapsed = 0.0
    for name, size in ENGINE_MIX.items():
        spec = get_kernel_spec(name)
        workload = spec.workload(size, 2022)
        simulator = GGPUSimulator(GGPUConfig().with_cus(num_cus))
        start = time.perf_counter()
        result, _ = run_workload(simulator, spec.build(), workload)
        elapsed += time.perf_counter() - start
        instructions += result.stats.instructions_issued
        events += sum(stats.issue_events for stats in result.stats.cu_stats)
    return instructions, events, elapsed


@pytest.mark.benchmark(group="engine")
def test_engine_simulation_throughput(benchmark):
    instructions, events, elapsed = benchmark.pedantic(
        _simulate_mix, rounds=1, iterations=1
    )
    throughput = instructions / elapsed
    print(
        f"\nSIMT engine: {instructions} wavefront-instructions in {elapsed:.2f}s "
        f"({throughput:,.0f} instr/s), {events} scheduling events "
        f"(batching {instructions / events:.2f})"
    )
    # ~100k instr/s on the slow container named in the module docstring;
    # the seed engine managed ~11k.  Only gross regressions should trip this.
    assert throughput > 20_000
    # Macro-stepping must actually batch: strictly fewer scheduling events
    # than instructions.
    assert events < instructions
