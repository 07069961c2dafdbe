"""Benchmark the SIMT engine itself: simulation throughput, not kernel cycles.

The event-heap engine rewrite (pre-decoded programs, cached scheduler state,
vectorized cache tag probes, macro-stepped straight-line runs) targets the
wall-clock cost of the Table III / Fig. 5 / Fig. 6 measurement loop.  On the
reference machine the seed engine simulated the scale-0.25 Table III sweep in
~33 s; the event-heap engine runs the same sweep in ~7.3 s (≈4.5x), with
bit-for-bit identical results and cycle counts (see
``tests/test_simt_golden.py``).

This benchmark measures the engine's simulation throughput in
wavefront-instructions per wall-clock second over a representative kernel
mix, and the macro-stepping batching factor.  The throughput floor asserted
here is ~5x below what the rewritten engine achieves, so it only catches
gross regressions (e.g. re-introducing per-issue decode or per-line Python
cache probes), not machine noise.
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
    # The rewritten engine sustains ~40-60k instr/s on this mix (the PR-2
    # memory-path work pushed it further); the seed engine managed ~11k.
    # Only gross regressions should trip this.
    assert throughput > 8_000
    # Macro-stepping must actually batch: strictly fewer scheduling events
    # than instructions.
    assert events < instructions


@pytest.mark.benchmark(group="engine")
def test_engine_macro_stepping_does_not_change_results(benchmark):
    """The fast path must stay cycle-exact on the benchmark mix."""

    def _compare():
        outcomes = {}
        for macro in (True, False):
            cycle_counts = {}
            for name, size in ENGINE_MIX.items():
                spec = get_kernel_spec(name)
                workload = spec.workload(size, 2022)
                simulator = GGPUSimulator(GGPUConfig().with_cus(2))
                for cu in simulator.compute_units:
                    cu.macro_step = macro
                result, _ = run_workload(simulator, spec.build(), workload)
                cycle_counts[name] = result.cycles
            outcomes[macro] = cycle_counts
        return outcomes

    outcomes = benchmark.pedantic(_compare, rounds=1, iterations=1)
    print("\nmacro-step vs single-step cycle counts:", outcomes[True])
    assert outcomes[True] == outcomes[False]
