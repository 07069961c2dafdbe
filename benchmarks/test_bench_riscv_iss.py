"""Benchmark the RISC-V ISS itself: simulation throughput, not kernel cycles.

The pre-decoded interpreter (:mod:`repro.riscv.decode`) replaces the seed
path's per-instruction enum lookups, chained ``if opcode is ...`` dispatch,
and mnemonic dict updates with handler closures resolved once per program.
This benchmark runs the seven Table III programs (at ``REPRO_BENCH_SCALE``
input sizes) on both paths and prints the per-program wall times next to the
decoded-vs-seed speedup.

On the reference machine the decoded path sustains ~600k instructions/s
against the seed interpreter's ~60k (~10x); the floors asserted here sit far
below that, so only gross regressions (e.g. re-introducing per-instruction
decode) should trip them.
"""

from __future__ import annotations

import time

import pytest

from repro.kernels import get_kernel_spec
from repro.riscv.cpu import RiscvCpu
from repro.riscv.programs import all_riscv_program_names, get_riscv_program_spec


def _scaled_size(spec, scale: float) -> int:
    if scale >= 1.0:
        return spec.paper_size
    # Round to the kernel's declared input-size step (64 for the 1-D
    # kernels; e.g. 128 for matmul2d's 2-D workgroup grid).
    step = get_kernel_spec(spec.name).size_granularity
    return max(step, (int(spec.paper_size * scale) // step) * step)


def _run_program(name: str, scale: float, predecode: bool):
    """One full benchmark run; returns (instructions, cycles, wall seconds)."""
    spec = get_riscv_program_spec(name)
    case = spec.build_case(_scaled_size(spec, scale), 2022)
    cpu = RiscvCpu(case.memory)
    cpu.predecode = predecode
    start = time.perf_counter()
    stats, _ = case.run(cpu=cpu)
    elapsed = time.perf_counter() - start
    return stats.instructions, stats.cycles, elapsed


@pytest.mark.benchmark(group="riscv-iss")
def test_iss_throughput_and_speedup(benchmark, input_scale):
    def _measure():
        rows = {}
        for name in all_riscv_program_names():
            instructions, cycles, decoded_wall = _run_program(name, input_scale, predecode=True)
            seed_instructions, seed_cycles, seed_wall = _run_program(name, input_scale, predecode=False)
            assert (instructions, cycles) == (seed_instructions, seed_cycles)
            rows[name] = {
                "instructions": instructions,
                "decoded_wall_seconds": decoded_wall,
                "seed_wall_seconds": seed_wall,
            }
        return rows

    rows = benchmark.pedantic(_measure, rounds=1, iterations=1)

    total_instructions = sum(row["instructions"] for row in rows.values())
    decoded_total = sum(row["decoded_wall_seconds"] for row in rows.values())
    seed_total = sum(row["seed_wall_seconds"] for row in rows.values())
    throughput = total_instructions / decoded_total
    seed_throughput = total_instructions / seed_total

    print("\n=== RISC-V ISS: decoded vs seed interpreter ===")
    header = (
        f"{'program':14s} {'instr':>10s} {'decoded':>10s} {'seed':>10s} {'speedup':>8s}"
    )
    print(header)
    print("-" * len(header))
    for name, row in rows.items():
        speedup = row["seed_wall_seconds"] / max(row["decoded_wall_seconds"], 1e-9)
        print(
            f"{name:14s} {row['instructions']:>10d} "
            f"{row['decoded_wall_seconds'] * 1e3:>8.1f}ms {row['seed_wall_seconds'] * 1e3:>8.1f}ms "
            f"{speedup:>7.2f}x"
        )
    print(
        f"total: {total_instructions} instructions, decoded {throughput:,.0f} instr/s, "
        f"seed {seed_throughput:,.0f} instr/s, speedup {seed_total / decoded_total:.2f}x"
    )

    # Floors ~5x under what the decoded path achieves: regression tripwires,
    # not performance assertions.
    assert throughput > 100_000
    assert seed_total / decoded_total > 2.0
