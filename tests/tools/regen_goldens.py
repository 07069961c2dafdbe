#!/usr/bin/env python
"""Regenerate (or check) the pinned golden cycle counts.

The golden dictionaries live in two test modules:

* ``tests/test_simt_golden.py`` — ``GOLDEN`` / ``EXTENDED_GOLDEN``: G-GPU
  cycle counts and dynamic instruction counts per kernel at 1/2/4/8 CUs;
* ``tests/test_riscv_decode.py`` — ``GOLDEN_CYCLES``: RISC-V ISS cycle
  counts per program at the paper input sizes.

The CL code generators are pinned beside them: ``CODEGEN_DIGEST`` in
``tests/test_cl_codegen_pin.py`` is the sha256 of the listing of every
program both back ends emit for a fixed corpus.  ``STATS_DIGEST`` in
``tests/test_simt_golden.py`` is the sha256 of the whole ``KernelRunStats``
of every G-GPU golden launch.

Engine PRs that *intentionally* change cycle accounting should regenerate
the dictionaries with this tool and paste the printed literals, instead of
hand-editing numbers::

    PYTHONPATH=src python tests/tools/regen_goldens.py

CI (and anyone bisecting a drift) runs the check mode, which recomputes
every pinned value and exits non-zero on any mismatch::

    PYTHONPATH=src python tests/tools/regen_goldens.py --check

The multi-device schedules are pinned the same way, by the sha256 of
``determinism_check.py``'s output in ``tests/tools/determinism_digest.sha256``;
that tool's docstring says how to regenerate it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Allow running as a plain script: tests/ is not a package on sys.path.
TESTS_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = TESTS_DIR.parent
for path in (str(TESTS_DIR), str(REPO_ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from repro.arch.config import GGPUConfig  # noqa: E402
from repro.kernels import get_kernel_spec, run_workload  # noqa: E402
from repro.riscv.programs import get_riscv_program_spec  # noqa: E402
from repro.simt.gpu import GGPUSimulator  # noqa: E402

CU_COUNTS = (1, 2, 4, 8)
SEED = 2022


def measure_simt(golden: dict) -> dict:
    """Recompute a ``test_simt_golden``-style dict at its pinned sizes."""
    measured = {}
    for name, (size, _, _) in sorted(golden.items()):
        cycles = {}
        instructions = None
        for num_cus in CU_COUNTS:
            spec = get_kernel_spec(name)
            simulator = GGPUSimulator(GGPUConfig().with_cus(num_cus))
            result, _ = run_workload(simulator, spec.build(), spec.workload(size, SEED))
            cycles[num_cus] = result.cycles
            instructions = result.stats.instructions_issued
        measured[name] = (size, cycles, instructions)
    return measured


def measure_riscv(golden: dict) -> dict:
    """Recompute the RISC-V golden cycles at the paper sizes."""
    measured = {}
    for name in sorted(golden):
        stats, _ = get_riscv_program_spec(name).default_case().run()
        measured[name] = int(stats.cycles)
    return measured


def format_simt(measured: dict, dict_name: str) -> str:
    lines = [f"{dict_name} = {{"]
    for name, (size, cycles, instructions) in measured.items():
        cycle_text = ", ".join(f"{cus}: {value}" for cus, value in cycles.items())
        lines.append(f'    "{name}": ({size}, {{{cycle_text}}}, {instructions}),')
    lines.append("}")
    return "\n".join(lines)


def format_riscv(measured: dict) -> str:
    lines = ["GOLDEN_CYCLES = {"]
    for name, cycles in measured.items():
        lines.append(f'    "{name}": {cycles},')
    lines.append("}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="recompute every pinned value and fail on drift instead of printing",
    )
    args = parser.parse_args()

    import test_cl_codegen_pin
    import test_riscv_decode
    import test_simt_golden

    drifted = []
    sections = [
        ("GOLDEN", test_simt_golden.GOLDEN, measure_simt, format_simt),
        ("EXTENDED_GOLDEN", test_simt_golden.EXTENDED_GOLDEN, measure_simt, format_simt),
        ("DENSE_GOLDEN", test_simt_golden.DENSE_GOLDEN, measure_simt, format_simt),
    ]
    for dict_name, pinned, measure, formatter in sections:
        measured = measure(pinned)
        if args.check:
            for name in sorted(pinned):
                if measured[name] != (pinned[name][0], pinned[name][1], pinned[name][2]):
                    drifted.append(f"simt:{dict_name}:{name} {pinned[name]} -> {measured[name]}")
        else:
            print(formatter(measured, dict_name))
            print()

    riscv_measured = measure_riscv(test_riscv_decode.GOLDEN_CYCLES)
    if args.check:
        for name, cycles in sorted(test_riscv_decode.GOLDEN_CYCLES.items()):
            if riscv_measured[name] != cycles:
                drifted.append(f"riscv:{name} {cycles} -> {riscv_measured[name]}")
    else:
        print(format_riscv(riscv_measured))

    codegen = test_cl_codegen_pin.codegen_digest()
    stats = test_simt_golden.stats_digest()
    if args.check:
        if codegen != test_cl_codegen_pin.CODEGEN_DIGEST:
            drifted.append(f"codegen: {test_cl_codegen_pin.CODEGEN_DIGEST} -> {codegen}")
        if stats != test_simt_golden.STATS_DIGEST:
            drifted.append(f"stats: {test_simt_golden.STATS_DIGEST} -> {stats}")
    else:
        print()
        print(f'CODEGEN_DIGEST = "{codegen}"')
        print(f'STATS_DIGEST = "{stats}"')

    if args.check:
        if drifted:
            print("golden-cycle drift detected:")
            for line in drifted:
                print(f"  {line}")
            return 1
        total = (
            len(test_simt_golden.GOLDEN)
            + len(test_simt_golden.EXTENDED_GOLDEN)
            + len(test_simt_golden.DENSE_GOLDEN)
            + len(test_riscv_decode.GOLDEN_CYCLES)
        )
        print(f"all {total} golden entries, the codegen digest and the stats digest match")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
