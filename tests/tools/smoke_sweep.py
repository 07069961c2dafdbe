#!/usr/bin/env python
"""Scale-reduced Table III smoke sweep, runnable identically locally and in CI.

Runs the full registered kernel suite on the RISC-V baseline and on G-GPUs at
the given CU counts, verifies every kernel's outputs against its reference,
sanity-checks the table shape, and prints it.  This used to live as an inline
heredoc in ``.github/workflows/ci.yml``; as a script it can be run (and
debugged) the same way everywhere:

    PYTHONPATH=src python tests/tools/smoke_sweep.py --scale 0.25
    PYTHONPATH=src python tests/tools/smoke_sweep.py --output smoke_table.txt

``--output`` additionally writes the rendered table to a file (atomically)
so CI can upload it as a workflow artifact.  ``--journal`` points the sweep
at a :class:`repro.runtime.checkpoint.SweepJournal` file: each finished cell
is persisted as it completes, and a re-run after a kill — the CI resume
check SIGKILLs one mid-sweep — computes only the missing cells.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.eval.benchmarks import run_table3  # noqa: E402
from repro.eval.reports import table3_report  # noqa: E402
from repro.kernels import all_kernel_names  # noqa: E402
from repro.runtime.checkpoint import atomic_write_text  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", type=float, default=0.25, help="input-size scale factor (default 0.25)"
    )
    parser.add_argument(
        "--cu-counts",
        default="1,2,4,8",
        help="comma-separated G-GPU CU counts to sweep (default 1,2,4,8)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the rendered table to this file (for CI artifacts)",
    )
    parser.add_argument(
        "--journal",
        type=Path,
        default=None,
        help="resumable-sweep journal file: record finished cells as they "
        "complete and, on a re-run, compute only the missing ones",
    )
    args = parser.parse_args()
    cu_counts = tuple(int(field) for field in args.cu_counts.split(","))

    start = time.perf_counter()
    table = run_table3(cu_counts=cu_counts, scale=args.scale, journal=args.journal)
    elapsed = time.perf_counter() - start

    expected_kernels = all_kernel_names()
    if table.kernels != expected_kernels:
        raise SystemExit(
            f"smoke sweep covered {table.kernels}, expected {expected_kernels}"
        )
    for kernel, row in table.rows.items():
        if not row.riscv.cycles > 0:
            raise SystemExit(f"non-positive RISC-V cycles for {kernel}")
        for num_cus, gpu in row.gpu.items():
            if not gpu.cycles > 0:
                raise SystemExit(f"non-positive G-GPU cycles for {kernel} at {num_cus} CUs")

    rendered = table3_report(table).text()
    header = (
        f"smoke sweep ok: {len(table.rows)} kernels x (RISC-V + "
        f"{len(cu_counts)} CU counts) at scale {args.scale} in {elapsed:.1f}s"
    )
    print(header)
    print(rendered)
    if args.journal is not None:
        recorded = json.loads(args.journal.read_text(encoding="utf-8"))
        print(f"journal at {args.journal}: {len(recorded.get('cells', {}))} cells recorded")
    if args.output is not None:
        atomic_write_text(args.output, header + "\n" + rendered + "\n")
        print(f"table written to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
