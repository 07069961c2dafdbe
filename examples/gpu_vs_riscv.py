"""G-GPU vs RISC-V: a scaled-down version of the paper's evaluation.

Runs a subset of the seven micro-benchmarks on the RISC-V ISS and on G-GPUs
with 1/2/4/8 CUs, then prints the raw speed-up (Fig. 5) and the speed-up
derated by the synthesized area ratio (Fig. 6).  Input sizes are reduced so
the whole script finishes in well under a minute; pass ``--full`` to use the
paper's sizes.

Run with:  python examples/gpu_vs_riscv.py [--full]
"""

import sys

from repro import default_65nm
from repro.eval.benchmarks import run_table3
from repro.eval.comparison import compute_area_ratios, compute_speedups, derate_by_area
from repro.eval.figures import format_speedup_chart
from repro.eval.reports import table3_report


def main() -> None:
    scale = 1.0 if "--full" in sys.argv else 0.25
    kernels = ["mat_mul", "copy", "div_int", "parallel_sel"]
    print(f"Running {kernels} at {int(scale * 100)}% of the paper's input sizes...")

    table3 = run_table3(kernels=kernels, cu_counts=(1, 2, 4, 8), scale=scale)
    print("\n=== Cycle counts (Table III style) ===")
    print(table3_report(table3).text())

    speedups = compute_speedups(table3)
    print("\n=== Raw speed-up over RISC-V (Fig. 5 style) ===")
    print(format_speedup_chart(speedups))

    tech = default_65nm()
    ratios = compute_area_ratios(tech)
    print("\nG-GPU / RISC-V area ratios:", {n: round(r, 1) for n, r in ratios.as_dict().items()})
    derated = derate_by_area(speedups, ratios)
    print("\n=== Speed-up derated by area (Fig. 6 style) ===")
    print(format_speedup_chart(derated))

    print(
        f"\nbest raw speed-up: {speedups.best():.1f}x ({speedups.best_kernel()}); "
        f"best per-area speed-up: {derated.best():.2f}x ({derated.best_kernel()})"
    )


if __name__ == "__main__":
    main()
