"""Energy-efficiency study: how much energy does a G-GPU save over a RISC-V?

The paper motivates G-GPU with energy efficiency but only reports speed-up
(Fig. 5) and speed-up per area (Fig. 6).  This example combines the library's
synthesized power numbers with measured cycle counts into the missing figure:
energy per benchmark run and the energy-efficiency gain over the RISC-V
baseline, at equal work.  It finishes by writing every table/figure it
computed as CSV/Markdown into ``./ggpu_reports/``.

The benchmark inputs are scaled down (factor 0.25) so the example runs in
about a minute; measure with ``repro.eval.benchmarks.run_table3(scale=1.0)``
for the full experiment.

Run with:  python examples/energy_efficiency.py
"""

from repro.eval.benchmarks import run_table3
from repro.eval.comparison import compute_area_ratios, compute_speedups, derate_by_area
from repro.eval.energy import build_energy_comparison
from repro.eval.figures import format_speedup_chart
from repro.eval.reports import energy_report, table3_report, write_report_bundle
from repro.tech.technology import default_65nm

SCALE = 0.25
CU_COUNTS = (1, 2, 4)


def main() -> None:
    tech = default_65nm()

    print(f"measuring the seven benchmarks at scale {SCALE} for {CU_COUNTS} CUs ...")
    table3 = run_table3(cu_counts=CU_COUNTS, scale=SCALE)
    print("\n=== Cycle counts (Table III protocol, scaled) ===")
    print(table3_report(table3).text())

    speedups = compute_speedups(table3)
    ratios = compute_area_ratios(tech, cu_counts=CU_COUNTS)
    derated = derate_by_area(speedups, ratios)
    print("\n=== Speed-up over the RISC-V (Fig. 5 protocol) ===")
    print(format_speedup_chart(speedups, width=30))

    print("\nsynthesizing the versions to get their power ...")
    energy = build_energy_comparison(table3, tech, frequency_mhz=667.0, cu_counts=CU_COUNTS)
    print("\n=== Energy per run and energy-efficiency gain (extension) ===")
    print(energy_report(energy).text())
    best_kernel = energy.gain_series().best_kernel()
    print(
        f"\nbest energy-efficiency gain: {energy.best():.1f}x on {best_kernel!r}; "
        "divergent kernels (div_int, xcorr, parallel_sel) gain the least, the same "
        "split the paper observes for raw speed-up"
    )

    written = write_report_bundle(
        "ggpu_reports",
        table3=table3,
        figure5=speedups,
        figure6=derated,
        energy=energy,
    )
    print(f"\nwrote {len(written)} report files to ./ggpu_reports/")
    for name in sorted(written):
        print(f"  {name}")


if __name__ == "__main__":
    main()
