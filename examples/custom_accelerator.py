"""Fitting a G-GPU into an SoC budget: custom spec, budgets, and layout export.

A designer has ~10 mm^2 and ~5 W available for an accelerator and wants the
fastest G-GPU that fits.  This example uses the first-order map to shortlist
configurations, runs the full flow for the best candidate, checks the PPA
against the budget, and writes the tapeout-ready layout description to JSON
(the reproduction's stand-in for the GDSII hand-off) as ``ggpu_layout.json``
in the output directory: the first argument, or a fresh temporary directory
whose path it prints.

Run with:  python examples/custom_accelerator.py [OUTPUT_DIR]
"""

import os
import sys
import tempfile

from repro import GGPUSpec, GpuPlannerFlow, default_65nm
from repro.planner.estimator import PpaMap


AREA_BUDGET_MM2 = 10.0
POWER_BUDGET_W = 5.0


def main(output_dir: str) -> None:
    tech = default_65nm()
    ppa_map = PpaMap(tech)

    print(f"Budget: {AREA_BUDGET_MM2} mm2, {POWER_BUDGET_W} W")
    print("\n=== Shortlisting with the first-order map ===")
    candidates = []
    for num_cus in (1, 2, 4, 8):
        for frequency in (500.0, 590.0, 667.0):
            spec = GGPUSpec(
                num_cus=num_cus,
                target_frequency_mhz=frequency,
                max_area_mm2=AREA_BUDGET_MM2,
                max_power_w=POWER_BUDGET_W,
            )
            estimate = ppa_map.estimate(spec)
            marker = "ok " if estimate.feasible else "-- "
            print(
                f"  {marker}{spec.label:12s} est. {estimate.estimated_area_mm2:6.2f} mm2, "
                f"{estimate.estimated_power_w:5.2f} W"
            )
            if estimate.feasible:
                candidates.append(spec)

    best = max(candidates, key=lambda spec: spec.num_cus * spec.target_frequency_mhz)
    print(f"\nBest candidate within budget: {best.label}")

    print("\n=== Running the full flow for the chosen spec ===")
    flow = GpuPlannerFlow(tech)
    result = flow.run(best)
    print(result.summary())

    os.makedirs(output_dir, exist_ok=True)
    output = os.path.join(output_dir, "ggpu_layout.json")
    result.layout.write_json(output)
    print(f"\nTapeout-ready layout description written to {output}")
    print(result.layout.ascii_floorplan(columns=60, rows=18))


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="ggpu_layout_"))
