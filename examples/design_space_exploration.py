"""Design-space exploration: sweep CU counts and frequencies like the paper.

Regenerates (a small text version of) Table I, prints the Pareto frontier of
area vs. throughput, and shows the first-order map recommendations that tell a
designer which memories to divide and where pipelines are needed for each
frequency step.

Run with:  python examples/design_space_exploration.py
"""

from repro import DesignSpaceExplorer, GGPUSpec, default_65nm
from repro.planner.estimator import PpaMap
from repro.eval.reports import table1_report


def main() -> None:
    tech = default_65nm()
    explorer = DesignSpaceExplorer(tech)

    print("=== Sweeping 1/2/4/8 CUs x 500/590/667 MHz (the paper's 12 versions) ===")
    points = explorer.explore(cu_counts=(1, 2, 4, 8), frequencies_mhz=(500.0, 590.0, 667.0))
    print(table1_report([point.synthesis for point in points]).text())

    print("\n=== Feasible points and Pareto frontier (area vs. throughput proxy) ===")
    for point in explorer.pareto_frontier(explorer.feasible_points(points)):
        print(
            f"  {point.label():12s} area {point.area_mm2:6.2f} mm2  "
            f"power {point.power_w:5.2f} W  throughput proxy {point.throughput_proxy:7.0f}  "
            f"efficiency {point.efficiency_proxy:6.1f}"
        )

    print("\n=== The 'map': what has to change to reach each frequency (1 CU) ===")
    ppa_map = PpaMap(tech)
    for frequency in (500.0, 590.0, 667.0):
        estimate = ppa_map.estimate(GGPUSpec(num_cus=1, target_frequency_mhz=frequency))
        print()
        print(estimate.summary())

    print("\n=== Technology agnosticism: slower memories shift the whole map ===")
    slow_memories = PpaMap(tech, memory_delay_overrides_ns={"register_file": 1.9})
    estimate = slow_memories.estimate(GGPUSpec(num_cus=1, target_frequency_mhz=500.0))
    print(estimate.summary())


if __name__ == "__main__":
    main()
