"""Generate a G-GPU and export its tapeout hand-off artifacts.

The output of GPUPlanner is a tapeout-ready IP.  This example runs the full
flow for a 1-CU, 667 MHz G-GPU and writes the artifacts an integrator would
receive:

* structural Verilog of the optimized netlist (divided memories, inserted
  pipelines),
* a DEF placement view and a LEF abstract of the SRAM macros,
* an SVG rendering of the floorplan with the paper's colour coding
  (Fig. 3-style), and
* the JSON layout description (the GDSII stand-in).

Everything is written to ``ggpu_ip_<label>/`` in the output directory: the
first argument, or a fresh temporary directory whose path it prints.

Run with:  python examples/export_tapeout_artifacts.py [OUTPUT_DIR]
"""

import os
import sys
import tempfile

from repro import GGPUSpec, GpuPlannerFlow, default_65nm
from repro.physical.export import export_layout_bundle
from repro.rtl.verilog import emit_verilog, verilog_statistics


def main(output_dir: str) -> None:
    tech = default_65nm()
    spec = GGPUSpec(num_cus=1, target_frequency_mhz=667.0)
    flow = GpuPlannerFlow(tech)

    print(f"running the GPUPlanner flow for {spec.label} ...")
    result = flow.run(spec)
    print(result.summary())

    directory = os.path.join(output_dir, f"ggpu_ip_{spec.label}")
    os.makedirs(directory, exist_ok=True)
    print(f"\nwriting the IP into {directory}")

    # RTL hand-off: the optimized structural netlist as Verilog.
    design = emit_verilog(result.netlist, tech)
    rtl_path = os.path.join(directory, f"{spec.label}.v")
    design.write(rtl_path)
    stats = verilog_statistics(design.text())
    print(
        f"\nwrote {rtl_path}: {stats['modules']} modules, "
        f"{stats['macro_instances']} SRAM macro instances, "
        f"{stats['pipeline_registers']} pipeline register banks"
    )

    # Physical hand-off: DEF + LEF + SVG + JSON.
    paths = export_layout_bundle(result.layout, result.netlist, tech, directory)
    print("physical artifacts:")
    for kind, path in sorted(paths.items()):
        print(f"  {kind:4s} -> {path}")

    print(
        f"\nIP summary: {result.synthesis.total_area_mm2:.2f} mm2, "
        f"{result.synthesis.total_power_w:.2f} W, achieved "
        f"{result.achieved_frequency_mhz:.0f} MHz "
        f"({result.optimization.num_divisions} memory divisions, "
        f"{result.optimization.num_pipelines} pipeline insertions)"
    )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="ggpu_ip_"))
