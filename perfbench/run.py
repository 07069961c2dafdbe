"""Host-speed benchmark of the G-GPU reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload table3_sweep --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``):

* ``table3_sweep`` -- Table III at scale 0.25: 16 kernels x {RISC-V, 1, 2,
  4, 8 CUs} = 80 cells.  The SIMT issue loop, PEs and memory path.
* ``topology_ablation`` -- ``run_topology_table(device_counts=(8, 16))`` on
  the serial shared pool: 36 cells, 3,240 short launches through
  ``OutOfOrderQueue``.  Launch set-up, decode reuse, the schedulers.
* ``riscv_cl`` -- every shipped CL source compiled with ``check="warn"``
  (front end, verifier, both code generators), its RISC-V program run, and
  every hand-written RISC-V program run, at the paper's RISC-V sizes.

Load is closed-loop from one process (``REPRO_JOBS=1`` is set here, not
inherited): cells run one after another, each as soon as the previous one
finished, and passes repeat until ``--seconds`` have elapsed and at least
``MIN_PASSES`` have run.  The simulators run with their library defaults.
Every cell checks its outputs; a failing cell is counted, not fatal.

Host times are reported at a fixed reference speed.  A shared host's speed
swings by up to 1.7x within seconds, so raw times of the same code differ
by more than any useful regression bound between runs minutes apart.  Every
cell (and every set-up) is therefore bracketed by runs of a fixed reference
loop (``workloads.reference_seconds``), and its time is rescaled by
``REFERENCE_NOMINAL_S`` over the reference's time next to it.  The raw
times and the host's speed relative to the reference are printed beside.

With ``--trace 0`` the end-to-end metrics are printed.  A cell's host time
is its median over the passes of the run; a pass is the sum of its cells,
and the cell p50 and tail are taken over the cells.  Set-up is timed in
several fresh interpreters and reported as the median.  With ``--trace 1``
untraced and traced passes alternate, and the per-layer metrics are medians
over the traced passes (``tracer.py``); the tracing overhead is the traced
minus the untraced pass time.  Simulated counts (cycles, instructions, cache and AXI counts,
makespans) are digested per pass; every pass of a run, traced or not, must
give the same digest, and a host-speed change must keep it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the reproducibility record (seed, git revision, machine fingerprint,
simulator defaults), every metric with its unit, and the digest.  The full
record, including the trace spans of a traced run, is written to
``perfbench/out/``.

Seed ``HELD_OUT_SEED`` is kept out of all tuning and baselines: use it only
to confirm a performance claim made on other seeds.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tracer import Tracer
from workloads import WORKLOADS, add_counts, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 90001
#: Set-up is repeated in fresh interpreters (imports included) this many times.
SETUP_SAMPLES = 7
#: A run measures at least this many passes, however long they take, so a
#: slow host gives a cell's median over as many samples as a fast one.
MIN_PASSES = 3
#: The tail is the slowest cell with at least this many slower cells.
TAIL_BEYOND = 10
#: Reference-loop time that defines the reference speed: about the loop's
#: time on an unloaded 2.1 GHz Xeon vCPU, so reported times are close to
#: what that host measures when nothing else contends for it.
REFERENCE_NOMINAL_S = 0.0032
OUT_DIR = HERE / "out"

#: Printed by name and unit, but not in BENCHMARK.json: the raw times and
#: the host speed describe the host, not the code; the others are 0 on some
#: workload by design (no G-GPU in riscv_cl, no ISS in topology_ablation,
#: no failures).
REPORTED_UNITS = {
    "raw_wall_s": "s",
    "raw_setup_s": "s",
    "host_speed": "x",
    "cell_p50_ms": "ms",
    "cell_tail_ms": "ms",
    "ggpu_kinstr_per_s": "kinstr/s",
    "riscv_minstr_per_s": "Minstr/s",
    "failed_frac": "frac",
}

Pass = Tuple[bool, list, float, Optional[Tracer]]


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input-size factor (1.0 = benchmark size)"
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
# Reproducibility record
# --------------------------------------------------------------------------- #
def git_rev(root: Path = ROOT) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> Dict[str, object]:
    import numpy

    from repro.arch.config import GGPUConfig
    from repro.riscv.cpu import RiscvCpu
    from repro.simt.gpu import GGPUSimulator

    def defaults(function) -> Dict[str, object]:
        return {
            name: param.default
            for name, param in inspect.signature(function).parameters.items()
            if isinstance(param.default, (bool, int, float, str))
        }

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "repro_jobs": os.environ.get("REPRO_JOBS"),
        "simulator_defaults": {
            "GGPUSimulator": defaults(GGPUSimulator.__init__),
            "RiscvCpu": defaults(RiscvCpu.__init__),
            "GGPUConfig": asdict(GGPUConfig()),
        },
    }


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #
def at_reference_speed(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while the reference loop took ``reference_s``,
    rescaled to a host on which it takes ``REFERENCE_NOMINAL_S``."""
    return seconds * REFERENCE_NOMINAL_S / reference_s


def timed_setup(workload: str, seed: int, scale: float):
    """The workload's plan, its set-up seconds, and the bracketing reference time."""
    # workloads.py imports nothing heavy: repro and numpy load in here.
    before = reference_seconds()
    start = time.perf_counter()
    plan = WORKLOADS[workload](seed, scale)
    seconds = time.perf_counter() - start
    return plan, seconds, (before + reference_seconds()) / 2


def setup_sample(args: argparse.Namespace) -> Tuple[float, float]:
    """Set-up seconds and reference time in a fresh interpreter, so imports
    are paid again."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--scale", str(args.scale),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return float(sample["setup_s"]), float(sample["reference_s"])


def run_passes(plan, seconds: float, trace: bool, min_passes: int = MIN_PASSES) -> List[Pass]:
    """Closed-loop passes until ``seconds`` elapsed and ``min_passes`` ran.

    With ``trace`` set, untraced and traced passes alternate.
    """
    passes: List[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        pass_start = time.perf_counter()
        if tracer is not None:
            with tracer:
                results = plan.run_pass()
        else:
            results = plan.run_pass()
        passes.append((traced, results, time.perf_counter() - pass_start, tracer))
        # Device pools die in reference cycles; freeing them here keeps peak
        # RSS at one pass's peak however many passes fit in the run.
        gc.collect()
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed >= seconds:
            return passes


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def digest(results) -> str:
    payload = [(r.name, sorted(r.counts.items()), r.record) for r in results]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def pass_counts(results) -> Dict[str, float]:
    """Simulated counts of one pass, summed over its cells."""
    totals: Dict[str, float] = {}
    for r in results:
        add_counts(totals, r.counts)
    return totals


def tail_index(cells: int) -> int:
    """Sorted index of the slowest cell with ``TAIL_BEYOND`` cells beyond it."""
    return max(0, cells - 1 - TAIL_BEYOND)


def end_to_end(runs: List[list]) -> Dict[str, float]:
    """Host-time metrics of passes (lists of cell results), built cell by cell.

    Each cell time is taken at the reference speed, and a cell's latency is
    its median over the passes; a pass takes the sum of those.  The raw pass
    time (the sum of its cells' measured seconds) and the host's speed
    relative to the reference are reported beside them.
    """
    cell_s = [
        statistics.median(at_reference_speed(r.seconds, r.reference_s) for r in column)
        for column in zip(*runs)
    ]
    first = runs[0]
    counts = pass_counts(first)

    def seconds_running(key: str) -> float:
        return sum(seconds for seconds, r in zip(cell_s, first) if key in r.counts)

    ggpu_s = seconds_running("ggpu.instructions")
    riscv_s = seconds_running("riscv.instructions")
    references = [r.reference_s for results in runs for r in results]
    return {
        "wall_s": sum(cell_s),
        "raw_wall_s": statistics.median(sum(r.seconds for r in results) for results in runs),
        "host_speed": REFERENCE_NOMINAL_S / statistics.median(references),
        "cell_p50_ms": statistics.median(cell_s) * 1e3,
        "cell_tail_ms": sorted(cell_s)[tail_index(len(cell_s))] * 1e3,
        "ggpu_kinstr_per_s": counts.get("ggpu.instructions", 0) / ggpu_s / 1e3 if ggpu_s else 0.0,
        "riscv_minstr_per_s": counts.get("riscv.instructions", 0) / riscv_s / 1e6 if riscv_s else 0.0,
        "ggpu_cell_s": ggpu_s,
    }


def layer_metrics(tracer: Tracer, c: Dict[str, float], cells_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass with simulated counts ``c``.

    ``cells_s`` is the pass's time inside its cells; what the spans leave of
    it is the harness's own work (``eval.self_s``).
    """

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    launches = tracer.calls("simt.launch")
    instructions = c.get("ggpu.instructions", 0)
    accesses = c.get("cache.read_accesses", 0) + c.get("cache.write_accesses", 0)
    misses = c.get("cache.read_misses", 0) + c.get("cache.write_misses", 0)
    return {
        "cl.compile_s": tracer.self_time("cl.compile"),
        "cl.codegen_ggpu_s": tracer.total("cl.codegen_ggpu"),
        "cl.codegen_riscv_s": tracer.total("cl.codegen_riscv"),
        "cl.riscv_static_instrs": c.get("cl.riscv_static_instrs", 0),
        "analysis.verify_s": tracer.total("analysis.verify"),
        "analysis.errors": c.get("analysis.errors", 0),
        "analysis.warnings": c.get("analysis.warnings", 0),
        "decode.predecode_s": tracer.total("decode.predecode"),
        "decode.calls": tracer.calls("decode.predecode"),
        "decode.cache_hit_frac": ratio(launches - tracer.calls("decode.predecode"), launches),
        "simt.launch_s": tracer.total("simt.launch"),
        "simt.launch_overhead_s": tracer.self_time("simt.launch"),
        "simt.sched_s": tracer.total("simt.select", "simt.earliest_excluding"),
        "simt.issue_self_s": tracer.self_time("simt.step"),
        "simt.step_events": tracer.calls("simt.step"),
        "simt.instructions": instructions,
        "simt.macro_batching": ratio(instructions, c.get("ggpu.issue_events", 0)),
        "simt.sim_kcycles": c.get("ggpu.cycles", 0) / 1e3,
        "simt.simd_efficiency": ratio(c.get("ggpu.active_lane_issues", 0), c.get("ggpu.lane_slots", 0)),
        "mem.coalesce_s": tracer.total("mem.coalesce"),
        "mem.cache_s": tracer.total("mem.cache"),
        "mem.axi_s": tracer.total("mem.axi"),
        "mem.gmem_s": tracer.total("mem.gmem_load", "mem.gmem_store"),
        "mem.cache_accesses": accesses,
        "mem.cache_hit_rate": ratio(accesses - misses, accesses),
        "mem.axi_transactions": c.get("axi.line_fills", 0) + c.get("axi.write_backs", 0),
        "mem.axi_busy_kcycles": c.get("axi.busy_cycles", 0) / 1e3,
        "riscv.run_s": tracer.total("riscv.run"),
        "riscv.predecode_s": tracer.total("riscv.predecode"),
        "riscv.instructions": c.get("riscv.instructions", 0),
        "riscv.kcycles": c.get("riscv.cycles", 0) / 1e3,
        "runtime.enqueue_s": tracer.total("runtime.enqueue"),
        "runtime.flush_self_s": tracer.self_time("runtime.flush", "runtime.finish"),
        "runtime.launches": c.get("rt.launches", 0),
        "runtime.redundant_launch_frac": ratio(
            c.get("rt.launches", 0) - c.get("rt.first_launches", 0), c.get("rt.launches", 0)
        ),
        "runtime.transfers": c.get("rt.transfers", 0),
        "runtime.transfers_skipped": c.get("rt.transfers_skipped", 0),
        "runtime.makespan_kcycles": c.get("rt.makespan", 0) / 1e3,
        "eval.self_s": cells_s - tracer.root_s,
    }


def traced_layer_metrics(results, tracer: Tracer) -> Dict[str, float]:
    """:func:`layer_metrics` of a traced pass, its times at the reference speed."""
    cells_s = sum(r.seconds for r in results)
    row = layer_metrics(tracer, pass_counts(results), cells_s)
    reference_s = statistics.median(r.reference_s for r in results)
    return {
        name: at_reference_speed(value, reference_s) if name.endswith("_s") else value
        for name, value in row.items()
    }


def summarize(passes: List[Pass], setups: List[Tuple[float, float]]) -> Dict[str, object]:
    """Every metric of a run, its failures and its simulated-count digests.

    ``setups`` holds (set-up seconds, reference seconds) samples.
    """
    e2e = end_to_end([results for traced, results, _, _ in passes if not traced])
    digests = [digest(results) for _, results, _, _ in passes]
    attempted = sum(len(results) for _, results, _, _ in passes)
    errors = [f"{r.name}: {r.error}" for _, results, _, _ in passes for r in results if r.error]
    reported = {
        "wall_s": e2e["wall_s"],
        "setup_s": statistics.median(at_reference_speed(*sample) for sample in setups),
        "raw_wall_s": e2e["raw_wall_s"],
        "raw_setup_s": statistics.median(seconds for seconds, _ in setups),
        "host_speed": e2e["host_speed"],
        "cell_p50_ms": e2e["cell_p50_ms"],
        "cell_tail_ms": e2e["cell_tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ggpu_kinstr_per_s": e2e["ggpu_kinstr_per_s"],
        "riscv_minstr_per_s": e2e["riscv_minstr_per_s"],
        "failed_frac": len(errors) / attempted,
    }
    layers: Dict[str, float] = {}
    spans: Dict[str, Dict[str, float]] = {}
    traced = [(results, tracer) for is_traced, results, _, tracer in passes if is_traced]
    if traced:
        rows = [traced_layer_metrics(results, tracer) for results, tracer in traced]
        layers = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
        steps = layers["simt.step_events"]
        layers["simt.us_per_event"] = e2e["ggpu_cell_s"] / steps * 1e6 if steps else 0.0
        traced_wall = end_to_end([results for results, _ in traced])["wall_s"]
        layers["trace.overhead_s"] = traced_wall - e2e["wall_s"]
        spans = {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
            for name, s in traced[-1][1].spans.items()
        }
    return {
        "reported": reported,
        "layers": layers,
        "spans": spans,
        "errors": errors,
        "digests": digests,
        "attempted": attempted,
        "correct": not errors and len(set(digests)) == 1,
    }


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ["REPRO_JOBS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        _, seconds, reference_s = timed_setup(args.workload, args.seed, args.scale)
        print(json.dumps({"setup_s": seconds, "reference_s": reference_s}))
        return 0

    plan, *first_setup = timed_setup(args.workload, args.seed, args.scale)
    setups = [tuple(first_setup)] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    passes = run_passes(plan, args.seconds, bool(args.trace))
    summary = summarize(passes, setups)
    reported, layers, errors, digests = (
        summary["reported"], summary["layers"], summary["errors"], summary["digests"]
    )
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {
        **REPORTED_UNITS,
        **{metric["name"]: metric["unit"] for metric in spec["end_to_end"] + spec["per_layer"]},
    }

    cells = len(passes[0][1])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "fingerprint": fingerprint(),
        "passes": len(passes),
        "traced_passes": sum(1 for traced, *_ in passes if traced),
        "cells_per_pass": cells,
        "tail_percentile": 100.0 * (tail_index(cells) + 1) / cells,
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "setup_samples": [{"seconds": s, "reference_s": ref} for s, ref in setups],
        "pass_walls_s": [wall for _, _, wall, _ in passes],
        "cell_seconds": {
            r.name: [results[i].seconds for _, results, _, _ in passes]
            for i, r in enumerate(passes[0][1])
        },
        "cell_reference_s": {
            r.name: [results[i].reference_s for _, results, _, _ in passes]
            for i, r in enumerate(passes[0][1])
        },
        "digest": digests[0],
        "digests_agree": len(set(digests)) == 1,
        "simulated_counts": pass_counts(passes[0][1]),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
        "per_layer": {name: {"value": value, "unit": units[name]} for name, value in layers.items()},
        "spans": summary["spans"],
        "errors": errors[:20],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"# {args.workload} seed={args.seed} git={record['git_rev']} "
          f"passes={len(passes)} (traced {record['traced_passes']}) cells/pass={cells}")
    print(f"# fingerprint {json.dumps(record['fingerprint'], sort_keys=True)}")
    print(f"# cell_tail_ms is the p{record['tail_percentile']:.1f} cell latency "
          f"({TAIL_BEYOND} of {cells} cells beyond it); a cell's latency is its median pass")
    print(f"# times are at the reference speed (reference loop {REFERENCE_NOMINAL_S * 1e3:g} ms); "
          f"raw_* are as measured, host_speed is the host's speed relative to the reference")
    for name, value in reported.items():
        print(f"{name:<32} {value:>16.6f} {units[name]}")
    for name, value in sorted(layers.items()):
        print(f"{name:<32} {value:>16.6f} {units[name]}")
    agree = "identical" if record["digests_agree"] else "DIFFERS"
    print(f"# simulated-count digest {digests[0]} ({agree} across passes)")
    for line in errors[:5]:
        print(f"# FAILED {line}")
    print(f"# record written to {out_file}")

    shown = layers if args.trace else reported
    metrics = {
        metric["name"]: {"value": shown[metric["name"]], "unit": metric["unit"]} for metric in declared
    }
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": len(errors),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
