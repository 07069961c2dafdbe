"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

TINY = "0.05"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--scale", TINY,
        ],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    passes = run.run_passes(workloads.setup_riscv_cl(3, float(TINY)), 0, trace=True)
    summary = run.summarize(passes, setups=[(1.0, run.REFERENCE_NOMINAL_S)])
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(summary["reported"])
    assert {m["name"] for m in SPEC["per_layer"]} == set(summary["layers"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_prints_with_its_unit(workload, trace):
    done = _bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    printed = {
        name: (float(value), unit)
        for name, value, unit in (line.split() for line in lines[:-1] if not line.startswith("#"))
    }
    listed = SPEC["end_to_end"] + (SPEC["per_layer"] if trace else [])
    for name, unit in {**run.REPORTED_UNITS, **{m["name"]: m["unit"] for m in listed}}.items():
        assert printed[name][1] == unit
    assert printed["failed_frac"][0] == 0.0
    for line in lines:
        if "digest" in line:
            assert "identical" in line
    record = json.loads((run.OUT_DIR / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["seed"] == 3 and record["fingerprint"]["repro_jobs"] == "1"


def test_traced_and_untraced_digests_agree():
    digests = []
    for trace in (0, 1):
        done = _bench("riscv_cl", trace)
        digests.append([line for line in done.stdout.splitlines() if "digest" in line][0].split()[3])
    assert digests[0] == digests[1]


def test_corrupted_expected_output_counts_as_failed():
    plan = workloads.setup_table3(seed=5, scale=float(TINY))
    target = next(cell for cell in plan.cells if cell.expected)
    name, values = next(iter(target.expected.items()))
    values[0] ^= 1
    passes = run.run_passes(plan, 0, trace=False)
    summary = run.summarize(passes, setups=[(1.0, run.REFERENCE_NOMINAL_S)])
    assert summary["reported"]["failed_frac"] > 0
    assert not summary["correct"]
    assert any(target.name in error for error in summary["errors"])


def test_tracer_restores_every_target():
    def current(module_name, attribute):
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        return vars(owner)[leaf]

    before = [current(module, attribute) for _, module, attribute in TARGETS]
    with Tracer():
        assert [current(m, a) for _, m, a in TARGETS] != before
    assert [current(module, attribute) for _, module, attribute in TARGETS] == before


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _bench("riscv_cl", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
