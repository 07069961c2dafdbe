"""Tests for crash-safe artifact writes and resumable-sweep journals (PR 7).

Covers :mod:`repro.runtime.checkpoint` directly — atomic writes, cell keys,
journal round-trips, meta validation, corruption handling — and then the
end-to-end resume contract on real sweeps: a journaled
:func:`repro.eval.benchmarks.run_table3`, :func:`run_multidevice_table` or
:func:`run_pipeline_table` interrupted after some cells recomputes only the
missing ones and reproduces the uninterrupted table bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.errors import ConfigurationError
from repro.eval.benchmarks import DEFAULT_SEED, run_table3
from repro.eval.multidevice import (
    PIPELINE_MODES,
    run_multidevice_table,
    run_pipeline_table,
    run_topology_table,
)
from repro.runtime.checkpoint import (
    JOURNAL_FORMAT,
    SweepJournal,
    atomic_write_json,
    atomic_write_text,
    cell_key,
    open_journal,
)

KERNELS = ("saxpy", "reduce_sum")


# --------------------------------------------------------------------------- #
# Atomic writes
# --------------------------------------------------------------------------- #
def test_atomic_write_text_creates_parents_and_leaves_no_temps(tmp_path):
    target = tmp_path / "deep" / "nested" / "out.txt"
    atomic_write_text(target, "hello\n")
    assert target.read_text(encoding="utf-8") == "hello\n"
    # No stray temp files anywhere near the destination.
    assert sorted(p.name for p in target.parent.iterdir()) == ["out.txt"]


def test_atomic_write_text_replaces_existing_content(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "old")
    atomic_write_text(target, "new")
    assert target.read_text(encoding="utf-8") == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_atomic_write_json_round_trips(tmp_path):
    target = tmp_path / "data.json"
    payload = {"b": [1, 2, 3], "a": {"nested": True}}
    atomic_write_json(target, payload)
    assert json.loads(target.read_text(encoding="utf-8")) == payload
    # Stable serialization: keys sorted, trailing newline.
    text = target.read_text(encoding="utf-8")
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


# --------------------------------------------------------------------------- #
# Cell keys
# --------------------------------------------------------------------------- #
def test_cell_key_is_stable_and_order_insensitive():
    assert cell_key(kernel="saxpy", num_cus=4) == cell_key(num_cus=4, kernel="saxpy")


def test_cell_key_is_sensitive_to_every_field():
    base = cell_key(kernel="saxpy", num_cus=4, seed=0)
    assert cell_key(kernel="dot", num_cus=4, seed=0) != base
    assert cell_key(kernel="saxpy", num_cus=8, seed=0) != base
    assert cell_key(kernel="saxpy", num_cus=4, seed=1) != base
    # Types matter: the int 4 and the string "4" are different cells.
    assert cell_key(kernel="saxpy", num_cus="4", seed=0) != base


# --------------------------------------------------------------------------- #
# SweepJournal
# --------------------------------------------------------------------------- #
def test_journal_records_and_reloads(tmp_path):
    path = tmp_path / "journal.json"
    meta = {"sweep": "unit", "scale": 0.5}
    journal = SweepJournal(path, meta=meta)
    key = cell_key(kernel="saxpy", num_cus=4)
    assert journal.get(key) is None
    assert journal.misses == 1
    journal.record(key, {"cycles": 123.0})

    reloaded = SweepJournal(path, meta=meta)
    assert len(reloaded) == 1
    assert key in reloaded
    assert reloaded.resumed is True
    assert reloaded.get(key) == {"cycles": 123.0}
    assert reloaded.hits == 1


def test_journal_peek_does_not_count(tmp_path):
    journal = SweepJournal(tmp_path / "journal.json")
    key = cell_key(cell=1)
    assert journal.peek(key) is None
    journal.record(key, {"v": 1})
    assert journal.peek(key) == {"v": 1}
    assert journal.hits == 0 and journal.misses == 0


def test_journal_flushes_each_record_atomically(tmp_path):
    # Every record() persists immediately — a kill after any cell loses at
    # most the in-flight cell, never the journal file itself.
    path = tmp_path / "journal.json"
    journal = SweepJournal(path)
    journal.record(cell_key(cell=1), {"v": 1})
    on_disk = json.loads(path.read_text(encoding="utf-8"))
    assert on_disk["format"] == JOURNAL_FORMAT
    assert len(on_disk["cells"]) == 1
    journal.record(cell_key(cell=2), {"v": 2})
    on_disk = json.loads(path.read_text(encoding="utf-8"))
    assert len(on_disk["cells"]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["journal.json"]


def test_journal_ignores_identical_rerecord_but_rejects_conflicts(tmp_path):
    journal = SweepJournal(tmp_path / "journal.json")
    key = cell_key(cell=1)
    journal.record(key, {"v": 1})
    journal.record(key, {"v": 1})  # idempotent: fine
    with pytest.raises(ConfigurationError):
        journal.record(key, {"v": 2})  # same key, different payload: never


def test_journal_discards_on_meta_mismatch(tmp_path):
    path = tmp_path / "journal.json"
    stale = SweepJournal(path, meta={"sweep": "unit", "scale": 0.5})
    stale.record(cell_key(cell=1), {"v": 1})
    # Different sweep configuration ⇒ the stale cells must not be reused.
    fresh = SweepJournal(path, meta={"sweep": "unit", "scale": 1.0})
    assert len(fresh) == 0
    assert fresh.resumed is False


def test_journal_discards_corrupt_file(tmp_path):
    path = tmp_path / "journal.json"
    path.write_text("{ this is not json", encoding="utf-8")
    journal = SweepJournal(path)
    assert len(journal) == 0
    # And it can still record over the corpse.
    journal.record(cell_key(cell=1), {"v": 1})
    assert json.loads(path.read_text(encoding="utf-8"))["format"] == JOURNAL_FORMAT


def test_journal_discards_wrong_format(tmp_path):
    path = tmp_path / "journal.json"
    path.write_text(
        json.dumps({"format": "something-else-v9", "meta": {}, "cells": {"k": 1}}),
        encoding="utf-8",
    )
    journal = SweepJournal(path)
    assert len(journal) == 0


def test_open_journal_normalizes_inputs(tmp_path):
    assert open_journal(None, meta={}) is None
    path = tmp_path / "journal.json"
    from_path = open_journal(path, meta={"sweep": "unit"})
    assert isinstance(from_path, SweepJournal)
    from_str = open_journal(str(path), meta={"sweep": "unit"})
    assert isinstance(from_str, SweepJournal)
    # An existing instance passes through untouched.
    assert open_journal(from_path, meta={"sweep": "unit"}) is from_path


def test_open_journal_rejects_conflicting_meta_on_instance(tmp_path):
    journal = SweepJournal(tmp_path / "journal.json", meta={"sweep": "unit"})
    with pytest.raises(ConfigurationError):
        open_journal(journal, meta={"sweep": "other"})


# --------------------------------------------------------------------------- #
# End-to-end resume on a real sweep
# --------------------------------------------------------------------------- #
def test_table3_resumes_only_missing_cells(tmp_path):
    path = tmp_path / "table3.json"
    kwargs = {"kernels": KERNELS, "cu_counts": (1,), "scale": 0.05, "check": False}

    reference = run_table3(**kwargs)

    # First journaled run computes (and records) everything: the two RISC-V
    # cells plus the two 1-CU G-GPU cells.
    journaled = run_table3(journal=path, **kwargs)
    on_disk = json.loads(path.read_text(encoding="utf-8"))
    assert len(on_disk["cells"]) == 2 * len(KERNELS)

    # Simulate a crash that lost one cell: drop it from the journal file.
    dropped_key, dropped_payload = sorted(on_disk["cells"].items())[0]
    del on_disk["cells"][dropped_key]
    atomic_write_json(path, on_disk)

    # The resumed run computes *only* the missing cell.
    journal = open_journal(path, meta=on_disk["meta"])
    assert journal.resumed is True
    assert len(journal) == 2 * len(KERNELS) - 1
    resumed = run_table3(journal=journal, **kwargs)
    assert journal.hits == 2 * len(KERNELS) - 1
    assert journal.misses == 1
    assert journal.hits + journal.misses == 2 * len(KERNELS)

    # The recomputed cell round-trips to the identical journal payload, and
    # all three tables agree bit-exactly.
    recomputed = json.loads(path.read_text(encoding="utf-8"))["cells"][dropped_key]
    assert recomputed == dropped_payload
    for kernel in KERNELS:
        assert resumed.rows[kernel].riscv == reference.rows[kernel].riscv
        assert resumed.rows[kernel].riscv == journaled.rows[kernel].riscv
        assert resumed.rows[kernel].gpu[1] == reference.rows[kernel].gpu[1]
        assert resumed.rows[kernel].gpu[1] == journaled.rows[kernel].gpu[1]


def test_table3_journal_rejects_mismatched_sweep_config(tmp_path):
    path = tmp_path / "table3.json"
    run_table3(kernels=KERNELS, cu_counts=(1,), scale=0.05, check=False, journal=path)
    before = json.loads(path.read_text(encoding="utf-8"))
    assert before["meta"]["scale"] == 0.05
    # A different scale is a different sweep: the stale journal is discarded
    # and restarted, never merged with (some cell keys can legitimately
    # coincide when the scaled input sizes round to the same values, but
    # the journal must be rebuilt under the new meta from scratch).
    run_table3(kernels=KERNELS, cu_counts=(1,), scale=0.04, check=False, journal=path)
    after = json.loads(path.read_text(encoding="utf-8"))
    assert after["meta"]["scale"] == 0.04
    assert len(after["cells"]) == 2 * len(KERNELS)
    # At least one key differs (saxpy's input size changes with the scale),
    # so a merge would have left more than one sweep's worth of cells.
    assert set(after["cells"]) != set(before["cells"])


# Each multi-device sweep, its journal keys, the index of the key to drop,
# and how many launches the one missing cell simulates on resume.
MULTIDEVICE_RESUME = (
    run_multidevice_table,
    {"device_counts": (1, 2), "kernels": ["copy", "dot"], "scale": 0.125, "jobs": 1},
    [
        cell_key(
            device_count=count,
            kernels=["copy", "dot"],
            scale=0.125,
            seed=DEFAULT_SEED,
            lpt=False,
        )
        for count in (1, 2)
    ],
    1,
    2,
)
PIPELINE_RESUME = (
    run_pipeline_table,
    {"device_counts": (1, 2), "lanes": 4, "size": 128, "jobs": 1},
    [
        cell_key(mode=mode, device_count=count)
        for mode in PIPELINE_MODES
        for count in (1, 2)
    ],
    3,
    8,
)

TOPOLOGY_RESUME = (
    run_topology_table,
    {
        "device_counts": (2,),
        "dags": ("shuffle",),
        "topologies": ("flat", "ring"),
        "schedulers": ("lpt", "stealing"),
        "lanes": 2,
        "stages": 2,
        "size": 64,
        "jobs": 1,
    },
    [
        cell_key(dag="shuffle", topology=topology, scheduler=scheduler, device_count=2)
        for topology in ("flat", "ring")
        for scheduler in ("lpt", "stealing")
    ],
    3,
    4,
)


@pytest.mark.parametrize(
    "sweep",
    [MULTIDEVICE_RESUME, PIPELINE_RESUME, TOPOLOGY_RESUME],
    ids=["multidevice", "pipeline", "topology"],
)
def test_multidevice_sweeps_resume_only_missing_cells(tmp_path, simulated_launches, sweep):
    run, kwargs, keys, dropped, launches = sweep
    path = tmp_path / "journal.json"
    reference = run(**kwargs)
    run(journal=path, **kwargs)
    on_disk = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(on_disk["cells"]) == sorted(keys)

    # Lose one cell, then resume: only that cell's launches are simulated.
    dropped_payload = on_disk["cells"].pop(keys[dropped])
    atomic_write_json(path, on_disk)
    journal = open_journal(path, meta=on_disk["meta"])
    simulated_launches.clear()
    resumed = run(journal=journal, **kwargs)
    assert journal.hits == len(keys) - 1 and journal.misses == 1
    assert len(simulated_launches) == launches
    assert json.loads(path.read_text(encoding="utf-8"))["cells"][keys[dropped]] == dropped_payload

    assert set(resumed.cells) == set(reference.cells)
    for key in reference.cells:
        assert asdict(resumed.cells[key]) == asdict(reference.cells[key])
