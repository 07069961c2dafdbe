"""Deterministic parallel sweep runner (repro.runtime.parallel)."""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor, wait

import pytest

from repro.errors import ConfigurationError, ParallelExecutionError
from repro.eval.benchmarks import run_table3
from repro.planner.flow import GpuPlannerFlow
from repro.planner.spec import GGPUSpec
from repro.runtime.parallel import JOBS_ENV_VAR, default_jobs, parallel_map
from repro.tech.technology import default_65nm


def _square(value: int) -> int:
    return value * value


def _fail_on_three(value: int) -> int:
    if value == 3:
        raise ValueError("boom")
    return value


def _die_unless_parent(task) -> int:
    """Hard-kill the worker process; compute normally in the parent.

    Used to simulate a worker crash (segfault/OOM-kill): the pool raises
    BrokenProcessPool, and parallel_map's serial fallback — which runs in the
    parent, where ``os.getpid()`` matches — must still produce the result.
    """
    parent_pid, value = task
    if os.getpid() != parent_pid:
        os._exit(1)
    return value * value


def _sleep_forever(value: int) -> int:
    time.sleep(3600.0)
    return value


# --------------------------------------------------------------------------- #
# parallel_map semantics
# --------------------------------------------------------------------------- #
def test_serial_map_preserves_order():
    assert parallel_map(_square, [3, 1, 2], jobs=1) == [9, 1, 4]


def test_parallel_map_preserves_order():
    items = list(range(17))
    assert parallel_map(_square, items, jobs=3) == [value * value for value in items]


def test_single_item_short_circuits_to_serial():
    # One task never pays for a pool, whatever the job count.
    assert parallel_map(_square, [5], jobs=8) == [25]


def test_empty_input():
    assert parallel_map(_square, [], jobs=4) == []


def test_worker_exceptions_propagate():
    with pytest.raises(ValueError, match="boom"):
        parallel_map(_fail_on_three, [1, 2, 3, 4], jobs=2)


def test_invalid_job_count_rejected():
    with pytest.raises(ConfigurationError):
        parallel_map(_square, [1, 2], jobs=0)


def test_invalid_task_timeout_rejected():
    with pytest.raises(ConfigurationError):
        parallel_map(_square, [1, 2], jobs=2, task_timeout=0.0)
    with pytest.raises(ConfigurationError):
        parallel_map(_square, [1, 2], jobs=2, task_timeout=-1.0)


# --------------------------------------------------------------------------- #
# Hardening: worker death, task timeouts, incremental results (PR 7)
# --------------------------------------------------------------------------- #
def test_dead_worker_falls_back_to_serial_retry():
    # Every task kills any pool worker outright, so the pool breaks; the
    # serial retry runs in the parent and completes the sweep anyway.
    tasks = [(os.getpid(), value) for value in range(5)]
    assert parallel_map(_die_unless_parent, tasks, jobs=2) == [
        value * value for value in range(5)
    ]


def test_pool_broken_during_submission_retries_the_unsubmitted_tasks(monkeypatch):
    # A loaded host can deschedule the parent between two submits for long
    # enough that the first task's worker dies.  Make that deterministic:
    # after the first submit, wait (bounded) until its future is done, so
    # every later submit finds the pool broken.
    original_submit = ProcessPoolExecutor.submit
    first = []

    def submit_then_wait(self, fn, *args, **kwargs):
        future = original_submit(self, fn, *args, **kwargs)
        if not first:
            first.append(future)
            wait([future], timeout=60.0)
        return future

    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_then_wait)
    tasks = [(os.getpid(), value) for value in range(5)]
    seen = []
    result = parallel_map(
        _die_unless_parent, tasks, jobs=2, on_result=lambda i, r: seen.append((i, r))
    )
    assert first and first[0].done()
    assert result == [value * value for value in range(5)]
    assert seen == [(value, value * value) for value in range(5)]


def test_task_timeout_raises_structured_error():
    start = time.perf_counter()
    with pytest.raises(ParallelExecutionError) as excinfo:
        parallel_map(_sleep_forever, [1, 2], jobs=2, task_timeout=1.0)
    elapsed = time.perf_counter() - start
    assert excinfo.value.task_index == 0
    assert "exceeded the per-task timeout" in str(excinfo.value)
    # The hung workers were terminated, not awaited for an hour.
    assert elapsed < 60.0


def test_task_timeout_ignored_on_serial_path():
    # jobs=1 runs in-process where a timeout cannot preempt; the parameter
    # is validated but the fast task simply completes.
    assert parallel_map(_square, [2, 3], jobs=1, task_timeout=0.001) == [4, 9]


@pytest.mark.parametrize("jobs", [1, 3])
def test_on_result_sees_every_task_in_order(jobs):
    seen = []
    result = parallel_map(
        _square, [3, 1, 2], jobs=jobs, on_result=lambda i, r: seen.append((i, r))
    )
    assert result == [9, 1, 4]
    assert seen == [(0, 9), (1, 1), (2, 4)]


def test_on_result_runs_before_a_later_failure_surfaces():
    # Tasks before the failing one still reach the callback — this is what
    # lets a journaled sweep persist finished cells even when a later cell
    # blows up.
    seen = []
    with pytest.raises(ValueError, match="boom"):
        parallel_map(
            _fail_on_three,
            [1, 2, 3, 4],
            jobs=1,
            on_result=lambda i, r: seen.append(i),
        )
    assert seen == [0, 1]


# --------------------------------------------------------------------------- #
# REPRO_JOBS environment variable
# --------------------------------------------------------------------------- #
def test_default_jobs_reads_environment(monkeypatch):
    monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv(JOBS_ENV_VAR, "4")
    assert default_jobs() == 4


@pytest.mark.parametrize("bad", ["zero", "0", "-2", "1.5"])
def test_default_jobs_rejects_bad_values(monkeypatch, bad):
    monkeypatch.setenv(JOBS_ENV_VAR, bad)
    with pytest.raises(ConfigurationError):
        default_jobs()


# --------------------------------------------------------------------------- #
# The wired sweeps produce identical outputs at any job count
# --------------------------------------------------------------------------- #
def _table_values(table):
    return [
        (
            kernel,
            row.riscv.cycles,
            row.riscv.stats.mnemonic_counts,
            tuple((num_cus, row.gpu[num_cus].cycles) for num_cus in sorted(row.gpu)),
        )
        for kernel, row in table.rows.items()
    ]


def test_table3_identical_at_any_job_count():
    serial = run_table3(kernels=["copy", "div_int"], cu_counts=(1, 2), scale=0.125, jobs=1)
    fanned = run_table3(kernels=["copy", "div_int"], cu_counts=(1, 2), scale=0.125, jobs=3)
    assert _table_values(serial) == _table_values(fanned)
    assert list(serial.rows) == ["copy", "div_int"]  # order is the request order


def test_run_many_identical_at_any_job_count():
    flow = GpuPlannerFlow(default_65nm(), run_physical=False)
    specs = [GGPUSpec(1, 500.0), GGPUSpec(2, 667.0)]
    serial = flow.run_many(specs, jobs=1)
    fanned = flow.run_many(specs, jobs=2)
    assert [
        (result.spec.label, result.achieved_frequency_mhz, result.issues)
        for result in serial
    ] == [
        (result.spec.label, result.achieved_frequency_mhz, result.issues)
        for result in fanned
    ]
