"""Deterministic process fan-out for the paper's sweeps.

Every sweep in the repository -- the Table III kernel x target measurement
grid, the design-space exploration over CU counts and frequencies, and the
push-button ``run_many`` flow -- is an ordered map of one pure function over
an explicit task list: the tasks share no mutable state (each builds its own
simulator or netlist) and all randomness is derived from per-task seeds.
:func:`parallel_map` exploits exactly that shape:

* the result list is always in task order, whatever order the workers finish
  in, so a sweep's output is bit-identical at any job count;
* ``jobs=1`` (the default) runs the plain list comprehension in-process --
  no pool, no pickling, no behavioural difference from the historical serial
  loops it replaced;
* ``jobs>1`` fans the tasks out over a process pool (processes, not threads:
  the simulators are pure Python and hold the GIL).

The fan-out is hardened against an imperfect pool:

* a **dead worker** (OOM-killed, segfaulted, ``os._exit``) no longer
  surfaces as an opaque ``BrokenProcessPool`` traceback: the task whose
  future broke is identified and retried serially, once, in the parent
  process.  If the retry succeeds the sweep continues; if the task itself is
  the problem, the retry raises the *real* exception with the task index
  attached.  A worker can die while the parent is still submitting (a
  loaded host may deschedule the parent between submits); the first submit
  that finds the pool broken ends submission, and every task left without a
  future takes the same single serial retry, in task order.
* an optional **per-task timeout** (``task_timeout`` seconds) turns a hung
  worker into a :class:`~repro.errors.ParallelExecutionError` naming the
  task, instead of blocking the sweep forever.  The surviving worker
  processes are terminated so the parent never waits on them at shutdown.

``on_result`` is called in task order as each result materializes — the hook
the resumable-sweep journals (:mod:`repro.runtime.checkpoint`) use to
persist finished cells before the sweep completes, so a killed sweep only
recomputes what the journal has not seen.

The default job count comes from the ``REPRO_JOBS`` environment variable, so
``REPRO_JOBS=4 pytest benchmarks`` parallelizes every wired sweep without
touching call sites.

Functions handed to :func:`parallel_map` with ``jobs > 1`` must be picklable
(module-level functions, bound methods of picklable objects, or
``functools.partial`` of either); the task items and results travel through
pickle as well.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, TypeVar

from repro.errors import ConfigurationError, ParallelExecutionError

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")

JOBS_ENV_VAR = "REPRO_JOBS"


def default_jobs() -> int:
    """Job count from the ``REPRO_JOBS`` environment variable (default 1)."""
    raw = os.environ.get(JOBS_ENV_VAR, "1")
    try:
        jobs = int(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"{JOBS_ENV_VAR} must be a positive integer, got {raw!r}"
        ) from exc
    if jobs < 1:
        raise ConfigurationError(f"{JOBS_ENV_VAR} must be a positive integer, got {jobs}")
    return jobs


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Kill a pool's worker processes so shutdown never blocks on a hung task."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except OSError:  # pragma: no cover - already gone
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def parallel_map(
    fn: Callable[[_ItemT], _ResultT],
    items: Iterable[_ItemT],
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    on_result: Optional[Callable[[int, _ResultT], None]] = None,
) -> List[_ResultT]:
    """Apply ``fn`` to every item, returning the results in item order.

    ``jobs`` fixes the worker count; ``None`` reads :func:`default_jobs`
    (the ``REPRO_JOBS`` environment variable).  One job -- or one item --
    short-circuits to an in-process loop.

    ``task_timeout`` bounds each task's wall-clock seconds when fanned out
    (it is not enforced on the serial path, where a hung task would hang the
    caller either way); a breach raises
    :class:`~repro.errors.ParallelExecutionError` naming the task.  A task
    whose worker process dies is retried serially once before its failure is
    surfaced.  ``on_result(index, result)`` is invoked in task order as
    results arrive.
    """
    tasks = list(items)
    if jobs is None:
        jobs = default_jobs()
    elif jobs < 1:
        raise ConfigurationError(f"job count must be a positive integer, got {jobs}")
    if task_timeout is not None and task_timeout <= 0:
        raise ConfigurationError(
            f"task_timeout must be positive, got {task_timeout}"
        )
    if jobs == 1 or len(tasks) <= 1:
        results: List[_ResultT] = []
        for index, task in enumerate(tasks):
            result = fn(task)
            if on_result is not None:
                on_result(index, result)
            results.append(result)
        return results
    workers = min(jobs, len(tasks))
    results = []
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        # submit() + indexed result collection (rather than Executor.map)
        # keeps the task <-> future association, so a broken pool or a
        # timeout can name the task instead of poisoning the whole sweep.
        futures = []
        for task in tasks:
            try:
                futures.append(pool.submit(fn, task))
            except BrokenProcessPool:
                break  # a worker died mid-submission; the rest retry below
        for index in range(len(tasks)):
            try:
                if index >= len(futures):
                    raise BrokenProcessPool("the pool broke before this task was submitted")
                result = futures[index].result(timeout=task_timeout)
            except BrokenProcessPool:
                # The worker running (or queued for) this task died.  The
                # task list is explicit and fn is pure, so the cheapest
                # honest recovery is one serial retry in the parent; a task
                # that fails again raises its real exception.
                try:
                    result = fn(tasks[index])
                except Exception as exc:
                    raise ParallelExecutionError(
                        f"task {index} ({tasks[index]!r}) killed its worker "
                        f"process and failed its serial retry: {exc}",
                        task_index=index,
                    ) from exc
            except FutureTimeoutError:
                _terminate_workers(pool)
                raise ParallelExecutionError(
                    f"task {index} ({tasks[index]!r}) exceeded the per-task "
                    f"timeout of {task_timeout}s",
                    task_index=index,
                ) from None
            if on_result is not None:
                on_result(index, result)
            results.append(result)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return results
