"""Crash-safe artifact writes and resumable sweep journals.

Two building blocks toward the ROADMAP's sweep-results service:

* :func:`atomic_write_text` / :func:`atomic_write_json` — write-temp-then-
  ``os.replace`` file writes.  ``os.replace`` is atomic on POSIX and
  Windows, so a reader (or a re-run after a crash) sees either the old
  complete file or the new complete file, never a truncated hybrid.  Every
  artifact writer in the repository (the CSV/MD report bundle, the
  smoke-sweep table, the determinism digests) routes through these
  helpers.
* :class:`SweepJournal` — a persistent record of completed sweep cells,
  keyed by a determinism digest of each cell's full configuration
  (:func:`cell_key`).  A sweep that is killed mid-run — including
  ``SIGKILL``, which no ``finally:`` survives — resumes by loading the
  journal and computing only the missing cells.  The journal file itself is
  rewritten atomically on every record, so at any kill point it holds a
  complete, loadable set of finished cells.  :func:`run_journaled` is the
  loop every journaled sweep shares: serve the recorded cells, run the
  missing ones, record each as it lands.

A journal is only valid for the exact sweep it was started for: the caller
passes a ``meta`` mapping describing the sweep configuration, and a journal
whose stored meta differs (or whose file is unreadable or corrupt) is
discarded and restarted rather than trusted.  Cell keys hash the *semantic*
inputs of a cell (kernel, sizes, seed, device/CU counts, transfer mode…), so
a resumed cell is bit-identical to a recomputed one by the determinism
invariants the CI enforces.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, TypeVar, Union

from repro.errors import ConfigurationError

PathLike = Union[str, Path]

_TaskT = TypeVar("_TaskT")
_ResultT = TypeVar("_ResultT")

JOURNAL_FORMAT = "repro-sweep-journal-v1"


def atomic_write_text(path: PathLike, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically (temp file + ``os.replace``).

    The temporary file is created in the destination directory so the final
    rename never crosses a filesystem boundary (cross-device renames are not
    atomic).  On any failure the temporary file is removed; the destination
    is either untouched or fully replaced.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(
        prefix=f".{target.name}.", suffix=".tmp", dir=str(target.parent)
    )
    try:
        with os.fdopen(descriptor, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise


def atomic_write_json(path: PathLike, data: Any, indent: int = 2) -> None:
    """Serialize ``data`` as canonical JSON and write it atomically."""
    atomic_write_text(
        path, json.dumps(data, indent=indent, sort_keys=True) + "\n"
    )


def cell_key(**fields: Any) -> str:
    """Determinism digest of one sweep cell's configuration.

    The digest is the SHA-256 of the canonical JSON of the keyword fields,
    so it is stable across processes, dict orderings, and Python versions —
    and it changes whenever any semantic input of the cell changes.  Values
    must be JSON-serializable.
    """
    canonical = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class SweepJournal:
    """Persistent completed-cell store for one resumable sweep.

    ``meta`` identifies the sweep configuration; an existing journal file is
    only trusted when its stored format marker and meta match exactly.
    ``record`` appends one finished cell and rewrites the file atomically,
    so a crash at any instant leaves a loadable journal.  ``hits`` and
    ``misses`` count, for the current run, how many cells were served from
    the journal versus computed — the resume check in CI asserts a resumed
    sweep computes only the missing cells.
    """

    def __init__(self, path: PathLike, meta: Optional[Mapping[str, Any]] = None) -> None:
        self.path = Path(path)
        self.meta: Dict[str, Any] = dict(meta or {})
        self.cells: Dict[str, Any] = {}
        self.hits = 0
        self.misses = 0
        self.resumed = False
        self._load()

    def _load(self) -> None:
        if not self.path.exists():
            return
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return  # unreadable or torn: start fresh rather than trust it
        if not isinstance(data, dict) or data.get("format") != JOURNAL_FORMAT:
            return
        if data.get("meta") != self.meta:
            return  # journal from a different sweep configuration
        cells = data.get("cells")
        if isinstance(cells, dict):
            self.cells = dict(cells)
            self.resumed = bool(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, key: str) -> bool:
        return key in self.cells

    def get(self, key: str) -> Optional[Any]:
        """The recorded cell for ``key``, counting a hit, or ``None``."""
        if key in self.cells:
            self.hits += 1
            return self.cells[key]
        self.misses += 1
        return None

    def peek(self, key: str) -> Optional[Any]:
        """Like :meth:`get` but without touching the hit/miss counters."""
        return self.cells.get(key)

    def record(self, key: str, value: Any) -> None:
        """Store one finished cell and persist the journal atomically.

        ``value`` must be JSON-serializable; recording a key twice with
        different contents is a programming error (the key is supposed to be
        a digest of everything that determines the value).
        """
        if key in self.cells and self.cells[key] != value:
            raise ConfigurationError(
                f"journal cell {key} already recorded with different contents"
            )
        self.cells[key] = value
        self.flush()

    def flush(self) -> None:
        """Atomically rewrite the journal file with the current cells."""
        atomic_write_json(
            self.path,
            {"format": JOURNAL_FORMAT, "meta": self.meta, "cells": self.cells},
        )


def open_journal(
    journal: Union[None, PathLike, SweepJournal],
    meta: Mapping[str, Any],
) -> Optional[SweepJournal]:
    """Normalize a sweep's ``journal=`` argument.

    ``None`` disables journaling; a path opens (or creates) a journal with
    the given meta; an existing :class:`SweepJournal` is validated against
    the meta and passed through.
    """
    if journal is None:
        return None
    if isinstance(journal, SweepJournal):
        if journal.meta != dict(meta):
            raise ConfigurationError(
                f"journal at {journal.path} was opened for meta {journal.meta}, "
                f"but this sweep has meta {dict(meta)}"
            )
        return journal
    return SweepJournal(journal, meta=meta)


def run_journaled(
    book: Optional[SweepJournal],
    tasks: Sequence[_TaskT],
    key: Callable[[_TaskT], str],
    run: Callable[[List[_TaskT], Callable[[int, _ResultT], None]], Any],
    encode: Callable[[_ResultT], Any],
    decode: Callable[[Any], _ResultT],
) -> List[_ResultT]:
    """Every task's result, in task order, computing only what ``book`` lacks.

    Without a journal (``book is None``) every task runs.  Otherwise the
    cells recorded under ``key(task)`` are served through ``decode`` and only
    the others go to ``run(missing, on_result)``, which must call
    ``on_result(position, result)`` once per missing task.  Each result is
    recorded through ``encode`` the moment it lands, so a kill loses at most
    the cells still in flight.
    """
    results: List[Any] = [None] * len(tasks)
    missing = list(range(len(tasks)))
    keys: List[str] = []
    if book is not None:
        keys = [key(task) for task in tasks]
        missing = []
        for index, task_key in enumerate(keys):
            cached = book.get(task_key)
            if cached is None:
                missing.append(index)
            else:
                results[index] = decode(cached)

    def _collect(position: int, result: _ResultT) -> None:
        index = missing[position]
        results[index] = result
        if book is not None:
            book.record(keys[index], encode(result))

    run([tasks[index] for index in missing], _collect)
    return results
