"""Docs stay runnable: execute every fenced bash and python block, resolve references.

Extracts the fenced ``bash`` and ``python`` blocks from ``README.md`` and
``docs/*.md``, runs every bash command and every python block (each block
in a fresh interpreter), in repository root with ``PYTHONPATH=src`` under a
smoke-scale environment, and fails on any nonzero exit.  Also fails on
unresolvable internal markdown links (including ``#anchor`` fragments) and
on inline ``file.py`` references that match no file in the repository.
This is the CI ``docs`` job; the point is that documentation rot — a
renamed tool, a deleted API, a dead link — breaks the build instead of
accumulating.

Usage::

    python tests/tools/docs_check.py              # check + run everything
    python tests/tools/docs_check.py --no-run     # static checks only
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

# Smoke-scale environment for executed commands: small inputs, one job.
# 0.25 is the smallest scale at which the paper-structure assertions in
# the bench suite (per-element cycle ratios, GPU-vs-RISCV speedups) still
# hold; below that, fixed per-launch overheads dominate the tiny inputs.
SMOKE_ENV = {
    "REPRO_BENCH_SCALE": "0.25",
    "REPRO_JOBS": "1",
}
COMMAND_TIMEOUT_SECONDS = 1200

_FENCE_RE = re.compile(r"^```(\w*)\s*$")
_LINK_RE = re.compile(r"\[([^\]]*)\]\(([^)\s]+)\)")
_PYREF_RE = re.compile(r"`([\w./-]+\.py)`")


def _doc_files() -> list:
    docs = [ROOT / "README.md"]
    docs.extend(sorted((ROOT / "docs").glob("*.md")))
    return [path for path in docs if path.exists()]


def _fenced_blocks(text: str, languages: tuple) -> list:
    """``(line number, contents)`` of every fenced block in ``languages``."""
    blocks = []
    current: list | None = None
    for number, line in enumerate(text.splitlines(), start=1):
        fence = _FENCE_RE.match(line)
        if fence is not None:
            if current is not None:
                blocks.append((start, "\n".join(current)))
                current = None
            elif fence.group(1).lower() in languages:
                start, current = number, []
            continue
        if current is not None:
            current.append(line)
    return blocks


def _commands(block: str) -> list:
    """Runnable commands in one block (comments and blanks stripped)."""
    commands = []
    for line in block.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        # The README block that documents *this* tool would recurse.
        if "docs_check.py" in stripped:
            continue
        commands.append(stripped)
    return commands


def _github_slug(heading: str) -> str:
    """GitHub's anchor slug for a markdown heading."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_]", "", slug)
    slug = re.sub(r"[^\w\s-]", "", slug, flags=re.UNICODE)
    return re.sub(r"\s+", "-", slug.strip())


def _anchors(path: Path) -> set:
    anchors = set()
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            anchors.add(_github_slug(line.lstrip("#")))
    return anchors


def _check_links(doc: Path, text: str, errors: list) -> None:
    for match in _LINK_RE.finditer(text):
        target = match.group(2)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, fragment = target.partition("#")
        if not file_part:
            resolved = doc  # same-file anchor
        else:
            resolved = (doc.parent / file_part).resolve()
            if not resolved.exists():
                errors.append(f"{doc.relative_to(ROOT)}: broken link -> {target}")
                continue
        if fragment and resolved.suffix == ".md":
            if fragment not in _anchors(resolved):
                errors.append(
                    f"{doc.relative_to(ROOT)}: dead anchor -> {target}"
                )


def _check_py_references(doc: Path, text: str, errors: list) -> None:
    known_basenames = {path.name for path in ROOT.rglob("*.py")}
    for match in _PYREF_RE.finditer(text):
        reference = match.group(1)
        if (ROOT / reference).exists():
            continue
        if Path(reference).name in known_basenames:
            continue
        errors.append(
            f"{doc.relative_to(ROOT)}: reference to nonexistent file `{reference}`"
        )


def _run_commands(commands: list) -> list:
    """Run ``(label, command)`` pairs: a shell string or an argument list."""
    errors = []
    env = dict(os.environ)
    env.update(SMOKE_ENV)
    env["PYTHONPATH"] = "src" + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for label, command in commands:
        started = time.perf_counter()
        try:
            result = subprocess.run(
                command,
                shell=isinstance(command, str),
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=COMMAND_TIMEOUT_SECONDS,
            )
        except subprocess.TimeoutExpired:
            errors.append(f"TIMEOUT after {COMMAND_TIMEOUT_SECONDS}s: {label}")
            continue
        elapsed = time.perf_counter() - started
        status = "ok" if result.returncode == 0 else f"exit {result.returncode}"
        print(f"[{status:>7s} {elapsed:6.1f}s] {label}")
        if result.returncode != 0:
            tail = (result.stderr or result.stdout or "").strip().splitlines()[-8:]
            errors.append(
                f"exit {result.returncode}: {label}\n    " + "\n    ".join(tail)
            )
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--no-run",
        action="store_true",
        help="only check links and file references; do not execute commands",
    )
    args = parser.parse_args()

    errors: list = []
    commands: list = []
    for doc in _doc_files():
        text = doc.read_text()
        _check_links(doc, text, errors)
        _check_py_references(doc, text, errors)
        for _, block in _fenced_blocks(text, ("bash", "sh", "shell")):
            commands.extend((command, command) for command in _commands(block))
        for line, block in _fenced_blocks(text, ("python",)):
            label = f"python block at {doc.relative_to(ROOT)}:{line}"
            commands.append((label, [sys.executable, "-c", block]))

    print(f"checked {len(_doc_files())} docs; {len(commands)} fenced commands and blocks")
    if not args.no_run:
        errors.extend(_run_commands(commands))

    if errors:
        print(f"\n{len(errors)} problem(s):", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    print("docs are runnable and internally consistent")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
