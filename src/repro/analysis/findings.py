"""Findings vocabulary shared by both analysis levels.

A :class:`Finding` is one diagnostic: a stable check ID, a severity, a
message, and a location (a CL :class:`~repro.cl.nodes.SourceSpan` for level-1
findings, an instruction address for ISA-level findings).  Checks never abort
on the first hit; they accumulate findings into an :class:`AnalysisReport`
whose :meth:`~AnalysisReport.clean` property is the gate the compile/enqueue
policies and the CI job act on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cl.nodes import SourceSpan


class Severity(enum.IntEnum):
    """How bad a finding is; ordering is by badness."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:
        return self.name.lower()


#: Stable check IDs with one-line descriptions (the CLI prints this table).
CHECKS: Dict[str, str] = {
    "BAR001": "barrier() reachable under lane-divergent control flow",
    "BAR002": "barrier() inside a loop with a lane-dependent trip count",
    "BAR003": "uneven barrier counts across the branches of a uniform if",
    "RACE001": "__local/__global write/write race between lanes in one barrier interval",
    "RACE002": "__local/__global read/write race between lanes in one barrier interval",
    "RACE003": "access pattern too complex to prove race-free (possible race)",
    "RACE004": "cross-workgroup global conflict (same address reachable from two workgroups)",
    "BND001": "provably out-of-bounds array index",
    "BND002": "indexing into a __global buffer of unknown length (unprovable bounds)",
    "BND003": "__local array index not provably within the declared size",
    "ISA001": "register read before any definition reaches it",
    "ISA002": "BARRIER executed under a non-empty execution-mask stack",
    "ISA003": "LRAM access outside the kernel's local window (local_words)",
    "ISA004": "unreachable code",
    "ISA005": "BARRIER count differs between converging execution paths",
    "ISA006": "execution-mask stack imbalance (PUSHM/POPM mismatch)",
    "ISA007": "execution can fall off the end of the program without RET",
}


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a static check (or the dynamic oracle)."""

    check: str
    severity: Severity
    message: str
    kernel: str = ""
    span: Optional[SourceSpan] = None
    address: Optional[int] = None

    def __post_init__(self) -> None:
        if self.check not in CHECKS:
            raise ValueError(f"unknown check ID {self.check!r}")

    @property
    def location(self) -> str:
        """Human-readable location: ``line:col`` or ``@addr`` or ``-``."""
        if self.span is not None:
            return f"{self.span.line}:{self.span.column}"
        if self.address is not None:
            return f"@{self.address}"
        return "-"

    def render(self) -> str:
        """One-line report form of the finding."""
        return (
            f"{str(self.severity):7s} {self.check} "
            f"[{self.kernel or '?'} {self.location}] {self.message}"
        )


@dataclass
class AnalysisReport:
    """An ordered collection of findings for one kernel or a whole suite."""

    findings: List[Finding] = field(default_factory=list)

    def add(
        self,
        check: str,
        severity: Severity,
        message: str,
        *,
        kernel: str = "",
        span: Optional[SourceSpan] = None,
        address: Optional[int] = None,
    ) -> Finding:
        """Append one finding and return it."""
        finding = Finding(
            check=check,
            severity=severity,
            message=message,
            kernel=kernel,
            span=span,
            address=address,
        )
        self.findings.append(finding)
        return finding

    def extend(self, other: "AnalysisReport") -> None:
        """Merge another report's findings into this one."""
        self.findings.extend(other.findings)

    def by_severity(self, severity: Severity) -> List[Finding]:
        """All findings of exactly the given severity."""
        return [f for f in self.findings if f.severity is severity]

    @property
    def errors(self) -> List[Finding]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Finding]:
        return self.by_severity(Severity.WARNING)

    @property
    def infos(self) -> List[Finding]:
        return self.by_severity(Severity.INFO)

    @property
    def clean(self) -> bool:
        """True when no error-severity finding was recorded."""
        return not self.errors

    @property
    def race_findings(self) -> List[Finding]:
        """All race-related findings of any severity (soundness gate)."""
        return [f for f in self.findings if f.check.startswith("RACE")]

    @property
    def counts(self) -> Tuple[int, int, int]:
        """(errors, warnings, infos) triple."""
        return (len(self.errors), len(self.warnings), len(self.infos))

    def render(self) -> str:
        """Multi-line report: one line per finding plus a summary."""
        lines = [finding.render() for finding in self.findings]
        errors, warnings, infos = self.counts
        lines.append(f"{errors} error(s), {warnings} warning(s), {infos} info(s)")
        return "\n".join(lines)
