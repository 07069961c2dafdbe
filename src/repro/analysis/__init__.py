"""Static kernel verifier for the CL front end and the G-GPU ISA.

Two analysis levels share one findings vocabulary:

* **Level 1** (:mod:`repro.analysis.clcheck`) runs over the analyzed CL AST:
  barrier-divergence checking, ``__local``/``__global`` race detection over
  barrier intervals with affine access summaries, and value-range bounds
  checking of index expressions.
* **Level 2** (:mod:`repro.analysis.isalint`) lints assembled G-GPU kernels
  (including hand-written ones the CL level never sees): CFG construction,
  register use-before-def, execution-mask balance, BARRIER-count consistency
  across paths, LRAM window bounds, and unreachable code.

:mod:`repro.analysis.oracle` is the dynamic cross-check: an instrumented
pure-python interpreter that records per-lane accesses per barrier interval
and observes races, barrier divergence, and out-of-bounds accesses
concretely.  The test suite asserts the static verdicts are *sound* against
it — no kernel the oracle catches racing may pass the static checker clean.

``python -m repro.analysis`` lints any source file or suite kernel from the
command line; ``cl.compiler.compile_source(..., check=...)`` and
``GGPUSimulator.launch(..., verify=True)`` gate the same checks into the
compile and launch paths.
"""

from __future__ import annotations

from repro.analysis.clcheck import check_kernel, check_program, check_source
from repro.analysis.findings import (
    CHECKS,
    AnalysisReport,
    Finding,
    Severity,
)
from repro.analysis.isalint import lint_kernel, verify_kernel_or_raise
from repro.analysis.oracle import OracleReport, run_oracle, soundness_violations

__all__ = [
    "CHECKS",
    "AnalysisReport",
    "Finding",
    "OracleReport",
    "Severity",
    "check_kernel",
    "check_program",
    "check_source",
    "lint_kernel",
    "run_oracle",
    "soundness_violations",
    "verify_kernel_or_raise",
]
