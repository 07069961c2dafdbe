"""Whole-suite cleanliness and compile/launch-path integration.

The shipped CL benchmark sources and every hand-built library kernel must
pass the analyzer with zero error-severity findings; the ``check=`` compile
policy and the ``verify=`` launch gate must behave as documented
(and ``check='off'`` must not perturb generated code at all).
"""

from __future__ import annotations

import pytest

from repro.analysis import lint_kernel
from repro.analysis.__main__ import main as analysis_main
from repro.arch.isa import Opcode
from repro.arch.kernel import KernelBuilder, NDRange
from repro.cl.compiler import CHECK_POLICIES, compile_source
from repro.cl.sources import BENCHMARK_CL_SOURCES, EXTRA_CL_SOURCES
from repro.errors import CompilationError, KernelError
from repro.kernels import all_kernel_names, get_kernel_spec
from repro.simt.gpu import GGPUSimulator

from analysis.analysis_corpus import RACY

ALL_CL_SOURCES = dict(BENCHMARK_CL_SOURCES, **EXTRA_CL_SOURCES)

DEFECTIVE_SOURCE = RACY[0].source  # all-lanes write to tmp[0]: RACE001 error


@pytest.mark.parametrize("name", sorted(ALL_CL_SOURCES))
def test_shipped_cl_source_has_no_analyzer_errors(name: str) -> None:
    program = compile_source(ALL_CL_SOURCES[name], check="warn")
    assert program.findings is not None
    assert program.findings.errors == [], program.findings.render()


@pytest.mark.parametrize("name", all_kernel_names())
def test_hand_built_kernel_has_no_lint_errors(name: str) -> None:
    report = lint_kernel(get_kernel_spec(name).build())
    assert report.errors == [], report.render()


def test_check_off_is_the_default_and_skips_analysis() -> None:
    program = compile_source(ALL_CL_SOURCES["dot"])
    assert program.findings is None


def test_check_off_output_is_bit_identical() -> None:
    source = ALL_CL_SOURCES["reduce_sum"]
    plain = compile_source(source).to_ggpu_kernel()
    checked = compile_source(source, check="warn").to_ggpu_kernel()
    assert len(plain.program) == len(checked.program)
    for a, b in zip(plain.program.instructions, checked.program.instructions, strict=True):
        assert (a.opcode, a.rd, a.rs, a.rt, a.imm) == (b.opcode, b.rd, b.rs, b.rt, b.imm)
    assert plain.local_words == checked.local_words


def test_check_warn_stores_findings_but_compiles() -> None:
    program = compile_source(DEFECTIVE_SOURCE, check="warn")
    assert program.findings is not None
    assert program.findings.errors
    assert program.to_ggpu_kernel() is not None


def test_check_error_rejects_defective_source() -> None:
    with pytest.raises(CompilationError, match="static verification failed"):
        compile_source(DEFECTIVE_SOURCE, check="error")


def test_check_error_passes_clean_source() -> None:
    program = compile_source(ALL_CL_SOURCES["saxpy"], check="error")
    assert program.findings is not None
    assert program.findings.errors == []


def test_unknown_check_policy_is_rejected() -> None:
    assert set(CHECK_POLICIES) == {"off", "warn", "error"}
    with pytest.raises(CompilationError, match="check policy"):
        compile_source(ALL_CL_SOURCES["saxpy"], check="loud")


def _defective_kernel():
    b = KernelBuilder("defective")
    b.emit(Opcode.ADD, rd=1, rs=2, rt=3)
    b.ret()
    return b.build()


def test_launch_verify_rejects_defective_kernel() -> None:
    simulator = GGPUSimulator(memory_bytes=1 << 20)
    kernel = _defective_kernel()
    with pytest.raises(KernelError, match="ISA001"):
        simulator.launch(kernel, NDRange(8, 8), {}, verify=True)


def test_launch_verify_accepts_clean_kernel() -> None:
    simulator = GGPUSimulator(memory_bytes=1 << 20)
    spec = get_kernel_spec("copy")
    kernel = spec.build()
    out = simulator.allocate_buffer(64)
    src = simulator.create_buffer(list(range(64)))
    result = simulator.launch(
        kernel, NDRange(64, 64), {"src": src, "dst": out, "n": 64}, verify=True
    )
    assert result is not None


def test_cli_suite_is_clean() -> None:
    assert analysis_main(["--suite"]) == 0


def test_cli_flags_defective_file(tmp_path) -> None:
    path = tmp_path / "racy.cl"
    path.write_text(DEFECTIVE_SOURCE)
    assert analysis_main([str(path)]) == 1
    assert analysis_main([str(path), "--fail-on", "never"]) == 0


def test_cli_writes_report_file(tmp_path) -> None:
    path = tmp_path / "clean.cl"
    path.write_text(ALL_CL_SOURCES["saxpy"])
    out = tmp_path / "report.txt"
    assert analysis_main([str(path), "--output", str(out)]) == 0
    assert "saxpy" in out.read_text() or "error" in out.read_text()


def test_cli_list_checks() -> None:
    assert analysis_main(["--list-checks"]) == 0
