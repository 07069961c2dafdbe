"""Pinned listing of every program the two CL code generators emit.

A fixed corpus is compiled by both back ends: the 17 shipped CL sources
(:mod:`repro.cl.sources`), the 16 kernels of the analyzer corpus
(``tests/analysis/analysis_corpus.py``), and the every-construct kernels
below.  Each program becomes one block of the listing (its
``Program.listing()``: labels plus one ``Instruction.text()`` per line), and
the sha256 of the whole listing is pinned in :data:`CODEGEN_DIGEST`.

The every-construct kernels reach what the other two parts never emit:
every ALU form in register and immediate shape, signed and ``uint``
shifts and comparisons, ``&&``/``||``/``!``, unary ``-`` and ``~``,
``min``/``max``, every work-item builtin at rank 1 and rank 2, compound
assignment to variables, global and ``__local`` elements, constants too
wide for one immediate, and the immediate-field edges of both targets
(G-GPU 14 bits: 8191, 8192, -8192, -8193; RISC-V 12 bits: 2047, 2048,
-2048, -2049; each after ``+`` and after ``-``; shift counts 0, 31, 32).

The digest moves only with a deliberate code-generation change.  Print
the new value with ``PYTHONPATH=src python tests/tools/regen_goldens.py``;
``--check`` verifies it together with the cycle goldens.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Tuple

import numpy as np
import pytest

from analysis.analysis_corpus import ALL_ENTRIES
from repro.arch.isa import Opcode
from repro.arch.kernel import NDRange
from repro.cl import compile_source
from repro.cl.sources import BENCHMARK_CL_SOURCES, EXTRA_CL_SOURCES
from repro.kernels import get_kernel_spec
from repro.kernels.library import GpuWorkload
from repro.riscv.isa import RvOpcode

#: sha256 of :func:`codegen_listing`.  Regenerate deliberately with
#: ``python tests/tools/regen_goldens.py``; never to silence a failure.
CODEGEN_DIGEST = "e329674f23c5104ab58789fa721f5abe5c7a8cdb833d68a43c12ec05c1d67dff"

SHIPPED_SIZE = 128
SHIPPED_SEED = 11

#: name -> (source, global shape, workgroup shape, buffer length, scalars)
EVERY_CONSTRUCT: Dict[str, Tuple[str, object, object, int, Dict[str, int]]] = {
    "alu_forms": (
        """
__kernel void alu_forms(__global int *a, __global int *out, int n) {
    int gid = get_global_id(0);
    int x = a[gid];
    int r = x + n;
    r = r - n;
    r = r * n;
    r = r / n;
    r = r % n;
    r = r & n;
    r = r | n;
    r = r ^ n;
    r = r << n;
    r = r >> n;
    r = r + 7;
    r = r - 9;
    r = r & 15;
    r = r | 16;
    r = r ^ 3;
    r = r * 5;
    r = r << 3;
    r = r >> 2;
    r = -r;
    r = ~r;
    r = !r;
    r = r + 100000;
    r = r ^ 305419896;
    r = r + 0xFFFFFFFF;
    r = (r + x) * (x - n);
    out[gid] = r;
    out[gid + 1] = x % 3 + (x / 7) + (x & 0x1FFFF) + (x | 0x20000) + (x ^ 8191);
    out[gid + 2] = -x + ~x + !x;
}
""",
        64, 64, 80, {"n": 5},
    ),
    "uint_forms": (
        """
__kernel void uint_forms(__global uint *u, __global int *out, uint s) {
    int gid = get_global_id(0);
    uint y = u[gid];
    uint z = y >> s;
    z = z >> 4;
    z = z << s;
    z = z + (y >> 0) + (y >> 31) + (y >> 32);
    z >>= s;
    z >>= 3;
    int c = y < s;
    c = c + (y <= s) + (y > s) + (y >= s) + (y == s) + (y != s);
    c = c + (y < 9) + (y >= 4096);
    out[gid] = c + z + (y * s) + (y / s) + (y % s) + min(y, s) + max(y, s);
}
""",
        64, 64, 64, {"s": 3},
    ),
    "compare_logic": (
        """
__kernel void compare_logic(__global int *a, __global int *out, int n) {
    int gid = get_global_id(0);
    int x = a[gid];
    int c = (x < n) + (x <= n) + (x > n) + (x >= n) + (x == n) + (x != n);
    c = c + ((x < n) && (x > 0)) + ((x == n) || (x != 0));
    c = c + (x && n) + (x || n) + !x + !(x < n) + (x == 0) + (x != 5);
    c = c + min(x, n) + max(x, n) + min(x, 3) + max(5, x);
    int m = min(x, n);
    m = max(m, c);
    out[gid] = c + m;
}
""",
        64, 64, 64, {"n": 5},
    ),
    "immediate_edges": (
        """
__kernel void immediate_edges(__global int *a, __global int *out) {
    int gid = get_global_id(0);
    int x = a[gid];
    int r = x + 8191;
    r = r + 8192;
    r = r + -8192;
    r = r + -8193;
    r = r - 8191;
    r = r - 8192;
    r = r - -8192;
    r = r - -8193;
    r = r + 2047;
    r = r + 2048;
    r = r + -2048;
    r = r + -2049;
    r = r - 2047;
    r = r - 2048;
    r = r - -2048;
    r = r - -2049;
    r = r & 8191;
    r = r & 8192;
    r = r | 2047;
    r = r | 2048;
    r = r ^ 2047;
    r = r ^ 2048;
    r = r * 8191;
    r = r * 8192;
    r = r << 0;
    r = r << 31;
    r = r << 32;
    r = r >> 0;
    r = r >> 31;
    r = r >> 32;
    r += 8191;
    r -= 8192;
    r += 2048;
    r -= 2049;
    r <<= 31;
    r >>= 32;
    out[gid] = r + (x < 2048) + (x > 8192) + (x - 8192) + (x + 8192) + (x - 2048) + (x + 2048);
}
""",
        64, 64, 64, {},
    ),
    "control_local": (
        """
__kernel void control_local(__global int *a, __global int *out, int n) {
    __local int tmp[64];
    __local int spare[8];
    int gid = get_global_id(0);
    int lid = get_local_id(0);
    int wg = get_group_id(0);
    int ws = get_local_size(0);
    int gs = get_global_size(0);
    int ng = get_num_groups(0);
    int x = a[gid];
    tmp[lid] = x;
    spare[lid & 7] = wg;
    barrier(CLK_LOCAL_MEM_FENCE);
    tmp[lid] += wg;
    tmp[lid] -= 100000;
    tmp[lid] *= ws;
    tmp[lid] /= 3;
    tmp[lid] %= 1000;
    tmp[lid] <<= 2;
    tmp[lid] >>= 1;
    tmp[lid] &= 4095;
    tmp[lid] |= 8192;
    tmp[lid] ^= gs;
    barrier(CLK_LOCAL_MEM_FENCE);
    int acc = 0;
    if (n) {
        acc = 1;
    }
    if (n > 4) {
        acc += 2;
    } else {
        acc -= 2;
    }
    if (x) {
        acc += x;
    }
    if (x < 0) {
        acc = -acc;
    } else {
        acc = ~acc;
    }
    for (int i = 0; i < n; i += 1) {
        acc += i;
    }
    int k = x & 7;
    while (k) {
        acc ^= k;
        k = k - 1;
    }
    int j = n;
    while (j > 0) {
        j -= 2;
    }
    for (int m = 0; m < x; m++) {
        if (m == 3) {
            acc++;
        }
    }
    out[gid] = acc + tmp[lid] + spare[7] + ng;
    out[gid] += lid;
    out[gid] *= 3;
    out[gid] ^= 0x12345678;
}
""",
        128, 64, 128, {"n": 6},
    ),
    "rank2_builtins": (
        """
__kernel void rank2_builtins(__global int *out, int w) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int v = get_local_id(0) + get_local_id(1) + get_group_id(0) + get_group_id(1);
    v = v + get_local_size(0) + get_local_size(1) + get_global_size(0) + get_global_size(1);
    v = v + get_num_groups(0) + get_num_groups(1);
    out[y * w + x] = v;
}
""",
        (16, 4), (8, 2), 64, {"w": 16},
    ),
}


def _zero_workload(program, global_shape, workgroup_shape, length, scalars) -> GpuWorkload:
    info = program.info()
    return GpuWorkload(
        buffers={name: np.zeros(length, dtype=np.int64) for name in info.buffer_params},
        scalars=dict(scalars),
        expected={},
        ndrange=NDRange(global_shape, workgroup_shape),
    )


def _corpus() -> Iterator[Tuple[str, object, GpuWorkload]]:
    """Every (label, compiled program, RISC-V workload) of the pinned corpus."""
    for name, source in {**BENCHMARK_CL_SOURCES, **EXTRA_CL_SOURCES}.items():
        program = compile_source(source)
        if name in BENCHMARK_CL_SOURCES:
            workload = get_kernel_spec(name).workload(SHIPPED_SIZE, SHIPPED_SEED)
        else:
            workload = _zero_workload(program, SHIPPED_SIZE, 64, SHIPPED_SIZE, {"n": SHIPPED_SIZE})
        yield f"cl/{name}", program, workload
    for entry in ALL_ENTRIES:
        program = compile_source(entry.source)
        launch = entry.launch
        workload = GpuWorkload(
            buffers={name: np.asarray(data, dtype=np.int64) for name, data in launch.buffer_dict().items()},
            scalars=launch.scalar_dict(),
            expected={},
            ndrange=NDRange(launch.global_size, launch.workgroup_size),
        )
        yield f"corpus/{entry.name}", program, workload
    for name, (source, global_shape, workgroup_shape, length, scalars) in EVERY_CONSTRUCT.items():
        program = compile_source(source)
        workload = _zero_workload(program, global_shape, workgroup_shape, length, scalars)
        yield f"construct/{name}", program, workload


def compiled_corpus() -> List[Tuple[str, object, object]]:
    """(label, G-GPU kernel, RISC-V program) for every corpus entry."""
    return [
        (label, program.to_ggpu_kernel(), program.to_riscv_case(workload).program)
        for label, program, workload in _corpus()
    ]


def codegen_listing() -> str:
    """One block per emitted program, G-GPU then RISC-V for each source."""
    blocks = []
    for label, kernel, riscv in compiled_corpus():
        blocks.append(f"== ggpu {label} local_words={kernel.local_words}\n{kernel.program.listing()}")
        blocks.append(f"== riscv {label}\n{riscv.listing()}")
    return "\n".join(blocks) + "\n"


def codegen_digest() -> str:
    """sha256 of :func:`codegen_listing`."""
    return hashlib.sha256(codegen_listing().encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return compiled_corpus()


def test_corpus_has_every_part(corpus):
    labels = [label for label, _, _ in corpus]
    assert sum(label.startswith("cl/") for label in labels) == 17
    assert sum(label.startswith("corpus/") for label in labels) == 16
    assert sum(label.startswith("construct/") for label in labels) == len(EVERY_CONSTRUCT)


def test_corpus_emits_every_alu_form(corpus):
    ggpu = {instruction.opcode for _, kernel, _ in corpus for instruction in kernel.program}
    riscv = {instruction.opcode for _, _, program in corpus for instruction in program}
    for name in ("AND", "XOR", "SLL", "SRL", "SRA", "REM", "ORI", "MIN", "MAX", "GSIZE", "NWG",
                 "ANDI", "XORI", "MULI", "SLLI", "SRLI", "SRAI", "SLT", "SLTU", "LUI", "LLW", "LSW"):
        assert Opcode[name] in ggpu, name
    for name in ("AND", "XOR", "SLL", "SRL", "SRA", "REM", "ORI", "BLT", "BGE",
                 "ANDI", "XORI", "SLLI", "SRLI", "SRAI", "SLT", "SLTU", "SLTIU", "LUI", "DIVU", "REMU"):
        assert RvOpcode[name] in riscv, name


def test_emitted_programs_match_the_pinned_digest():
    assert codegen_digest() == CODEGEN_DIGEST, (
        "the CL code generators emit different programs; if the change is "
        "deliberate, regenerate CODEGEN_DIGEST with tests/tools/regen_goldens.py "
        "and say why in CHANGES.md"
    )
