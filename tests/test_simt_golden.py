"""Golden cycle-count regression tests for the SIMT engine.

The event-heap engine rewrite is required to be cycle-for-cycle faithful:
these tests pin the cycle counts and dynamic instruction counts of all seven
paper kernels at 1/2/4/8 CUs, so any engine change that silently drifts the
Table III numbers fails loudly.  The pinned values were produced by the
event-heap engine and verified bit-for-bit against the original
instruction-at-a-time engine (the only intended difference is the cache-port
serialization fix, which shifts only ``xcorr`` — the one kernel whose
accesses scatter across more lines than the cache has ports — by under 1%).

:data:`STATS_DIGEST` pins the whole ``KernelRunStats`` of every golden
launch between commits.  Every reference mode below runs through the same
end-of-launch fold of the per-PC issue counts, so none of them can catch a
folding error; the digest does.

Also covered here: equivalence of the macro-stepping fast path against
single-instruction stepping (results, cycles, and every per-CU statistic
except the event count), barrier edge cases (multi-wavefront workgroups
parked at the barrier), divergence-mask edge cases, posted-store semantics,
the end-of-kernel flush traffic, and the round-robin idle-CU refill.
"""

import contextlib
import hashlib
import json
import operator
import time
from dataclasses import asdict
from typing import Dict, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch.config import AxiConfig, CacheConfig, GGPUConfig
from repro.cl import compile_source
from repro.arch.isa import Opcode
from repro.arch.kernel import Kernel, KernelArg, KernelBuilder, NDRange
from repro.errors import KernelError, SimulationError
from repro.kernels import get_kernel_spec, run_workload
from repro.simt import cu as cu_module, decode as decode_module, gpu as gpu_module
from repro.simt.cu import ComputeUnit
from repro.simt.decode import K_RET
from repro.simt.dispatcher import WorkgroupDispatcher
from repro.simt.gpu import GGPUSimulator
from repro.simt.registers import Affine, snapshot
from repro.simt.wavefront import Wavefront

CU_COUNTS = (1, 2, 4, 8)

# kernel -> (input size, {num_cus: cycles}, dynamic wavefront-instructions)
# Regenerate deliberately with ``python tests/tools/regen_goldens.py`` after
# an intended engine change; never hand-edit the numbers.
GOLDEN = {
    "mat_mul": (256, {1: 14932.0, 2: 14932.0, 4: 14932.0, 8: 14932.0}, 2376),
    "copy": (4096, {1: 4612.0, 2: 2311.0, 4: 1226.0, 8: 910.0}, 640),
    "vec_mul": (8192, {1: 14340.0, 2: 7175.0, 4: 3818.0, 8: 3080.0}, 1920),
    "fir": (512, {1: 7943.0, 2: 4011.0, 4: 4011.0, 8: 4011.0}, 1264),
    "div_int": (512, {1: 20132.0, 2: 10162.0, 4: 10162.0, 8: 10162.0}, 4068),
    "xcorr": (512, {1: 119257.0, 2: 65163.0, 4: 65163.0, 8: 65163.0}, 18544),
    "parallel_sel": (256, {1: 49560.0, 2: 49560.0, 4: 49560.0, 8: 49560.0}, 8248),
}

# The extended-suite kernels added after the engine rewrites, pinned at the
# same 1/2/4/8 CU grid.  The barrier/LRAM kernels (dot, reduce_sum,
# inclusive_scan) also pin the per-workgroup LRAM-window machinery and the
# local-memory occupancy limit in the dispatcher refill path.
EXTENDED_GOLDEN = {
    "saxpy": (4096, {1: 7172.0, 2: 3592.0, 4: 2074.0, 8: 1550.0}, 960),
    "dot": (1024, {1: 6533.0, 2: 3290.0, 4: 2038.0, 8: 2038.0}, 1820),
    "reduce_sum": (1024, {1: 6021.0, 2: 3034.0, 4: 1865.0, 8: 1865.0}, 1756),
    "inclusive_scan": (512, {1: 5316.0, 2: 2799.0, 4: 2799.0, 8: 2799.0}, 1200),
    "histogram": (256, {1: 65860.0, 2: 33392.0, 4: 24589.0, 8: 24589.0}, 10288),
    "transpose": (2048, {1: 3588.0, 2: 1800.0, 4: 923.0, 8: 614.0}, 480),
}

# The rank-2 dense workloads: tiled matmul2d (LRAM tiles + barriers under a
# (8, 8) workgroup), conv2d (pure 2-D indexing), and bitonic_sort (barriered
# per-workgroup exchange network).  These pin the 2-D workgroup distribution
# and per-dimension GID/LID/WGID machinery of the dispatcher and both issue
# engines at the same 1/2/4/8 CU grid.
DENSE_GOLDEN = {
    "matmul2d": (512, {1: 10692.0, 2: 5382.0, 4: 2794.0, 8: 2087.0}, 1688),
    "conv2d": (512, {1: 3338.0, 2: 1723.0, 4: 993.0, 8: 836.0}, 424),
    "bitonic_sort": (512, {1: 19204.0, 2: 9635.0, 4: 4995.0, 8: 3806.0}, 3744),
}

ALL_GOLDEN = {**GOLDEN, **EXTENDED_GOLDEN, **DENSE_GOLDEN}

SEED = 2022

#: sha256 of :func:`stats_digest`.  Regenerate deliberately with
#: ``python tests/tools/regen_goldens.py``; never to silence a failure.
STATS_DIGEST = "f9e1122fe25c700513b812ab691a0164faa070d23ded8a2d8f264def4c82db82"


def _cu_stats(result) -> list:
    """Every per-CU statistic of a launch except ``issue_events``.

    Macro-stepping exists to fold several instructions into one scheduling
    event, so the event count is the one statistic it may change; the
    instruction mix, active lanes (SIMD efficiency), and busy cycles may not.
    """
    rows = []
    for stats in result.stats.cu_stats:
        row = asdict(stats)
        del row["issue_events"]
        rows.append(row)
    return rows


@contextlib.contextmanager
def single_step(enabled: bool = True):
    """Run the launches inside with the single-step reference of the issue loop.

    Every op is decoded as not macro-safe, so each scheduling event issues
    one instruction: ``issue_events`` equals ``instructions_issued``, and the
    outputs, the cycles and every other statistic must match macro-stepped
    issue.  It has no package option; only this context installs it (for
    the launches that decode inside it).
    """
    with pytest.MonkeyPatch.context() as patch:
        if enabled:
            patch.setattr(decode_module, "_MACRO_SAFE_CLASSES", frozenset())
        yield


def _run(name: str, num_cus: int, size: int, **sim_kwargs):
    spec = get_kernel_spec(name)
    workload = spec.workload(size, SEED)
    config = sim_kwargs.pop("config", GGPUConfig().with_cus(num_cus))
    simulator = GGPUSimulator(config, **sim_kwargs)
    # run_workload checks the outputs against the numpy reference, so every
    # golden run also verifies functional correctness.
    result, _ = run_workload(simulator, spec.build(), workload)
    return result


def stats_digest() -> str:
    """sha256 of the whole ``KernelRunStats`` of every golden launch.

    Each kernel of ``GOLDEN``, ``EXTENDED_GOLDEN`` and ``DENSE_GOLDEN`` runs
    at its golden size on 1, 2, 4 and 8 CUs.  ``sort_keys`` makes the
    digest independent of the order in which mix keys were inserted.
    """
    rows = [
        [name, num_cus, asdict(_run(name, num_cus, golden[name][0]).stats)]
        for golden in (GOLDEN, EXTENDED_GOLDEN, DENSE_GOLDEN)
        for name in sorted(golden)
        for num_cus in CU_COUNTS
    ]
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def test_launch_statistics_match_the_stats_digest():
    assert stats_digest() == STATS_DIGEST


@pytest.mark.parametrize("name", sorted(ALL_GOLDEN))
def test_golden_cycle_counts(name):
    size, cycles_by_cu, instructions = ALL_GOLDEN[name]
    for num_cus in CU_COUNTS:
        result = _run(name, num_cus, size)
        assert result.cycles == cycles_by_cu[num_cus], (
            f"{name} on {num_cus} CU(s): cycle count drifted from "
            f"{cycles_by_cu[num_cus]} to {result.cycles}"
        )
        assert result.stats.instructions_issued == instructions


@pytest.mark.parametrize("name", sorted(ALL_GOLDEN))
@pytest.mark.parametrize("num_cus", (1, 2))
def test_launch_statistics_are_plain_json(name, num_cus):
    """Every launch statistic is a plain Python value, so the whole
    ``KernelRunStats`` serializes; a numpy scalar (say, an active-lane count
    left as ``np.int64``) makes ``json.dumps`` raise."""
    result = _run(name, num_cus, ALL_GOLDEN[name][0])
    json.dumps(asdict(result.stats))


@pytest.mark.parametrize("name", ["div_int", "fir", "copy", "dot", "inclusive_scan"])
def test_macro_stepping_is_cycle_exact(name):
    """The fast path and single-instruction stepping must agree exactly."""
    size, _, _ = ALL_GOLDEN[name]
    outcomes = {}
    for macro in (True, False):
        spec = get_kernel_spec(name)
        workload = spec.workload(size, SEED)
        with single_step(not macro):
            simulator = GGPUSimulator(GGPUConfig(num_cus=2))
            result, outputs = run_workload(simulator, spec.build(), workload)
        outcomes[macro] = (
            result.cycles,
            _cu_stats(result),
            {key: value.tolist() for key, value in outputs.items()},
        )
    assert outcomes[True] == outcomes[False]


def test_default_issue_statistics_match_the_single_step_reference():
    """div_int at 2 CUs: the default path counts active lanes like the reference.

    A mask instruction (CMASK/INVM/POPM) is charged the lanes active when it
    issues, not the lanes it leaves active; div_int's divergent divide loop
    makes any other accounting visible in ``active_lane_issues``.
    """
    size, cycles_by_cu, _ = ALL_GOLDEN["div_int"]
    default = _run("div_int", 2, size)
    with single_step():
        reference = _run("div_int", 2, size)
    # The reference really issues one instruction per event.
    for stats in reference.stats.cu_stats:
        assert stats.issue_events == stats.instructions_issued
    assert _cu_stats(default) == _cu_stats(reference)
    assert default.cycles == reference.cycles == cycles_by_cu[2]
    assert sum(stats.active_lane_issues for stats in default.stats.cu_stats) == 222_712


def test_macro_stepping_batches_uncontended_runs():
    """A lone wavefront's straight-line code is issued in batched events."""
    size, _, _ = GOLDEN["div_int"]
    spec = get_kernel_spec("div_int")
    simulator = GGPUSimulator(GGPUConfig(num_cus=1))
    result, _ = run_workload(simulator, spec.build(), spec.workload(64, SEED))
    stats = result.stats.cu_stats[0]
    assert stats.issue_events < stats.instructions_issued
    assert stats.macro_batching > 1.5


# --------------------------------------------------------------------- #
# Barrier edge cases
# --------------------------------------------------------------------- #
def _barrier_kernel(rounds: int = 1) -> Kernel:
    """Stage values through LRAM with ``rounds`` barrier round-trips.

    Workgroups concurrently resident on one CU share its LRAM, so each
    workgroup stages through its own slot range (``wgid * wgsize + lid``).
    """
    builder = KernelBuilder("bar_edges", args=(KernelArg("out"),))
    gid = builder.alloc("gid")
    lid = builder.alloc("lid")
    out = builder.alloc("out")
    addr = builder.alloc("addr")
    value = builder.alloc("value")
    wgsize = builder.alloc("wgsize")
    base = builder.alloc("base")
    builder.global_id(gid)
    builder.emit(Opcode.LID, rd=lid)
    builder.emit(Opcode.WGSIZE, rd=wgsize)
    builder.emit(Opcode.WGID, rd=base)
    builder.emit(Opcode.MUL, rd=base, rs=base, rt=wgsize)
    builder.load_arg(out, "out")
    builder.emit(Opcode.ADDI, rd=value, rs=gid, imm=3)
    for _ in range(rounds):
        # write my slot, barrier, read my neighbour's slot (lid+1 mod wgsize)
        builder.emit(Opcode.ADD, rd=addr, rs=base, rt=lid)
        builder.emit(Opcode.SLLI, rd=addr, rs=addr, imm=2)
        builder.emit(Opcode.LSW, rs=addr, rt=value, imm=0)
        builder.emit(Opcode.BARRIER)
        builder.emit(Opcode.ADDI, rd=addr, rs=lid, imm=1)
        builder.emit(Opcode.REM, rd=addr, rs=addr, rt=wgsize)
        builder.emit(Opcode.ADD, rd=addr, rs=addr, rt=base)
        builder.emit(Opcode.SLLI, rd=addr, rs=addr, imm=2)
        builder.emit(Opcode.LLW, rd=value, rs=addr, imm=0)
        builder.emit(Opcode.BARRIER)
    builder.address_of_element(addr, out, gid)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.ret()
    return builder.build()


def _barrier_reference(global_size: int, workgroup_size: int, rounds: int) -> list:
    values = [gid + 3 for gid in range(global_size)]
    for _ in range(rounds):
        rotated = []
        for gid in range(global_size):
            workgroup = gid // workgroup_size
            lid = gid % workgroup_size
            neighbour = workgroup * workgroup_size + (lid + 1) % workgroup_size
            rotated.append(values[neighbour])
        values = rotated
    return values


@pytest.mark.parametrize("workgroup_size", [128, 256, 512])
def test_multi_wavefront_workgroups_park_and_release_at_barrier(workgroup_size):
    """2/4/8 wavefronts per workgroup all park at SBAR and release together."""
    global_size = 1024
    kernel = _barrier_kernel(rounds=2)
    simulator = GGPUSimulator(GGPUConfig(num_cus=2))
    out = simulator.allocate_buffer(global_size)
    result = simulator.launch(kernel, NDRange(global_size, workgroup_size), {"out": out})
    values = simulator.read_buffer(out, global_size)
    assert list(values) == _barrier_reference(global_size, workgroup_size, rounds=2)
    # Every wavefront of every workgroup issued all four barriers.
    wavefronts = global_size // 64
    assert result.stats.mix.counts["sync"] == 4 * wavefronts


def test_barrier_macro_stepping_equivalence():
    """Barriers interrupt macro runs; cycles must not depend on the fast path."""
    kernel = _barrier_kernel(rounds=1)
    cycles = {}
    for macro in (True, False):
        with single_step(not macro):
            simulator = GGPUSimulator(GGPUConfig(num_cus=1))
            out = simulator.allocate_buffer(512)
            result = simulator.launch(kernel, NDRange(512, 512), {"out": out})
        cycles[macro] = result.cycles
    assert cycles[True] == cycles[False]


def test_single_wavefront_workgroup_barrier_releases_immediately():
    kernel = _barrier_kernel(rounds=1)
    simulator = GGPUSimulator(GGPUConfig(num_cus=1))
    out = simulator.allocate_buffer(64)
    result = simulator.launch(kernel, NDRange(64, 64), {"out": out})
    values = simulator.read_buffer(out, 64)
    assert list(values) == _barrier_reference(64, 64, rounds=1)
    assert result.cycles > 0


# --------------------------------------------------------------------- #
# Divergence-mask edge cases
# --------------------------------------------------------------------- #
def _nested_divergence_kernel() -> Kernel:
    """out[gid] = f(gid) with two nested divergent regions."""
    builder = KernelBuilder("nested_div", args=(KernelArg("out"),))
    gid = builder.alloc("gid")
    out = builder.alloc("out")
    addr = builder.alloc("addr")
    value = builder.alloc("value")
    low = builder.alloc("low")
    bit0 = builder.alloc("bit0")
    bit1 = builder.alloc("bit1")
    builder.global_id(gid)
    builder.load_arg(out, "out")
    builder.emit(Opcode.ANDI, rd=bit0, rs=gid, imm=1)
    builder.emit(Opcode.ANDI, rd=low, rs=gid, imm=2)
    builder.emit(Opcode.SRLI, rd=bit1, rs=low, imm=1)
    builder.emit(Opcode.LI, rd=value, imm=0)
    with builder.lane_if_else(bit0) as outer:
        # odd gids
        with builder.lane_if_else(bit1) as inner:
            builder.emit(Opcode.ADDI, rd=value, rs=value, imm=3)  # gid % 4 == 3
            with inner.otherwise():
                builder.emit(Opcode.ADDI, rd=value, rs=value, imm=1)  # gid % 4 == 1
        with outer.otherwise():
            with builder.lane_if_else(bit1) as inner:
                builder.emit(Opcode.ADDI, rd=value, rs=value, imm=2)  # gid % 4 == 2
                with inner.otherwise():
                    builder.emit(Opcode.ADDI, rd=value, rs=value, imm=4)  # gid % 4 == 0
    builder.address_of_element(addr, out, gid)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.ret()
    return builder.build()


def test_nested_divergence_masks_are_exact():
    kernel = _nested_divergence_kernel()
    expected = {1: 1, 3: 3, 2: 2, 0: 4}
    for macro in (True, False):
        with single_step(not macro):
            simulator = GGPUSimulator(GGPUConfig(num_cus=1))
            out = simulator.allocate_buffer(256)
            result = simulator.launch(kernel, NDRange(256, 64), {"out": out})
        values = simulator.read_buffer(out, 256)
        assert list(values) == [expected[gid % 4] for gid in range(256)]
        # Divergent regions issue both sides, so efficiency is below 1.
        assert result.stats.simd_efficiency < 1.0


def test_fully_masked_memory_access_charges_no_traffic():
    """A load/store whose active mask is empty must not touch cache or AXI."""
    builder = KernelBuilder("masked_off", args=(KernelArg("out"),))
    gid = builder.alloc("gid")
    out = builder.alloc("out")
    addr = builder.alloc("addr")
    value = builder.alloc("value")
    zero = builder.alloc("zero")
    builder.global_id(gid)
    builder.load_arg(out, "out")
    builder.emit(Opcode.LI, rd=value, imm=9)
    builder.emit(Opcode.LI, rd=zero, imm=0)
    builder.address_of_element(addr, out, gid)
    # All lanes fail the condition: the store below executes fully masked.
    builder.emit(Opcode.PUSHM)
    builder.emit(Opcode.CMASK, rs=zero)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.emit(Opcode.POPM)
    builder.ret()
    return_kernel = builder.build()
    simulator = GGPUSimulator(GGPUConfig(num_cus=1))
    out = simulator.allocate_buffer(64)
    result = simulator.launch(return_kernel, NDRange(64, 64), {"out": out})
    assert list(simulator.read_buffer(out, 64)) == [0] * 64
    assert result.stats.cache.accesses == 0
    assert result.stats.traffic.transactions == 0


# --------------------------------------------------------------------- #
# Posted stores, flush traffic, cache-port serialization
# --------------------------------------------------------------------- #
def _store_only_kernel() -> Kernel:
    builder = KernelBuilder("store_only", args=(KernelArg("out"),))
    gid = builder.alloc("gid")
    out = builder.alloc("out")
    addr = builder.alloc("addr")
    builder.global_id(gid)
    builder.load_arg(out, "out")
    builder.address_of_element(addr, out, gid)
    builder.emit(Opcode.SW, rs=addr, rt=gid, imm=0)
    builder.ret()
    return builder.build()


def test_stores_are_posted_not_stalled():
    """A store miss claims AXI port time but never delays the wavefront.

    The wavefront's critical path sees only ``store_latency`` (2 cycles),
    not the 36-cycle memory latency of the write-allocate line fill, so the
    launch cycle count must not move when the memory latency changes.
    """
    kernel = _store_only_kernel()
    cycles = {}
    for latency in (36, 360):
        config = GGPUConfig(num_cus=1, axi=AxiConfig(memory_latency_cycles=latency))
        simulator = GGPUSimulator(config)
        out = simulator.allocate_buffer(64)
        result = simulator.launch(kernel, NDRange(64, 64), {"out": out})
        cycles[latency] = result.cycles
        # The write-allocate fills still show up as AXI traffic.
        assert result.stats.traffic.line_fills > 0
        assert result.stats.traffic.busy_cycles > 0
    assert cycles[36] == cycles[360]


def test_end_of_kernel_flush_drains_through_the_memory_controller():
    """Dirty lines left at kernel end become posted AXI write-backs."""
    kernel = _store_only_kernel()
    simulator = GGPUSimulator(GGPUConfig(num_cus=1))
    out = simulator.allocate_buffer(256)
    result = simulator.launch(kernel, NDRange(256, 64), {"out": out})
    # 256 words = 16 dirty lines; nothing evicted them during the run, so
    # the end-of-kernel flush must account them as controller write-backs.
    assert result.stats.cache.write_backs == 16
    assert result.stats.traffic.write_backs == 16
    fill_time = result.stats.traffic.line_fills * 8  # 8 beats per 64-byte line
    assert result.stats.traffic.busy_cycles == pytest.approx(fill_time + 16 * 8)


def _strided_double_load_kernel() -> Kernel:
    """One wavefront loads 64 distinct lines twice (second pass is all hits)."""
    builder = KernelBuilder("strided", args=(KernelArg("buf"), KernelArg("out")))
    gid = builder.alloc("gid")
    buf = builder.alloc("buf")
    out = builder.alloc("out")
    stride = builder.alloc("stride")
    addr = builder.alloc("addr")
    value = builder.alloc("value")
    builder.global_id(gid)
    builder.load_arg(buf, "buf")
    builder.load_arg(out, "out")
    builder.emit(Opcode.SLLI, rd=stride, rs=gid, imm=4)  # element gid*16: one line per lane
    builder.address_of_element(addr, buf, stride)
    builder.emit(Opcode.LW, rd=value, rs=addr, imm=0)  # cold: 64 line fills
    builder.emit(Opcode.LW, rd=value, rs=addr, imm=0)  # warm: 64 hits in one access
    builder.address_of_element(addr, out, gid)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.ret()
    return builder.build()


def _run_strided(cache: CacheConfig) -> float:
    simulator = GGPUSimulator(GGPUConfig(num_cus=1, cache=cache))
    buf = simulator.create_buffer(range(64 * 16))
    out = simulator.allocate_buffer(64)
    result = simulator.launch(
        _strided_double_load_kernel(), NDRange(64, 64), {"buf": buf, "out": out}
    )
    assert list(simulator.read_buffer(out, 64)) == [gid * 16 for gid in range(64)]
    return result.cycles


def test_hit_latency_comes_from_the_cache_config():
    """The all-hit access completes ``hit_latency_cycles`` after issue."""
    fast = _run_strided(CacheConfig(hit_latency_cycles=4))
    slow = _run_strided(CacheConfig(hit_latency_cycles=12))
    assert slow > fast


def test_cache_ports_serialize_scattered_accesses():
    """An all-hit access over 64 lines drains one ``ports``-wide wave per cycle."""
    narrow = _run_strided(CacheConfig(ports=1))
    default = _run_strided(CacheConfig(ports=4))
    wide = _run_strided(CacheConfig(ports=64))
    # 64 hit lines: +63 serialization cycles with one port, +15 with four,
    # none with 64 (the cold all-miss access shifts a little as well, since
    # serialized fills reach the AXI ports later).
    assert narrow > default > wide
    assert narrow - default >= 63 - 15
    assert default - wide >= 15
    # Contiguous kernels coalesce to <= 4 lines per access, so the default
    # four ports never serialize them and the model change is invisible.
    copy_size, copy_cycles, _ = GOLDEN["copy"]
    wide_copy = _run(
        "copy", 1, copy_size, config=GGPUConfig(num_cus=1, cache=CacheConfig(ports=64))
    )
    assert wide_copy.cycles == copy_cycles[1]


# --------------------------------------------------------------------- #
# Issue modes: macro-stepping on/off x register forms
# --------------------------------------------------------------------- #
# The tests below keep the ``vectorized_issue`` names of the batched issue
# engine they used to pin, so their ids stay stable across the history.  The
# axes they sweep now are macro-stepped against single-step issue
# (:func:`single_step`), and the register forms (an int when every lane
# holds one value, an ``Affine`` ramp when the lanes count up by a stride)
# against the two references below: ``affine=False`` expands every ramp, and
# ``uniform=False`` every int and every ramp.  They compare results, cycles,
# whole per-CU, cache and AXI statistics, and every wavefront's registers
# when it retires.
#
# A mode is (macro, uniform, affine).  The ramp reference runs
# macro-stepped only: it changes no event, so the default's macro and single
# stepping already pin it.
DEFAULT_MODE = (True, True, True)
AFFINE_MODES = [DEFAULT_MODE, (True, True, False)]
MODES = AFFINE_MODES + [(False, True, True), (True, False, False), (False, False, False)]


class _ExpandedRegisters(list):
    """``Wavefront.registers`` of the ramp and the lane-vector references.

    Every ``Affine`` ramp (and, with ``expand_ints``, every int) is expanded
    into its lane vector before it is stored, so the compute unit sees the
    register forms it did before ramps (or before uniform registers).  Only
    :func:`_register_form` installs it.
    """

    def __init__(self, values, lanes: int, expand_ints: bool) -> None:
        self.lanes = lanes
        self.expand_ints = expand_ints
        super().__init__(self._expand(value) for value in values)

    def _expand(self, value):
        if type(value) is Affine:
            return value.vector()
        if self.expand_ints and type(value) is int:
            return np.full(self.lanes, value, dtype=np.int64)
        return value

    def __setitem__(self, index, value) -> None:
        super().__setitem__(index, self._expand(value))


@contextlib.contextmanager
def _register_form(uniform: bool = True, affine: bool = True):
    """Run launches with the package's register forms, or with a reference.

    ``affine=False`` expands every ramp; ``uniform=False`` (which needs
    ``affine=False``) expands every int too.  Yields a record of every
    retiring wavefront's register ``snapshot()`` and of which of its
    registers were ints and ramps, keyed by wavefront id.
    """
    assert affine <= uniform, "the lane-vector reference holds no ramps either"
    record = {"snapshots": {}, "int_registers": {}, "affine_registers": {}}
    retire = Wavefront.retire
    init = Wavefront.__init__

    def recording_retire(self, time):
        values = self.registers
        record["snapshots"][self.wavefront_id] = snapshot(values, self.wavefront_size).tolist()
        for key, form in (("int_registers", int), ("affine_registers", Affine)):
            record[key][self.wavefront_id] = [
                index for index, value in enumerate(values) if type(value) is form
            ]
        retire(self, time)

    def expanding_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.registers = _ExpandedRegisters(self.registers, self.wavefront_size, not uniform)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Wavefront, "retire", recording_retire)
        if not affine:
            patch.setattr(Wavefront, "__init__", expanding_init)
        yield record


def _launch_modes(num_cus: int, launch, modes=MODES) -> dict:
    """Run ``launch(simulator) -> (result, outputs)`` under each issue mode."""
    outcomes = {}
    for macro, uniform, affine in modes:
        with _register_form(uniform, affine) as record, single_step(not macro):
            result, outputs = launch(GGPUSimulator(GGPUConfig(num_cus=num_cus)))
        stats = result.stats
        outcomes[(macro, uniform, affine)] = {
            "cycles": stats.cycles,
            "cu_stats": [asdict(cu_stats) for cu_stats in stats.cu_stats],
            "cache": asdict(stats.cache),
            "traffic": asdict(stats.traffic),
            "outputs": outputs,
            **record,
        }
    return outcomes


def _assert_modes_agree(outcomes: dict) -> None:
    """Every issue mode reproduces the default mode's outcome.

    Macro-stepping may change ``issue_events`` and nothing else; the register
    form may change nothing.  The ramp reference never holds a ramp, and the
    lane-vector reference neither a ramp nor an int.
    """

    def compared(outcome, with_events):
        rows = [
            row if with_events else {**row, "issue_events": None} for row in outcome["cu_stats"]
        ]
        return {**outcome, "cu_stats": rows, "int_registers": None, "affine_registers": None}

    default = compared(outcomes[DEFAULT_MODE], with_events=False)
    for (macro, uniform, affine), outcome in outcomes.items():
        if not affine:
            assert not any(outcome["affine_registers"].values())
        if not uniform:
            assert not any(outcome["int_registers"].values())
        assert compared(outcome, True) == compared(outcomes[(macro, True, True)], True)
        assert compared(outcome, False) == default


def _out_launch(kernel: Kernel, global_size: int, workgroup_size: int, inputs=()):
    """A launch of ``kernel`` writing ``out``, after creating the ``inputs``."""

    def launch(simulator):
        args = {name: simulator.create_buffer(values) for name, values in inputs}
        args["out"] = simulator.allocate_buffer(global_size)
        result = simulator.launch(kernel, NDRange(global_size, workgroup_size), args)
        return result, simulator.read_buffer(args["out"], global_size).tolist()

    return launch


def _library_launch(name: str):
    """A checked launch of library kernel ``name`` at its golden size."""
    spec = get_kernel_spec(name)
    kernel = spec.build()
    size = ALL_GOLDEN[name][0]

    def launch(simulator):
        result, outputs = run_workload(simulator, kernel, spec.workload(size, SEED))
        return result, {key: value.tolist() for key, value in outputs.items()}

    return launch


@pytest.mark.parametrize("num_cus", [1, 2, 8])
def test_vectorized_issue_matches_scalar_on_nested_divergence(num_cus):
    """Nested mask pushes/pops: active-lane accounting must not depend on the mode."""
    _assert_modes_agree(_launch_modes(num_cus, _out_launch(_nested_divergence_kernel(), 256, 64)))


@pytest.mark.parametrize("workgroup_size", [64, 256, 512])
def test_vectorized_issue_matches_scalar_across_barriers(workgroup_size):
    """Barriers end macro runs and park wavefronts; every mode must agree exactly."""
    _assert_modes_agree(_launch_modes(2, _out_launch(_barrier_kernel(rounds=2), 1024, workgroup_size)))


@pytest.mark.parametrize("ports", [1, 4, 64])
def test_vectorized_issue_matches_scalar_under_port_contention(ports):
    """Cache-port serialization is charged identically in both modes."""
    outcomes = {}
    for macro in (True, False):
        with single_step(not macro):
            simulator = GGPUSimulator(GGPUConfig(num_cus=1, cache=CacheConfig(ports=ports)))
            buf = simulator.create_buffer(range(64 * 16))
            out = simulator.allocate_buffer(64)
            result = simulator.launch(
                _strided_double_load_kernel(), NDRange(64, 64), {"buf": buf, "out": out}
            )
        assert list(simulator.read_buffer(out, 64)) == [gid * 16 for gid in range(64)]
        outcomes[macro] = (result.cycles, _cu_stats(result))
    assert outcomes[True] == outcomes[False]


@pytest.mark.parametrize("name", ["div_int", "parallel_sel", "xcorr", "histogram"])
def test_vectorized_issue_matches_goldens_with_engine_off(name):
    """The pinned goldens hold with macro-stepping disabled too."""
    size, cycles_by_cu, instructions = ALL_GOLDEN[name]
    for num_cus in (1, 8):
        with single_step():
            result = _run(name, num_cus, size)
        assert result.cycles == cycles_by_cu[num_cus]
        assert result.stats.instructions_issued == instructions


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rounds=st.integers(min_value=1, max_value=3),
    c0=st.integers(min_value=0, max_value=8000),
    c1=st.integers(min_value=1, max_value=127),
    threshold=st.integers(min_value=0, max_value=1 << 15),
    op=st.sampled_from(["+", "^", "|"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_vectorized_issue_property_random_kernels(rounds, c0, c1, threshold, op, seed):
    """Random compiled kernels (divergence + barriers + loops): results,
    cycles, and per-CU, cache and AXI statistics must be bit-equal across
    macro-stepped and single-stepped issue, with the package's register
    forms and with the ramp and lane-vector references."""
    source = f"""
    __kernel void fuzz_vec(__global int *a, __global int *out, int n) {{
        int gid = get_global_id(0);
        int lid = get_local_id(0);
        __local int tmp[64];
        int acc = {c0};
        for (int r = 0; r < {rounds}; r += 1) {{
            tmp[lid] = acc + a[gid] * (r + {c1});
            barrier(CLK_LOCAL_MEM_FENCE);
            acc = (acc {op} tmp[lid]);
            if (a[gid] > {threshold}) {{
                acc = acc + gid;
            }}
            barrier(CLK_LOCAL_MEM_FENCE);
        }}
        out[gid] = acc;
    }}
    """
    program = compile_source(source)
    kernel = program.to_ggpu_kernel()
    n = 128
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 16, size=n, dtype=np.int64)

    outcomes = {}
    for macro, uniform, affine in MODES:
        with _register_form(uniform, affine), single_step(not macro):
            simulator = GGPUSimulator(GGPUConfig(num_cus=2), memory_bytes=4 * 1024 * 1024)
            a_addr = simulator.create_buffer(a)
            out_addr = simulator.allocate_buffer(n)
            result = simulator.launch(
                kernel, NDRange(n, 64), {"a": a_addr, "out": out_addr, "n": n}
            )
            values = simulator.read_buffer(out_addr, n)
        outcomes[(macro, uniform, affine)] = (
            list(values),
            result.cycles,
            _cu_stats(result),
            asdict(result.stats.cache),
            asdict(result.stats.traffic),
        )
    default = outcomes[DEFAULT_MODE]
    assert all(outcome == default for outcome in outcomes.values())


# --------------------------------------------------------------------- #
# Uniform and affine registers against their references
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(ALL_GOLDEN))
def test_uniform_registers_match_lane_vector_reference_on_library_kernels(name):
    """Every library kernel against the ramp reference at 1, 2, 4 and 8 CUs,
    and macro-stepped and single-stepped against the lane-vector reference
    at 1, 2 and 8 CUs."""
    for num_cus in CU_COUNTS:
        modes = AFFINE_MODES if num_cus == 4 else MODES
        _assert_modes_agree(_launch_modes(num_cus, _library_launch(name), modes))


UNIFORM_TABLE = [100, 21, 33, 44, 55]


def _uniform_edges_kernel() -> Tuple[Kernel, Dict[str, int]]:
    """Uniform registers at their edges.

    Loads through an int address under a full, a partial and a cleared mask;
    CMASK on an int that keeps the mask and on one that clears it; partially
    masked writes of an equal and of a different int; and a branch on a lane
    vector that is uniform only across the active lanes.
    """
    builder = KernelBuilder("uniform_edges", args=(KernelArg("table"), KernelArg("out")))
    names = "gid table out odd zero one same other loaded kept untouched cleared taken addr acc"
    r = {name: builder.alloc(name) for name in names.split()}
    builder.global_id(r["gid"])
    builder.load_arg(r["table"], "table")
    builder.load_arg(r["out"], "out")
    builder.emit(Opcode.ANDI, rd=r["odd"], rs=r["gid"], imm=1)
    builder.emit(Opcode.LI, rd=r["zero"], imm=0)
    builder.emit(Opcode.LI, rd=r["one"], imm=1)
    builder.emit(Opcode.LI, rd=r["same"], imm=5)
    builder.emit(Opcode.LI, rd=r["other"], imm=3)
    builder.emit(Opcode.LI, rd=r["loaded"], imm=9)
    builder.emit(Opcode.LI, rd=r["untouched"], imm=11)
    builder.emit(Opcode.LI, rd=r["cleared"], imm=2)
    builder.emit(Opcode.LI, rd=r["taken"], imm=0)
    builder.emit(Opcode.LW, rd=r["kept"], rs=r["table"], imm=8)  # full mask: table[2]
    builder.emit(Opcode.PUSHM)
    builder.emit(Opcode.CMASK, rs=r["one"])  # int: keeps every lane
    builder.emit(Opcode.CMASK, rs=r["odd"])  # odd lanes only
    builder.emit(Opcode.LI, rd=r["same"], imm=5)  # equal int: stays an int
    builder.emit(Opcode.LI, rd=r["other"], imm=7)  # different int: becomes lanes
    builder.emit(Opcode.LW, rd=r["loaded"], rs=r["table"], imm=4)  # table[1] on odd lanes
    builder.emit(Opcode.LW, rd=r["kept"], rs=r["table"], imm=8)  # the same word again
    builder.emit(Opcode.BNE, rs=r["odd"], rt=r["one"], label="skip")  # odd is 1 on every active lane
    builder.emit(Opcode.LI, rd=r["taken"], imm=1)
    builder.label("skip")
    builder.emit(Opcode.CMASK, rs=r["zero"])  # int: clears the mask
    builder.emit(Opcode.LW, rd=r["untouched"], rs=r["table"], imm=16)  # no lane loads
    builder.emit(Opcode.LI, rd=r["cleared"], imm=6)  # no lane writes
    builder.emit(Opcode.POPM)
    builder.emit(Opcode.LI, rd=r["acc"], imm=0)
    for name in ("same", "other", "loaded", "kept", "untouched", "cleared", "taken"):
        builder.emit(Opcode.MULI, rd=r["acc"], rs=r["acc"], imm=131)
        builder.emit(Opcode.ADD, rd=r["acc"], rs=r["acc"], rt=r[name])
    builder.address_of_element(r["addr"], r["out"], r["gid"])
    builder.emit(Opcode.SW, rs=r["addr"], rt=r["acc"], imm=0)
    builder.ret()
    return builder.build(), r


@pytest.mark.parametrize("num_cus", [1, 2])
def test_uniform_register_edges_match_lane_vector_reference(num_cus):
    kernel, registers = _uniform_edges_kernel()
    outcomes = _launch_modes(
        num_cus, _out_launch(kernel, 256, 64, inputs=[("table", UNIFORM_TABLE)])
    )
    _assert_modes_agree(outcomes)
    # The uniform and affine paths really ran: which registers end as ints
    # and as ramps.
    default = outcomes[DEFAULT_MODE]
    for wavefront_id, int_registers in default["int_registers"].items():
        for name in ("table", "same", "kept", "untouched"):
            assert registers[name] in int_registers, name
        for name in ("gid", "odd", "other", "loaded", "cleared", "taken"):
            assert registers[name] not in int_registers, name
        assert default["affine_registers"][wavefront_id] == [registers["gid"], registers["addr"]]


U32_EDGES = (0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
BRANCH_ORDERS = (
    (Opcode.BEQ, operator.eq),
    (Opcode.BNE, operator.ne),
    (Opcode.BLT, operator.lt),
    (Opcode.BGE, operator.ge),
)


def _int_branch_kernel() -> Kernel:
    """Every conditional branch on every pair of u32 edge ints, first with
    every lane active and then on the odd lanes only.  ``out[8 * gid + 2 * k
    + p]`` holds one bit per pair of branch ``k`` in pass ``p``: 1 where it
    was taken."""
    builder = KernelBuilder("int_branches", args=(KernelArg("out"),))
    gid, odd, taken, index, addr, out = (
        builder.alloc(name) for name in ("gid", "odd", "taken", "index", "addr", "out")
    )
    edges = [builder.alloc(f"edge{i}") for i in range(len(U32_EDGES))]
    accs = [[builder.alloc(f"acc{k}_{p}") for p in range(2)] for k in range(len(BRANCH_ORDERS))]
    builder.global_id(gid)
    builder.load_arg(out, "out")
    builder.emit(Opcode.ANDI, rd=odd, rs=gid, imm=1)
    for edge, value in zip(edges, U32_EDGES):
        builder.load_constant(edge, value)
    for p in range(2):
        if p:
            builder.emit(Opcode.PUSHM)
            builder.emit(Opcode.CMASK, rs=odd)
        for k, (opcode, _) in enumerate(BRANCH_ORDERS):
            for i, a in enumerate(edges):
                for j, b in enumerate(edges):
                    label = f"taken{p}_{k}_{i}_{j}"
                    builder.emit(Opcode.LI, rd=taken, imm=1)
                    builder.emit(opcode, rs=a, rt=b, label=label)
                    builder.emit(Opcode.LI, rd=taken, imm=0)
                    builder.label(label)
                    builder.emit(Opcode.SLLI, rd=accs[k][p], rs=accs[k][p], imm=1)
                    builder.emit(Opcode.OR, rd=accs[k][p], rs=accs[k][p], rt=taken)
        if p:
            builder.emit(Opcode.POPM)
    for k in range(len(BRANCH_ORDERS)):
        for p in range(2):
            builder.emit(Opcode.SLLI, rd=index, rs=gid, imm=3)
            builder.emit(Opcode.ADDI, rd=index, rs=index, imm=2 * k + p)
            builder.address_of_element(addr, out, index)
            builder.emit(Opcode.SW, rs=addr, rt=accs[k][p], imm=0)
    builder.ret()
    return builder.build(), edges


def test_int_branches_match_the_lane_vector_reference():
    """The issue loop decides a branch on two ints itself; the lane-vector
    reference takes every branch through ``_execute_branch``.  Both must
    order the u32 edges as signed ints, with all lanes or some active."""
    kernel, edges = _int_branch_kernel()

    def launch(simulator):
        out = simulator.allocate_buffer(8 * 64)
        result = simulator.launch(kernel, NDRange(64, 64), {"out": out})
        return result, simulator.read_buffer(out, 8 * 64).tolist()

    outcomes = _launch_modes(1, launch)
    _assert_modes_agree(outcomes)
    default = outcomes[DEFAULT_MODE]
    assert all(set(edges) <= set(ints) for ints in default["int_registers"].values())

    def signed(value):
        return value - (1 << 32) if value & 0x80000000 else value

    expected = []
    for gid in range(64):
        for _, compare in BRANCH_ORDERS:
            bits = 0
            for a in U32_EDGES:
                for b in U32_EDGES:
                    bits = bits << 1 | compare(signed(a), signed(b))
            expected += [bits, bits if gid & 1 else 0]
    assert default["outputs"] == expected


def _failing_load_kernel(address: int) -> Kernel:
    """Every lane loads the word at one int ``address``."""
    builder = KernelBuilder("bad_load", args=(KernelArg("out"),))
    pointer = builder.alloc("pointer")
    value = builder.alloc("value")
    builder.load_constant(pointer, address)
    builder.emit(Opcode.LW, rd=value, rs=pointer, imm=0)
    builder.ret()
    return builder.build()


def _failing_branch_kernel(cleared_mask: bool) -> Kernel:
    """A branch on a per-lane register, or on ints with no lane active."""
    builder = KernelBuilder("bad_branch", args=(KernelArg("out"),))
    gid = builder.alloc("gid")
    zero = builder.alloc("zero")
    builder.global_id(gid)
    builder.emit(Opcode.LI, rd=zero, imm=0)
    if cleared_mask:
        builder.emit(Opcode.PUSHM)
        builder.emit(Opcode.CMASK, rs=zero)
        builder.emit(Opcode.BEQ, rs=zero, rt=zero, label="end")
    else:
        builder.emit(Opcode.BEQ, rs=gid, rt=zero, label="end")
    builder.label("end")
    builder.ret()
    return builder.build()


def _failing_ramp_kernel(base: int, store: bool) -> Kernel:
    """Every lane loads (or stores) the word at ``base + 4 * gid``: a ramp."""
    builder = KernelBuilder("bad_ramp", args=(KernelArg("out"),))
    gid = builder.alloc("gid")
    pointer = builder.alloc("pointer")
    addr = builder.alloc("addr")
    builder.global_id(gid)
    builder.load_constant(pointer, base)
    builder.address_of_element(addr, pointer, gid)
    if store:
        builder.emit(Opcode.SW, rs=addr, rt=gid, imm=0)
    else:
        builder.emit(Opcode.LW, rd=pointer, rs=addr, imm=0)
    builder.ret()
    return builder.build()


# The default simulator's global memory ends at 64 MiB (0x4000000).
@pytest.mark.parametrize(
    "kernel, message",
    [
        (_failing_load_kernel(0x1002), "unaligned word access at byte address 0x1002"),
        (_failing_load_kernel(0x7FFFFFF0), "global memory access out of range: 0x7ffffff0"),
        (_failing_ramp_kernel(0x1002, store=False), "unaligned word access at byte address 0x1002"),
        (_failing_ramp_kernel(0x3FFFFC0, store=False), "global memory access out of range: 0x4000000"),
        (_failing_ramp_kernel(0x3FFFFC0, store=True), "global memory access out of range: 0x4000000"),
        (_failing_branch_kernel(cleared_mask=False), "non-uniform value used in uniform control flow"),
        (_failing_branch_kernel(cleared_mask=True), "no active lane to read a uniform value from"),
    ],
    ids=[
        "misaligned-load",
        "out-of-range-load",
        "misaligned-ramp-load",
        "out-of-range-ramp-load",
        "out-of-range-ramp-store",
        "non-uniform-branch",
        "no-active-lane-branch",
    ],
)
def test_uniform_register_errors_match_lane_vector_reference(kernel, message):
    """Every register form fails with the same ``SimulationError`` text."""
    errors = set()
    for uniform, affine in ((True, True), (True, False), (False, False)):
        with _register_form(uniform, affine), pytest.raises(SimulationError) as failure:
            _out_launch(kernel, 64, 64)(GGPUSimulator(GGPUConfig(num_cus=1)))
        errors.add(str(failure.value))
    assert len(errors) == 1
    assert message in errors.pop()


# --------------------------------------------------------------------- #
# Event order: only shared events are ordered across CUs
# --------------------------------------------------------------------- #
# A compute unit issues its private events back to back and orders only its
# shared events (global loads and stores, RET) against the other CUs.  The
# reference below treats every instruction kind as shared, so every event
# waits its turn on the simulator's heap: the one-event-per-pop order of a
# single global (time, CU index) heap.  It has no package option; only
# :func:`_event_order` installs it.
EVERY_KIND = frozenset(range(K_RET + 1))  # decoded kinds are the ints 0..K_RET


@contextlib.contextmanager
def _event_order(every_kind_shared: bool):
    with pytest.MonkeyPatch.context() as patch:
        if every_kind_shared:
            patch.setattr(cu_module, "SHARED_KINDS", EVERY_KIND)
        yield


def _assert_event_order_matches_reference(num_cus: int, launch) -> None:
    """Outputs and the whole ``KernelRunStats`` agree with the reference."""
    outcomes = []
    for every_kind_shared in (False, True):
        with _event_order(every_kind_shared):
            result, outputs = launch(GGPUSimulator(GGPUConfig(num_cus=num_cus)))
        outcomes.append((outputs, asdict(result.stats)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", sorted(ALL_GOLDEN))
def test_event_order_matches_every_kind_shared_reference_on_library_kernels(name):
    for num_cus in (2, 4, 8):
        _assert_event_order_matches_reference(num_cus, _library_launch(name))


@pytest.mark.parametrize("workgroup_size", [64, 256, 512])
def test_event_order_matches_every_kind_shared_reference_across_barriers(workgroup_size):
    launch = _out_launch(_barrier_kernel(rounds=2), 1024, workgroup_size)
    _assert_event_order_matches_reference(2, launch)


def _dispatcher_order_kernel() -> Kernel:
    """A store, then a uniform loop of ``(wgid * 7) & 15`` trips, then RET.

    Workgroups retire at times that depend on their id, so the order of the
    RETs across CUs decides which CU the dispatcher hands each next
    workgroup to.
    """
    builder = KernelBuilder("dispatch_order", args=(KernelArg("out"),))
    gid = builder.alloc("gid")
    out = builder.alloc("out")
    addr = builder.alloc("addr")
    trips = builder.alloc("trips")
    zero = builder.alloc("zero")
    builder.global_id(gid)
    builder.load_arg(out, "out")
    builder.address_of_element(addr, out, gid)
    builder.emit(Opcode.SW, rs=addr, rt=gid, imm=0)
    builder.emit(Opcode.WGID, rd=trips)
    builder.emit(Opcode.MULI, rd=trips, rs=trips, imm=7)
    builder.emit(Opcode.ANDI, rd=trips, rs=trips, imm=15)
    builder.emit(Opcode.LI, rd=zero, imm=0)
    builder.label("loop")
    builder.emit(Opcode.BEQ, rs=trips, rt=zero, label="done")
    builder.emit(Opcode.ADDI, rd=trips, rs=trips, imm=-1)
    builder.emit(Opcode.JMP, label="loop")
    builder.label("done")
    builder.ret()
    return builder.build()


@pytest.mark.parametrize("num_cus", [2, 4])
def test_event_order_matches_every_kind_shared_reference_on_dispatch_order(num_cus):
    """64 workgroups of one wavefront: RET must stay a shared event."""
    launch = _out_launch(_dispatcher_order_kernel(), 64 * 64, 64)
    _assert_event_order_matches_reference(num_cus, launch)


def _same_line_tie_kernel() -> Kernel:
    """Every wavefront loads ``buf[0]``, then loops ``wgid * 20`` times."""
    builder = KernelBuilder("same_line_tie", args=(KernelArg("buf"), KernelArg("out")))
    names = "gid buf out addr value trips zero"
    r = {name: builder.alloc(name) for name in names.split()}
    builder.global_id(r["gid"])
    builder.load_arg(r["buf"], "buf")
    builder.emit(Opcode.LW, rd=r["value"], rs=r["buf"], imm=0)
    builder.emit(Opcode.WGID, rd=r["trips"])
    builder.emit(Opcode.MULI, rd=r["trips"], rs=r["trips"], imm=20)
    builder.emit(Opcode.LI, rd=r["zero"], imm=0)
    builder.label("loop")
    builder.emit(Opcode.BEQ, rs=r["trips"], rt=r["zero"], label="done")
    builder.emit(Opcode.ADDI, rd=r["trips"], rs=r["trips"], imm=-1)
    builder.emit(Opcode.JMP, label="loop")
    builder.label("done")
    builder.load_arg(r["out"], "out")
    builder.address_of_element(r["addr"], r["out"], r["gid"])
    builder.emit(Opcode.SW, rs=r["addr"], rt=r["value"], imm=0)
    builder.ret()
    return builder.build()


def test_same_cycle_loads_of_one_line_probe_cu_0_first():
    """Two CUs load one line on the same cycle: CU 0 misses, CU 1 hits.

    Workgroup 1 (on CU 1) loops 20 times after its load, so the launch ends
    one miss latency later if CU 1 is the one that misses.  The cycle count
    and the cache statistics are pinned from the one-event-per-pop engine.
    """
    probes = []
    uniform_load = ComputeUnit._execute_uniform_load

    def recording_load(self, wavefront, rd, address, access_time):
        probes.append((self.cu_id, access_time))
        return uniform_load(self, wavefront, rd, address, access_time)

    launch = _out_launch(_same_line_tie_kernel(), 128, 64, inputs=[("buf", [7] * 16)])
    outcomes = []
    for every_kind_shared in (False, True):
        probes.clear()
        with _event_order(every_kind_shared), pytest.MonkeyPatch.context() as patch:
            patch.setattr(ComputeUnit, "_execute_uniform_load", recording_load)
            result, outputs = launch(GGPUSimulator(GGPUConfig(num_cus=2)))
        assert outputs == [7] * 128
        assert probes == [(0, probes[0][1]), (1, probes[0][1])]
        outcomes.append(asdict(result.stats))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0]["cycles"] == 451.0
    assert outcomes[0]["cache"] == {
        "read_accesses": 2,
        "write_accesses": 8,
        "read_misses": 1,
        "write_misses": 8,
        "write_backs": 8,
    }


# --------------------------------------------------------------------- #
# Runaway launches: the event bound
# --------------------------------------------------------------------- #
def _spin_kernel() -> Kernel:
    """A uniform ``while (i >= 0) { i = i & 1; }`` that never ends."""
    builder = KernelBuilder("spin", args=(KernelArg("out"),))
    i = builder.alloc("i")
    zero = builder.alloc("zero")
    builder.emit(Opcode.LI, rd=i, imm=0)
    builder.emit(Opcode.LI, rd=zero, imm=0)
    builder.label("loop")
    builder.emit(Opcode.BLT, rs=i, rt=zero, label="done")
    builder.emit(Opcode.ANDI, rd=i, rs=i, imm=1)
    builder.emit(Opcode.JMP, label="loop")
    builder.label("done")
    builder.ret()
    return builder.build()


@pytest.mark.parametrize("num_cus", [1, 2])
def test_runaway_launch_raises_at_the_event_bound(monkeypatch, num_cus):
    monkeypatch.setattr(gpu_module, "MAX_EVENTS", 10_000)
    simulator = GGPUSimulator(GGPUConfig(num_cus=num_cus))
    out = simulator.allocate_buffer(64)
    start = time.perf_counter()
    with pytest.raises(SimulationError, match="exceeded the maximum step count"):
        simulator.launch(_spin_kernel(), NDRange(64, 64), {"out": out})
    assert time.perf_counter() - start < 1.0


def test_a_launch_may_take_exactly_the_event_bound(monkeypatch):
    launch = _library_launch("div_int")
    result, _ = launch(GGPUSimulator(GGPUConfig(num_cus=2)))
    events = sum(stats.issue_events for stats in result.stats.cu_stats)
    monkeypatch.setattr(gpu_module, "MAX_EVENTS", events)
    bounded, _ = launch(GGPUSimulator(GGPUConfig(num_cus=2)))
    assert asdict(bounded.stats) == asdict(result.stats)
    monkeypatch.setattr(gpu_module, "MAX_EVENTS", events - 1)
    with pytest.raises(SimulationError, match="exceeded the maximum step count"):
        launch(GGPUSimulator(GGPUConfig(num_cus=2)))


def _barrier_skip_kernel() -> Kernel:
    """Each workgroup's second wavefront branches past the BARRIER to RET."""
    builder = KernelBuilder("barrier_skip", args=(KernelArg("out"),))
    wave = builder.alloc("wave")
    builder.local_id(wave)
    builder.emit(Opcode.SRLI, rd=wave, rs=wave, imm=6)  # wavefront index: uniform
    builder.emit(Opcode.BNE, rs=wave, rt=builder.ZERO, label="skip")
    builder.emit(Opcode.BARRIER)
    builder.label("skip")
    builder.ret()
    return builder.build()


@pytest.mark.parametrize(
    "num_cus, parked",
    [
        (1, "CU 0 holds workgroup(s) [0, 1] at a barrier"),
        (2, "CU 0 holds workgroup(s) [0] at a barrier; CU 1 holds workgroup(s) [1] at a barrier"),
    ],
    ids=["1cu", "2cus"],
)
def test_a_wavefront_that_skips_its_barrier_deadlocks_the_launch(num_cus, parked):
    simulator = GGPUSimulator(GGPUConfig(num_cus=num_cus))
    out = simulator.allocate_buffer(256)
    start = time.perf_counter()
    with pytest.raises(SimulationError, match="deadlock") as caught:
        simulator.launch(_barrier_skip_kernel(), NDRange(256, 128), {"out": out})
    assert time.perf_counter() - start < 1.0
    assert str(caught.value) == "deadlock: all resident wavefronts are blocked; " + parked


def test_local_words_beyond_the_lram_window_fail_before_any_cu_is_bound(monkeypatch):
    bound = []
    monkeypatch.setattr(ComputeUnit, "bind", lambda self, *args, **kwargs: bound.append(self))
    builder = KernelBuilder("too_local", args=(KernelArg("out"),))
    builder.declare_local("tile", 1025)
    builder.ret()
    simulator = GGPUSimulator(GGPUConfig(num_cus=2))
    out = simulator.allocate_buffer(256)
    # 256 work-items are 4 of a CU's 8 wavefronts: two 1024-word windows.
    with pytest.raises(KernelError, match="declares 1025 local words .* 1024-word LRAM window"):
        simulator.launch(builder.build(), NDRange(256, 256), {"out": out})
    assert bound == []


def test_a_cu_that_issues_nothing_raises_instead_of_spinning(monkeypatch):
    monkeypatch.setattr(ComputeUnit, "step", lambda self, *args: [])
    simulator = GGPUSimulator(GGPUConfig(num_cus=2))
    out = simulator.allocate_buffer(128)
    with pytest.raises(SimulationError, match="CU 0 issued no event at cycle 0"):
        simulator.launch(_store_only_kernel(), NDRange(128, 64), {"out": out})


def test_step_with_default_arguments_issues_exactly_one_event():
    simulator = GGPUSimulator(GGPUConfig(num_cus=1))
    simulator.rtm.write_args([simulator.allocate_buffer(128)])
    cu = simulator.compute_units[0]
    cu.bind(_store_only_kernel().program, simulator.rtm)
    cu.admit(WorkgroupDispatcher(simulator.config, NDRange(128, 64)).initial_assignment(1)[0])
    for events in (1, 2, 3):
        cu.step()
        assert cu.stats.issue_events == events
