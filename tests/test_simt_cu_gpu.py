"""Compute unit and top-level simulator behaviour on small hand-built kernels."""

import numpy as np
import pytest

from repro.arch.config import GGPUConfig
from repro.arch.isa import Opcode
from repro.arch.kernel import Kernel, KernelArg, KernelBuilder, NDRange
from repro.errors import ConfigurationError, KernelError
from repro.simt.gpu import GGPUSimulator
from repro.simt.timing import TimingModel
from repro.arch.isa import OpClass


def _iota_kernel() -> Kernel:
    """out[gid] = gid * 2 + 1"""
    builder = KernelBuilder("iota", args=(KernelArg("out"),))
    gid = builder.alloc("gid")
    out = builder.alloc("out")
    addr = builder.alloc("addr")
    value = builder.alloc("value")
    builder.global_id(gid)
    builder.load_arg(out, "out")
    builder.emit(Opcode.SLLI, rd=value, rs=gid, imm=1)
    builder.emit(Opcode.ADDI, rd=value, rs=value, imm=1)
    builder.address_of_element(addr, out, gid)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.ret()
    return builder.build()


def _divergent_kernel() -> Kernel:
    """out[gid] = 100 if gid is even else 200 (exercises the mask stack)."""
    builder = KernelBuilder("evens", args=(KernelArg("out"),))
    gid = builder.alloc("gid")
    out = builder.alloc("out")
    addr = builder.alloc("addr")
    value = builder.alloc("value")
    parity = builder.alloc("parity")
    builder.global_id(gid)
    builder.load_arg(out, "out")
    builder.emit(Opcode.ANDI, rd=parity, rs=gid, imm=1)
    builder.emit(Opcode.XORI, rd=parity, rs=parity, imm=1)  # 1 when gid even
    with builder.lane_if_else(parity) as branch:
        builder.emit(Opcode.LI, rd=value, imm=100)
        with branch.otherwise():
            builder.emit(Opcode.LI, rd=value, imm=200)
    builder.address_of_element(addr, out, gid)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.ret()
    return builder.build()


def _barrier_kernel() -> Kernel:
    """Exercises BARRIER and local memory: stage data in LRAM, then read back."""
    builder = KernelBuilder("staged", args=(KernelArg("out"),))
    gid = builder.alloc("gid")
    lid = builder.alloc("lid")
    out = builder.alloc("out")
    addr = builder.alloc("addr")
    value = builder.alloc("value")
    builder.global_id(gid)
    builder.emit(Opcode.LID, rd=lid)
    builder.load_arg(out, "out")
    builder.emit(Opcode.ADDI, rd=value, rs=gid, imm=7)
    builder.emit(Opcode.SLLI, rd=addr, rs=lid, imm=2)
    builder.emit(Opcode.LSW, rs=addr, rt=value, imm=0)
    builder.emit(Opcode.BARRIER)
    builder.emit(Opcode.LLW, rd=value, rs=addr, imm=0)
    builder.address_of_element(addr, out, gid)
    builder.emit(Opcode.SW, rs=addr, rt=value, imm=0)
    builder.ret()
    return builder.build()


def test_simple_kernel_produces_expected_values(simulator):
    kernel = _iota_kernel()
    out = simulator.allocate_buffer(128)
    result = simulator.launch(kernel, NDRange(128, 64), {"out": out})
    values = simulator.read_buffer(out, 128)
    assert list(values) == [2 * i + 1 for i in range(128)]
    assert result.cycles > 0
    assert result.stats.workgroups_dispatched == 2


def test_divergent_kernel_is_correct_and_costs_both_paths(simulator):
    kernel = _divergent_kernel()
    out = simulator.allocate_buffer(64)
    result = simulator.launch(kernel, NDRange(64, 64), {"out": out})
    values = simulator.read_buffer(out, 64)
    assert list(values) == [100 if i % 2 == 0 else 200 for i in range(64)]
    # Both sides of the branch are issued, so SIMD efficiency drops below 1.
    assert result.stats.simd_efficiency < 1.0


def test_barrier_and_local_memory(simulator):
    kernel = _barrier_kernel()
    out = simulator.allocate_buffer(128)
    result = simulator.launch(kernel, NDRange(128, 128), {"out": out})
    values = simulator.read_buffer(out, 128)
    assert list(values) == [i + 7 for i in range(128)]
    assert result.stats.mix.counts.get("sync") == 2


def test_missing_and_unknown_arguments_rejected(simulator):
    # Kernel.check_arg_names is the one name check; the multi-device queue
    # raises the same messages at enqueue time.
    kernel = _iota_kernel()
    with pytest.raises(KernelError, match=r"missing argument\(s\) \['out'\]"):
        simulator.launch(kernel, NDRange(64, 64), {})
    with pytest.raises(KernelError, match=r"has no argument\(s\) \['bogus'\]"):
        simulator.launch(kernel, NDRange(64, 64), {"out": 64, "bogus": 1})


def test_kernel_too_large_for_cram_rejected():
    config = GGPUConfig(cram_words=8)
    simulator = GGPUSimulator(config, memory_bytes=1024 * 1024)
    kernel = _divergent_kernel()
    out = simulator.allocate_buffer(64)
    with pytest.raises(KernelError):
        simulator.launch(kernel, NDRange(64, 64), {"out": out})


def test_more_cus_do_not_change_results_but_reduce_cycles(dual_cu_simulator, simulator):
    kernel = _iota_kernel()
    single_out = simulator.allocate_buffer(1024)
    single = simulator.launch(kernel, NDRange(1024, 256), {"out": single_out})
    dual_out = dual_cu_simulator.allocate_buffer(1024)
    dual = dual_cu_simulator.launch(kernel, NDRange(1024, 256), {"out": dual_out})
    assert np.array_equal(
        simulator.read_buffer(single_out, 1024), dual_cu_simulator.read_buffer(dual_out, 1024)
    )
    assert dual.cycles < single.cycles


def test_cache_and_axi_traffic_are_observed(simulator):
    kernel = _iota_kernel()
    out = simulator.allocate_buffer(512)
    result = simulator.launch(kernel, NDRange(512, 256), {"out": out})
    assert result.stats.cache.write_accesses > 0
    assert result.stats.traffic.line_fills > 0
    assert 0.0 <= result.stats.cache.hit_rate <= 1.0


def test_launch_resets_state_between_kernels(simulator):
    kernel = _iota_kernel()
    out = simulator.allocate_buffer(64)
    first = simulator.launch(kernel, NDRange(64, 64), {"out": out})
    second = simulator.launch(kernel, NDRange(64, 64), {"out": out})
    assert second.cycles == pytest.approx(first.cycles)


def test_timing_model_validation_and_classes():
    with pytest.raises(ConfigurationError):
        TimingModel(alu_latency=0)
    timing = TimingModel()
    assert timing.latency_for(OpClass.DIV) > timing.latency_for(OpClass.MUL) > timing.latency_for(OpClass.ALU)
    assert timing.uses_pe_array(OpClass.ALU)
    assert not timing.uses_pe_array(OpClass.BRANCH)
    assert not timing.uses_pe_array(OpClass.MASK)


def test_stats_summary_mentions_kernel(simulator):
    kernel = _iota_kernel()
    out = simulator.allocate_buffer(64)
    result = simulator.launch(kernel, NDRange(64, 64), {"out": out})
    assert "iota" in result.stats.summary()
    assert result.kcycles == pytest.approx(result.cycles / 1000.0)


def test_create_buffer_accepts_lists_tuples_arrays_and_ranges():
    """Host values are converted once; every container writes the same memory."""
    values = [0, 1, -1, -(2**31), 2**31, 2**32, 2**32 + 5, 2**40 + 7, 0xFFFFFFFF]
    expected = [value & 0xFFFFFFFF for value in values]
    images = []
    for container in (list(values), tuple(values), np.array(values, dtype=np.int64)):
        simulator = GGPUSimulator(GGPUConfig(num_cus=1), memory_bytes=64 * 1024)
        base = simulator.create_buffer(container)
        image = simulator.read_buffer(base, len(values))
        assert list(image) == expected
        images.append((base, image.tolist()))
    assert images[0] == images[1] == images[2]
    simulator = GGPUSimulator(GGPUConfig(num_cus=1), memory_bytes=64 * 1024)
    base = simulator.create_buffer(range(0, 40, 4))
    assert list(simulator.read_buffer(base, 10)) == list(range(0, 40, 4))
    base = simulator.create_buffer(value for value in values)
    assert list(simulator.read_buffer(base, len(values))) == expected
