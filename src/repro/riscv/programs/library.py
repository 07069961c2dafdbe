"""Registry and runner plumbing for the RISC-V benchmark programs.

A :class:`RiscvCase` is one concrete, runnable instance of a benchmark: the
assembled program, a data memory pre-loaded with the same buffers the G-GPU
version uses, and the expected final contents of the output buffers.  The
registry mirrors :mod:`repro.kernels.library` so the evaluation harness can
pair both sides by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import KernelError, SimulationError
from repro.kernels.library import GpuWorkload, check_output
from repro.riscv.assembler import RvProgram
from repro.riscv.cpu import CpuStats, RiscvCpu
from repro.riscv.memory import RvMemory


@dataclass
class RiscvCase:
    """One runnable RISC-V benchmark instance."""

    name: str
    program: RvProgram
    memory: RvMemory
    buffer_addresses: Dict[str, int]
    expected: Dict[str, np.ndarray]

    def run(self, check: bool = True, cpu: Optional[RiscvCpu] = None) -> Tuple[CpuStats, Dict[str, np.ndarray]]:
        """Execute the program; optionally verify the output buffers."""
        cpu = cpu or RiscvCpu(self.memory)
        if cpu.memory is not self.memory:
            raise SimulationError("the provided CPU must use this case's memory")
        stats = cpu.run(self.program)
        outputs: Dict[str, np.ndarray] = {}
        for name, expected in self.expected.items():
            observed = self.memory.read_buffer(self.buffer_addresses[name], len(expected))
            outputs[name] = observed
            if check:
                check_output(f"RISC-V program {self.name!r}", name, observed, expected)
        return stats, outputs


@dataclass(frozen=True)
class RiscvProgramSpec:
    """Registry entry for one RISC-V benchmark program."""

    name: str
    description: str
    build_case: Callable[[int, int], RiscvCase]
    paper_size: int

    def default_case(self, seed: int = 2022) -> RiscvCase:
        """Case at the RISC-V input size used in the paper (Table III)."""
        return self.build_case(self.paper_size, seed)


_REGISTRY: Dict[str, RiscvProgramSpec] = {}


def register_riscv_program(spec: RiscvProgramSpec) -> RiscvProgramSpec:
    """Add a program to the registry (called by the program modules)."""
    if spec.name in _REGISTRY:
        raise KernelError(f"RISC-V program {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def all_riscv_program_names() -> List[str]:
    """Registered program names in extended-table order (mirrors the GPU side)."""
    from repro.kernels.library import (
        DENSE_KERNEL_NAMES,
        EXTENDED_KERNEL_NAMES,
        PAPER_KERNEL_NAMES,
    )

    order = (
        list(PAPER_KERNEL_NAMES) + list(EXTENDED_KERNEL_NAMES) + list(DENSE_KERNEL_NAMES)
    )
    known = [name for name in order if name in _REGISTRY]
    extras = sorted(name for name in _REGISTRY if name not in order)
    return known + extras


def get_riscv_program_spec(name: str) -> RiscvProgramSpec:
    """Look a program up by name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise KernelError(
            f"unknown RISC-V program {name!r}; available: {sorted(_REGISTRY)}"
        ) from exc


def load_workload_into_memory(
    workload: GpuWorkload, memory_bytes: int = 32 * 1024
) -> Tuple[RvMemory, Dict[str, int]]:
    """Place a GPU workload's buffers into a fresh RISC-V data memory.

    Returns the memory and the base address of every buffer, in declaration
    order, mirroring what the host does for the G-GPU.
    """
    memory = RvMemory(memory_bytes)
    addresses: Dict[str, int] = {}
    for name, contents in workload.buffers.items():
        data = np.asarray(contents, dtype=np.int64) & 0xFFFFFFFF
        address = memory.allocate(len(data))
        memory.write_buffer(address, data)
        addresses[name] = address
    return memory, addresses
