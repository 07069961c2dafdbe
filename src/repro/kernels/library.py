"""Kernel registry and workload plumbing shared by the benchmark suite.

Each benchmark module registers a :class:`KernelSpec` describing how to build
its G-GPU kernel, how to generate a workload of a given size, and the default
sizes used by the paper (Table III lists separate input sizes for the RISC-V
and the G-GPU runs).  :func:`run_workload` is the host-side glue: it allocates
buffers on a simulator, launches the kernel, checks the outputs against the
numpy reference, and returns the launch statistics.  :func:`check_output` is
the one output check every harness uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.arch.kernel import Kernel, NDRange
from repro.errors import KernelError
from repro.simt.gpu import GGPUSimulator, LaunchResult


@dataclass
class GpuWorkload:
    """Host-side description of one kernel launch.

    Attributes
    ----------
    buffers:
        Name to initial contents for every global-memory buffer argument
        (outputs are usually zero-filled).
    scalars:
        Name to value for every scalar argument.
    expected:
        Name to expected final contents for the buffers that the kernel
        writes; used to verify functional correctness.
    ndrange:
        Launch geometry.
    """

    buffers: Dict[str, np.ndarray]
    scalars: Dict[str, int]
    expected: Dict[str, np.ndarray]
    ndrange: NDRange


@dataclass(frozen=True)
class KernelSpec:
    """Registry entry for one benchmark kernel."""

    name: str
    description: str
    build: Callable[[], Kernel]
    workload: Callable[[int, int], GpuWorkload]
    paper_gpu_size: int
    paper_riscv_size: int
    #: Smallest input-size step ``workload`` accepts.  64 (one wavefront) for
    #: every 1-D kernel; the rank-2 dense workloads need a full workgroup
    #: grid row, e.g. 128 for matmul2d's (8, 8) workgroups over 16 columns.
    size_granularity: int = 64

    def default_workload(self, seed: int = 2022) -> GpuWorkload:
        """Workload at the G-GPU input size used in the paper."""
        return self.workload(self.paper_gpu_size, seed)


_REGISTRY: Dict[str, KernelSpec] = {}


def register_kernel(spec: KernelSpec) -> KernelSpec:
    """Add a kernel to the global registry (called by the benchmark modules)."""
    if spec.name in _REGISTRY:
        raise KernelError(f"kernel {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


# The paper's seven Table III kernels, in table order.
PAPER_KERNEL_NAMES: Tuple[str, ...] = (
    "mat_mul",
    "copy",
    "vec_mul",
    "fir",
    "div_int",
    "xcorr",
    "parallel_sel",
)

# The six extended-suite kernels added on top of the paper's table, in the
# order the extended Table III lists them.
EXTENDED_KERNEL_NAMES: Tuple[str, ...] = (
    "saxpy",
    "dot",
    "reduce_sum",
    "inclusive_scan",
    "histogram",
    "transpose",
)

# The dense workloads added with rank-2 NDRange support: tiled GEMM and a 3x3
# stencil on 2-D launches, plus the in-LRAM bitonic sorting network.
DENSE_KERNEL_NAMES: Tuple[str, ...] = (
    "matmul2d",
    "conv2d",
    "bitonic_sort",
)


def all_kernel_names() -> List[str]:
    """Names of all registered benchmark kernels, in extended-table order."""
    order = (
        list(PAPER_KERNEL_NAMES) + list(EXTENDED_KERNEL_NAMES) + list(DENSE_KERNEL_NAMES)
    )
    known = [name for name in order if name in _REGISTRY]
    extras = sorted(name for name in _REGISTRY if name not in order)
    return known + extras


def get_kernel_spec(name: str) -> KernelSpec:
    """Look a benchmark kernel up by name."""
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise KernelError(
            f"unknown kernel {name!r}; available: {sorted(_REGISTRY)}"
        ) from exc


def check_output(
    producer: str, output: str, observed: np.ndarray, expected: Sequence[int]
) -> None:
    """Raise :class:`KernelError` unless ``observed`` equals ``expected`` as u32.

    The error names the ``producer``, the ``output`` and how many words are
    wrong.
    """
    expected_u32 = np.asarray(expected, dtype=np.int64) & 0xFFFFFFFF
    wrong = int(np.count_nonzero(np.asarray(observed, dtype=np.int64) != expected_u32))
    if wrong:
        raise KernelError(f"{producer} produced {wrong} wrong values in {output!r}")


def run_workload(
    simulator: GGPUSimulator,
    kernel: Kernel,
    workload: GpuWorkload,
    check: bool = True,
) -> Tuple[LaunchResult, Dict[str, np.ndarray]]:
    """Allocate buffers, launch the kernel, and (optionally) verify outputs.

    Returns the launch result and the final contents of every buffer listed in
    ``workload.expected``.
    """
    addresses: Dict[str, int] = {}
    args: Dict[str, int] = {}
    for name, contents in workload.buffers.items():
        address = simulator.create_buffer(np.asarray(contents, dtype=np.int64) & 0xFFFFFFFF)
        addresses[name] = address
        args[name] = address
    args.update({name: int(value) for name, value in workload.scalars.items()})

    result = simulator.launch(kernel, workload.ndrange, args)

    outputs: Dict[str, np.ndarray] = {}
    for name, expected in workload.expected.items():
        if name not in addresses:
            raise KernelError(f"expected output {name!r} is not a buffer argument")
        observed = simulator.read_buffer(addresses[name], len(expected))
        outputs[name] = observed
        if check:
            check_output(f"kernel {kernel.name!r}", name, observed, expected)
    return result, outputs


def pick_pow2_workgroup_size(global_size: int, preferred: int = 256) -> int:
    """Largest power-of-two workgroup size (>= 64, <= preferred) dividing ``global_size``.

    The workgroup-cooperative kernels (tree reductions, Hillis-Steele scans)
    need a power-of-two group so their stride loops cover every lane.
    """
    candidate = 256
    while candidate > preferred or candidate > global_size or global_size % candidate:
        candidate //= 2
        if candidate < 64:
            raise KernelError(
                f"global size {global_size} is not a multiple of the 64-lane wavefront"
            )
    return candidate


def pick_workgroup_size(global_size: int, preferred: int = 256) -> int:
    """Largest workgroup size (multiple of 64, <= preferred) dividing ``global_size``."""
    candidate = min(preferred, global_size)
    while candidate >= 64:
        if global_size % candidate == 0 and candidate % 64 == 0:
            return candidate
        candidate -= 64
    if global_size % 64 == 0:
        return 64
    raise KernelError(
        f"global size {global_size} is not a multiple of the 64-lane wavefront"
    )
