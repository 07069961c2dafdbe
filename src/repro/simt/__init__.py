"""Cycle-approximate functional simulator of the G-GPU.

This package is the stand-in for the FGPU RTL running on an FPGA or as an
ASIC: it executes SIMT kernel programs functionally (so results can be checked
against reference implementations) while tracking cycle counts with a timing
model that reflects the paper's architecture:

* each Compute Unit streams 64-lane wavefronts through 8 Processing Elements
  (8 cycles of PE-array occupancy per wavefront instruction),
* up to 8 wavefronts (512 work-items) are resident per CU and hide memory
  latency from one another,
* all CUs share one central direct-mapped write-back data cache and a global
  memory controller whose AXI data ports bound the off-chip bandwidth, which
  is what limits scaling from 4 to 8 CUs on memory-bound kernels,
* full thread divergence is supported through an execution-mask stack; a
  divergent wavefront still occupies the full PE-array slot, which is why
  control-divergent kernels (div_int, xcorr, parallel_sel) show poor speed-ups.

Simulator internals
-------------------
The engine is event driven rather than instruction-at-a-time:

* **Ordering only shared events.**  A CU's events touch only its own state
  unless they start with a global load or store (the central cache and the
  AXI ports) or a RET (the workgroup dispatcher).  ``GGPUSimulator._run``
  keeps a heap of ``(next_event_time, cu_index)`` entries, and the popped CU
  issues its events back to back in one ``ComputeUnit.step`` call: every
  private event, and each shared one whose ``(time, index)`` comes before
  the heap top's.  Shared events thus keep the order of one global event
  heap, bit-exactly (``tests/test_simt_golden.py`` pins it against a
  reference that orders every event).
* **Sorted scheduler state.**  Each ``WavefrontScheduler`` keeps its
  residents sorted by ready time behind the last pick, so the earliest ready
  time is the smaller of the first two, and round robin is a cyclic key per
  resident with a pointer past the last pick.  ``ComputeUnit.step`` takes
  the head inline when it is the only ready resident (96% of picks in the
  Table III sweep) and leaves ties to ``WavefrontScheduler.pick``.
* **Pre-decoded programs.**  ``repro.simt.decode`` resolves each instruction
  once per launch into one tuple (dispatch kind, plain-int operands,
  pre-looked-up latency/occupancy, masked immediates, resolved ALU
  callables); all CUs share the decode.
* **Macro-stepping.**  An event keeps issuing for the same wavefront while
  the next instruction is *macro-safe* (ALU/MUL/DIV, SPECIAL, PARAM, LOCAL,
  MASK) and the wavefront stays strictly ahead of every other unfinished
  resident; this is cycle-exact and pinned against a test-local
  single-step reference and the Table III goldens.
* **Posted stores.**  Global-memory stores never stall the issuing wavefront
  beyond the fixed store pipeline latency; their line traffic still claims
  AXI port time.  See the ``repro.simt.cu`` module docstring for the
  rationale.
* **Accounted memory maintenance.**  The end-of-kernel cache flush drains
  dirty lines through the global memory controller (posted, so it adds AXI
  traffic but not cycles), cache hit latency and per-cycle port width come
  from ``CacheConfig``, and accesses touching more lines than the cache has
  ports are serialized one ``ports``-wide wave per cycle.  The AXI ports are
  interchangeable, so their free times are kept as a heap, and a burst that
  saturates them is charged in closed form.
"""

from repro.simt.memory import GlobalMemory, RuntimeMemory, LocalMemory
from repro.simt.cache import DataCache, CacheStats
from repro.simt.axi import GlobalMemoryController
from repro.simt.wavefront import Wavefront
from repro.simt.decode import DecodedProgram, predecode_program
from repro.simt.dispatcher import WorkgroupDispatcher
from repro.simt.scheduler import WavefrontScheduler
from repro.simt.cu import ComputeUnit
from repro.simt.trace import KernelRunStats, InstructionMix
from repro.simt.gpu import GGPUSimulator, LaunchResult

__all__ = [
    "DecodedProgram",
    "predecode_program",
    "GlobalMemory",
    "RuntimeMemory",
    "LocalMemory",
    "DataCache",
    "CacheStats",
    "GlobalMemoryController",
    "Wavefront",
    "WorkgroupDispatcher",
    "WavefrontScheduler",
    "ComputeUnit",
    "KernelRunStats",
    "InstructionMix",
    "GGPUSimulator",
    "LaunchResult",
]
