"""In-memory span tracer for the benchmark's traced run.

The tracer wraps named entry points of the ``repro`` layers in timing spans
from outside the package: each target is replaced, where its caller looks it
up, by a wrapper that times the call.  Spans nest through a stack of
child-time accumulators, so every span name gets its call count, its total
time and its self time (total minus the time its child spans cover) without
storing one record per call -- the SIMT issue loop alone makes hundreds of
thousands of calls per pass.  Time spent in spans that have no parent is
summed as well, so the harness can attribute what is left of a pass to its
own code.

Tracing is installed for a traced pass and removed afterwards; untraced
passes run the unmodified package.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Tuple

#: (span name, module, dotted attribute) of every traced entry point.  A
#: function imported by name into another module is patched in the module
#: that calls it (``predecode_program`` is looked up in ``repro.simt.gpu``).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cl.compile", "repro.cl.compiler", "compile_source"),
    ("cl.codegen_ggpu", "repro.cl.compiler", "CLProgram.to_ggpu_kernel"),
    ("cl.codegen_riscv", "repro.cl.compiler", "CLProgram.to_riscv_case"),
    ("analysis.verify", "repro.cl.compiler", "CLProgram.analyze"),
    ("decode.predecode", "repro.simt.gpu", "predecode_program"),
    ("simt.launch", "repro.simt.gpu", "GGPUSimulator.launch"),
    ("simt.step", "repro.simt.cu", "ComputeUnit.step"),
    ("simt.select", "repro.simt.scheduler", "WavefrontScheduler.select"),
    (
        "simt.earliest_excluding",
        "repro.simt.scheduler",
        "WavefrontScheduler.earliest_ready_excluding",
    ),
    ("mem.coalesce", "repro.simt.cache", "DataCache.coalesce_lines"),
    ("mem.cache", "repro.simt.cache", "DataCache.access_sorted_lines"),
    ("mem.axi", "repro.simt.axi", "GlobalMemoryController.miss_burst"),
    ("mem.gmem_load", "repro.simt.memory", "GlobalMemory.load_words"),
    ("mem.gmem_store", "repro.simt.memory", "GlobalMemory.store_words"),
    ("riscv.run", "repro.riscv.cpu", "RiscvCpu.run"),
    ("riscv.predecode", "repro.riscv.cpu", "predecode_riscv_program"),
    ("runtime.enqueue", "repro.runtime.multidevice", "MultiDeviceQueue.enqueue"),
    ("runtime.flush", "repro.runtime.multidevice", "MultiDeviceQueue.flush"),
    ("runtime.finish", "repro.runtime.multidevice", "MultiDeviceQueue.finish"),
)


class SpanStats:
    """Call count, total time and child time of one span name."""

    __slots__ = ("calls", "total_s", "child_s")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Times the :data:`TARGETS` while installed (use as a context manager)."""

    def __init__(self) -> None:
        self.spans: Dict[str, SpanStats] = {name: SpanStats() for name, _, _ in TARGETS}
        self.root_s = 0.0
        self._stack: List[float] = []
        self._installed: List[Tuple[object, str, object]] = []

    def total(self, *names: str) -> float:
        return sum(self.spans[name].total_s for name in names)

    def self_time(self, *names: str) -> float:
        return sum(self.spans[name].self_s for name in names)

    def calls(self, name: str) -> int:
        return self.spans[name].calls

    def _wrap(self, name: str, function: Callable) -> Callable:
        stats = self.spans[name]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats.calls += 1
                stats.total_s += elapsed
                stats.child_s += stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer.root_s += elapsed

        return traced

    def __enter__(self) -> "Tracer":
        for name, module_name, attribute in TARGETS:
            owner: object = importlib.import_module(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            # The raw class-dict entry (not the bound lookup) is what gets
            # restored, so an inherited or plain function comes back as-is.
            original = vars(owner)[leaf]
            self._installed.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(name, original))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._installed:
            owner, leaf, original = self._installed.pop()
            setattr(owner, leaf, original)
