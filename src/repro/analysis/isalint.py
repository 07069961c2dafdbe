"""Level-2 lint over assembled G-GPU kernels.

Works on the resolved :class:`~repro.arch.assembler.Program` (branch targets
are absolute instruction addresses after assembly), so it covers hand-written
kernels the CL front end never sees.  Checks:

* **ISA001** — register use-before-def: a may/must-defined dataflow over the
  CFG; reading a register no path ever wrote is an error, reading one that
  only *some* paths wrote is a warning.
* **ISA002** — ``BARRIER`` while the execution-mask stack is non-empty: under
  a ``PUSHM``/``CMASK`` region some lanes are masked off, so a wavefront with
  an empty mask (or a ``BEMPTY`` skip) would never reach the barrier other
  wavefronts wait at.
* **ISA003** — LRAM accesses outside the kernel's declared
  ``local_words`` window (byte addresses; provable violations are errors).
* **ISA004** — unreachable blocks.
* **ISA005** — converging forward paths that executed different numbers of
  ``BARRIER`` instructions (the skip-a-barrier divergence hazard).
* **ISA006** — mask-stack imbalance: ``POPM`` with an empty stack, paths that
  join at different depths, or a ``RET`` at non-zero depth.
* **ISA007** — execution can fall off the end of a block with no successor
  and no ``RET``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import AnalysisReport, Severity
from repro.arch.isa import NUM_REGISTERS, Instruction, Opcode
from repro.arch.kernel import Kernel

_BRANCHES = {Opcode.JMP, Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BEMPTY}
_CONDITIONAL = {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BEMPTY}


@dataclass
class _Block:
    """One basic block: instruction index range plus CFG edges."""

    start: int
    end: int  # exclusive
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)


def _instruction_uses(instruction: Instruction) -> List[int]:
    uses: List[int] = []
    info = instruction.opcode.info
    if info.has_rs and instruction.rs is not None:
        uses.append(int(instruction.rs))
    if info.has_rt and instruction.rt is not None:
        uses.append(int(instruction.rt))
    return uses


def _instruction_def(instruction: Instruction) -> Optional[int]:
    if instruction.opcode.info.has_rd and instruction.rd is not None:
        return int(instruction.rd)
    return None


def _build_blocks(instructions: List[Instruction]) -> Dict[int, _Block]:
    leaders: Set[int] = {0}
    for index, instruction in enumerate(instructions):
        if instruction.opcode in _BRANCHES and instruction.imm is not None:
            leaders.add(instruction.imm)
        if instruction.opcode in _BRANCHES or instruction.opcode is Opcode.RET:
            if index + 1 < len(instructions):
                leaders.add(index + 1)
    starts = sorted(leader for leader in leaders if leader < len(instructions))
    blocks: Dict[int, _Block] = {}
    for position, start in enumerate(starts):
        end = starts[position + 1] if position + 1 < len(starts) else len(instructions)
        blocks[start] = _Block(start=start, end=end)
    for block in blocks.values():
        last = instructions[block.end - 1]
        if last.opcode is Opcode.RET:
            continue
        if last.opcode in _BRANCHES and last.imm is not None and last.imm in blocks:
            block.succs.append(last.imm)
        if (last.opcode in _CONDITIONAL or last.opcode not in _BRANCHES) and block.end < len(
            instructions
        ):
            block.succs.append(block.end)
    for block in blocks.values():
        for succ in block.succs:
            blocks[succ].preds.append(block.start)
    return blocks


class _KernelLinter:
    def __init__(self, kernel: Kernel, report: AnalysisReport) -> None:
        self.kernel = kernel
        self.report = report
        self.instructions = list(kernel.program.instructions)
        self.blocks = _build_blocks(self.instructions)
        self.reachable = self._reachable_blocks()

    def _emit(self, check: str, severity: Severity, message: str, address: int) -> None:
        self.report.add(
            check, severity, message, kernel=self.kernel.name, address=address
        )

    def _reachable_blocks(self) -> Set[int]:
        seen: Set[int] = set()
        stack = [0] if self.blocks else []
        while stack:
            start = stack.pop()
            if start in seen:
                continue
            seen.add(start)
            stack.extend(self.blocks[start].succs)
        return seen

    # ------------------------------------------------------------------ #
    def run(self) -> None:
        if not self.instructions:
            self._emit("ISA007", Severity.ERROR, "program is empty", 0)
            return
        self._check_unreachable()
        self._check_termination()
        self._check_registers()
        self._check_mask_depth_and_barriers()
        self._check_lram()

    def _check_unreachable(self) -> None:
        for start in sorted(self.blocks):
            if start not in self.reachable:
                block = self.blocks[start]
                self._emit(
                    "ISA004",
                    Severity.WARNING,
                    f"instructions {block.start}..{block.end - 1} are unreachable",
                    block.start,
                )

    def _check_termination(self) -> None:
        for start in sorted(self.reachable):
            block = self.blocks[start]
            last = self.instructions[block.end - 1]
            if not block.succs and last.opcode is not Opcode.RET:
                self._emit(
                    "ISA007",
                    Severity.ERROR,
                    f"execution falls off the end of the program after "
                    f"'{last.text()}' without RET",
                    block.end - 1,
                )

    # ------------------------------------------------------------------ #
    def _check_registers(self) -> None:
        """May/must-defined dataflow; flags reads of undefined registers."""
        all_regs = frozenset(range(NUM_REGISTERS))
        must_in: Dict[int, Set[int]] = {}
        may_in: Dict[int, Set[int]] = {}
        for start in self.reachable:
            must_in[start] = set(all_regs) if start != 0 else {0}
            may_in[start] = {0}

        def transfer(defined: Set[int], block: _Block) -> Set[int]:
            out = set(defined)
            for index in range(block.start, block.end):
                target = _instruction_def(self.instructions[index])
                if target is not None:
                    out.add(target)
            return out

        changed = True
        while changed:
            changed = False
            for start in sorted(self.reachable):
                if start == 0:
                    continue  # entry facts are fixed: only r0 is defined
                block = self.blocks[start]
                preds = [p for p in block.preds if p in self.reachable]
                if preds:
                    new_must = set.intersection(
                        *(transfer(must_in[p], self.blocks[p]) for p in preds)
                    ) | {0}
                    new_may = set.union(
                        *(transfer(may_in[p], self.blocks[p]) for p in preds)
                    ) | {0}
                    if new_must != must_in[start] or new_may != may_in[start]:
                        must_in[start], may_in[start] = new_must, new_may
                        changed = True

        flagged: Set[Tuple[int, int]] = set()
        for start in sorted(self.reachable):
            block = self.blocks[start]
            must, may = set(must_in[start]), set(may_in[start])
            for index in range(block.start, block.end):
                instruction = self.instructions[index]
                for register in _instruction_uses(instruction):
                    if register == 0 or (index, register) in flagged:
                        continue
                    if register not in may:
                        flagged.add((index, register))
                        self._emit(
                            "ISA001",
                            Severity.ERROR,
                            f"r{register} is read by '{instruction.text()}' but "
                            "never written on any path to this point",
                            index,
                        )
                    elif register not in must:
                        flagged.add((index, register))
                        self._emit(
                            "ISA001",
                            Severity.WARNING,
                            f"r{register} read by '{instruction.text()}' is not "
                            "written on every path to this point",
                            index,
                        )
                target = _instruction_def(instruction)
                if target is not None:
                    must.add(target)
                    may.add(target)

    # ------------------------------------------------------------------ #
    def _check_mask_depth_and_barriers(self) -> None:
        """Mask-stack balance (ISA006), barriers under masks (ISA002), and
        barrier-count consistency over forward paths (ISA005)."""
        depth_in: Dict[int, Optional[int]] = {start: None for start in self.reachable}
        depth_in[0] = 0
        mismatch_reported: Set[int] = set()
        worklist = [0]
        while worklist:
            start = worklist.pop()
            depth = depth_in[start]
            if depth is None:
                continue
            block = self.blocks[start]
            for index in range(block.start, block.end):
                opcode = self.instructions[index].opcode
                if opcode is Opcode.PUSHM:
                    depth += 1
                elif opcode is Opcode.POPM:
                    depth -= 1
                    if depth < 0 and start not in mismatch_reported:
                        mismatch_reported.add(start)
                        self._emit(
                            "ISA006",
                            Severity.ERROR,
                            "POPM with an empty execution-mask stack",
                            index,
                        )
                        depth = 0
                elif opcode is Opcode.BARRIER and depth > 0:
                    self._emit(
                        "ISA002",
                        Severity.ERROR,
                        f"BARRIER under a non-empty execution-mask stack "
                        f"(depth {depth}): masked-off or empty wavefronts "
                        "never reach it",
                        index,
                    )
                elif opcode is Opcode.RET and depth != 0:
                    self._emit(
                        "ISA006",
                        Severity.ERROR,
                        f"RET with {depth} unpopped execution-mask frame(s)",
                        index,
                    )
            for succ in block.succs:
                if depth_in[succ] is None:
                    depth_in[succ] = depth
                    worklist.append(succ)
                elif depth_in[succ] != depth and succ not in mismatch_reported:
                    mismatch_reported.add(succ)
                    self._emit(
                        "ISA006",
                        Severity.ERROR,
                        f"execution-mask depth differs between paths converging at "
                        f"instruction {succ} ({depth_in[succ]} vs {depth})",
                        succ,
                    )
        self._check_barrier_counts()

    def _check_barrier_counts(self) -> None:
        """Forward-path barrier counts must agree wherever paths converge."""
        counts_in: Dict[int, Set[int]] = {start: set() for start in self.reachable}
        counts_in[0] = {0}
        flagged = False
        for start in sorted(self.reachable):
            block = self.blocks[start]
            if not counts_in[start]:
                counts_in[start] = {0}  # loop body entered only via a back edge
            if len(counts_in[start]) > 1 and not flagged:
                flagged = True
                observed = sorted(counts_in[start])
                self._emit(
                    "ISA005",
                    Severity.ERROR,
                    f"paths converging at instruction {start} executed different "
                    f"numbers of BARRIERs ({observed}): a skipped barrier "
                    "deadlocks the workgroup",
                    start,
                )
            barriers = sum(
                1
                for index in range(block.start, block.end)
                if self.instructions[index].opcode is Opcode.BARRIER
            )
            counts_out = {count + barriers for count in counts_in[start]}
            for succ in block.succs:
                if succ > start:  # forward edges only; loop bodies repeat evenly
                    counts_in[succ] |= counts_out

    # ------------------------------------------------------------------ #
    def _check_lram(self) -> None:
        """LRAM accesses against the declared per-workgroup window."""
        window_bytes = self.kernel.local_words * 4
        for start in sorted(self.reachable):
            block = self.blocks[start]
            known: Dict[int, int] = {0: 0}
            for index in range(block.start, block.end):
                instruction = self.instructions[index]
                opcode = instruction.opcode
                if opcode in (Opcode.LLW, Opcode.LSW):
                    offset = instruction.imm or 0
                    base = known.get(int(instruction.rs)) if instruction.rs is not None else None
                    if window_bytes == 0:
                        self._emit(
                            "ISA003",
                            Severity.ERROR,
                            f"'{instruction.text()}' accesses LRAM but the kernel "
                            "declares no __local storage (local_words == 0)",
                            index,
                        )
                    elif base is not None:
                        address = base + offset
                        if address < 0 or address + 4 > window_bytes:
                            self._emit(
                                "ISA003",
                                Severity.ERROR,
                                f"'{instruction.text()}' accesses LRAM byte "
                                f"{address}, outside the {window_bytes}-byte "
                                f"window (local_words={self.kernel.local_words})",
                                index,
                            )
                    elif offset < 0 or offset + 4 > window_bytes:
                        self._emit(
                            "ISA003",
                            Severity.WARNING,
                            f"'{instruction.text()}' adds immediate offset {offset} "
                            f"to a runtime base; the {window_bytes}-byte LRAM "
                            "window cannot contain it for any non-negative base",
                            index,
                        )
                target = _instruction_def(instruction)
                if target is not None and target != 0:
                    value = self._fold_constant(instruction, known)
                    if value is None:
                        known.pop(target, None)
                    else:
                        known[target] = value

    @staticmethod
    def _fold_constant(instruction: Instruction, known: Dict[int, int]) -> Optional[int]:
        opcode = instruction.opcode
        if opcode is Opcode.LI:
            return instruction.imm or 0
        source = known.get(int(instruction.rs)) if instruction.rs is not None else None
        if source is None or instruction.imm is None:
            return None
        if opcode is Opcode.ADDI:
            return source + instruction.imm
        if opcode is Opcode.SLLI:
            return source << (instruction.imm & 0x1F)
        return None


def lint_kernel(kernel: Kernel) -> AnalysisReport:
    """Run all ISA-level checks over one assembled kernel."""
    report = AnalysisReport()
    _KernelLinter(kernel, report).run()
    return report


def verify_kernel_or_raise(kernel: Kernel) -> AnalysisReport:
    """Lint a kernel and raise :class:`KernelError` on error findings.

    This is the opt-in gate behind ``GGPUSimulator.launch(verify=True)``;
    warnings and infos pass.
    """
    from repro.errors import KernelError

    report = lint_kernel(kernel)
    if not report.clean:
        preview = "; ".join(finding.render() for finding in report.errors[:3])
        raise KernelError(
            f"kernel {kernel.name!r} failed ISA verification with "
            f"{len(report.errors)} error-severity finding(s): {preview}"
        )
    return report
