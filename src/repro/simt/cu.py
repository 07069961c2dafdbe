"""Compute Unit: a SIMD machine of 8 Processing Elements.

The CU is both the functional and the timing heart of the simulator.  Each
*scheduling event* issues at least one instruction of one ready resident
wavefront:

* the instruction executes functionally for the active lanes
  (:mod:`repro.simt.pe`); a register whose lanes all hold one value is kept
  as one Python int, and one whose lanes count up by a fixed stride as an
  ``Affine`` ramp (:mod:`repro.simt.registers`), so uniform work and address
  arithmetic cost scalar arithmetic instead of 64-lane numpy operations,
  and a ramp of addresses reaches the cache and memory as arithmetic and
  slices,
* vector instructions occupy the shared PE array for
  ``wavefront_size / pes_per_cu`` cycles (8 cycles for the default 64-lane
  wavefront on 8 PEs),
* loads and stores go through the shared data cache; misses and dirty
  write-backs are turned into AXI transactions by the global memory
  controller, whose port contention is what limits multi-CU scaling,
* the issuing wavefront becomes ready again after the instruction's latency,
  so other resident wavefronts can hide that latency.

Private and shared events
-------------------------
An event that starts with a global load or store (the central cache and the
AXI ports) or a RET (the workgroup dispatcher) is *shared*; every other
event reads and writes only its own CU's wavefronts, PE array, LRAM and
barrier waiters, and is *private*.  :meth:`ComputeUnit.step` issues one CU's
events back to back: every private event, and each shared one up to the
time limit the simulator passes (see :mod:`repro.simt.gpu`).  A CU's event
times never decrease, so when it stops before a shared event it has issued
everything that comes earlier.

Macro-stepping
--------------
An event keeps issuing for the same wavefront while (a) the next instruction
is macro-safe (ALU/MUL/DIV, SPECIAL, PARAM, LOCAL or MASK: straight-line
private work) and (b) the wavefront stays strictly ahead of every other
unfinished resident, so no other wavefront could have issued in between.
The per-instruction statistics are counted per PC and folded at launch
end (:meth:`ComputeUnit.fold_issue_counts`); only ``issue_events`` is per
event, so no other statistic depends on how instructions are folded into
events.  The regression tests pin this against a single-step reference that
decodes every instruction as not macro-safe, so each event is one
instruction.

Posted stores
-------------
Global-memory stores are *posted*: the issuing wavefront only waits out the
fixed ``TimingModel.store_latency`` pipeline latency and never stalls on the
store's cache outcome, while the store's line traffic (write-allocate fills
and dirty evictions) still claims AXI port time and therefore delays later
fills.  This matches the FGPU's write-back data movers, which complete stores
in the background.  Stalling the wavefront on store-miss port contention was
rejected because no later instruction depends on a store result, so the
stall would model latency the hardware does not expose.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.config import GGPUConfig
from repro.arch.assembler import Program
from repro.errors import SimulationError
from repro.simt.axi import GlobalMemoryController
from repro.simt.cache import DataCache
from repro.simt.decode import (
    DecodedProgram,
    P_CLASS_KEY,
    P_FN,
    P_IMM,
    P_KIND,
    P_MACRO_SAFE,
    P_RD,
    P_RS,
    P_RT,
    P_USES_PE,
    K_ALU_BIN,
    K_ALU_CONST,
    K_ALU_IMM,
    K_BCOND,
    K_BEMPTY,
    K_CMASK,
    K_INVM,
    K_JMP,
    K_LOAD,
    K_LOCAL_LOAD,
    K_LOCAL_STORE,
    K_PARAM,
    K_POPM,
    K_PUSHM,
    K_RET,
    K_SPECIAL,
    K_STORE,
    K_SYNC,
    B_EQ,
    B_NE,
    B_LT,
    predecode_program,
)
from repro.arch.isa import Opcode
from repro.simt.memory import Addresses, GlobalMemory, LocalMemory, RuntimeMemory
from repro.simt.registers import (
    WORD_MASK,
    Affine,
    RegisterValue,
    expand_ramp,
    lane_vector,
    merge_lanes,
)
from repro.simt.scheduler import WavefrontScheduler
from repro.simt.timing import TimingModel
from repro.simt.trace import ComputeUnitStats, InstructionMix
from repro.simt.wavefront import Wavefront

_INFINITY = float("inf")

#: Instruction kinds that start a shared event: global loads and stores, and
#: RET, whose refill order decides wavefront ids and workgroup placement.
SHARED_KINDS = frozenset((K_LOAD, K_STORE, K_RET))


def lram_slot_geometry(config: GGPUConfig, workgroup_size: int):
    """LRAM partitioning for one launch geometry: ``(num_slots, slot_words)``.

    A CU can host ``max_wavefronts_per_cu // wavefronts_per_workgroup``
    workgroups at once, and each concurrently resident workgroup owns an
    equal, private window of the CU's LRAM.  This is what makes ``__local``
    data per-workgroup (OpenCL semantics) instead of CU-global: two
    co-resident workgroups that both address ``lram[lid]`` can no longer
    clobber each other's scratch values.
    """
    wavefronts_per_wg = max(1, workgroup_size // config.wavefront_size)
    num_slots = max(1, config.max_wavefronts_per_cu // wavefronts_per_wg)
    return num_slots, config.lram_words_per_cu // num_slots


def _lram_ramp(addresses: Affine, window: int, period: int) -> Optional[range]:
    """The LRAM words of a ramp of byte addresses, as a lane-ordered range.

    Lane ``i`` reads word ``window + (address_i >> 2) % period``.  With a
    word-multiple stride and no wrap past 2**32 the words before the modulo
    are ``base >> 2`` plus ``stride >> 2`` per lane, and when they all stay
    inside one period the modulo subtracts the same multiple of ``period``
    from each.  Any other ramp gives ``None``.
    """
    stride = addresses.stride
    last = addresses.last
    if stride & 3 or not 0 <= last <= WORD_MASK:
        return None
    first_word = addresses.base >> 2
    block = first_word // period
    if (last >> 2) // period != block:
        return None
    start = window + first_word - block * period
    step = stride >> 2
    return range(start, start + step * addresses.lanes, step)


class ComputeUnit:
    """One Compute Unit of the G-GPU."""

    def __init__(
        self,
        cu_id: int,
        config: GGPUConfig,
        cache: DataCache,
        memory_controller: GlobalMemoryController,
        global_memory: GlobalMemory,
        timing: Optional[TimingModel] = None,
    ) -> None:
        self.cu_id = cu_id
        self.config = config
        self.cache = cache
        self.memory_controller = memory_controller
        self.global_memory = global_memory
        self.timing = timing or TimingModel()
        self.local_memory = LocalMemory(config.lram_words_per_cu)
        self.scheduler = WavefrontScheduler()
        self.array_free_time = 0.0
        self.stats = ComputeUnitStats(cu_id, wavefront_size=config.wavefront_size)
        self._program: Optional[DecodedProgram] = None
        self._rtm: Optional[RuntimeMemory] = None
        self._barrier_waiters: Dict[int, List[Wavefront]] = {}
        self._held: Optional[Tuple[Wavefront, float]] = None  # see step()
        self._issue_counts: List[int] = []  # per PC; see fold_issue_counts()
        self._lane_deficit = 0
        self._occupancy = config.lanes_rounds_per_wavefront
        self._cache_ports = config.cache.ports
        self._lram_words = config.lram_words_per_cu
        self._use_lram_windows = False
        self._wg_lram_base: Dict[int, int] = {}
        self._wg_live_wavefronts: Dict[int, int] = {}
        self._free_lram_slots: Optional[List[int]] = None
        self._slot_words = self._lram_words

    # ------------------------------------------------------------------ #
    # Launch management
    # ------------------------------------------------------------------ #
    def bind(
        self,
        program: Program,
        rtm: RuntimeMemory,
        decoded: Optional[DecodedProgram] = None,
        local_words: int = 0,
    ) -> None:
        """Attach the kernel program and runtime memory for a new launch.

        ``decoded`` lets the simulator share one pre-decoded program across
        all CUs; when omitted the CU decodes the program itself.
        ``local_words`` is the kernel's declared per-workgroup ``__local``
        footprint: when non-zero, every resident workgroup gets a private
        LRAM window (and the window supply limits workgroup occupancy, the
        way local-memory usage limits occupancy on real GPUs).  Kernels that
        declare no local memory keep the historical CU-global LRAM
        addressing.
        """
        if decoded is None:
            decoded = predecode_program(program, self.timing)
        if decoded.max_register >= self.config.num_registers:
            raise SimulationError(
                f"kernel {decoded.name!r} uses register r{decoded.max_register} but the "
                f"register file holds only {self.config.num_registers} registers"
            )
        self._program = decoded
        self._rtm = rtm
        self.array_free_time = 0.0
        self.scheduler = WavefrontScheduler()
        self.stats = ComputeUnitStats(self.cu_id, wavefront_size=self.config.wavefront_size)
        self._barrier_waiters = {}
        self._held = None
        self._issue_counts = [0] * len(decoded.ops)
        self._lane_deficit = 0
        self.local_memory = LocalMemory(self.config.lram_words_per_cu)
        # Per-workgroup LRAM windows (see lram_slot_geometry): slot geometry
        # is fixed by the first admitted workgroup's size, bases are assigned
        # per resident workgroup and recycled when its wavefronts retire.
        self._use_lram_windows = local_words > 0
        self._wg_lram_base: Dict[int, int] = {}
        self._wg_live_wavefronts: Dict[int, int] = {}
        self._free_lram_slots: Optional[List[int]] = None
        self._slot_words = self._lram_words

    def admit(self, wavefronts: List[Wavefront]) -> None:
        """Accept newly dispatched wavefronts (assigning LRAM windows)."""
        if self._program is None:
            raise SimulationError("compute unit has no program bound")
        if len(self.scheduler) + len(wavefronts) > self.config.max_wavefronts_per_cu:
            raise SimulationError(
                f"CU {self.cu_id} cannot host {len(wavefronts)} more wavefronts"
            )
        if self._use_lram_windows:
            for wavefront in wavefronts:
                workgroup = wavefront.workgroup_id
                if workgroup not in self._wg_lram_base:
                    if self._free_lram_slots is None:
                        num_slots, self._slot_words = lram_slot_geometry(
                            self.config, wavefront.ndrange.workgroup_size
                        )
                        # pop() hands out slot 0 first, matching dispatch order.
                        self._free_lram_slots = list(range(num_slots - 1, -1, -1))
                    if not self._free_lram_slots:
                        raise SimulationError(
                            f"CU {self.cu_id} has no free LRAM window for workgroup {workgroup}"
                        )
                    self._wg_lram_base[workgroup] = (
                        self._free_lram_slots.pop() * self._slot_words
                    )
                    self._wg_live_wavefronts[workgroup] = 0
                self._wg_live_wavefronts[workgroup] += 1
        self.scheduler.add_all(wavefronts)

    def has_free_lram_window(self) -> bool:
        """Whether another workgroup could get an LRAM window right now.

        Always true for kernels without ``__local`` data; for local-memory
        kernels the window supply is the occupancy limit the dispatcher must
        respect before offering this CU another workgroup.
        """
        if not self._use_lram_windows or self._free_lram_slots is None:
            return True
        return bool(self._free_lram_slots)

    def _release_workgroup(self, workgroup: int) -> None:
        """Recycle a retired workgroup's LRAM window."""
        if not self._use_lram_windows:
            return
        remaining = self._wg_live_wavefronts[workgroup] - 1
        if remaining:
            self._wg_live_wavefronts[workgroup] = remaining
            return
        base = self._wg_lram_base.pop(workgroup)
        del self._wg_live_wavefronts[workgroup]
        self._free_lram_slots.append(base // self._slot_words)

    @property
    def resident_wavefronts(self) -> int:
        """Number of wavefronts currently resident (finished ones excluded)."""
        return self.scheduler.active_count()

    @property
    def busy(self) -> bool:
        """Whether any resident wavefront still has work."""
        return self.scheduler.active_count() > 0

    @property
    def parked_workgroups(self) -> List[int]:
        """Workgroups with wavefronts waiting at a barrier, ascending."""
        return sorted(self._barrier_waiters)

    def next_event_time(self) -> float:
        """Time at which this CU can issue its next instruction."""
        return self.scheduler.earliest_ready()

    def fold_issue_counts(self) -> None:
        """Charge the launch's issues to :attr:`stats` (the launch calls it).

        :meth:`step` counts each issued instruction at its PC, and the lanes
        a partially active issue leaves idle as a deficit.  The fold turns
        them into the instruction count, the busy cycles (each op's static
        occupancy), the class mix and the active lanes; ``issue_events`` and
        ``wavefronts_executed`` are charged by :meth:`step` itself.
        """
        stats = self.stats
        counts = self._issue_counts
        mix: Dict[str, int] = {}
        busy_cycles = 0
        for op, count in zip(self._program.ops, counts):
            if count:
                busy_cycles += count * (self._occupancy if op[P_USES_PE] else 1)
                key = op[P_CLASS_KEY]
                mix[key] = mix.get(key, 0) + count
        issued = sum(counts)
        stats.instructions_issued = issued
        stats.busy_cycles = float(busy_cycles)
        stats.mix = InstructionMix(mix)
        stats.active_lane_issues = issued * self.config.wavefront_size - self._lane_deficit

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def step(
        self,
        now: Optional[float] = None,
        limit: float = _INFINITY,
        max_events: int = 1,
    ) -> List[Wavefront]:
        """Issue this CU's events back to back; return the retired wavefronts.

        Events start at the CU's earliest ready time ``now``.  Private events
        are always issued, a shared one (:data:`SHARED_KINDS`) only at a time
        ``<= limit``.  The loop stops before a later shared event, after
        ``max_events`` events, after a retirement, or when no resident is
        ready.  The defaults issue exactly one event.
        """
        program = self._program
        if program is None or self._rtm is None:
            raise SimulationError("compute unit has no program bound")
        scheduler = self.scheduler
        # Sorted by ready time behind the last pick (see repro.simt.scheduler).
        residents = scheduler.residents
        if now is None:
            now = scheduler.earliest_ready()
        if now == _INFINITY or not residents:
            raise SimulationError(f"CU {self.cu_id} stepped with no ready wavefront")
        pick = scheduler.pick
        shared_kinds = SHARED_KINDS
        ops = program.ops
        num_ops = len(ops)
        occupancy_rounds = self._occupancy
        array_free_time = self.array_free_time
        # Statistics are counted per PC, plus the lanes that partially
        # active issues leave idle; fold_issue_counts charges them once.
        counts = self._issue_counts
        deficit = 0
        lanes = self.config.wavefront_size
        events = 0
        retired: List[Wavefront] = []
        # The next event's wavefront (None: the scheduler picks it) and the
        # other residents' earliest ready time.
        wavefront: Optional[Wavefront] = None
        others_ready = _INFINITY
        if self._held is not None:
            (wavefront, others_ready), self._held = self._held, None

        while events < max_events:
            if wavefront is None:
                # The head is the pick when it is the only resident ready at
                # ``now``; otherwise round robin decides.  A retired
                # wavefront leaves in the step that retires it, so no
                # resident here is done.
                wavefront = residents[0]
                try:
                    others_ready = residents[1].ready_time
                except IndexError:  # a lone resident, rare
                    others_ready = _INFINITY
                if wavefront.ready_time <= now < others_ready:
                    scheduler.last_pick = wavefront
                else:
                    wavefront, others_ready = pick(now)
                    if wavefront is None:
                        raise SimulationError(
                            f"CU {self.cu_id} found no schedulable wavefront at {now}"
                        )
            pc = wavefront.pc
            if pc >= num_ops:
                raise SimulationError(
                    f"wavefront {wavefront.wavefront_id} ran past the end of {program.name}"
                )
            op = ops[pc]
            if now > limit and op[P_KIND] in shared_kinds:
                # Another CU's event comes first.  The scheduler has moved
                # its pointer past this pick and nothing else can touch this
                # CU, so the pick is held for the next call.
                self._held = wavefront, others_ready
                break
            events += 1
            num_active = wavefront.num_active
            # Register indices were bounds-checked once at bind time, so
            # registers are indexed directly; writes to r0 are dropped.  An
            # entry is an int when every lane holds that value, and ALU
            # operations on ints run their scalar form; with an Affine
            # operand they run their ramp form.
            reg_rows = wavefront.registers

            while True:
                (
                    kind, rd, rs, rt, imm, latency, uses_pe, _macro, fn, scalar_fn, const, _key,
                    ramp_fn,
                ) = op

                # --- timing: the wavefront is ready, so it issues at ``now``
                # or when the PE array frees up --------------------------- #
                issue_start = now
                if uses_pe:
                    if array_free_time > issue_start:
                        issue_start = array_free_time
                    occupancy = occupancy_rounds
                    array_free_time = issue_start + occupancy
                else:
                    occupancy = 1
                completion = issue_start + occupancy + latency

                # --- statistics, folded at launch end -------------------- #
                counts[pc] += 1
                if num_active != lanes:
                    deficit += lanes - num_active

                # --- functional execution, kinds in order of frequency ---- #
                next_pc = pc + 1
                if kind <= K_ALU_CONST:  # K_ALU_BIN, K_ALU_IMM, K_ALU_CONST
                    if rd:
                        if kind == K_ALU_BIN:
                            a = reg_rows[rs]
                            b = reg_rows[rt]
                            if type(a) is int and type(b) is int:
                                result = scalar_fn(a, b)
                            elif type(a) is Affine or type(b) is Affine:
                                result = ramp_fn(a, b)
                            else:
                                result = fn(a, b)
                        elif kind == K_ALU_IMM:
                            a = reg_rows[rs]
                            if type(a) is int:
                                result = scalar_fn(a, const)
                            elif type(a) is Affine:
                                result = ramp_fn(a, const)
                            else:
                                result = fn(a, const)
                        else:
                            result = const
                        if num_active == lanes:
                            reg_rows[rd] = result
                        else:
                            reg_rows[rd] = merge_lanes(
                                wavefront.active_mask, result, reg_rows[rd]
                            )
                elif kind == K_LOAD:
                    completion = self._execute_load(wavefront, op, issue_start + occupancy)
                elif kind == K_BCOND:
                    a = reg_rows[rs]
                    b = reg_rows[rt]
                    if type(a) is int and type(b) is int and num_active:
                        # Register ints are unsigned 32-bit: flipping the
                        # sign bit maps the signed order onto the unsigned.
                        if fn == B_EQ:
                            taken = a == b
                        elif fn == B_NE:
                            taken = a != b
                        elif fn == B_LT:
                            taken = (a ^ 0x80000000) < (b ^ 0x80000000)
                        else:  # B_GE
                            taken = (a ^ 0x80000000) >= (b ^ 0x80000000)
                        if taken:
                            next_pc = imm
                    else:
                        next_pc = self._execute_branch(wavefront, op, next_pc)
                elif kind == K_JMP:
                    next_pc = imm
                elif kind == K_LOCAL_LOAD or kind == K_LOCAL_STORE:
                    self._execute_local(wavefront, op, kind)
                elif kind == K_PUSHM:
                    wavefront.push_mask()
                elif kind == K_CMASK:
                    wavefront.constrain_mask(reg_rows[rs])
                    num_active = wavefront.num_active
                elif kind == K_BEMPTY:
                    next_pc = imm if not num_active else next_pc
                elif kind == K_POPM:
                    wavefront.pop_mask()
                    num_active = wavefront.num_active
                elif kind == K_PARAM:
                    self._write_register(wavefront, rd, self._rtm.read_arg(imm))
                elif kind == K_SYNC:
                    completion, parked = self._execute_barrier(wavefront, issue_start + occupancy)
                    wavefront.pc = next_pc
                    if not parked:
                        wavefront.ready_time = completion
                    break  # the barrier changed the residents' ready times
                elif kind == K_RET:
                    wavefront.retire(completion)
                    retired.append(wavefront)
                    wavefront.pc = next_pc
                    wavefront.ready_time = completion
                    break
                elif kind == K_SPECIAL:
                    self._execute_special(wavefront, op)
                elif kind == K_STORE:
                    completion = self._execute_store(wavefront, op, issue_start + occupancy)
                elif kind == K_INVM:
                    wavefront.invert_mask()
                    num_active = wavefront.num_active
                else:  # pragma: no cover - defensive
                    raise SimulationError(f"unhandled instruction kind {kind}")

                wavefront.pc = next_pc
                wavefront.ready_time = completion

                # --- macro-stepping continuation -------------------------- #
                # A run continues only while the wavefront stays strictly
                # ahead of every other resident.
                if completion >= others_ready or next_pc >= num_ops:
                    break
                op = ops[next_pc]
                if not op[P_MACRO_SAFE]:
                    break
                pc = next_pc
                now = completion

            if kind == K_RET:
                break
            if kind == K_SYNC:
                scheduler.notify_ready_changed()
                now = scheduler.earliest_ready()
                wavefront = None
                if now == _INFINITY:
                    break  # every resident is parked at a barrier
            elif completion < others_ready:
                # Still strictly ahead of the others: the scheduler would
                # pick this wavefront again, with its pointer already past.
                now = completion
            else:
                # Yield: re-seat the head by its new ready time, shifting
                # the later residents up from the back (the one ready at
                # others_ready stops the walk at the latest).
                now = others_ready
                del residents[0]
                residents.append(wavefront)
                position = -2
                while residents[position].ready_time > completion:
                    residents[position + 1] = residents[position]
                    position -= 1
                residents[position + 1] = wavefront
                wavefront = None

        self.array_free_time = array_free_time
        self._lane_deficit += deficit
        stats = self.stats
        stats.issue_events += events
        for finished in retired:
            scheduler.remove(finished)
            self._release_workgroup(finished.workgroup_id)
            stats.wavefronts_executed += 1
        return retired

    # ------------------------------------------------------------------ #
    # Functional helpers per instruction class
    # ------------------------------------------------------------------ #
    def _write_register(self, wavefront: Wavefront, index: int, values: RegisterValue) -> None:
        """Write ``values`` to the active lanes of register ``index``.

        Every write outside the issue loop's inline ALU stores goes through
        here.  ``values`` is already masked to 32 bits (an int, a ramp or a
        lane vector); a write to r0, which is hard-wired to zero, is dropped,
        and with every lane active the masked merge is a plain assignment.
        """
        if index:
            registers = wavefront.registers
            if wavefront.num_active == wavefront.wavefront_size:
                registers[index] = values
            else:
                registers[index] = merge_lanes(wavefront.active_mask, values, registers[index])

    def _execute_special(self, wavefront: Wavefront, op: tuple) -> None:
        opcode = op[P_FN]
        dim = op[P_IMM]
        if dim:
            wavefront.check_dim(dim, opcode.mnemonic)
        # Local and global ids differ per lane; the workgroup id and the
        # launch geometry are one value for the whole wavefront.
        if opcode is Opcode.LID:
            values = wavefront.local_id_dims[dim]
        elif opcode is Opcode.WGID:
            values = int(wavefront.workgroup_id_dims[dim])
        elif opcode is Opcode.WGSIZE:
            values = int(wavefront.ndrange.workgroup_shape[dim])
        elif opcode is Opcode.GID:
            values = wavefront.global_id_dims[dim]
        elif opcode is Opcode.GSIZE:
            values = int(wavefront.ndrange.global_shape[dim])
        elif opcode is Opcode.NWG:
            values = int(wavefront.ndrange.groups_shape[dim])
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unhandled special opcode {opcode.mnemonic}")
        self._write_register(wavefront, op[P_RD], values)

    def _address(self, wavefront: Wavefront, op: tuple) -> RegisterValue:
        """Byte address ``rs + imm`` of a memory instruction: an int, a ramp or lanes."""
        base = wavefront.registers[op[P_RS]]
        imm = op[P_IMM]
        if imm == 0:
            # Register values are stored masked, so the 32-bit wrap of the
            # pointer arithmetic only matters once an offset is added.
            return base
        if type(base) is Affine:
            return Affine((base.base + imm) & WORD_MASK, base.stride, base.lanes)
        return (base + imm) & WORD_MASK

    def _execute_load(self, wavefront: Wavefront, op: tuple, access_time: float) -> float:
        addresses = self._address(wavefront, op)
        if type(addresses) is int:
            return self._execute_uniform_load(wavefront, op[P_RD], addresses, access_time)
        num_active = wavefront.num_active
        if num_active == wavefront.wavefront_size:
            # Fully active wavefront (the common case): no masked gather or
            # zero-fill scatter, the loaded vector is the register value,
            # and a ramp of addresses stays one.
            result = self.global_memory.load_words(addresses)
            completion = self._memory_timing(addresses, access_time, is_write=False)
            self._write_register(wavefront, op[P_RD], result)
            return completion
        addresses = lane_vector(addresses, wavefront.wavefront_size)
        mask = wavefront.active_mask
        result = np.zeros(wavefront.wavefront_size, dtype=np.int64)
        completion = access_time + self.cache.hit_latency_cycles
        if num_active:
            active_addresses = addresses[mask]
            result[mask] = self.global_memory.load_words(active_addresses)
            completion = self._memory_timing(active_addresses, access_time, is_write=False)
        self._write_register(wavefront, op[P_RD], result)
        return completion

    def _execute_uniform_load(
        self, wavefront: Wavefront, rd: int, address: int, access_time: float
    ) -> float:
        """Load through a wavefront-uniform address: one word, one line.

        Every active lane reads the same word, so the access coalesces to one
        cache line: a single-line probe and, on a miss, one line fill give the
        same timing, statistics and errors as the lane-vector path.
        """
        cache = self.cache
        completion = access_time + cache.hit_latency_cycles
        if not wavefront.num_active:
            return completion
        value = self.global_memory.load_word(address)
        misses, _ = cache.access_sorted_lines([cache.line_address(address)], False)
        if misses:
            completion = self.memory_controller.miss_burst(
                access_time, self._cache_ports, misses, completion
            )
        self._write_register(wavefront, rd, value)
        return completion

    def _execute_store(self, wavefront: Wavefront, op: tuple, access_time: float) -> float:
        num_active = wavefront.num_active
        if num_active:
            lanes = wavefront.wavefront_size
            addresses = self._address(wavefront, op)
            # An int is stored as one scalar, whatever the addresses.
            values = expand_ramp(wavefront.registers[op[P_RT]])
            if num_active != lanes:
                mask = wavefront.active_mask
                addresses = lane_vector(addresses, lanes)[mask]
                if type(values) is not int:
                    values = values[mask]
            elif type(addresses) is int:
                addresses = lane_vector(addresses, lanes)
            self.global_memory.store_words(addresses, values)
            # Posted store: charge the cache and the AXI ports but do not
            # track a completion time for the wavefront (see module
            # docstring).
            self._memory_timing(addresses, access_time, is_write=True, track_completion=False)
        return access_time + self.timing.store_latency

    def _memory_timing(
        self,
        addresses: Addresses,
        access_time: float,
        is_write: bool,
        track_completion: bool = True,
    ) -> float:
        """Charge the cache and AXI ports for one coalesced wavefront access.

        ``addresses`` is a ramp or a lane vector.  The central cache serves
        at most ``CacheConfig.ports`` distinct lines per cycle, so an access
        touching more lines is serialized into ``ports``-wide waves issued
        one cycle apart; line ``k`` of the access starts at ``access_time +
        k // ports``.  Dirty evictions and line fills claim AXI port time at
        their wave's start time, and the access finishes with the later of
        its last fill and its last hit's wave.
        """
        cache = self.cache
        misses, last_hit = cache.access_sorted_lines(cache.coalesce_lines(addresses), is_write)
        ports = self._cache_ports
        hit_latency = cache.hit_latency_cycles
        completion = access_time + hit_latency
        if misses:
            completion = self.memory_controller.miss_burst(access_time, ports, misses, completion)
        if track_completion and last_hit >= ports:
            hit_done = access_time + last_hit // ports + hit_latency
            if hit_done > completion:
                completion = hit_done
        return completion

    def _execute_local(self, wavefront: Wavefront, op: tuple, kind: int) -> None:
        lanes = wavefront.wavefront_size
        addresses = self._address(wavefront, op)
        if self._use_lram_windows:
            # Each workgroup addresses its private LRAM window: accesses wrap
            # inside the window and land at the workgroup's slot base.
            window, period = self._wg_lram_base[wavefront.workgroup_id], self._slot_words
        else:
            window, period = 0, self._lram_words
        num_active = wavefront.num_active
        word_indices = None
        if num_active == lanes and type(addresses) is Affine:
            word_indices = _lram_ramp(addresses, window, period)
        if word_indices is None:
            word_indices = (lane_vector(addresses, lanes) >> 2) % period
            if window:
                word_indices += window
        # A fully active wavefront (the common case) needs no masked gather,
        # zero fill or merge: every lane's word is the access.
        if kind == K_LOCAL_LOAD:
            if num_active == lanes:
                result = self.local_memory.load_words(word_indices)
            else:
                mask = wavefront.active_mask
                result = np.zeros(lanes, dtype=np.int64)
                if num_active:
                    result[mask] = self.local_memory.load_words(word_indices[mask])
            self._write_register(wavefront, op[P_RD], result)
        elif num_active:
            # An int is stored as one scalar, whatever the words.
            values = expand_ramp(wavefront.registers[op[P_RT]])
            if num_active != lanes:
                mask = wavefront.active_mask
                word_indices = word_indices[mask]
                if type(values) is not int:
                    values = values[mask]
            self.local_memory.store_words(word_indices, values)

    def _execute_branch(self, wavefront: Wavefront, op: tuple, fallthrough: int) -> int:
        registers = wavefront.registers
        a = wavefront.uniform_lane_value(registers[op[P_RS]])
        b = wavefront.uniform_lane_value(registers[op[P_RT]])
        signed_a = a - (1 << 32) if a & 0x80000000 else a
        signed_b = b - (1 << 32) if b & 0x80000000 else b
        code = op[P_FN]
        if code == B_EQ:
            taken = signed_a == signed_b
        elif code == B_NE:
            taken = signed_a != signed_b
        elif code == B_LT:
            taken = signed_a < signed_b
        else:  # B_GE
            taken = signed_a >= signed_b
        return op[P_IMM] if taken else fallthrough

    def _execute_barrier(self, wavefront: Wavefront, arrival: float) -> tuple:
        """Handle a workgroup barrier; returns (release_time, parked)."""
        expected = wavefront.ndrange.workgroup_size // wavefront.wavefront_size
        waiters = self._barrier_waiters.setdefault(wavefront.workgroup_id, [])
        waiters.append(wavefront)
        if len(waiters) < expected:
            wavefront.ready_time = _INFINITY
            return _INFINITY, True
        release = arrival + self.timing.barrier_latency
        for waiter in waiters:
            waiter.ready_time = release
        del self._barrier_waiters[wavefront.workgroup_id]
        return release, False
