"""Deterministic fault injection for the multi-device runtime.

The multi-device queues of :mod:`repro.runtime.multidevice` assume a perfect
platform: every simulated G-GPU executes every command it is handed, every
DMA transfer lands intact, and nothing ever times out.  Real accelerator
clusters are not like that — devices drop off the bus, DMA engines stall,
links flip bits — and a runtime that claims to scale must show what happens
when they do.  This module provides the *fault model* of that story:

* :class:`FaultSpec` — one injected fault: a permanent device failure, a
  transient launch failure, a transfer stall, or a detected transfer
  corruption, triggered at a chosen per-device command index or simulated
  cycle.
* :class:`FaultPlan` — an immutable, seedable collection of fault specs plus
  the recovery budget (``max_retries``, ``backoff_cycles``).
  :meth:`FaultPlan.random` derives an arbitrary-but-reproducible plan from an
  integer seed; the same seed always produces the same plan, so a "chaos"
  run is exactly as repeatable as a fault-free one.
* :class:`FaultInjector` — the runtime side: consulted by the queue at the
  *schedule* layer every time a command is dispatched to a device or a
  transfer is charged to a DMA engine.  Decisions are pure functions of the
  plan and per-device attempt counters — no wall-clock, no randomness at
  consultation time.

The injection point is deliberately the schedule layer, never the simulator:
a faulted launch attempt is a command the device *dropped* (the simulator is
not invoked for it), and a corrupted transfer is re-sent, so the simulated
kernels themselves always execute exactly once with exactly the same inputs
as a fault-free run.  That is what keeps the PR 5 schedule-vs-simulation
invariant intact under chaos: with at least one surviving device and enough
retry budget, kernel results are bit-exact versus the fault-free run — only
the schedule and the makespan may change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from repro.errors import ConfigurationError

# The four injectable fault kinds.
DEVICE_FAIL = "device-fail"          # permanent fail-stop of one device
DEVICE_TRANSIENT = "device-transient"  # one launch attempt dropped
TRANSFER_STALL = "transfer-stall"    # one DMA transfer delayed
TRANSFER_CORRUPT = "transfer-corrupt"  # one DMA transfer detected-corrupt, re-sent

FAULT_KINDS: Tuple[str, ...] = (
    DEVICE_FAIL,
    DEVICE_TRANSIENT,
    TRANSFER_STALL,
    TRANSFER_CORRUPT,
)
_LAUNCH_KINDS = frozenset({DEVICE_FAIL, DEVICE_TRANSIENT})
_TRANSFER_KINDS = frozenset({TRANSFER_STALL, TRANSFER_CORRUPT})

# Deterministic default costs, in simulated cycles.
DEFAULT_DETECT_CYCLES = 1_000.0  # noticing a dropped command (watchdog timeout)
DEFAULT_STALL_CYCLES = 2_000.0   # extra DMA latency of a stalled transfer


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault.

    ``device`` names the target device.  The trigger is either
    ``at_command`` — the 0-based per-device *attempt index* of the matching
    kind (launch attempts for launch faults, charged transfers for transfer
    faults) — or ``at_cycle`` — the first matching attempt whose projected
    simulated start is at or past that cycle.  Exactly one must be given;
    each spec fires at most once.

    ``detect_cycles`` is the simulated time the runtime loses before it
    notices a dropped launch (a watchdog timeout, charged to the failing
    device's compute timeline); ``stall_cycles`` is the extra DMA latency of
    a stalled transfer.  Both have deterministic defaults.
    """

    kind: str
    device: int
    at_command: Optional[int] = None
    at_cycle: Optional[float] = None
    detect_cycles: float = DEFAULT_DETECT_CYCLES
    stall_cycles: float = DEFAULT_STALL_CYCLES

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}: pick from {FAULT_KINDS}"
            )
        if self.device < 0:
            raise ConfigurationError(f"fault device must be >= 0, got {self.device}")
        if (self.at_command is None) == (self.at_cycle is None):
            raise ConfigurationError(
                "a fault spec needs exactly one trigger: at_command or at_cycle"
            )
        if self.at_command is not None and self.at_command < 0:
            raise ConfigurationError(
                f"at_command must be >= 0, got {self.at_command}"
            )
        if self.at_cycle is not None and self.at_cycle < 0:
            raise ConfigurationError(f"at_cycle must be >= 0, got {self.at_cycle}")
        if self.detect_cycles < 0:
            raise ConfigurationError(
                f"detect_cycles must be >= 0, got {self.detect_cycles}"
            )
        if self.stall_cycles < 0:
            raise ConfigurationError(
                f"stall_cycles must be >= 0, got {self.stall_cycles}"
            )

    @property
    def is_transfer_fault(self) -> bool:
        return self.kind in _TRANSFER_KINDS

    def triggers(self, attempt_index: int, projected_cycle: float) -> bool:
        """Whether this spec fires for the given attempt of its kind."""
        if self.at_command is not None:
            return attempt_index == self.at_command
        return projected_cycle >= self.at_cycle


@dataclass(frozen=True)
class FaultPlan:
    """An immutable set of injected faults plus the recovery budget.

    ``max_retries`` bounds how often one command may be re-attempted after a
    fault before it fails permanently; ``backoff_cycles`` is the base of the
    exponential simulated-time backoff between attempts (attempt ``k`` after
    a fault waits ``backoff_cycles * 2**(k-1)`` cycles).  An empty plan is
    valid and must leave every schedule bit-identical to no plan at all —
    ``tests/test_runtime_faults.py`` pins that.
    """

    specs: Tuple[FaultSpec, ...] = ()
    max_retries: int = 3
    backoff_cycles: float = 500.0
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_cycles < 0:
            raise ConfigurationError(
                f"backoff_cycles must be >= 0, got {self.backoff_cycles}"
            )
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def permanent_devices(self) -> Set[int]:
        """Devices the plan eventually kills permanently."""
        return {spec.device for spec in self.specs if spec.kind == DEVICE_FAIL}

    def retry_delay(self, attempt: int) -> float:
        """Simulated-time backoff before retry ``attempt`` (1-based)."""
        if attempt <= 0:
            return 0.0
        return self.backoff_cycles * float(2 ** (attempt - 1))

    @classmethod
    def random(
        cls,
        seed: int,
        num_devices: int,
        num_faults: int = 4,
        max_retries: int = 3,
        backoff_cycles: float = 500.0,
        max_command_index: int = 8,
        allow_permanent: bool = True,
    ) -> "FaultPlan":
        """A reproducible plan drawn from ``seed``.

        The draw is constrained so recovery can always succeed: at least one
        device never receives a permanent failure, and the plan holds at
        most ``max_retries`` launch faults (device-transient plus
        device-fail).  Each launch fault fires once and costs the command it
        hits one dispatch attempt, so even if all of them hit one command it
        stays within its retry budget.  A per-(device, index) cap would not
        be enough: ``at_command`` counts dispatch *attempts*, so a retried
        command walks into the fault of the next index.  Everything else —
        kinds, devices, trigger indices, stall magnitudes — is uniform from a
        private :class:`random.Random`.
        """
        if num_devices < 1:
            raise ConfigurationError(f"need at least one device, got {num_devices}")
        if num_faults < 0:
            raise ConfigurationError(f"num_faults must be >= 0, got {num_faults}")
        rng = random.Random(seed)
        survivor = rng.randrange(num_devices)
        specs: List[FaultSpec] = []
        launch_faults = 0
        dead: Set[int] = set()
        for _ in range(num_faults):
            kinds = list(FAULT_KINDS)
            if not allow_permanent or num_devices == 1:
                kinds.remove(DEVICE_FAIL)
            kind = rng.choice(kinds)
            device = rng.randrange(num_devices)
            if kind == DEVICE_FAIL and (device == survivor or device in dead):
                kind = DEVICE_TRANSIENT
            index = rng.randrange(max_command_index)
            if kind in _LAUNCH_KINDS:
                if launch_faults >= max_retries:
                    continue  # keep every command recoverable within budget
                launch_faults += 1
            if kind == DEVICE_FAIL:
                dead.add(device)
            specs.append(
                FaultSpec(
                    kind=kind,
                    device=device,
                    at_command=index,
                    stall_cycles=float(rng.randrange(500, 5_000)),
                )
            )
        return cls(
            specs=tuple(specs),
            max_retries=max_retries,
            backoff_cycles=backoff_cycles,
            seed=seed,
        )


@dataclass
class FaultRecord:
    """One fault the injector actually fired (for stats and debugging)."""

    spec: FaultSpec
    device: int
    attempt_index: int
    cycle: float
    label: str


class FaultInjector:
    """Runtime fault oracle consulted by the multi-device scheduler.

    The injector owns the mutable side of a :class:`FaultPlan`: per-device
    attempt counters, which specs already fired, and which devices are dead.
    Its answers are pure functions of that state, so a schedule built against
    it is as deterministic as a fault-free one.
    """

    def __init__(self, plan: FaultPlan, num_devices: int) -> None:
        for spec in plan.specs:
            if spec.device >= num_devices:
                raise ConfigurationError(
                    f"fault plan targets device {spec.device} but the queue "
                    f"has only {num_devices} devices"
                )
        self.plan = plan
        self.num_devices = num_devices
        self._launch_attempts = [0] * num_devices
        self._transfer_attempts = [0] * num_devices
        self._fired: Set[int] = set()  # indices into plan.specs
        self._dead: Set[int] = set()
        self.fired: List[FaultRecord] = []

    # ------------------------------------------------------------------ #
    # Device liveness
    # ------------------------------------------------------------------ #
    def is_dead(self, device: int) -> bool:
        return device in self._dead

    def alive_devices(self) -> List[int]:
        return [d for d in range(self.num_devices) if d not in self._dead]

    def surviving(self, devices: Iterable[int]) -> List[int]:
        """The alive subset of ``devices``, in the order given.

        The one filter every topology-aware consumer shares: the stealing
        scheduler's thief pool, HEFT/LPT placement candidates, and P2P
        source selection all exclude retired devices through it, so a dead
        device leaves the link fabric everywhere at once — it can neither
        claim work nor serve as a copy source, while its matrix rows stay in
        the (immutable) :class:`~repro.arch.config.Topology`.
        """
        return [device for device in devices if device not in self._dead]

    def mark_dead(self, device: int) -> None:
        self._dead.add(device)

    # ------------------------------------------------------------------ #
    # Consultation points (schedule layer only)
    # ------------------------------------------------------------------ #
    def _next_fault(
        self, device: int, attempt_index: int, cycle: float, transfer: bool
    ) -> Optional[FaultSpec]:
        for index, spec in enumerate(self.plan.specs):
            if index in self._fired or spec.device != device:
                continue
            if transfer != spec.is_transfer_fault:
                continue
            if spec.triggers(attempt_index, cycle):
                self._fired.add(index)
                return spec
        return None

    def launch_fault(
        self, device: int, projected_cycle: float, label: str
    ) -> Optional[FaultSpec]:
        """Consult (and consume) the fault, if any, for one launch attempt.

        Every call counts one dispatch attempt on ``device``; at most one
        spec fires per attempt.  Returns the spec or ``None``.
        """
        attempt = self._launch_attempts[device]
        self._launch_attempts[device] += 1
        spec = self._next_fault(device, attempt, projected_cycle, transfer=False)
        if spec is not None:
            self.fired.append(
                FaultRecord(
                    spec=spec,
                    device=device,
                    attempt_index=attempt,
                    cycle=projected_cycle,
                    label=label,
                )
            )
        return spec

    def transfer_fault(
        self, device: int, projected_cycle: float, label: str
    ) -> Optional[FaultSpec]:
        """Consult (and consume) the fault, if any, for one charged transfer."""
        attempt = self._transfer_attempts[device]
        self._transfer_attempts[device] += 1
        spec = self._next_fault(device, attempt, projected_cycle, transfer=True)
        if spec is not None:
            self.fired.append(
                FaultRecord(
                    spec=spec,
                    device=device,
                    attempt_index=attempt,
                    cycle=projected_cycle,
                    label=label,
                )
            )
        return spec
