"""Event records delivered to instrumentation tools.

The instrumentation layer (our NVBit stand-in) observes the dynamic
instruction stream as a sequence of these records.  A race detector needs
exactly what iGUARD's injected SASS callbacks receive: the kind of access,
its address and scope, and the identity of the issuing thread (thread,
warp, block) plus the warp's *active mask* at that instant (section 6.3
uses the active mask for lock-protocol inference; the coalescing
optimization of section 6.5 uses it too).

Beyond the per-instruction records, this module defines the boundary
records of the full typed event stream published on the device's
:class:`~repro.engine.bus.EventBus`: allocations (:class:`AllocEvent`),
launch headers (:class:`LaunchEvent`), and kernel completion
(:class:`KernelEndEvent`).  Together the five record kinds make one
execution a self-contained, serializable artifact — the trace codec in
:mod:`repro.engine.trace` writes exactly these records, and
:mod:`repro.engine.replay` re-drives any detector from them without
re-simulating the GPU.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.gpu.ids import ThreadLocation
from repro.gpu.instructions import AtomicOp, Scope


class AccessKind(enum.Enum):
    """Classification of a memory access."""

    LOAD = "load"
    STORE = "store"
    ATOMIC = "atomic"

    @property
    def is_write(self) -> bool:
        """Atomics are treated as (special) stores by iGUARD (section 6.4)."""
        return self is not AccessKind.LOAD


class SyncKind(enum.Enum):
    """Classification of a synchronization operation."""

    SYNCTHREADS = "syncthreads"
    SYNCWARP = "syncwarp"
    FENCE = "fence"


# The two per-instruction records are the hot ones: one is built per
# dynamic access or sync, live and on ``.ctr`` decode.  A frozen dataclass
# pays one ``object.__setattr__`` per field on construction, so these are
# plain slotted dataclasses, immutable by convention: no producer or
# consumer assigns a field after construction.  ``unsafe_hash`` keeps
# hashing by value, alongside the generated value ``__eq__``.
@dataclass(slots=True, unsafe_hash=True)
class MemoryEvent:
    """One dynamic load/store/atomic by one thread.

    Attributes:
        kind: load / store / atomic.
        address: byte address of the 4-byte word accessed.
        where: issuing thread's position in the hierarchy.
        ip: source location of the instruction (file:line), the analogue of
            the SASS instruction pointer iGUARD reports for races.
        active_mask: lanes of the warp executing this instruction together
            (the convergence group the scheduler batched).
        scope: atomic scope (atomics only).
        atomic_op: which read-modify-write (atomics only).
        value_stored: value written (stores/atomics).
        value_loaded: value observed (loads/atomics, filled post-execution).
        batch: monotonically increasing id of the scheduler batch this event
            executed in; accesses sharing a batch ran "simultaneously".
    """

    kind: AccessKind
    address: int
    where: ThreadLocation
    ip: str
    active_mask: FrozenSet[int]
    scope: Scope = Scope.DEVICE
    atomic_op: Optional[AtomicOp] = None
    value_stored: object = None
    value_loaded: object = None
    compare: object = None
    batch: int = 0

    @property
    def cas_succeeded(self) -> bool:
        """Whether a CAS atomically swapped (old value matched compare)."""
        return self.atomic_op is AtomicOp.CAS and self.value_loaded == self.compare

    @property
    def is_write(self) -> bool:
        return self.kind.is_write


@dataclass(slots=True, unsafe_hash=True)
class SyncEvent:
    """One dynamic synchronization operation by one thread."""

    kind: SyncKind
    where: ThreadLocation
    ip: str
    active_mask: FrozenSet[int]
    scope: Scope = Scope.DEVICE
    batch: int = 0


@dataclass(frozen=True, slots=True)
class AllocEvent:
    """One application ``cudaMalloc``, as a serializable stream record.

    Carries everything needed to rebuild the device's address map offline:
    iGUARD sizes its metadata pre-faulting from these (section 6.1), and
    replay reconstructs ``name[index]`` descriptions for race reports.
    """

    name: str
    base: int
    num_words: int

    @classmethod
    def of(cls, allocation) -> "AllocEvent":
        """Build the record from a live :class:`~repro.gpu.memory.Allocation`."""
        return cls(
            name=allocation.name,
            base=allocation.base,
            num_words=allocation.num_words,
        )


@dataclass(frozen=True, slots=True)
class LaunchEvent:
    """The header of one kernel launch in the event stream.

    A serializable projection of :class:`~repro.instrument.nvbit.LaunchInfo`:
    everything a detector reads from the launch except the live ``device``
    and ``timing`` handles, which replay re-materializes.
    """

    kernel_name: str
    grid_dim: int
    block_dim: int
    warp_size: int
    warps_per_block: int
    num_threads: int
    seed: int
    static_instruction_count: int
    #: Effective lane parallelism of the launch's timing model, so replayed
    #: Figure 13 breakdowns value parallel cycles identically.
    parallelism: int


@dataclass(frozen=True, slots=True)
class KernelEndEvent:
    """Kernel completion: the stream's counterpart of a finished launch.

    Records the executor-side outcome — whether the step budget expired,
    the native cycle account, and the batch/instruction counts — so replay
    can finalize tools (``on_launch_end`` / ``on_timeout``) and rebuild the
    run's timing without re-executing instructions.
    """

    kernel_name: str
    timed_out: bool
    native_parallel: float
    native_serial: float
    batches: int
    instructions: int
