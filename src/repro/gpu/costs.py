"""The cycle-cost model.

The reproduction cannot measure real GPU wall-clock, so every performance
figure (Figures 11-14) is produced by this model instead.  It has two
parts:

1. **Per-instruction costs** (:class:`CostParams`): how many cycles each
   DSL instruction consumes.  The only paper-calibrated ratio is the scoped
   fence: "the block-scope threadfence ... is 21x faster than the device
   scope fence" (section 1), so ``fence_device = 21 * fence_block``.

2. **A wall-time model** (:class:`WallClock`): total *work* executed in
   parallel regions is divided by the machine's effective parallelism
   (bounded by launched threads and available lanes), while *serialized*
   work — metadata-lock contention inside iGUARD, or Barracuda's CPU-side
   race-detection pass — is charged at full cost.  This is the mechanism
   behind the paper's headline: in-GPU parallel detection is ~15x faster
   than CPU-serialized detection.

Calibration notes: the absolute constants below are tuned so the *shape*
of the paper's results holds (iGUARD ~5x average overhead, Barracuda
10-1000x, contention-heavy kernels improving ~7x with the section 6.5
optimizations).  They are not measurements.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Tuple

from repro.gpu.instructions import (
    Atomic,
    Compute,
    Fence,
    Instruction,
    Load,
    Scope,
    Store,
    Syncthreads,
    Syncwarp,
)


@dataclass(frozen=True)
class CostParams:
    """Cycle costs for each instruction category."""

    load: int = 4
    store: int = 4
    atomic_block: int = 8
    atomic_device: int = 24
    fence_block: int = 10
    fence_device: int = 210  # 21x the block fence, per the paper's motivation
    syncthreads: int = 40
    syncwarp: int = 4
    compute_unit: int = 1

    @cached_property
    def prices(self) -> Dict[type, Tuple[int, ...]]:
        """The one cost table: cycles per (instruction class, scope).

        Each row is indexed by the raw :class:`Scope` value and already
        holds the *effective* scope's price, so ``Scope.SYSTEM`` costs the
        device price without a lookup of ``Scope.effective``.  Unscoped
        classes repeat one price; the ``Compute`` row is the per-cycle
        unit.  :meth:`cost_of` and the device executor's inlined charges
        both read this table.
        """

        def scoped(block: int, device: int) -> Tuple[int, ...]:
            return tuple(
                block if s.effective is Scope.BLOCK else device for s in Scope
            )

        def flat(price: int) -> Tuple[int, ...]:
            return (price,) * len(Scope)

        return {
            Load: flat(self.load),
            Store: flat(self.store),
            Atomic: scoped(self.atomic_block, self.atomic_device),
            Fence: scoped(self.fence_block, self.fence_device),
            Syncthreads: flat(self.syncthreads),
            Syncwarp: flat(self.syncwarp),
            Compute: flat(self.compute_unit),
        }

    def cost_of(self, instr: Instruction) -> int:
        """Base cycle cost of one dynamic instruction."""
        kind = type(instr)
        prices = self.prices.get(kind)
        if prices is None:
            return 1
        if kind is Compute:
            return prices[0] * instr.cycles
        return prices[getattr(instr, "scope", Scope.BLOCK)]


DEFAULT_COSTS = CostParams()


@dataclass
class WallClock:
    """Accumulates parallel work and serialized stalls into wall time.

    ``parallel_work`` cycles are divided by the effective parallelism when
    converted to time; ``serial_work`` cycles are charged as-is.  The
    division point is what separates iGUARD (detection work is parallel,
    only metadata contention serializes) from Barracuda (all detection work
    is serialized on the CPU).
    """

    parallelism: int = 1
    parallel_work: float = 0.0
    serial_work: float = 0.0

    def add_parallel(self, cycles: float) -> None:
        """Charge cycles that all lanes execute concurrently."""
        self.parallel_work += cycles

    def add_serial(self, cycles: float) -> None:
        """Charge cycles that execute with no parallelism at all."""
        self.serial_work += cycles

    @property
    def time(self) -> float:
        """Wall time in cycle units."""
        return self.parallel_work / max(self.parallelism, 1) + self.serial_work

    def merged_with(self, other: "WallClock") -> "WallClock":
        """Combine two accounts that share this account's parallelism."""
        return WallClock(
            parallelism=self.parallelism,
            parallel_work=self.parallel_work + other.parallel_work,
            serial_work=self.serial_work + other.serial_work,
        )


def effective_parallelism(num_threads: int, max_lanes: int) -> int:
    """Lanes actually usable by a launch of ``num_threads`` threads."""
    return max(1, min(num_threads, max_lanes))
