"""Warp schedulers: pre-Volta lockstep and Volta-style ITS.

GPUs schedule threads in warps; how the warp's threads interleave is
exactly what separates the two hardware generations the paper discusses
(section 2.1):

- **Lockstep** (pre-Volta): threads of a warp execute in SIMT lockstep;
  divergent branches are serialized and reconverge.  A warp whose threads
  wait on each other (e.g. a consumer spinning on a lock its sibling holds)
  deadlocks — which our lockstep policy reproduces as a livelock caught by
  the step timeout.

- **ITS** (Volta onward): threads of a warp make *independent progress*.
  Implicit warp-level barriers after every instruction disappear, which is
  the source of the "missing syncwarp" races iGUARD detects.

Both policies operate on *convergence groups*: the threads of a warp whose
next instruction is at the same source location.  A group executes as one
batch — its lanes are the instruction's *active mask*.  Divergence splits
groups (threads branch to different lines); reconvergence merges them
(threads arrive back at the same line).

The scheduler also implements ``syncthreads``/``syncwarp`` barrier
bookkeeping with deadlock detection, and enforces a step budget (the
paper's "parameterized timeout" for livelocked racy kernels, section 5).
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.common.rng import SplitMix64
from repro.errors import DeadlockError
from repro.gpu.instructions import (
    Atomic,
    Compute,
    Fence,
    Load,
    Store,
    Syncthreads,
    Syncwarp,
)
from repro.gpu.kernel import KernelThread, ThreadStatus
from repro.obs.metrics import HOT
from repro.obs.spans import TRACER


#: Instruction classes the machine executes; barriers are the scheduler's.
_EXECUTED = frozenset((Load, Store, Atomic, Fence, Compute))


class SchedulerKind(enum.Enum):
    """Which warp-scheduling policy to simulate."""

    LOCKSTEP = "lockstep"
    ITS = "its"


class _WarpState:
    """Scheduler-side bookkeeping for one warp."""

    __slots__ = ("warp_id", "block_id", "threads", "diverged", "ready")

    def __init__(self, warp_id: int, block_id: int):
        self.warp_id = warp_id
        self.block_id = block_id
        self.threads: List[KernelThread] = []
        #: Observability only: whether this warp's READY threads were last
        #: seen in more than one convergence group (tracks divergence /
        #: reconvergence transitions for the metrics registry).
        self.diverged = False
        #: Cached :meth:`has_ready`, refreshed by the scheduler after every
        #: batch or barrier release that can change this warp's threads.
        self.ready = False

    def has_ready(self) -> bool:
        """Whether any thread of the warp is READY.

        ``ready_groups`` is nonempty exactly when this is true, but this
        scan allocates nothing.
        """
        for thread in self.threads:
            if thread.status is ThreadStatus.READY:
                return True
        return False

    def ready_groups(self) -> List[List[KernelThread]]:
        """Convergence groups of READY threads, in (line, kind) order.

        The key is the source location plus the instruction class: two
        threads suspended at the same line can still be at *different*
        instructions of that line (e.g. the load and the store of a
        compound assignment), and must stay in separate groups.  This runs
        once per scheduled batch; a converged warp has one group and skips
        the sort.
        """
        ready = ThreadStatus.READY
        groups: Dict[Tuple[str, str], List[KernelThread]] = {}
        for thread in self.threads:
            if thread.status is ready:
                key = (thread.pending_ip, type(thread.pending).__name__)
                group = groups.get(key)
                if group is None:
                    groups[key] = [thread]
                else:
                    group.append(thread)
        if len(groups) == 1:
            return list(groups.values())
        return [groups[key] for key in sorted(groups)]

    def live_threads(self) -> List[KernelThread]:
        return [t for t in self.threads if t.live]

    def warp_barrier_ready(self) -> bool:
        """Whether every live thread of the warp waits at a warp barrier."""
        live = self.live_threads()
        return bool(live) and all(
            t.status is ThreadStatus.AT_WARP_BARRIER for t in live
        )


class Scheduler:
    """Drives a grid of :class:`KernelThread` objects to completion.

    The machine-interface object supplied to :meth:`run` must provide::

        exec_instruction(thread, instr, active_mask, batch) -> result
        on_block_barrier(block_id, threads, batch) -> None
        on_warp_barrier(warp_id, threads, batch) -> None

    ``exec_instruction`` handles Load/Store/Atomic/Fence/Compute; barriers
    are resolved by the scheduler itself and reported via the barrier
    callbacks when they *complete*.
    """

    def __init__(
        self,
        threads: Sequence[KernelThread],
        warp_size: int,
        kind: SchedulerKind = SchedulerKind.ITS,
        seed: int = 0,
        max_batches: int = 2_000_000,
        split_probability: float = 0.25,
    ):
        self.kind = kind
        self.warp_size = warp_size
        self.rng = SplitMix64(seed)
        self.max_batches = max_batches
        #: ITS only: probability that a convergence group executes as a
        #: random sub-batch instead of whole.  Volta's ITS batches
        #: convergent threads opportunistically but guarantees nothing —
        #: splitting reproduces the interleavings where converged threads
        #: of one warp race with each other (e.g. lost updates under
        #: per-thread locking, Figure 9).
        self.split_probability = split_probability
        self.batch_counter = 0
        self.timed_out = False
        self._warps: List[_WarpState] = []
        self._blocks: Dict[int, List[KernelThread]] = {}
        self._block_warps: Dict[int, List[_WarpState]] = {}
        self._all_threads: List[KernelThread] = list(threads)
        #: Completion scan hint: threads before this index are done.  A
        #: done thread never resumes, so the prefix only grows and the
        #: per-batch completion check amortizes to O(1).
        self._done_prefix = 0
        #: Observability only: per-warp (first batch, last batch) activity
        #: bounds, emitted by the device as simulated-time trace spans.
        #: None (tracing off) keeps the batch loop free of dict traffic.
        self.span_activity: Optional[Dict[int, Tuple[int, int]]] = (
            {} if TRACER.enabled else None
        )
        warp_map: Dict[int, _WarpState] = {}
        for thread in threads:
            loc = thread.ctx.location
            warp = warp_map.get(loc.warp_id)
            if warp is None:
                warp = _WarpState(loc.warp_id, loc.block_id)
                warp_map[loc.warp_id] = warp
                self._warps.append(warp)
                self._block_warps.setdefault(loc.block_id, []).append(warp)
            warp.threads.append(thread)
            self._blocks.setdefault(loc.block_id, []).append(thread)
        for warp in self._warps:
            warp.threads.sort(key=lambda t: t.ctx.lane)
            warp.ready = warp.has_ready()

    # ------------------------------------------------------------------
    # Batch selection
    # ------------------------------------------------------------------

    def _pick_batch(self) -> Optional[Tuple[_WarpState, List[KernelThread]]]:
        """Choose the next convergence group to execute, or None.

        Candidate warps are shortlisted by their cached ``ready`` flag, in
        warp order; the group structure is built only for the one warp
        selected.  Only a batch or a barrier release changes a thread's
        status, and each refreshes the flags of the warps it touched, so
        the candidate list — and with it the RNG stream and every
        simulated interleaving — equals a full ``has_ready`` scan.
        """
        candidates = [warp for warp in self._warps if warp.ready]
        if not candidates:
            return None
        if HOT.enabled:
            HOT.sched_occupancy.observe(len(candidates))
        if self.kind is SchedulerKind.LOCKSTEP:
            # Round-robin across warps; within a warp, run the group that is
            # "furthest behind" (lowest source line), approximating the SIMT
            # reconvergence stack.
            warp = candidates[self.batch_counter % len(candidates)]
            groups = warp.ready_groups()
            if HOT.enabled:
                self._note_convergence(warp, len(groups))
            return warp, groups[0]
        # ITS: independent progress — pick a warp and a group at random.
        warp = candidates[self.rng.randint(len(candidates))]
        groups = warp.ready_groups()
        if HOT.enabled:
            self._note_convergence(warp, len(groups))
        group = groups[self.rng.randint(len(groups))]
        if len(group) > 1 and self.rng.random() < self.split_probability:
            # Execute only a random prefix-free subset: the rest of the
            # group falls behind, modelling ITS's lack of lockstep.
            keep = 1 + self.rng.randint(len(group) - 1)
            shuffled = list(group)
            self.rng.shuffle(shuffled)
            group = sorted(shuffled[:keep], key=lambda t: t.ctx.lane)
            if HOT.enabled:
                HOT.sched_splits.inc()
        return warp, group

    @staticmethod
    def _note_convergence(warp: _WarpState, num_groups: int) -> None:
        """Track divergence/reconvergence transitions of the picked warp."""
        if num_groups > 1:
            if not warp.diverged:
                warp.diverged = True
            HOT.sched_divergent.inc()
        elif warp.diverged:
            warp.diverged = False
            HOT.sched_reconverged.inc()

    # ------------------------------------------------------------------
    # Barrier resolution
    # ------------------------------------------------------------------

    def _try_release_block_barrier(self, block_id: int, machine) -> None:
        threads = [t for t in self._blocks[block_id] if t.live]
        if not threads:
            return
        if all(t.status is ThreadStatus.AT_BLOCK_BARRIER for t in threads):
            if HOT.enabled:
                HOT.sched_barrier_releases.inc()
            machine.on_block_barrier(block_id, threads, self.batch_counter)
            for thread in threads:
                thread.release_from_barrier()
            for warp in self._block_warps[block_id]:
                warp.ready = warp.has_ready()

    def _try_release_warp_barrier(self, warp: _WarpState, machine) -> None:
        if warp.warp_barrier_ready():
            waiting = [
                t for t in warp.live_threads()
                if t.status is ThreadStatus.AT_WARP_BARRIER
            ]
            if HOT.enabled:
                HOT.sched_barrier_releases.inc()
            machine.on_warp_barrier(warp.warp_id, waiting, self.batch_counter)
            for thread in waiting:
                thread.release_from_barrier()
            warp.ready = warp.has_ready()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def _all_done(self) -> bool:
        threads = self._all_threads
        total = len(threads)
        index = self._done_prefix
        done = ThreadStatus.DONE
        while index < total and threads[index].status is done:
            index += 1
        self._done_prefix = index
        return index == total

    def _check_deadlock(self) -> None:
        """No READY threads, no releasable barrier, work remains: deadlock.

        The classic trigger is a *divergent barrier*: part of a block waits
        at ``syncthreads`` while the rest took a branch without one.
        """
        waiting = [
            t
            for warp in self._warps
            for t in warp.threads
            if t.status
            in (ThreadStatus.AT_BLOCK_BARRIER, ThreadStatus.AT_WARP_BARRIER)
        ]
        if waiting:
            sites = sorted({t.pending_ip for t in waiting})
            raise DeadlockError(
                f"{len(waiting)} thread(s) blocked forever at barrier(s) "
                f"near {', '.join(sites)}"
            )

    def _release_any_barrier(self, machine) -> bool:
        """Sweep all barriers; returns True if any thread was released.

        Needed when the last obstacle to a barrier was a sibling thread
        *finishing* (rather than arriving): completion does not trigger the
        eager per-batch release checks.
        """
        released = False
        for block_id in self._blocks:
            waiting = [
                t
                for t in self._blocks[block_id]
                if t.status is ThreadStatus.AT_BLOCK_BARRIER
            ]
            if waiting:
                self._try_release_block_barrier(block_id, machine)
                released = released or any(
                    t.status is not ThreadStatus.AT_BLOCK_BARRIER for t in waiting
                )
        for warp in self._warps:
            waiting = [
                t
                for t in warp.threads
                if t.status is ThreadStatus.AT_WARP_BARRIER
            ]
            if waiting:
                self._try_release_warp_barrier(warp, machine)
                released = released or any(
                    t.status is not ThreadStatus.AT_WARP_BARRIER for t in waiting
                )
        return released

    def run(self, machine) -> None:
        """Execute all threads to completion (or step-budget timeout)."""
        while not self._all_done():
            picked = self._pick_batch()
            if picked is None:
                # A barrier may have become releasable because its last
                # missing thread finished instead of arriving.
                if self._release_any_barrier(machine):
                    continue
                self._check_deadlock()
                break
            if self.batch_counter >= self.max_batches:
                self.timed_out = True
                break
            self._execute_batch(*picked, machine)

    def _execute_batch(
        self, warp: _WarpState, group: List[KernelThread], machine
    ) -> None:
        self.batch_counter += 1
        batch = self.batch_counter
        if HOT.enabled:
            HOT.sched_batches.inc()
        if self.span_activity is not None:
            bounds = self.span_activity.get(warp.warp_id)
            self.span_activity[warp.warp_id] = (
                (batch, batch) if bounds is None else (bounds[0], batch)
            )
        active_mask: FrozenSet[int] = frozenset(
            [t.ctx.location.lane for t in group]
        )
        execute = machine.exec_instruction
        barrier_blocks = set()
        barrier_warps = []
        for thread in group:
            instr = thread.pending
            kind = type(instr)
            if kind in _EXECUTED:
                thread.complete(execute(thread, instr, active_mask, batch))
            elif kind is Syncthreads:
                thread.park_at_barrier(ThreadStatus.AT_BLOCK_BARRIER)
                barrier_blocks.add(thread.ctx.location.block_id)
            elif kind is Syncwarp:
                thread.park_at_barrier(ThreadStatus.AT_WARP_BARRIER, instr.mask)
                barrier_warps.append(warp)
            else:  # pragma: no cover - Instruction subclasses are closed
                raise TypeError(f"unhandled instruction {instr!r}")
        for block_id in barrier_blocks:
            self._try_release_block_barrier(block_id, machine)
        for barrier_warp in barrier_warps:
            self._try_release_warp_barrier(barrier_warp, machine)
        warp.ready = warp.has_ready()
