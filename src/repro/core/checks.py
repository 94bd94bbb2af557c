"""The two-tier race detection logic of Table 2.

Most accesses do not participate in a race, so iGUARD (like ScoRD) first
runs cheap *preliminary checks* (P1-P6) that prove an access trivially
race-free; only if **all** of them fail are the *race conditions* (R1-R5)
evaluated, in order, and the first one that holds classifies the race.

Notation, exactly as in the paper's Table 2:

- ``mm``   — the memory metadata entry for the accessed granule;
- ``md``   — ``mm.LastAccessor`` for stores/atomics, ``mm.LastWriter`` for
  loads (a load can only race with the last write; a write races with any
  last access);
- ``sm``   — the *live* synchronization metadata: for barrier IDs, the
  current counter of the relevant block/warp; for fence IDs, the current
  counters of ``md``'s thread (equality means that thread has executed no
  fence since its access); for locks, the current accessor's summary;
- ``curr`` — the current access.

The checks:

====  =====================================================================
P1    first access to the granule (``!mm.Valid``)
P2    granule never written and the access is a load
P3    program order: same thread (warp + lane) as the previous access
P4    same warp, separated by a ``syncwarp`` **or** still converged (the
      previous accessor's lane is in the current active mask) — the
      ITS-aware condition unique to iGUARD
P5    same block, separated by a ``syncthreads``
P6    atomic-atomic with sufficient scope
R1    insufficiently scoped atomic (AS)
R2    intra-warp, no intervening fence by the previous thread (ITS)
R3    intra-block, no intervening fence (BR)
R4    inter-block, no intervening device-scope fence (DR)
R5    lockset: locks in use but intersection empty (IL)
====  =====================================================================
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.core.metadata import AccessorView, MetadataEntry
from repro.core.report import RaceType
from repro.core.syncstate import SyncMetadata
from repro.gpu.events import AccessKind


class CurrentAccess:
    """Everything Table 2 needs to know about the access being checked.

    A plain slotted class rather than a frozen dataclass: one is built per
    checked access, and a frozen dataclass pays an ``object.__setattr__``
    per field.  Nothing assigns a field after construction.
    """

    __slots__ = (
        "kind", "warp_id", "lane", "block_id", "active_mask", "locks_bloom",
    )

    def __init__(
        self,
        kind: AccessKind,
        warp_id: int,
        lane: int,
        block_id: int,
        active_mask: FrozenSet[int],
        locks_bloom: int = 0,  # sm.Locks: the current accessor's lock summary
    ):
        self.kind = kind
        self.warp_id = warp_id
        self.lane = lane
        self.block_id = block_id
        self.active_mask = active_mask
        self.locks_bloom = locks_bloom

    @property
    def thread_key(self):
        return (self.warp_id, self.lane)

    @property
    def is_load(self) -> bool:
        return self.kind is AccessKind.LOAD

    @property
    def is_atomic(self) -> bool:
        return self.kind is AccessKind.ATOMIC


def select_md(entry: MetadataEntry, curr: CurrentAccess) -> AccessorView:
    """Table 2's *Definitions* block: pick last accessor vs last writer."""
    if curr.kind in (AccessKind.STORE, AccessKind.ATOMIC):
        return entry.last_accessor
    return entry.last_writer


def preliminary_checks(
    curr: CurrentAccess,
    entry: MetadataEntry,
    md: AccessorView,
    sync: SyncMetadata,
    warps_per_block: int,
    its_support: bool = True,
) -> Optional[str]:
    """Run P1-P6; return the name of the first condition that proves the
    access race-free, or None if all fail (detailed checks needed)."""

    # P1: the first access to a memory location cannot be a race.
    if not entry.valid:
        return "P1"

    # P2: an unmodified location read again is race-free.
    if not entry.modified and curr.is_load:
        return "P2"

    md_block = md.block_id(warps_per_block)

    # P3: two accesses from the same thread in program order cannot race.
    # Table 2 prints this as "!DevShared AND !BlkShared AND curr.ThreadID
    # == md.ThreadID": with an unshared granule the 5-bit lane alone
    # identifies the thread.  Taken literally, though, that formulation
    # would flag every same-thread read-modify-write to a location that
    # was *ever* shared (the sharing flags are sticky) — the most common
    # memory idiom there is — and the real tool reports no such false
    # positives.  We therefore check full thread identity (warp AND
    # lane), which subsumes the printed condition and is exactly "same
    # thread in program order".
    if curr.warp_id == md.warp_id and curr.lane == md.lane:
        return "P3"

    # P4: same warp, and either a syncwarp intervened (the warp's live
    # warp-barrier counter moved on) or the threads are still converged
    # (the previous accessor's lane is in the current active mask, so
    # batch-lockstep execution orders the accesses).  Unique to iGUARD.
    # Like P3, Table 2 prints this with a "!DevShared AND !BlkShared"
    # precondition; the full 15-bit WarpID makes it unnecessary, and
    # keeping it would flag warp-synchronized exchanges on any buffer
    # that was *ever* shared across warps (sticky flags).
    if curr.warp_id == md.warp_id:
        if its_support:
            if md.warp_bar != sync.warp_bar(curr.warp_id):
                return "P4"
            if md.lane in curr.active_mask:
                return "P4"
        else:
            # ScoRD mode: pre-ITS hardware assumption — threads of a warp
            # execute in lockstep, so same-warp accesses never race.
            return "P4"

    # P5: same block, separated by an intervening threadblock barrier.
    if (
        not entry.dev_shared
        and md_block == curr.block_id
        and md.blk_bar != sync.blk_bar(curr.block_id)
    ):
        return "P5"

    # P6: atomics of sufficient scope cannot race with each other.
    if entry.atomic and curr.is_atomic:
        if md_block == curr.block_id or not entry.scope_is_block:
            return "P6"

    return None


def race_checks(
    curr: CurrentAccess,
    entry: MetadataEntry,
    md: AccessorView,
    sync: SyncMetadata,
    warps_per_block: int,
    its_support: bool = True,
    lockset: bool = True,
) -> Optional[RaceType]:
    """Run R1-R5 in order; return the type of the first race found."""

    md_block = md.block_id(warps_per_block)
    md_thread = (md.warp_id, md.lane)
    writer = entry.last_writer
    writer_block = writer.block_id(warps_per_block)

    # sm fence counters: the previous accessor's *current* counters.  If
    # they equal the snapshot in the metadata, that thread has executed no
    # fence since the access.
    no_dev_fence = md.dev_fence == sync.dev_fence(md_thread)
    no_blk_fence = md.blk_fence == sync.blk_fence(md_thread)

    # R1: scoped-atomic race — the granule is touched by block-scope
    # atomics, but the last writer and the current accessor live in
    # different threadblocks.
    if (
        entry.atomic
        and entry.scope_is_block
        and writer_block != curr.block_id
    ):
        return RaceType.ATOMIC_SCOPE

    # R2: intra-warp (ITS) race — same warp, no intervening fences, and
    # the granule was never shared beyond the warp.  (Convergence was
    # already ruled out by P4 failing.)
    if (
        its_support
        and md.warp_id == curr.warp_id
        and no_dev_fence
        and no_blk_fence
        and not entry.dev_shared
        and not entry.blk_shared
    ):
        return RaceType.ITS

    # R3: intra-block race — same block, no intervening fences, granule
    # never shared across blocks.
    if (
        md_block == curr.block_id
        and no_dev_fence
        and no_blk_fence
        and not entry.dev_shared
    ):
        return RaceType.INTRA_BLOCK

    # R4: inter-block race — different blocks and no intervening
    # device-scope fence (a block-scope fence cannot order accesses from
    # different threadblocks).
    if md_block != curr.block_id and no_dev_fence:
        return RaceType.INTER_BLOCK

    # R5: missing/mismatched locks — locks are in use for this granule,
    # but the previous and current lock sets do not intersect.
    if lockset:
        mm_locks = md.locks
        sm_locks = curr.locks_bloom
        if (mm_locks != 0 or sm_locks != 0) and (mm_locks & sm_locks) == 0:
            return RaceType.IMPROPER_LOCKING

    return None
