"""Synchronization metadata: the live counters of section 6.1.

iGUARD tracks the *active synchronization status* of every thread, warp,
and threadblock with small counters:

- a **threadblock barrier counter** per block, bumped on ``syncthreads``;
- a **warp barrier counter** per warp, bumped on ``syncwarp``;
- **two threadfence counters per thread** (block scope and device scope) —
  per *thread*, because CUDA defines fence semantics per thread, and under
  ITS each thread of a warp may have executed different fences.

All counters wrap at exactly the bit widths of the metadata fields they
are snapshotted into, so a stale snapshot can alias a live counter after a
wrap — the false positive/negative window the paper accepts in 6.7.

The lock tables (Figure 7) also live here, since the paper counts them as
part of the ~2 MB synchronization metadata.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.locktable import LockTable
from repro.core.metadata import (
    BLK_BAR_BITS,
    BLK_FENCE_BITS,
    DEV_FENCE_BITS,
    WARP_BAR_BITS,
)
from repro.gpu.instructions import Scope, scope_covers

ThreadKey = Tuple[int, int]  # (global warp id, lane)


class SyncMetadata:
    """Live synchronization counters plus lock tables for one kernel."""

    def __init__(self, lock_table_entries: int = 3):
        self.lock_table_entries = lock_table_entries
        self._blk_bar: Dict[int, int] = {}
        self._warp_bar: Dict[int, int] = {}
        self._dev_fence: Dict[ThreadKey, int] = {}
        self._blk_fence: Dict[ThreadKey, int] = {}
        self._warp_locks: Dict[int, LockTable] = {}
        self._thread_locks: Dict[ThreadKey, LockTable] = {}

    # -- counters ---------------------------------------------------------

    def blk_bar(self, block_id: int) -> int:
        """Current threadblock barrier counter (8-bit, wrapping)."""
        return self._blk_bar.get(block_id, 0)

    def warp_bar(self, warp_id: int) -> int:
        """Current warp barrier counter (6-bit, wrapping)."""
        return self._warp_bar.get(warp_id, 0)

    def dev_fence(self, thread: ThreadKey) -> int:
        """Current device-scope fence counter of a thread (6-bit)."""
        return self._dev_fence.get(thread, 0)

    def blk_fence(self, thread: ThreadKey) -> int:
        """Current block-scope fence counter of a thread (6-bit)."""
        return self._blk_fence.get(thread, 0)

    def snapshot(
        self, thread: ThreadKey, warp_id: int, block_id: int
    ) -> Tuple[int, int, int, int]:
        """One thread's ``(dev_fence, blk_fence, blk_bar, warp_bar)``: the
        counters an access records into its metadata entry, read at once."""
        return (
            self._dev_fence.get(thread, 0),
            self._blk_fence.get(thread, 0),
            self._blk_bar.get(block_id, 0),
            self._warp_bar.get(warp_id, 0),
        )

    def on_syncthreads(self, block_id: int) -> None:
        """A threadblock barrier completed: bump the block's counter."""
        self._blk_bar[block_id] = (self.blk_bar(block_id) + 1) % (1 << BLK_BAR_BITS)

    def on_syncwarp(self, warp_id: int) -> None:
        """A warp barrier completed: bump the warp's counter."""
        self._warp_bar[warp_id] = (self.warp_bar(warp_id) + 1) % (
            1 << WARP_BAR_BITS
        )

    def on_fence(self, thread: ThreadKey, scope: Scope) -> None:
        """A thread executed a scoped threadfence: bump its counter."""
        if scope_covers(scope, Scope.DEVICE):
            self._dev_fence[thread] = (self.dev_fence(thread) + 1) % (
                1 << DEV_FENCE_BITS
            )
        else:
            self._blk_fence[thread] = (self.blk_fence(thread) + 1) % (
                1 << BLK_FENCE_BITS
            )

    # -- lock tables --------------------------------------------------------

    def warp_lock_table(self, warp_id: int) -> LockTable:
        """The per-warp lock table (created on first use)."""
        table = self._warp_locks.get(warp_id)
        if table is None:
            table = LockTable(self.lock_table_entries)
            self._warp_locks[warp_id] = table
        return table

    def thread_lock_table(self, thread: ThreadKey) -> LockTable:
        """The per-thread lock table (created on first use)."""
        table = self._thread_locks.get(thread)
        if table is None:
            table = LockTable(self.lock_table_entries)
            self._thread_locks[thread] = table
        return table

    def lock_table_for(self, warp_id: int, thread: ThreadKey) -> LockTable:
        """The table the detector should consult for this thread.

        The per-warp table is checked first; if its ``isThread`` bit is set
        (per-thread locking was inferred for this warp), the per-thread
        table is used instead (section 6.3).
        """
        warp_table = self.warp_lock_table(warp_id)
        if warp_table.is_thread:
            return self.thread_lock_table(thread)
        return warp_table

    # -- footprint ------------------------------------------------------------

    def approximate_bytes(self) -> int:
        """Rough footprint, for the paper's "~2 MB" accounting."""
        counters = (
            len(self._blk_bar)
            + len(self._warp_bar)
            + len(self._dev_fence)
            + len(self._blk_fence)
        )
        tables = len(self._warp_locks) + len(self._thread_locks)
        return counters + tables * self.lock_table_entries * 8
