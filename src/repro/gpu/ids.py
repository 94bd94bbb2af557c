"""Thread/warp/block identity arithmetic.

CUDA arranges threads in a hierarchy: grid -> threadblock -> warp -> thread
(paper, section 2).  iGUARD's metadata identifies accessors by a *global*
warp ID plus a 5-bit lane (thread-within-warp) ID, and derives the block ID
by dividing the warp ID by the number of warps per threadblock (section
6.2).  This module centralizes that arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Tuple

from repro.errors import LaunchError


@dataclass(frozen=True)
class Dim3:
    """A CUDA ``dim3``: sizes along x, y, z."""

    x: int
    y: int = 1
    z: int = 1

    def __post_init__(self) -> None:
        if self.x < 1 or self.y < 1 or self.z < 1:
            raise LaunchError(f"dim3 components must be >= 1, got {self}")

    @property
    def count(self) -> int:
        """Total number of elements covered by the dimensions."""
        return self.x * self.y * self.z

    @classmethod
    def of(cls, value) -> "Dim3":
        """Coerce an int, tuple, or Dim3 into a Dim3."""
        if isinstance(value, Dim3):
            return value
        if isinstance(value, int):
            return cls(value)
        return cls(*value)


@dataclass(frozen=True, slots=True)
class ThreadLocation:
    """Everything about where a thread sits in the launch hierarchy.

    Attributes:
        global_tid: linear thread index across the whole grid.
        block_id: linear threadblock index within the grid.
        tid_in_block: linear thread index within its threadblock.
        warp_id: *global* warp index across the grid (the ``WarpID`` that
            iGUARD stores in its metadata).
        lane: thread index within its warp, 0..warp_size-1 (the metadata's
            5-bit ``ThreadID``).
        warp_in_block: warp index within the threadblock.
        thread_key: the pooled ``(warp_id, lane)`` identity tuple — built
            once per location so hot detector paths reuse it instead of
            allocating a fresh tuple per event.
    """

    global_tid: int
    block_id: int
    tid_in_block: int
    warp_id: int
    lane: int
    warp_in_block: int
    thread_key: Tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "thread_key", (self.warp_id, self.lane))


@lru_cache(maxsize=1 << 17)
def locate(global_tid: int, threads_per_block: int, warp_size: int) -> ThreadLocation:
    """Compute a thread's :class:`ThreadLocation` from its linear index.

    Memoized: locations are immutable and launch geometry repeats across
    kernels and seeds, so the same object is reused instead of redoing the
    divmod arithmetic per launch.
    """
    block_id, tid_in_block = divmod(global_tid, threads_per_block)
    warps_per_block = warps_in_block(threads_per_block, warp_size)
    warp_in_block, lane = divmod(tid_in_block, warp_size)
    warp_id = block_id * warps_per_block + warp_in_block
    return ThreadLocation(
        global_tid=global_tid,
        block_id=block_id,
        tid_in_block=tid_in_block,
        warp_id=warp_id,
        lane=lane,
        warp_in_block=warp_in_block,
    )


@lru_cache(maxsize=4096)
def warps_in_block(threads_per_block: int, warp_size: int) -> int:
    """Number of (possibly partial) warps a threadblock occupies."""
    return (threads_per_block + warp_size - 1) // warp_size


def block_of_warp(warp_id: int, warps_per_block: int) -> int:
    """The threadblock a global warp ID belongs to.

    This is precisely the derivation iGUARD performs during metadata update:
    "It then calculates the threadblock ID of the last accessor by dividing
    the WarpID in the metadata by the number of warps per threadblock"
    (section 6.2).  Not memoized: one integer division is cheaper than an
    ``lru_cache`` hit (hashing the argument tuple costs more than it saves).
    """
    return warp_id // warps_per_block
