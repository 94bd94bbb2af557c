"""Memory metadata: the 16-byte per-granule entry of Figure 4.

Each 4-byte granule of global memory is shadowed by two packed 64-bit
words:

``accessor`` word (the *last accessor* — reader or writer)::

    [63-54] [53-48] [47-46] [45-31] [30-26]    [25-20]    [19-14]    [13-6]   [5-0]
    Tag     Flags   Unused  WarpID  ThreadID   DevFenceID BlkFenceID BlkBarID WarpBarID

    Flags = Valid | Modified | Atomic | Scope | DevShared | BlkShared

``writer`` word (the *last writer*)::

    [63-48] [47-46] [45-31] [30-26]    [25-20]    [19-14]    [13-6]   [5-0]
    Locks   Unused  WarpID  ThreadID   DevFenceID BlkFenceID BlkBarID WarpBarID

Field meanings (section 6.2): ``WarpID`` is the global warp index and
``ThreadID`` the 5-bit lane; the block ID is *derived* by dividing WarpID
by the kernel's warps-per-block.  The fence/barrier IDs snapshot the
accessor's synchronization counters at access time.  ``Locks`` is the
16-bit 2-way Bloom filter of locks held by the writer.  Counters are
narrow on purpose — they wrap exactly as the paper's do (section 6.7).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional

from repro.common.bitfield import BitField, BitStruct
from repro.gpu.ids import block_of_warp
from repro.obs.metrics import HOT

#: The last-accessor word (Figure 4, top row).
ACCESSOR_WORD = BitStruct(
    "accessor",
    [
        BitField("Tag", 63, 54),
        BitField("BlkShared", 53, 53),
        BitField("DevShared", 52, 52),
        BitField("Scope", 51, 51),
        BitField("Atomic", 50, 50),
        BitField("Modified", 49, 49),
        BitField("Valid", 48, 48),
        BitField("Unused", 47, 46),
        BitField("WarpID", 45, 31),
        BitField("ThreadID", 30, 26),
        BitField("DevFenceID", 25, 20),
        BitField("BlkFenceID", 19, 14),
        BitField("BlkBarID", 13, 6),
        BitField("WarpBarID", 5, 0),
    ],
)

#: The last-writer word (Figure 4, bottom row).
WRITER_WORD = BitStruct(
    "writer",
    [
        BitField("Locks", 63, 48),
        BitField("Unused", 47, 46),
        BitField("WarpID", 45, 31),
        BitField("ThreadID", 30, 26),
        BitField("DevFenceID", 25, 20),
        BitField("BlkFenceID", 19, 14),
        BitField("BlkBarID", 13, 6),
        BitField("WarpBarID", 5, 0),
    ],
)

#: Bit widths of the synchronization counters, shared with syncstate so the
#: live counters wrap at exactly the same width as the stored snapshots.
DEV_FENCE_BITS = ACCESSOR_WORD.field("DevFenceID").width  # 6
BLK_FENCE_BITS = ACCESSOR_WORD.field("BlkFenceID").width  # 6
BLK_BAR_BITS = ACCESSOR_WORD.field("BlkBarID").width  # 8
WARP_BAR_BITS = ACCESSOR_WORD.field("WarpBarID").width  # 6
TAG_BITS = ACCESSOR_WORD.field("Tag").width  # 10

# ---------------------------------------------------------------------------
# Compiled fast codec: every mask/shift baked into one closure per touch.
# The reference field-by-field path (BitStruct.get/set) stays the ground
# truth; the property tests assert both paths agree bit for bit.
# ---------------------------------------------------------------------------

#: Flag masks for single-bit tests without field lookups.
_VALID_MASK = ACCESSOR_WORD.field("Valid").mask
_MODIFIED_MASK = ACCESSOR_WORD.field("Modified").mask
_ATOMIC_MASK = ACCESSOR_WORD.field("Atomic").mask
_SCOPE_MASK = ACCESSOR_WORD.field("Scope").mask
_DEV_SHARED_MASK = ACCESSOR_WORD.field("DevShared").mask
_BLK_SHARED_MASK = ACCESSOR_WORD.field("BlkShared").mask
FLAG_MASKS = {
    name: ACCESSOR_WORD.field(name).mask
    for name in ("Valid", "Modified", "Atomic", "Scope", "DevShared", "BlkShared")
}

_GET_TAG = ACCESSOR_WORD.compile_getter("Tag")
_GET_WRITER_LOCKS = WRITER_WORD.compile_getter("Locks")

#: Identity + sync snapshot, in AccessorView field order (sans locks).
_VIEW_FIELDS = (
    "WarpID", "ThreadID", "DevFenceID", "BlkFenceID", "BlkBarID", "WarpBarID"
)
_DECODE_ACCESSOR = ACCESSOR_WORD.compile_decoder(*_VIEW_FIELDS)
_DECODE_WRITER = WRITER_WORD.compile_decoder(*_VIEW_FIELDS, "Locks")

_SET_ACCESSOR = ACCESSOR_WORD.compile_setter(
    "Tag", "Valid", "WarpID", "ThreadID",
    "DevFenceID", "BlkFenceID", "BlkBarID", "WarpBarID",
)
_SET_WRITER = WRITER_WORD.compile_setter(
    "Locks", "WarpID", "ThreadID",
    "DevFenceID", "BlkFenceID", "BlkBarID", "WarpBarID",
)


@dataclass(frozen=True, slots=True)
class AccessorView:
    """Unpacked identity + sync snapshot of one metadata word."""

    warp_id: int
    lane: int
    dev_fence: int
    blk_fence: int
    blk_bar: int
    warp_bar: int
    locks: int = 0

    def block_id(self, warps_per_block: int) -> int:
        """The accessor's threadblock, derived from its warp ID."""
        return block_of_warp(self.warp_id, warps_per_block)


@lru_cache(maxsize=8192)
def _accessor_view(word: int, locks: int) -> AccessorView:
    """Decode-memo for last-accessor words.

    Hot loops touch the same few granules over and over; the (word, locks)
    pair fully determines the immutable view, so repeated touches share
    one decoded instance instead of re-extracting seven fields.
    """
    return AccessorView(*_DECODE_ACCESSOR(word), locks)


@lru_cache(maxsize=8192)
def _writer_view(word: int) -> AccessorView:
    """Decode-memo for last-writer words (locks live in the same word)."""
    return AccessorView(*_DECODE_WRITER(word))


class MetadataEntry:
    """One 16-byte metadata entry, stored as two packed 64-bit words."""

    __slots__ = ("accessor_word", "writer_word")

    def __init__(self, accessor_word: int = 0, writer_word: int = 0):
        self.accessor_word = accessor_word
        self.writer_word = writer_word

    # -- flags ---------------------------------------------------------

    @property
    def valid(self) -> bool:
        return bool(self.accessor_word & _VALID_MASK)

    @property
    def modified(self) -> bool:
        return bool(self.accessor_word & _MODIFIED_MASK)

    @property
    def atomic(self) -> bool:
        return bool(self.accessor_word & _ATOMIC_MASK)

    @property
    def scope_is_block(self) -> bool:
        """Scope flag: 1 if the last atomic used threadblock scope."""
        return bool(self.accessor_word & _SCOPE_MASK)

    @property
    def dev_shared(self) -> bool:
        return bool(self.accessor_word & _DEV_SHARED_MASK)

    @property
    def blk_shared(self) -> bool:
        return bool(self.accessor_word & _BLK_SHARED_MASK)

    @property
    def tag(self) -> int:
        return _GET_TAG(self.accessor_word)

    def set_flag(self, name: str, value: bool) -> None:
        mask = FLAG_MASKS[name]
        if value:
            self.accessor_word |= mask
        else:
            self.accessor_word &= ~mask

    # -- views -----------------------------------------------------------

    @property
    def last_accessor(self) -> AccessorView:
        return _accessor_view(
            self.accessor_word, _GET_WRITER_LOCKS(self.writer_word)
        )

    @property
    def last_writer(self) -> AccessorView:
        return _writer_view(self.writer_word)

    # -- updates ---------------------------------------------------------

    def set_accessor(
        self,
        tag: int,
        warp_id: int,
        lane: int,
        dev_fence: int,
        blk_fence: int,
        blk_bar: int,
        warp_bar: int,
    ) -> None:
        """Record the current access in the last-accessor word."""
        self.accessor_word = _SET_ACCESSOR(
            self.accessor_word,
            tag, 1, warp_id, lane, dev_fence, blk_fence, blk_bar, warp_bar,
        )

    def set_writer(
        self,
        warp_id: int,
        lane: int,
        dev_fence: int,
        blk_fence: int,
        blk_bar: int,
        warp_bar: int,
        locks: int,
    ) -> None:
        """Record the current write in the last-writer word."""
        self.writer_word = _SET_WRITER(
            self.writer_word,
            locks, warp_id, lane, dev_fence, blk_fence, blk_bar, warp_bar,
        )


class MetadataTable:
    """The full shadow table: one entry per accessed granule.

    Entries are created lazily (the Valid bit plays the role of
    initialization, matching the paper's UVM-backed on-demand metadata).
    """

    def __init__(
        self,
        granularity_bytes: int = 4,
        entry_bytes: int = 16,
        max_entries: Optional[int] = None,
    ):
        self.granularity_bytes = granularity_bytes
        self.entry_bytes = entry_bytes
        #: Pressure cap (``IGuardConfig.metadata_max_entries``): admitting
        #: a granule past the cap evicts the oldest entry.  Eviction
        #: forgets history, so it can hide a race (bounded recall loss,
        #: like the paper's finite lock tables) but never invent one —
        #: the evicted granule simply looks like a first access again.
        self.max_entries = max_entries
        self.evictions = 0
        self._entries: Dict[int, MetadataEntry] = {}
        #: Power-of-two granularities (all the config allows) divide by a
        #: shift on the hot path; anything else falls back to division.
        self._granule_shift: Optional[int] = (
            granularity_bytes.bit_length() - 1
            if granularity_bytes & (granularity_bytes - 1) == 0
            else None
        )

    def granule_of(self, address: int) -> int:
        """Index of the granule shadowing ``address``."""
        if self._granule_shift is not None:
            return address >> self._granule_shift
        return address // self.granularity_bytes

    def tag_of(self, address: int) -> int:
        """The address tag stored to disambiguate granules (Figure 4)."""
        return self.granule_of(address) & ((1 << TAG_BITS) - 1)

    def tag_of_granule(self, granule: int) -> int:
        """``tag_of`` for callers that already hold the granule index."""
        return granule & ((1 << TAG_BITS) - 1)

    def lookup(self, address: int) -> MetadataEntry:
        """Fetch (creating if absent) the entry shadowing ``address``."""
        return self.lookup_granule(self.granule_of(address))

    def lookup_granule(self, granule: int) -> MetadataEntry:
        """``lookup`` for callers that already hold the granule index."""
        entry = self._entries.get(granule)
        if entry is None:
            if (
                self.max_entries is not None
                and len(self._entries) >= self.max_entries
            ):
                # FIFO eviction: dicts preserve insertion order, so the
                # first key is the longest-resident granule.
                self._entries.pop(next(iter(self._entries)))
                self.evictions += 1
                if HOT.enabled:
                    HOT.metadata_evictions.inc()
            entry = MetadataEntry()
            self._entries[granule] = entry
        return entry

    def peek(self, address: int) -> Optional[MetadataEntry]:
        """Fetch the entry without creating it."""
        return self._entries.get(self.granule_of(address))

    def clear(self) -> None:
        """Drop all entries (kernel boundary: implicit global barrier)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def shadow_bytes(self) -> int:
        """Bytes of metadata materialized so far."""
        return len(self._entries) * self.entry_bytes
