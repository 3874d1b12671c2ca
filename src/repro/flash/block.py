"""Erase blocks.

An erase block is the granularity of the NAND erase operation (64 pages,
256 KB by default).  Blocks are programmed append-only: NAND requires
pages within a block to be written in order, which is also what lets the
FTL detect sequentially-written log blocks eligible for switch merges.

A block owns no page objects.  Its pages are the slots
``base .. base + num_pages`` of three flat columns — state codes, data
payloads and OOB records — which the owning chip allocates once for all
of its pages.  The block keeps its counters *incrementally*: every
method that changes a page's state or dirty flag updates
``valid_count``/``dirty_count`` and the ``valid_bits``/``dirty_bits``
bitmaps (bit ``i`` is page offset ``i``) in the same step, so no caller
ever rescans the pages to learn them.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import Any, List, Optional, Tuple

from repro.errors import FlashStateError, WriteToNonErasedPageError
from repro.flash.page import OOBData, PageState


#: Sentinel payload left behind by a torn (partially-completed) page
#: program.  Recovery must never surface it: the accompanying OOB record
#: carries no logical address and a checksum that cannot verify.
TORN_PAGE = "<torn-page>"

# Plain-int state codes for the column hot paths.
_FREE = int(PageState.FREE)
_VALID = int(PageState.VALID)
_INVALID = int(PageState.INVALID)

#: The three page columns: (state codes, data payloads, OOB records).
Columns = Tuple[bytearray, List[Any], List[Optional[OOBData]]]


def new_columns(pages: int) -> Columns:
    """Erased columns for ``pages`` pages."""
    return bytearray(pages), [None] * pages, [None] * pages


class BlockKind(Enum):
    """Role the FTL currently assigns to a block."""

    FREE = auto()        # erased, unassigned
    DATA = auto()        # block-mapped data block
    LOG = auto()         # page-mapped log block
    META = auto()        # device metadata (operation log / checkpoints)


class EraseBlock:
    """One erase block: a window onto the page columns plus wear and
    usage accounting.

    ``EraseBlock(pbn, pages_per_block)`` builds a standalone block with
    private columns; a chip passes its shared ``columns`` instead, and
    the block's pages then live at ``pbn * pages_per_block + offset``.
    """

    __slots__ = (
        "pbn",
        "num_pages",
        "base",
        "page_state",
        "page_data",
        "page_oob",
        "kind",
        "erase_count",
        "write_pointer",
        "valid_count",
        "dirty_count",
        "valid_bits",
        "dirty_bits",
        "sequential",
        "first_lbn",
    )

    def __init__(self, pbn: int, pages_per_block: int,
                 columns: Optional[Columns] = None):
        self.pbn = pbn
        self.num_pages = pages_per_block
        if columns is None:
            columns = new_columns(pages_per_block)
            self.base = 0
        else:
            self.base = pbn * pages_per_block
        self.page_state, self.page_data, self.page_oob = columns
        self.kind = BlockKind.FREE
        self.erase_count = 0
        # Next programmable page offset; NAND programs sequentially.
        self.write_pointer = 0
        self.valid_count = 0
        self.dirty_count = 0
        # Bit i set <=> page i is VALID (valid_bits) / VALID and dirty
        # (dirty_bits).
        self.valid_bits = 0
        self.dirty_bits = 0
        # True while every programmed page i holds logical offset
        # first_lbn + i; such a full log block can be switch-merged.
        self.sequential = True
        self.first_lbn: Optional[int] = None

    @property
    def is_full(self) -> bool:
        """True once every page has been programmed since the last erase."""
        return self.write_pointer >= self.num_pages

    @property
    def free_pages(self) -> int:
        """Pages still programmable before the block is full."""
        return self.num_pages - self.write_pointer

    def _check_programmable(self, offset: int, what: str) -> int:
        """NAND program rules; returns the page's column index."""
        if offset < self.write_pointer:
            raise WriteToNonErasedPageError(
                f"block {self.pbn}: {what} at offset {offset} but write "
                f"pointer is {self.write_pointer} (NAND programs in order)"
            )
        index = self.base + offset
        state = self.page_state[index]
        if state != _FREE:
            raise WriteToNonErasedPageError(
                f"block {self.pbn} page {offset} is "
                f"{PageState(state).name}, not FREE"
            )
        return index

    def program(self, offset: int, data: Any, oob: OOBData) -> None:
        """Program page ``offset``.

        NAND programs pages within a block in ascending order; skipping
        forward is allowed (the skipped pages stay FREE — data blocks
        built by merges may have holes where a page was never cached),
        but programming at or below the write pointer is rejected.
        """
        index = self.base + offset
        write_pointer = self.write_pointer
        if offset < write_pointer or self.page_state[index] != _FREE:
            self._check_programmable(offset, "program")  # raises
        if offset > write_pointer:
            self.sequential = False
        self.page_state[index] = _VALID
        self.page_data[index] = data
        self.page_oob[index] = oob
        self.write_pointer = offset + 1
        self.valid_count += 1
        bit = 1 << offset
        self.valid_bits |= bit
        if oob.dirty:
            self.dirty_count += 1
            self.dirty_bits |= bit
        if self.sequential:
            lbn = oob.lbn
            if lbn is None:
                self.sequential = False
            elif offset == 0:
                self.first_lbn = lbn
            elif self.first_lbn is None or lbn != self.first_lbn + offset:
                self.sequential = False

    def program_torn(self, offset: int) -> None:
        """Leave page ``offset`` in the state a power cut mid-program does.

        The cells were partially written: they read back as garbage, the
        OOB reverse map is unusable, and the stored checksum can never
        match.  The write pointer still advances — NAND cannot reprogram
        the page without an erase — so the block's geometry stays honest.
        """
        index = self._check_programmable(offset, "torn program")
        self.page_state[index] = _VALID  # reads back as (garbage) data
        self.page_data[index] = TORN_PAGE
        self.page_oob[index] = OOBData(lbn=None, dirty=False, seq=0, checksum=0)
        self.write_pointer = offset + 1
        self.valid_count += 1
        self.valid_bits |= 1 << offset
        self.sequential = False

    def invalidate(self, offset: int) -> None:
        """Mark page ``offset`` stale (its data was overwritten elsewhere)."""
        index = self.base + offset
        if self.page_state[index] != _VALID:
            return
        self.page_state[index] = _INVALID
        self.valid_count -= 1
        bit = 1 << offset
        self.valid_bits ^= bit
        if self.dirty_bits & bit:
            self.dirty_bits ^= bit
            self.dirty_count -= 1

    def mark_clean(self, offset: int) -> None:
        """Clear the dirty flag on a valid page (SSC ``clean`` support)."""
        oob = self.page_oob[self.base + offset]
        if oob is not None and oob.dirty:
            oob.dirty = False
            bit = 1 << offset
            if self.dirty_bits & bit:
                self.dirty_bits ^= bit
                self.dirty_count -= 1

    def mark_dirty(self, offset: int) -> None:
        """Set the dirty flag on a valid page (crash rollback of clean)."""
        oob = self.page_oob[self.base + offset]
        if oob is not None and not oob.dirty:
            oob.dirty = True
            bit = 1 << offset
            if self.valid_bits & bit:
                self.dirty_bits |= bit
                self.dirty_count += 1

    def erase(self) -> None:
        """Erase the block: every page returns to FREE; wear increments."""
        low = self.base
        high = low + self.num_pages
        self.page_state[low:high] = bytes(self.num_pages)
        self.page_data[low:high] = [None] * self.num_pages
        self.page_oob[low:high] = [None] * self.num_pages
        self.erase_count += 1
        self.write_pointer = 0
        self.valid_count = 0
        self.dirty_count = 0
        self.valid_bits = 0
        self.dirty_bits = 0
        self.sequential = True
        self.first_lbn = None
        self.kind = BlockKind.FREE

    def valid_offsets(self) -> List[int]:
        """Offsets of VALID pages, ascending (a snapshot: safe to
        invalidate while iterating)."""
        offsets = []
        bits = self.valid_bits
        while bits:
            low = bits & -bits
            offsets.append(low.bit_length() - 1)
            bits ^= low
        return offsets

    def programmed_offsets(self) -> List[int]:
        """Offsets programmed since the last erase (those with an OOB
        record), ascending."""
        oob = self.page_oob
        base = self.base
        return [
            offset for offset in range(self.num_pages)
            if oob[base + offset] is not None
        ]

    def _column_state(self) -> Tuple[int, int]:
        """(valid_bits, dirty_bits) recomputed from the columns."""
        valid_bits = 0
        dirty_bits = 0
        state = self.page_state
        oob_column = self.page_oob
        base = self.base
        for offset in range(self.num_pages):
            if state[base + offset] == _VALID:
                valid_bits |= 1 << offset
                oob = oob_column[base + offset]
                if oob is not None and oob.dirty:
                    dirty_bits |= 1 << offset
        return valid_bits, dirty_bits

    def recount(self) -> None:
        """Rebuild the counters and bitmaps from the columns.

        For code that rewrites page state wholesale (crash recovery's
        reconcile pass) instead of going through the per-page methods.
        """
        self.valid_bits, self.dirty_bits = self._column_state()
        self.valid_count = self.valid_bits.bit_count()
        self.dirty_count = self.dirty_bits.bit_count()

    def audit(self) -> None:
        """Raise :class:`FlashStateError` if the incremental state
        disagrees with the columns."""
        valid_bits, dirty_bits = self._column_state()
        for name, expected in (
            ("valid_bits", valid_bits),
            ("dirty_bits", dirty_bits),
            ("valid_count", valid_bits.bit_count()),
            ("dirty_count", dirty_bits.bit_count()),
        ):
            actual = getattr(self, name)
            if actual != expected:
                show = hex if name.endswith("_bits") else str
                raise FlashStateError(
                    f"block {self.pbn}: {name} is {show(actual)}, "
                    f"columns say {show(expected)}"
                )
        state = self.page_state
        base = self.base
        for offset in range(self.write_pointer, self.num_pages):
            if state[base + offset] != _FREE or self.page_oob[base + offset] is not None:
                raise FlashStateError(
                    f"block {self.pbn}: page {offset} is programmed at or "
                    f"past the write pointer {self.write_pointer}"
                )
        if self.kind is BlockKind.FREE and self.write_pointer:
            raise FlashStateError(
                f"block {self.pbn} is FREE but its write pointer is "
                f"{self.write_pointer}"
            )

    def utilization(self) -> float:
        """Fraction of pages holding valid data (GC victim metric)."""
        return self.valid_count / self.num_pages

    def __repr__(self) -> str:
        return (
            f"EraseBlock(pbn={self.pbn}, kind={self.kind.name}, "
            f"valid={self.valid_count}/{self.num_pages}, "
            f"erases={self.erase_count})"
        )
