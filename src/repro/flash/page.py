"""Flash page states and out-of-band (OOB) metadata.

A page holds an opaque data payload (the simulator stores a small token
rather than 4 KB of bytes, in the style of the David emulator the paper
cites) plus an OOB record.  The OOB area carries the *reverse map* — the
logical block the page holds — and the page's clean/dirty state, which
the SSC uses for garbage collection and which the native SSD baseline
must scan at recovery time.

Pages are not objects: the chip stores every page as one slot in three
flat columns (state code, payload, OOB record); see
:class:`~repro.flash.chip.FlashChip`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional


class PageState(IntEnum):
    """Lifecycle of a flash page between erases.

    The values are the codes stored in the chip's ``page_state``
    column; an erased column (all zero bytes) is all FREE.
    """

    FREE = 0       # erased, programmable
    VALID = 1      # holds live, mapped data
    INVALID = 2    # holds stale data awaiting erase


@dataclass(slots=True)
class OOBData:
    """Out-of-band record written alongside a page program.

    ``lbn`` is the logical block number the page holds (the *disk*
    address for an SSC, the SSD-internal address for an SSD).  ``dirty``
    marks write-back data not yet on disk.  ``seq`` is a monotonically
    increasing write sequence used to disambiguate multiple flash copies
    of the same logical block during OOB recovery scans.  ``checksum``
    binds the payload to the logical address (set by the chip at program
    time and carried unchanged when garbage collection relocates the
    page); recovery uses it to detect torn programs and bit rot, and
    ``None`` marks metadata written before checksumming existed (always
    treated as intact).

    ``dirty`` of a programmed page changes only through the owning
    block's ``mark_clean``/``mark_dirty`` (or ``recount``), which keep
    the block's dirty counter and bitmap in step.
    """

    lbn: Optional[int] = None
    dirty: bool = False
    seq: int = 0
    checksum: Optional[int] = None
