"""Crash (power-failure) injection.

Section 6.4 of the paper evaluates recovery after a crash.  We model a
crash as the loss of all *volatile* device state: the in-memory mapping
tables, the unflushed log buffer, and any buffered ``write-clean`` data.
Durable state — flash page contents, flushed log records, checkpoints,
out-of-band metadata — survives.

:class:`CrashInjector` lets tests and benchmarks schedule a crash after a
chosen number of durable-write steps, which exercises torn-state corners
(e.g. a crash after the data page is written but before the mapping
commit) without needing real power cuts.  The injector is wired through
the durability path: :meth:`~repro.flash.chip.FlashChip.program_page`
and the GC copy loop (``copy_pages``) tick around every page program,
the operation log ticks at every flush, and the checkpoint store ticks
after every checkpoint write, so arming ``after_events=k`` enumerates
the k-th durability boundary a workload crosses.  ``torn=True``
additionally models a *partial* program at the firing boundary: the
in-flight page (or log/checkpoint write) is left on flash as detectably
damaged garbage instead of vanishing cleanly.
"""

from __future__ import annotations

from enum import Enum, auto
from typing import Dict, Optional

from repro.errors import CrashError


class CrashPoint(Enum):
    """Where, within a compound device operation, a crash fires."""

    BEFORE_DATA_WRITE = auto()
    AFTER_DATA_WRITE = auto()     # data durable, mapping commit lost
    AFTER_LOG_FLUSH = auto()      # data + mapping durable
    AFTER_CHECKPOINT = auto()


class CrashInjector:
    """Arms a crash to fire after N durability events.

    Devices call :meth:`tick` at each internal durability boundary,
    tagging it with a :class:`CrashPoint`.  When the armed countdown hits
    zero at a matching point, :class:`~repro.errors.CrashError` is raised;
    the owner (device) catches it at its public-operation boundary and
    transitions into the crashed state.

    Every tick — armed or not — is also counted (``ticks`` total and
    ``point_counts`` per kind), which is how the crash-state explorer
    enumerates the durability boundaries of a workload: one unarmed
    baseline run yields the boundary count, then one armed run per
    boundary index replays the workload and crashes there.
    """

    def __init__(self):
        self._armed = False
        self._countdown = 0
        self._match: Optional[CrashPoint] = None
        self.fired = False
        self.fired_point: Optional[CrashPoint] = None
        #: When True, the crash models a *torn write*: the durability
        #: boundary it fires at was mid-flight, so the owner leaves
        #: partially-programmed, checksum-damaged state behind instead
        #: of losing the write cleanly.
        self.torn = False
        self.ticks = 0
        self.point_counts: Dict[CrashPoint, int] = {}

    def arm(
        self,
        after_events: int = 0,
        at: Optional[CrashPoint] = None,
        torn: bool = False,
    ) -> None:
        """Fire a crash after ``after_events`` further matching ticks."""
        if after_events < 0:
            raise ValueError("after_events must be >= 0")
        self._armed = True
        self._countdown = after_events
        self._match = at
        self.torn = torn
        self.fired = False
        self.fired_point = None

    def disarm(self) -> None:
        """Cancel any pending crash."""
        self._armed = False
        self._match = None
        self.torn = False

    def tick(self, point: CrashPoint) -> None:
        """Advance the countdown; raise :class:`CrashError` when it fires."""
        self.ticks += 1
        self.point_counts[point] = self.point_counts.get(point, 0) + 1
        if not self._armed:
            return
        if self._match is not None and point is not self._match:
            return
        if self._countdown > 0:
            self._countdown -= 1
            return
        self._armed = False
        self.fired = True
        self.fired_point = point
        raise CrashError(f"simulated power failure at {point.name}")
