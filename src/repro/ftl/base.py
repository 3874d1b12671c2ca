"""Shared FTL statistics and accounting.

Table 5 of the paper reports, per device: total erases, the wear
differential between blocks, write amplification, and cache miss rate.
The first three come from this statistics object (miss rate comes from
the cache manager).  Write amplification follows the paper's phrasing —
"the native system writes each block an *additional* 2.3 times due to
garbage collection" — i.e. ``gc_page_writes / user_page_writes``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats.counters import FieldwiseSum


@dataclass
class FTLStats(FieldwiseSum):
    """Cumulative FTL-level activity counters."""

    user_reads: int = 0
    user_writes: int = 0
    gc_page_reads: int = 0
    gc_page_writes: int = 0
    meta_page_writes: int = 0        # operation log + checkpoint pages (SSC)
    full_merges: int = 0
    switch_merges: int = 0
    partial_merges: int = 0
    silent_evictions: int = 0        # erase blocks reclaimed without copying
    evicted_valid_pages: int = 0     # live (clean) pages dropped by eviction

    def write_amplification(self) -> float:
        """Extra flash writes per user write caused by garbage collection."""
        if self.user_writes == 0:
            return 0.0
        return self.gc_page_writes / self.user_writes
