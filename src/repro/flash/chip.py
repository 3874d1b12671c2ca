"""The flash chip: planes wired to a timing model and wear accounting.

The chip is the boundary between FTL logic (above) and the NAND model
(below).  Every operation returns its service time in microseconds so the
device layer can account request latency; the chip itself also keeps
aggregate statistics (reads, programs, erases, wear spread) that the
evaluation's Table 5 reports.

Page contents live in three flat columns indexed by physical page
number (``page_state``, ``page_data``, ``page_oob``); erase blocks are
windows onto them.  Because the timing model is frozen, every chip
operation's :class:`~repro.sim.completion.DeviceOp` is built once per
plane and kind, and the op trace records the shared tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.errors import CrashError, FlashStateError
from repro.flash.block import EraseBlock, new_columns
from repro.flash.geometry import FlashGeometry
from repro.flash.page import OOBData, PageState
from repro.flash.plane import Plane
from repro.flash.timing import TimingModel
from repro.sim.completion import (
    DeviceOp,
    OpRecorder,
    plane_resource,
    shard_plane_resource,
)
from repro.sim.crash import CrashInjector, CrashPoint
from repro.stats.counters import FieldwiseSum
from repro.util.checksum import crc32_of_payload


@dataclass
class FlashStats(FieldwiseSum):
    """Cumulative operation counts for one chip."""

    page_reads: int = 0
    page_writes: int = 0
    block_erases: int = 0
    oob_scans: int = 0
    busy_us: float = 0.0


class FlashChip:
    """A complete NAND chip: geometry, planes, timing, statistics."""

    def __init__(
        self,
        geometry: Optional[FlashGeometry] = None,
        timing: Optional[TimingModel] = None,
    ):
        self.geometry = geo = geometry or FlashGeometry()
        self.timing = timing or TimingModel()
        self.stats = FlashStats()
        # Per-request op tracing: a cache manager shares one recorder
        # across its chip and disk so completions carry the full,
        # in-order operation trace of each request.
        self.op_recorder = OpRecorder()
        # Optional fault hook: when set, every page program ticks the
        # injector at its BEFORE/AFTER durability boundaries so a crash
        # (or torn program) can fire mid-operation.
        self.crash_injector: Optional[CrashInjector] = None
        #: The page columns, indexed by PPN: state codes (PageState
        #: values), data payloads and OOB records.  Writes go through
        #: the owning block so its counters and bitmaps follow.
        columns = new_columns(geo.total_pages)
        self.page_state, self.page_data, self.page_oob = columns
        #: Every erase block, indexed by PBN.
        self.blocks: List[EraseBlock] = [
            EraseBlock(pbn, geo.pages_per_block, columns)
            for pbn in range(geo.total_blocks)
        ]
        self._blocks_per_plane = geo.blocks_per_plane
        self._pages_per_plane = geo.blocks_per_plane * geo.pages_per_block
        self.planes: List[Plane] = [
            Plane(
                plane_id,
                self.blocks[plane_id * geo.blocks_per_plane:
                            (plane_id + 1) * geo.blocks_per_plane],
                self,
            )
            for plane_id in range(geo.planes)
        ]
        #: Free erased blocks over all planes; the planes keep it in
        #: step with their free sets.
        self.free_total = geo.total_blocks
        # Set when this chip is a member of a sharded array (see
        # set_resource_shard); None for a standalone device.
        self.resource_shard: Optional[int] = None
        # The timing model is frozen, so per-op costs are constants.
        self._read_cost_us = self.timing.read_cost()
        self._write_cost_us = self.timing.write_cost()
        self._erase_cost_us = self.timing.erase_cost()
        self._oob_read_cost_us = self.timing.oob_read_cost()
        self._write_seq = 0
        self._set_plane_keys(
            [plane_resource(plane_id) for plane_id in range(geo.planes)]
        )

    # ---- lookup helpers --------------------------------------------------

    def plane_of_block(self, pbn: int) -> Plane:
        """Plane owning block ``pbn``."""
        return self.planes[self.geometry.pbn_to_plane(pbn)]

    def block(self, pbn: int) -> EraseBlock:
        """Erase block ``pbn``."""
        self.geometry.check_pbn(pbn)
        return self.blocks[pbn]

    def next_seq(self) -> int:
        """Monotonic write sequence number stamped into each page's OOB."""
        self._write_seq += 1
        return self._write_seq

    def _set_plane_keys(self, keys: List[str]) -> None:
        """Assign the planes' resource keys and build the interned ops."""
        for plane, key in zip(self.planes, keys):
            plane.resource_key = key
        self._read_ops = [DeviceOp(key, "page_read", self._read_cost_us) for key in keys]
        self._write_ops = [DeviceOp(key, "page_write", self._write_cost_us) for key in keys]
        self._erase_ops = [DeviceOp(key, "erase", self._erase_cost_us) for key in keys]
        self._scan_ops = [DeviceOp(key, "oob_scan", self._oob_read_cost_us) for key in keys]

    def set_resource_shard(self, shard_id: int) -> None:
        """Re-key this chip's plane resources as ``"s<k>:plane:<n>"``.

        A sharded cache array calls this on each member chip so that
        operations on different shards' planes land on distinct
        availability timelines in the replay engine — physically
        separate devices must never queue behind one another.
        """
        self.resource_shard = shard_id
        self._set_plane_keys([
            shard_plane_resource(shard_id, plane_id)
            for plane_id in range(self.geometry.planes)
        ])

    # ---- timed operations -------------------------------------------------

    def read_page(self, ppn: int) -> Tuple[Any, Optional[OOBData], float]:
        """Read page ``ppn``; returns (data, oob, cost_us).

        Reading a FREE or INVALID page is legal at the NAND level (it
        returns whatever is in the cells); the FTL above decides whether
        that is meaningful.
        """
        self.geometry.check_ppn(ppn)
        cost = self._read_cost_us
        stats = self.stats
        stats.page_reads += 1
        stats.busy_us += cost
        self.op_recorder.add(self._read_ops[ppn // self._pages_per_plane])
        return self.page_data[ppn], self.page_oob[ppn], cost

    def program_page(self, ppn: int, data: Any, oob: OOBData) -> float:
        """Program page ``ppn`` with data + OOB; returns cost_us.

        Enforces NAND constraints (in :meth:`EraseBlock.program`, the
        one program body): the page must be FREE and must not lie below
        the block's write pointer.  The OOB write is free (overlapped
        with the data program, per the paper's assumption).  Unless the
        caller supplies one, the OOB checksum binding the payload to its
        logical address is stamped here, so every programmed page is
        verifiable at recovery.  The crash injector ticks before and
        after the program; a torn crash leaves the page torn.
        """
        geo = self.geometry
        geo.check_ppn(ppn)
        pbn, offset = divmod(ppn, geo.pages_per_block)
        block = self.blocks[pbn]
        injector = self.crash_injector
        if injector is not None:
            try:
                injector.tick(CrashPoint.BEFORE_DATA_WRITE)
            except CrashError:
                if injector.torn:
                    # Power failed mid-program: the page holds garbage.
                    block.program_torn(offset)
                    self.stats.page_writes += 1
                raise
        if oob.checksum is None:
            oob.checksum = crc32_of_payload(oob.lbn, data)
        block.program(offset, data, oob)
        cost = self._write_cost_us
        stats = self.stats
        stats.page_writes += 1
        stats.busy_us += cost
        self.op_recorder.add(self._write_ops[pbn // self._blocks_per_plane])
        if injector is not None:
            injector.tick(CrashPoint.AFTER_DATA_WRITE)
        return cost

    def copy_pages(
        self,
        moves: Iterable[Tuple[int, int, int]],
        cost: float,
        gc_stats,
        on_copied: Optional[Callable[[int, int], Any]] = None,
    ) -> float:
        """Garbage-collection copyback: the one page-relocation loop.

        ``moves`` yields ``(src_ppn, dst_ppn, lbn)``.  Each move reads
        the source page and programs its payload at ``dst_ppn`` under a
        fresh OOB record — ``lbn``, the source's dirty flag, the next
        write sequence number — that carries the source's *stored*
        checksum: like a device's copyback, relocation moves the page's
        CRC with it instead of re-deriving it, so a page that rotted in
        place still fails verification after it moves.  A fresh
        checksum is stamped only when the source has none or its OOB
        names another LBN.  The move then invalidates the source and
        calls ``on_copied(lbn, dst_ppn)``.

        Per page, as in :meth:`program_page`, the crash injector ticks
        before and after the program (a torn crash leaves the
        destination torn) and :meth:`EraseBlock.program` enforces the
        NAND rules.  Each move adds its read cost and then its program
        cost onto ``cost``, which is returned, and onto the chip's busy
        time in the same order; ``gc_stats.gc_page_reads``/
        ``gc_page_writes`` count the copies.  The recorder state,
        interned ops and costs are looked up once per call, and the
        counters are settled when the loop ends, also when a crash cuts
        it short — so ``moves`` and ``on_copied`` must not operate on
        this chip.  ``moves`` is consumed lazily, so it may pick each
        destination after the previous copy has landed.
        """
        read_cost = self._read_cost_us
        write_cost = self._write_cost_us
        stats = self.stats
        injector = self.crash_injector
        record = self.op_recorder.appender()
        read_ops = self._read_ops
        write_ops = self._write_ops
        pages_per_plane = self._pages_per_plane
        pages_per_block = self.geometry.pages_per_block
        blocks = self.blocks
        page_data = self.page_data
        page_oob = self.page_oob
        busy = stats.busy_us
        seq = self._write_seq
        reads = programs = copies = 0
        try:
            for src_ppn, dst_ppn, lbn in moves:
                reads += 1
                busy += read_cost
                if record is not None:
                    record(read_ops[src_ppn // pages_per_plane])
                cost += read_cost
                seq += 1
                dst_pbn, dst_offset = divmod(dst_ppn, pages_per_block)
                block = blocks[dst_pbn]
                if injector is not None:
                    try:
                        injector.tick(CrashPoint.BEFORE_DATA_WRITE)
                    except CrashError:
                        if injector.torn:
                            block.program_torn(dst_offset)
                            programs += 1
                        raise
                data = page_data[src_ppn]
                source = page_oob[src_ppn]
                checksum = source.checksum if source.lbn == lbn else None
                if checksum is None:
                    checksum = crc32_of_payload(lbn, data)
                block.program(dst_offset, data,
                              OOBData(lbn, source.dirty, seq, checksum))
                programs += 1
                busy += write_cost
                if record is not None:
                    record(write_ops[dst_ppn // pages_per_plane])
                if injector is not None:
                    injector.tick(CrashPoint.AFTER_DATA_WRITE)
                cost += write_cost
                copies += 1
                src_pbn, src_offset = divmod(src_ppn, pages_per_block)
                blocks[src_pbn].invalidate(src_offset)
                if on_copied is not None:
                    on_copied(lbn, dst_ppn)
        finally:
            self._write_seq = seq
            stats.page_reads += reads
            stats.page_writes += programs
            stats.busy_us = busy
            gc_stats.gc_page_reads += reads
            gc_stats.gc_page_writes += copies
        return cost

    def erase_block(self, pbn: int) -> float:
        """Erase block ``pbn`` and return it to its plane's free list."""
        block = self.block(pbn)
        block.erase()
        plane_id = pbn // self._blocks_per_plane
        self.planes[plane_id].release(block)
        cost = self._erase_cost_us
        stats = self.stats
        stats.block_erases += 1
        stats.busy_us += cost
        self.op_recorder.add(self._erase_ops[plane_id])
        return cost

    def scan_oob(self, ppn: int) -> Tuple[Optional[OOBData], PageState, float]:
        """Read only the OOB area of ``ppn`` (used by native recovery)."""
        self.geometry.check_ppn(ppn)
        cost = self._oob_read_cost_us
        self.stats.oob_scans += 1
        self.stats.busy_us += cost
        self.op_recorder.add(self._scan_ops[ppn // self._pages_per_plane])
        return self.page_oob[ppn], PageState(self.page_state[ppn]), cost

    # ---- consistency ---------------------------------------------------------

    def audit(self) -> None:
        """Check the incremental flash state against the page columns.

        Recomputes every block's valid/dirty counts and bitmaps, checks
        that no page at or past a write pointer is programmed and that
        FREE blocks are fully erased, that each plane's free set holds
        exactly its FREE blocks, and that ``free_total`` matches the
        free sets.  Raises :class:`~repro.errors.FlashStateError`
        naming the first mismatch.
        """
        for block in self.blocks:
            block.audit()
        for plane in self.planes:
            plane.audit()
        free = sum(plane.free_count for plane in self.planes)
        if free != self.free_total:
            raise FlashStateError(
                f"chip free counter is {self.free_total}, "
                f"planes hold {free} free blocks"
            )

    # ---- wear accounting ----------------------------------------------------

    def total_erases(self) -> int:
        """Sum of erase counts over every block."""
        return sum(block.erase_count for block in self.blocks)

    def wear_differential(self) -> int:
        """Max minus min per-block erase count (Table 5's "Wear Diff.")."""
        counts = [block.erase_count for block in self.blocks]
        return max(counts) - min(counts) if counts else 0

    def free_blocks_total(self) -> int:
        """Free erased blocks summed over all planes."""
        return self.free_total

    def __repr__(self) -> str:
        return (
            f"FlashChip(planes={self.geometry.planes}, "
            f"blocks={self.geometry.total_blocks}, "
            f"free={self.free_blocks_total()})"
        )
