"""Model-based test of the flash column layer.

A hypothesis state machine drives a small chip through random program,
torn-program, GC-copy, invalidate, clean/dirty, erase, allocate and
release steps, mirrored into a plain dict-per-page model.  After every
step the chip's incremental state must pass :meth:`FlashChip.audit`,
and ``read_page``/``scan_oob`` must agree with the model page by page,
stored OOB checksum included: a program stamps one, a GC copy under the
source's LBN carries the source's (so rot stays detectable after a
move), and a copy under another LBN or from a torn page stamps afresh.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.check import faults
from repro.errors import CrashError, FlashStateError
from repro.flash.block import TORN_PAGE, BlockKind
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.page import OOBData, PageState
from repro.ftl.base import FTLStats
from repro.sim.crash import CrashInjector, CrashPoint
from repro.util.checksum import crc32_of_payload

GEOMETRY = FlashGeometry(planes=2, blocks_per_plane=4, pages_per_block=8)
PAGES = GEOMETRY.pages_per_block


def erased_page():
    return {"state": PageState.FREE, "data": None, "lbn": None, "dirty": False,
            "checksum": None}


class FlashColumnsMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.chip = FlashChip(GEOMETRY)
        self.pages = {ppn: erased_page() for ppn in range(GEOMETRY.total_pages)}
        self.write_pointer = {pbn: 0 for pbn in range(GEOMETRY.total_blocks)}
        self.free = set(range(GEOMETRY.total_blocks))
        self.version = 0

    # ---- helpers ---------------------------------------------------------

    def _open_block(self, index):
        """An allocated block with room left, or None."""
        candidates = sorted(
            pbn for pbn in range(GEOMETRY.total_blocks)
            if pbn not in self.free and self.write_pointer[pbn] < PAGES
        )
        return candidates[index % len(candidates)] if candidates else None

    def _slot(self, index, skip):
        pbn = self._open_block(index)
        if pbn is None:
            return None
        offset = min(self.write_pointer[pbn] + skip, PAGES - 1)
        return pbn, offset

    def _pages_in(self, state):
        return sorted(
            ppn for ppn, page in self.pages.items() if page["state"] is state
        )

    # ---- rules -----------------------------------------------------------

    @rule(plane=st.integers(0, GEOMETRY.planes - 1),
          kind=st.sampled_from([BlockKind.LOG, BlockKind.DATA]))
    def allocate(self, plane, kind):
        target = self.chip.planes[plane]
        if target.free_count == 0:
            with pytest.raises(IndexError):
                target.allocate(kind)
            return
        block = target.allocate(kind)
        assert block.pbn in self.free
        self.free.discard(block.pbn)

    @rule(plane=st.integers(0, GEOMETRY.planes - 1), hottest=st.booleans())
    def allocate_by_wear(self, plane, hottest):
        target = self.chip.planes[plane]
        pbn = target.most_worn_free() if hottest else target.least_worn_free()
        if pbn is None:
            assert target.free_count == 0
            return
        counts = [self.chip.block(free).erase_count for free in target.free_pbns()]
        expected = max(counts) if hottest else min(counts)
        assert self.chip.block(pbn).erase_count == expected
        target.allocate_specific(pbn, BlockKind.DATA)
        self.free.discard(pbn)

    @rule(index=st.integers(0, 16), skip=st.integers(0, 2),
          lbn=st.integers(0, 50), dirty=st.booleans())
    def program(self, index, skip, lbn, dirty):
        slot = self._slot(index, skip)
        if slot is None:
            return
        pbn, offset = slot
        self.version += 1
        data = ("v", self.version)
        ppn = pbn * PAGES + offset
        self.chip.program_page(
            ppn, data, OOBData(lbn=lbn, dirty=dirty, seq=self.chip.next_seq())
        )
        self.pages[ppn] = {"state": PageState.VALID, "data": data,
                           "lbn": lbn, "dirty": dirty,
                           "checksum": crc32_of_payload(lbn, data)}
        self.write_pointer[pbn] = offset + 1

    @rule(index=st.integers(0, 16), skip=st.integers(0, 2))
    def torn_program(self, index, skip):
        slot = self._slot(index, skip)
        if slot is None:
            return
        pbn, offset = slot
        injector = CrashInjector()
        injector.arm(at=CrashPoint.BEFORE_DATA_WRITE, torn=True)
        self.chip.crash_injector = injector
        ppn = pbn * PAGES + offset
        with pytest.raises(CrashError):
            self.chip.program_page(ppn, "lost", OOBData(lbn=1, dirty=True))
        self.chip.crash_injector = None
        self.pages[ppn] = {"state": PageState.VALID, "data": TORN_PAGE,
                           "lbn": None, "dirty": False, "checksum": 0}
        self.write_pointer[pbn] = offset + 1

    @rule(source=st.integers(0, 1000), index=st.integers(0, 16),
          lbn=st.integers(0, 50), keep_lbn=st.booleans())
    def gc_copy(self, source, index, lbn, keep_lbn):
        valid = self._pages_in(PageState.VALID)
        slot = self._slot(index, 0)
        if not valid or slot is None:
            return
        src = valid[source % len(valid)]
        source_page = self.pages[src]
        if keep_lbn and source_page["lbn"] is not None:
            lbn = source_page["lbn"]
        pbn, offset = slot
        dst = pbn * PAGES + offset
        if dst == src:
            return
        copied = []
        gc_stats = FTLStats()
        cost = self.chip.copy_pages(
            [(src, dst, lbn)], 0.0, gc_stats,
            lambda copied_lbn, dst_ppn: copied.append((copied_lbn, dst_ppn)),
        )
        assert cost == self.chip.timing.read_cost() + self.chip.timing.write_cost()
        assert copied == [(lbn, dst)]
        assert (gc_stats.gc_page_reads, gc_stats.gc_page_writes) == (1, 1)
        if lbn == source_page["lbn"]:
            checksum = source_page["checksum"]  # copyback keeps it
        else:
            checksum = crc32_of_payload(lbn, source_page["data"])
        self.pages[dst] = {"state": PageState.VALID,
                           "data": source_page["data"], "lbn": lbn,
                           "dirty": source_page["dirty"], "checksum": checksum}
        source_page["state"] = PageState.INVALID
        self.write_pointer[pbn] = offset + 1

    @rule(source=st.integers(0, 1000))
    def rot(self, source):
        """Bit rot: the payload changes, the stored checksum does not."""
        valid = self._pages_in(PageState.VALID)
        if not valid:
            return
        ppn = valid[source % len(valid)]
        faults.rot_page(self.chip, ppn)
        page = self.pages[ppn]
        page["data"] = ("<bitrot>", page["data"])

    @rule(ppn=st.integers(0, GEOMETRY.total_pages - 1))
    def invalidate(self, ppn):
        self.chip.block(ppn // PAGES).invalidate(ppn % PAGES)
        if self.pages[ppn]["state"] is PageState.VALID:
            self.pages[ppn]["state"] = PageState.INVALID

    @rule(ppn=st.integers(0, GEOMETRY.total_pages - 1), dirty=st.booleans())
    def set_dirty(self, ppn, dirty):
        block = self.chip.block(ppn // PAGES)
        if dirty:
            block.mark_dirty(ppn % PAGES)
        else:
            block.mark_clean(ppn % PAGES)
        if self.pages[ppn]["state"] is not PageState.FREE:
            self.pages[ppn]["dirty"] = dirty

    @rule(index=st.integers(0, 16))
    def erase(self, index):
        allocated = sorted(set(range(GEOMETRY.total_blocks)) - self.free)
        if not allocated:
            return
        pbn = allocated[index % len(allocated)]
        self.chip.erase_block(pbn)
        for ppn in range(pbn * PAGES, (pbn + 1) * PAGES):
            self.pages[ppn] = erased_page()
        self.write_pointer[pbn] = 0
        self.free.add(pbn)

    @rule(index=st.integers(0, 16))
    def release_free_block_again(self, index):
        """Releasing a block that is already free is no real move: the
        free counter must not change."""
        if not self.free:
            return
        pbn = sorted(self.free)[index % len(self.free)]
        self.chip.plane_of_block(pbn).release(self.chip.block(pbn))

    # ---- checks ----------------------------------------------------------

    @invariant()
    def audit_passes(self):
        self.chip.audit()
        assert self.chip.free_blocks_total() == len(self.free)

    @invariant()
    def columns_match_model(self):
        for ppn, page in self.pages.items():
            data, oob, _cost = self.chip.read_page(ppn)
            scanned, state, _cost = self.chip.scan_oob(ppn)
            assert state is page["state"], ppn
            assert scanned is oob
            assert data == page["data"], ppn
            if page["state"] is PageState.FREE:
                assert oob is None, ppn
            else:
                assert (oob.lbn, oob.dirty, oob.checksum) == (
                    page["lbn"], page["dirty"], page["checksum"]
                ), ppn
        for block in self.chip.blocks:
            assert block.write_pointer == self.write_pointer[block.pbn]


FlashColumnsMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=50, deadline=None
)
TestFlashColumnsAgainstModel = FlashColumnsMachine.TestCase


class TestAudit:
    def make_chip(self):
        chip = FlashChip(GEOMETRY)
        block = chip.planes[0].allocate(BlockKind.LOG)
        chip.program_page(block.base, "x", OOBData(lbn=3, dirty=True))
        return chip, block

    def test_clean_chip_passes(self):
        chip, _block = self.make_chip()
        chip.audit()

    def test_corrupt_valid_counter_caught(self):
        chip, block = self.make_chip()
        block.valid_count = 0
        with pytest.raises(FlashStateError, match=f"block {block.pbn}: valid_count"):
            chip.audit()

    def test_corrupt_dirty_bitmap_caught(self):
        chip, block = self.make_chip()
        block.dirty_bits = 0
        with pytest.raises(FlashStateError, match="dirty_bits"):
            chip.audit()

    def test_page_state_written_behind_the_block_caught(self):
        chip, block = self.make_chip()
        chip.page_state[block.base] = PageState.INVALID
        with pytest.raises(FlashStateError, match="valid_bits"):
            chip.audit()

    def test_corrupt_free_counter_caught(self):
        chip, _block = self.make_chip()
        chip.free_total += 1
        with pytest.raises(FlashStateError, match="free counter"):
            chip.audit()

    def test_free_set_disagreeing_with_kind_caught(self):
        chip, _block = self.make_chip()
        unused = chip.planes[1].allocate(BlockKind.DATA)
        unused.kind = BlockKind.FREE  # erased, but missing from the free set
        with pytest.raises(FlashStateError, match="plane 1: free set"):
            chip.audit()

    def test_free_block_with_write_pointer_caught(self):
        chip, block = self.make_chip()
        block.kind = BlockKind.FREE
        with pytest.raises(FlashStateError, match="is FREE but its write pointer"):
            chip.audit()


class TestInternedOps:
    def test_shard_rekeys_recorded_ops(self):
        chip = FlashChip(GEOMETRY)
        chip.set_resource_shard(3)
        block = chip.planes[1].allocate(BlockKind.LOG)
        mark = chip.op_recorder.begin()
        chip.program_page(block.base, "x", OOBData(lbn=1))
        chip.read_page(block.base)
        chip.scan_oob(block.base)
        chip.erase_block(block.pbn)
        ops = chip.op_recorder.end(mark)
        assert [op.resource for op in ops] == ["s3:plane:1"] * 4
        assert [op.kind for op in ops] == [
            "page_write", "page_read", "oob_scan", "erase",
        ]
        timing = chip.timing
        assert [op.duration_us for op in ops] == [
            timing.write_cost(), timing.read_cost(),
            timing.oob_read_cost(), timing.erase_cost(),
        ]

    def test_unsharded_keys(self):
        chip = FlashChip(GEOMETRY)
        mark = chip.op_recorder.begin()
        chip.read_page(GEOMETRY.total_pages - 1)
        (op,) = chip.op_recorder.end(mark)
        assert op.resource == f"plane:{GEOMETRY.planes - 1}"

    def test_nothing_recorded_without_a_capture(self):
        chip = FlashChip(GEOMETRY)
        chip.read_page(0)
        mark = chip.op_recorder.begin()
        assert chip.op_recorder.end(mark) == ()

    def test_copies_record_read_then_write_per_page(self):
        chip = FlashChip(GEOMETRY)
        source = chip.planes[0].allocate(BlockKind.LOG)
        target = chip.planes[1].allocate(BlockKind.DATA)
        for offset in range(3):
            chip.program_page(source.base + offset, offset, OOBData(lbn=offset))
        moves = [(source.base + offset, target.base + offset, offset)
                 for offset in range(3)]
        chip.copy_pages(moves[:1], 0.0, FTLStats())  # no capture open
        mark = chip.op_recorder.begin()
        assert mark == 0  # nothing was retained
        chip.copy_pages(moves[1:], 0.0, FTLStats())
        ops = chip.op_recorder.end(mark)
        assert [(op.resource, op.kind) for op in ops] == [
            ("plane:0", "page_read"), ("plane:1", "page_write"),
        ] * 2
