"""Unit tests for planes and the flash chip (timing, wear, free lists)."""

import pytest

from repro.errors import CrashError, InvalidAddressError, WriteToNonErasedPageError
from repro.flash.block import BlockKind
from repro.flash.chip import FlashChip, FlashStats
from repro.flash.geometry import FlashGeometry
from repro.flash.page import OOBData, PageState
from repro.sim.crash import CrashInjector, CrashPoint


@pytest.fixture
def tiny_chip():
    return FlashChip(FlashGeometry(planes=2, blocks_per_plane=4, pages_per_block=4))


class TestPlane:
    def test_all_blocks_start_free(self, tiny_chip):
        for plane in tiny_chip.planes:
            assert plane.free_count == plane.num_blocks

    def test_allocate_assigns_kind(self, tiny_chip):
        plane = tiny_chip.planes[0]
        block = plane.allocate(BlockKind.LOG)
        assert block.kind is BlockKind.LOG
        assert plane.free_count == plane.num_blocks - 1
        assert not plane.is_free(block.pbn)

    def test_allocate_exhaustion(self, tiny_chip):
        plane = tiny_chip.planes[0]
        for _ in range(plane.num_blocks):
            plane.allocate(BlockKind.DATA)
        with pytest.raises(IndexError):
            plane.allocate(BlockKind.DATA)

    def test_release_requires_erased(self, tiny_chip):
        plane = tiny_chip.planes[0]
        block = plane.allocate(BlockKind.DATA)
        with pytest.raises(ValueError):
            plane.release(block)

    def test_release_foreign_block_rejected(self, tiny_chip):
        plane0, plane1 = tiny_chip.planes
        block = plane1.allocate(BlockKind.DATA)
        block.erase()
        with pytest.raises(InvalidAddressError):
            plane0.release(block)

    def test_blocks_of_kind(self, tiny_chip):
        plane = tiny_chip.planes[0]
        plane.allocate(BlockKind.LOG)
        plane.allocate(BlockKind.DATA)
        assert len(list(plane.blocks_of_kind(BlockKind.LOG))) == 1
        assert len(list(plane.blocks_of_kind(BlockKind.DATA))) == 1


class TestChipOperations:
    def test_program_and_read_round_trip(self, tiny_chip):
        oob = OOBData(lbn=42, dirty=True, seq=1)
        cost_w = tiny_chip.program_page(0, "payload", oob)
        data, read_oob, cost_r = tiny_chip.read_page(0)
        assert data == "payload"
        assert read_oob.lbn == 42
        assert cost_w == pytest.approx(tiny_chip.timing.write_cost())
        assert cost_r == pytest.approx(tiny_chip.timing.read_cost())

    def test_program_enforces_nand_order(self, tiny_chip):
        tiny_chip.program_page(0, "a", OOBData(lbn=0))
        with pytest.raises(WriteToNonErasedPageError):
            tiny_chip.program_page(0, "b", OOBData(lbn=0))

    def test_erase_returns_block_to_free_list(self, tiny_chip):
        plane = tiny_chip.planes[0]
        block = plane.allocate(BlockKind.LOG)
        ppn = tiny_chip.geometry.make_ppn(block.pbn, 0)
        tiny_chip.program_page(ppn, "x", OOBData(lbn=0))
        free_before = plane.free_count
        cost = tiny_chip.erase_block(block.pbn)
        assert cost == pytest.approx(tiny_chip.timing.erase_cost())
        assert plane.free_count == free_before + 1
        assert tiny_chip.page_state[ppn] == PageState.FREE

    def test_stats_accumulate(self, tiny_chip):
        tiny_chip.program_page(0, "x", OOBData(lbn=0))
        tiny_chip.read_page(0)
        tiny_chip.scan_oob(0)
        assert tiny_chip.stats.page_writes == 1
        assert tiny_chip.stats.page_reads == 1
        assert tiny_chip.stats.oob_scans == 1
        assert tiny_chip.stats.busy_us > 0

    def test_seq_monotonic(self, tiny_chip):
        values = [tiny_chip.next_seq() for _ in range(10)]
        assert values == sorted(values)
        assert len(set(values)) == 10


class TestWearAccounting:
    def test_total_erases(self, tiny_chip):
        plane = tiny_chip.planes[0]
        block = plane.allocate(BlockKind.DATA)
        tiny_chip.erase_block(block.pbn)
        block2 = plane.allocate(BlockKind.DATA)
        tiny_chip.erase_block(block2.pbn)
        assert tiny_chip.total_erases() == 2

    def test_wear_differential(self, tiny_chip):
        plane = tiny_chip.planes[0]
        block = plane.allocate(BlockKind.DATA)
        for _ in range(3):
            tiny_chip.erase_block(block.pbn)
            # Re-allocate the same block: FIFO free list makes it come
            # back eventually; force it directly for the test.
            plane._free.remove(block.pbn)
            block.kind = BlockKind.DATA
        assert tiny_chip.wear_differential() == 3

    def test_free_blocks_total(self, tiny_chip):
        total = tiny_chip.geometry.total_blocks
        assert tiny_chip.free_blocks_total() == total
        tiny_chip.planes[0].allocate(BlockKind.DATA)
        assert tiny_chip.free_blocks_total() == total - 1


class TestPlaneDetails:
    def test_block_lookup(self, tiny_chip):
        plane0 = tiny_chip.planes[0]
        assert plane0.block(0) is tiny_chip.block(0)
        with pytest.raises(InvalidAddressError):
            plane0.block(4)  # block 4 lives on plane 1

    def test_allocate_specific(self, tiny_chip):
        plane = tiny_chip.planes[1]
        block = plane.allocate_specific(6, BlockKind.DATA)
        assert block.pbn == 6 and block.kind is BlockKind.DATA
        assert tiny_chip.free_blocks_total() == tiny_chip.geometry.total_blocks - 1
        with pytest.raises(InvalidAddressError):
            plane.allocate_specific(6, BlockKind.DATA)

    def test_wear_heaps_track_erase_counts(self, tiny_chip):
        plane = tiny_chip.planes[0]
        block = plane.allocate_specific(2, BlockKind.DATA)
        tiny_chip.erase_block(block.pbn)
        assert plane.most_worn_free() == 2
        assert plane.least_worn_free() == 0
        assert sorted(plane.free_pbns()) == [0, 1, 2, 3]

    def test_reserve_queues_behind_busy_plane(self, tiny_chip):
        plane = tiny_chip.planes[0]
        assert plane.reserve(10.0, 5.0) == (10.0, 15.0)
        assert plane.reserve(12.0, 5.0) == (15.0, 20.0)
        plane.reset_busy()
        assert plane.reserve(0.0, 1.0) == (0.0, 1.0)

    def test_tracer_sees_alloc_and_release(self, tiny_chip):
        events = []

        class Recorder:
            def emit(self, name, **fields):
                events.append((name, fields["pbn"]))

        plane = tiny_chip.planes[0]
        plane.tracer = Recorder()
        block = plane.allocate(BlockKind.LOG)
        tiny_chip.erase_block(block.pbn)
        plane.allocate_specific(1, BlockKind.DATA)
        assert events == [
            ("flash.alloc", block.pbn), ("flash.release", block.pbn),
            ("flash.alloc", 1),
        ]

    def test_reprs(self, tiny_chip):
        assert "free=8" in repr(tiny_chip)
        assert repr(tiny_chip.planes[0]) == "Plane(id=0, blocks=4, free=4)"
        assert "kind=FREE" in repr(tiny_chip.block(0))


class TestChipDetails:
    def test_program_ticks_both_boundaries(self, tiny_chip):
        injector = CrashInjector()
        tiny_chip.crash_injector = injector
        tiny_chip.program_page(0, "x", OOBData(lbn=0))
        assert injector.point_counts == {
            CrashPoint.BEFORE_DATA_WRITE: 1, CrashPoint.AFTER_DATA_WRITE: 1,
        }

    def test_crash_after_program_keeps_the_page(self, tiny_chip):
        injector = CrashInjector()
        injector.arm(at=CrashPoint.AFTER_DATA_WRITE)
        tiny_chip.crash_injector = injector
        with pytest.raises(CrashError):
            tiny_chip.program_page(0, "x", OOBData(lbn=0))
        assert tiny_chip.read_page(0)[0] == "x"

    def test_reprogram_of_invalid_page_rejected(self, tiny_chip):
        tiny_chip.program_page(0, "x", OOBData(lbn=0))
        block = tiny_chip.block(0)
        block.invalidate(0)
        block.write_pointer = 0  # pretend the pointer was lost
        with pytest.raises(WriteToNonErasedPageError, match="INVALID, not FREE"):
            tiny_chip.program_page(0, "y", OOBData(lbn=0))

    def test_programmed_offsets(self, tiny_chip):
        tiny_chip.program_page(1, "x", OOBData(lbn=1))
        tiny_chip.program_page(3, "y", OOBData(lbn=3))
        tiny_chip.block(0).invalidate(1)
        assert tiny_chip.block(0).programmed_offsets() == [1, 3]

    def test_out_of_range_page_rejected(self, tiny_chip):
        with pytest.raises(InvalidAddressError):
            tiny_chip.read_page(tiny_chip.geometry.total_pages)
        with pytest.raises(InvalidAddressError):
            tiny_chip.scan_oob(-1)

    def test_stats_merge(self, tiny_chip):
        tiny_chip.program_page(0, "x", OOBData(lbn=0))
        before = FlashStats(**vars(tiny_chip.stats))
        tiny_chip.read_page(0)
        merged = before.merge(tiny_chip.stats)
        assert (merged.page_writes, merged.page_reads) == (2, 1)
        assert merged.busy_us == before.busy_us + tiny_chip.stats.busy_us
        assert before.page_reads == 0
