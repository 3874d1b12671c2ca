"""Unit tests for erase blocks and their page columns (NAND constraints)."""

import pytest

from repro.errors import FlashStateError, WriteToNonErasedPageError
from repro.flash.block import BlockKind, EraseBlock
from repro.flash.page import OOBData, PageState


class TestColumns:
    def test_fresh_block_is_erased(self):
        block = EraseBlock(0, 4)
        assert list(block.page_state) == [PageState.FREE] * 4
        assert block.page_data == [None] * 4
        assert block.page_oob == [None] * 4
        assert block.valid_bits == block.dirty_bits == 0

    def test_erase_resets_columns(self):
        block = EraseBlock(0, 4)
        block.program(0, "x", OOBData(lbn=1, dirty=True))
        block.erase()
        assert block.page_state[0] == PageState.FREE
        assert block.page_data[0] is None
        assert block.page_oob[0] is None

    def test_chip_blocks_share_columns(self):
        columns = (bytearray(8), [None] * 8, [None] * 8)
        first = EraseBlock(0, 4, columns)
        second = EraseBlock(1, 4, columns)
        second.program(0, "x", OOBData(lbn=9))
        assert second.base == 4
        assert columns[0][4] == PageState.VALID
        assert columns[1][4] == "x"
        assert first.page_state[0] == PageState.FREE
        second.erase()
        assert columns[1] == [None] * 8


class TestProgram:
    def make_block(self, pages=8):
        return EraseBlock(pbn=0, pages_per_block=pages)

    def test_sequential_program(self):
        block = self.make_block()
        for offset in range(8):
            block.program(offset, ("d", offset), OOBData(lbn=offset))
        assert block.is_full
        assert block.valid_count == 8

    def test_program_below_write_pointer_rejected(self):
        block = self.make_block()
        block.program(0, "a", OOBData(lbn=0))
        with pytest.raises(WriteToNonErasedPageError):
            block.program(0, "b", OOBData(lbn=0))

    def test_skip_forward_allowed_leaves_holes(self):
        block = self.make_block()
        block.program(0, "a", OOBData(lbn=0))
        block.program(3, "b", OOBData(lbn=3))
        assert block.write_pointer == 4
        assert block.page_state[1] == PageState.FREE
        assert block.page_state[2] == PageState.FREE
        assert block.valid_count == 2

    def test_skip_breaks_sequentiality(self):
        block = self.make_block()
        block.program(0, "a", OOBData(lbn=0))
        block.program(2, "b", OOBData(lbn=2))
        assert not block.sequential

    def test_free_pages(self):
        block = self.make_block()
        assert block.free_pages == 8
        block.program(0, "a", OOBData(lbn=0))
        assert block.free_pages == 7


class TestSequentialDetection:
    def test_sequential_run_detected(self):
        block = EraseBlock(0, 4)
        for offset in range(4):
            block.program(offset, "d", OOBData(lbn=100 + offset))
        assert block.sequential
        assert block.first_lbn == 100

    def test_non_sequential_lbns(self):
        block = EraseBlock(0, 4)
        block.program(0, "d", OOBData(lbn=100))
        block.program(1, "d", OOBData(lbn=50))
        assert not block.sequential

    def test_missing_lbn_breaks_sequentiality(self):
        block = EraseBlock(0, 4)
        block.program(0, "d", OOBData(lbn=None))
        assert not block.sequential


class TestInvalidateAndDirty:
    def test_invalidate_decrements_counts(self):
        block = EraseBlock(0, 4)
        block.program(0, "d", OOBData(lbn=0, dirty=True))
        assert block.dirty_count == 1
        block.invalidate(0)
        assert block.valid_count == 0
        assert block.dirty_count == 0
        assert block.page_state[0] == PageState.INVALID

    def test_invalidate_idempotent(self):
        block = EraseBlock(0, 4)
        block.program(0, "d", OOBData(lbn=0))
        block.invalidate(0)
        block.invalidate(0)
        assert block.valid_count == 0

    def test_mark_clean_and_dirty(self):
        block = EraseBlock(0, 4)
        block.program(0, "d", OOBData(lbn=0, dirty=True))
        block.mark_clean(0)
        assert block.dirty_count == 0
        assert not block.page_oob[0].dirty
        block.mark_dirty(0)
        assert block.dirty_count == 1

    def test_mark_clean_idempotent(self):
        block = EraseBlock(0, 4)
        block.program(0, "d", OOBData(lbn=0, dirty=False))
        block.mark_clean(0)
        assert block.dirty_count == 0

    def test_utilization(self):
        block = EraseBlock(0, 4)
        assert block.utilization() == 0.0
        block.program(0, "d", OOBData(lbn=0))
        block.program(1, "d", OOBData(lbn=1))
        assert block.utilization() == pytest.approx(0.5)

    def test_valid_offsets(self):
        block = EraseBlock(0, 4)
        block.program(0, "d", OOBData(lbn=0))
        block.program(1, "d", OOBData(lbn=1))
        block.invalidate(0)
        assert block.valid_offsets() == [1]


class TestErase:
    def test_erase_resets_everything(self):
        block = EraseBlock(0, 4)
        block.kind = BlockKind.LOG
        for offset in range(4):
            block.program(offset, "d", OOBData(lbn=offset, dirty=True))
        block.erase()
        assert block.erase_count == 1
        assert block.write_pointer == 0
        assert block.valid_count == 0
        assert block.dirty_count == 0
        assert block.kind is BlockKind.FREE
        assert block.sequential
        assert all(state == PageState.FREE for state in block.page_state)

    def test_wear_accumulates(self):
        block = EraseBlock(0, 4)
        for _ in range(5):
            block.erase()
        assert block.erase_count == 5

    def test_programmable_after_erase(self):
        block = EraseBlock(0, 4)
        block.program(0, "a", OOBData(lbn=0))
        block.erase()
        block.program(0, "b", OOBData(lbn=1))
        assert block.page_data[0] == "b"


class TestBitmaps:
    def test_program_sets_bits(self):
        block = EraseBlock(0, 4)
        block.program(0, "a", OOBData(lbn=0, dirty=True))
        block.program(2, "b", OOBData(lbn=2))
        assert block.valid_bits == 0b101
        assert block.dirty_bits == 0b001

    def test_invalidate_and_clean_clear_bits(self):
        block = EraseBlock(0, 4)
        block.program(0, "a", OOBData(lbn=0, dirty=True))
        block.program(1, "b", OOBData(lbn=1, dirty=True))
        block.invalidate(0)
        block.mark_clean(1)
        assert block.valid_bits == 0b10
        assert block.dirty_bits == 0

    def test_mark_dirty_on_invalid_page_sets_no_bit(self):
        block = EraseBlock(0, 4)
        block.program(0, "a", OOBData(lbn=0))
        block.invalidate(0)
        block.mark_dirty(0)
        assert block.page_oob[0].dirty
        assert block.dirty_bits == 0
        assert block.dirty_count == 0

    def test_torn_program_is_valid_and_clean(self):
        block = EraseBlock(0, 4)
        block.kind = BlockKind.LOG
        block.program_torn(1)
        assert block.valid_bits == 0b10
        assert block.dirty_bits == 0
        assert block.write_pointer == 2
        block.audit()

    def test_valid_offsets_is_a_snapshot(self):
        block = EraseBlock(0, 8)
        for offset in range(8):
            block.program(offset, "d", OOBData(lbn=offset))
        for offset in block.valid_offsets():
            block.invalidate(offset)
        assert block.valid_count == 0


class TestRecountAndAudit:
    def test_recount_rebuilds_from_columns(self):
        block = EraseBlock(0, 4)
        block.kind = BlockKind.LOG
        block.program(0, "a", OOBData(lbn=0, dirty=True))
        block.program(1, "b", OOBData(lbn=1, dirty=True))
        block.page_state[0] = PageState.INVALID
        block.recount()
        assert (block.valid_count, block.dirty_count) == (1, 1)
        assert (block.valid_bits, block.dirty_bits) == (0b10, 0b10)
        block.audit()

    def test_audit_names_a_corrupt_counter(self):
        block = EraseBlock(7, 4)
        block.program(0, "a", OOBData(lbn=0))
        block.valid_count += 1
        with pytest.raises(FlashStateError, match="block 7: valid_count"):
            block.audit()

    def test_audit_catches_page_past_write_pointer(self):
        block = EraseBlock(0, 4)
        block.kind = BlockKind.LOG
        block.program(0, "a", OOBData(lbn=0))
        block.write_pointer = 0
        with pytest.raises(FlashStateError, match="write pointer"):
            block.audit()
