"""Unit tests for recovery materialization (the chip-reconciliation pass)."""

import pytest

from repro.flash.block import BlockKind
from repro.flash.geometry import FlashGeometry
from repro.flash.page import PageState
from repro.ssc.device import SolidStateCache


@pytest.fixture
def ssc():
    return SolidStateCache.ssc(
        FlashGeometry(planes=2, blocks_per_plane=16, pages_per_block=8)
    )


class TestMaterialization:
    def test_orphan_pages_invalidated(self, ssc):
        """Pages whose mapping records were lost with the buffer become
        INVALID, not resurrected garbage."""
        ssc.write_clean(100, "buffered")  # mapping record sits in the buffer
        location = ssc.engine.current_location(100)
        assert location is not None
        _pbn, _offset, ppn = location
        lost = ssc.crash()
        assert lost >= 1
        ssc.recover()
        assert ssc.chip.page_state[ppn] == PageState.INVALID

    def test_mapped_pages_stay_valid(self, ssc):
        ssc.write_dirty(100, "durable")
        location = ssc.engine.current_location(100)
        _pbn, _offset, ppn = location
        ssc.crash()
        ssc.recover()
        assert ssc.chip.page_state[ppn] == PageState.VALID
        assert ssc.chip.page_oob[ppn].dirty

    def test_unwritten_allocated_block_returns_to_free_pool(self, ssc):
        """A log block opened but never programmed before the crash must
        rejoin the free list."""
        ssc.write_dirty(1, "x")  # opens the first log block
        free_before = ssc.engine.free_blocks()
        ssc.crash()
        ssc.recover()
        assert ssc.engine.free_blocks() >= free_before

    def test_log_block_fifo_order_by_write_sequence(self, ssc):
        """Recovered log blocks are re-queued oldest-first so the merge
        victim policy (FIFO) keeps its meaning."""
        # Fill several log blocks with dirty data (sync-flushed).
        for i in range(40):
            ssc.write_dirty(i * 100, i)
        ssc.crash()
        ssc.recover()
        queue = list(ssc.engine._log_blocks)
        assert len(queue) >= 2
        oldest_seq = []
        for pbn in queue:
            block = ssc.chip.block(pbn)
            seqs = [
                ssc.chip.page_oob[block.base + offset].seq
                for offset in block.programmed_offsets()
            ]
            oldest_seq.append(min(seqs))
        assert oldest_seq == sorted(oldest_seq)

    def test_block_kinds_rebuilt(self, ssc):
        """After recovery, every block's kind matches its contents."""
        for i in range(600):
            ssc.write_dirty(i % 180, i)  # forces merges -> data blocks
        ssc.crash()
        ssc.recover()
        reverse = ssc.engine.data_map.reverse
        for plane in ssc.chip.planes:
            for block in plane.blocks.values():
                if block.pbn in reverse:
                    assert block.kind is BlockKind.DATA
                elif block.kind is BlockKind.DATA:
                    pytest.fail(f"unmapped DATA block {block.pbn}")

    def test_counts_consistent_after_recovery(self, ssc):
        for i in range(500):
            ssc.write_dirty(i % 150, i)
        ssc.crash()
        ssc.recover()
        chip = ssc.chip
        for plane in chip.planes:
            for block in plane.blocks.values():
                ppns = range(block.base, block.base + block.num_pages)
                valid = sum(
                    1 for ppn in ppns if chip.page_state[ppn] == PageState.VALID
                )
                dirty = sum(
                    1 for ppn in ppns
                    if chip.page_state[ppn] == PageState.VALID
                    and chip.page_oob[ppn] and chip.page_oob[ppn].dirty
                )
                assert block.valid_count == valid, block
                assert block.dirty_count == dirty, block

    def test_reverse_map_rebuilt(self, ssc):
        for i in range(600):
            ssc.write_dirty(i % 180, i)
        ssc.crash()
        ssc.recover()
        for group, pbn in ssc.engine.data_map.items():
            assert ssc.engine.data_map.group_of(pbn) == group
