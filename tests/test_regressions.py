"""Regression tests for specific bugs found during development.

Each test pins the exact scenario that once corrupted data or leaked
resources, so the failure mode stays dead.
"""

import random

import pytest

from repro.errors import CacheFullError
from repro.flash.block import BlockKind
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl.hybrid import HybridFTL, HybridFTLConfig
from repro.ftl.pagemap import PageMapFTL
from repro.ssc.device import SolidStateCache
from repro.stats.counters import LatencyStats
from repro.stats.report import format_table


class TestSeqLogSupersededPages:
    """A full merge can invalidate pages *inside* the open sequential
    log block.  Retiring that block as a whole data block then orphaned
    the newest copies of the untouched offsets in the old data block,
    which retire erased — silent data loss (found via a hot/cold mixed
    workload; fixed by demoting such blocks to the random log pool)."""

    def test_cold_data_survives_hot_neighbours(self):
        chip = FlashChip(FlashGeometry(planes=2, blocks_per_plane=16,
                                       pages_per_block=8))
        ftl = HybridFTL(chip, HybridFTLConfig())
        cold_span = ftl.logical_pages // 4
        for lpn in range(cold_span):
            ftl.write(lpn, ("cold", lpn))
        rng = random.Random(1)
        # Hot window overlaps the tail of the cold region's groups.
        for i in range(6000):
            lpn = cold_span + rng.randrange(ftl.logical_pages // 8)
            ftl.write(lpn, ("hot", i))
        for lpn in range(cold_span):
            data, _ = ftl.read(lpn)
            assert data == ("cold", lpn), f"cold block {lpn} lost"

    def test_demoted_seq_block_pages_stay_readable(self):
        """Directly construct the hazard: open a seq run, supersede part
        of it through the random log, then force the retire."""
        chip = FlashChip(FlashGeometry(planes=2, blocks_per_plane=16,
                                       pages_per_block=8))
        ftl = HybridFTL(chip, HybridFTLConfig())
        # Sequential run that fills 7 of 8 pages of group 0.
        for lpn in range(2):  # prime _last_lpn so a run can start at 8
            ftl.write(6 + lpn, ("prime", lpn))
        for lpn in range(8, 15):
            ftl.write(lpn, ("run", lpn))
        assert ftl._seq_log is not None
        # Supersede two run pages via the random path (non-consecutive).
        ftl.write(9, ("newer", 9))
        ftl.write(12, ("newer", 12))
        # Force retire by starting a different sequential run.
        ftl.write(15, ("bridge", 15))
        for lpn in range(16, 24):
            ftl.write(lpn, ("run2", lpn))
        # Every version must be the newest one written.
        assert ftl.read(8)[0] == ("run", 8)
        assert ftl.read(9)[0] == ("newer", 9)
        assert ftl.read(12)[0] == ("newer", 12)
        assert ftl.read(14)[0] == ("run", 14)


class TestMergeVictimLeak:
    """A CacheFullError raised mid-merge once leaked the victim log
    block out of the log pool; every manager retry leaked another until
    the device was a pile of orphaned LOG blocks."""

    def test_failed_merges_do_not_leak_log_blocks(self):
        geometry = FlashGeometry(planes=2, blocks_per_plane=10, pages_per_block=8)
        ssc = SolidStateCache.ssc(geometry)
        failures = 0
        for i in range(4000):
            try:
                # Sparse dirty writes: guaranteed to jam eventually.
                ssc.write_dirty(i * 64, ("d", i))
            except CacheFullError:
                failures += 1
                if failures > 20:
                    break
        # Invariant: every LOG-kind block is tracked by the engine.
        tracked = set(ssc.engine._log_blocks)
        if ssc.engine._seq_log is not None:
            tracked.add(ssc.engine._seq_log.pbn)
        if ssc.engine._active_log is not None:
            tracked.add(ssc.engine._active_log.pbn)
        for plane in ssc.chip.planes:
            for block in plane.blocks.values():
                if block.kind is BlockKind.LOG:
                    assert block.pbn in tracked, f"leaked log block {block.pbn}"


class TestPageMapActiveLeak:
    """Page-map GC opens a fresh append block mid-collection; the write
    path then allocated *another*, abandoning the partial one.  Repeated
    under pressure this drained the free pool to zero."""

    def test_no_partial_block_accumulation(self):
        chip = FlashChip(FlashGeometry(planes=2, blocks_per_plane=16,
                                       pages_per_block=8))
        ftl = PageMapFTL(chip)
        rng = random.Random(3)
        for i in range(8000):
            ftl.write(rng.randrange(ftl.logical_pages), i)
            partial = [
                block
                for plane in chip.planes
                for block in plane.blocks.values()
                if block.kind is BlockKind.DATA
                and 0 < block.write_pointer < block.num_pages
                and block is not ftl._active
            ]
            assert len(partial) == 0, f"leaked partial blocks {partial}"
            assert ftl.free_blocks() >= 1


class TestPageMapFullyValidVictims:
    """Greedy GC once collected 100 %-valid blocks, recycling space at
    exactly zero net gain until the progress guard tripped."""

    def test_dense_fill_then_overwrite(self):
        chip = FlashChip(FlashGeometry(planes=2, blocks_per_plane=16,
                                       pages_per_block=8))
        ftl = PageMapFTL(chip)
        # Fill the entire logical space (zero invalid pages anywhere).
        for lpn in range(ftl.logical_pages):
            ftl.write(lpn, ("fill", lpn))
        # Then overwrite a narrow window, forcing GC with most blocks
        # fully valid.
        for i in range(3000):
            lpn = i % 16
            ftl.write(lpn, ("over", i))
        for lpn in range(16, ftl.logical_pages, 11):
            assert ftl.read(lpn)[0] == ("fill", lpn)


class TestFormatTableRaggedRows:
    """format_table indexed ``widths`` by cell position, so a row with
    more cells than the header list raised IndexError — first hit by the
    per-shard recovery table, whose rows carry an extra ratio column."""

    def test_rows_wider_than_headers(self):
        table = format_table(
            ["shard", "us"],
            [["shard0", 120.0, "78%"], ["shard1", 154.0, "100%"]],
            title="Recovery",
        )
        lines = table.splitlines()
        assert lines[0] == "Recovery"
        # Every row renders, extra cells included and aligned.
        assert "78%" in table and "100%" in table
        assert lines[-1].startswith("shard1")

    def test_extra_column_width_tracks_widest_cell(self):
        table = format_table(["a"], [["x", "wide-cell"], ["y", "z"]])
        rows = table.splitlines()[2:]
        assert rows[0] == "x  wide-cell"
        assert rows[1] == "y  z"

    def test_header_only_and_ragged_mix(self):
        # Mixed widths across rows: widths list grows monotonically.
        table = format_table([], [["a"], ["b", "c", "d"], ["e", "f"]])
        assert [len(line.split()) for line in table.splitlines()[2:]] == [1, 3, 2]


class TestSingleSamplePercentiles:
    """Nearest-rank percentile with one sample computes rank
    ceil(1 * pct / 100), which is 0 for pct=0 — an index-out-of-range
    unless clamped.  The degenerate input must answer, not raise."""

    def test_one_sample_answers_every_percentile(self):
        latency = LatencyStats(keep_samples=True)
        latency.record(312.0)
        for pct in (0.0, 50.0, 99.0, 100.0):
            assert latency.percentile(pct) == 312.0


class TestSSCBlockBitmapWidth:
    """SSC block-map entries journal their dirty and valid bitmaps packed
    in 64 bits each.  A 128-page SSC block lost the dirty state of its
    upper pages across crash + recover (1,536 dirty writes came back as
    832 dirty blocks), so the write-back manager never wrote the rest
    back.  SSC and SSC-R systems now reject blocks over 64 pages when
    they are built; native systems keep any size."""

    @staticmethod
    def config(kind, shards=1, pages_per_block=128):
        from repro.core.config import CacheMode, SystemConfig
        return SystemConfig(
            kind=kind, mode=CacheMode.WRITE_BACK, cache_blocks=4096,
            disk_blocks=1 << 16, pages_per_block=pages_per_block,
            shards=shards,
        )

    def test_ssc_with_128_page_blocks_rejected(self):
        import pytest
        from repro.core.config import SystemKind
        from repro.core.flashtier import build_system
        from repro.errors import ConfigError
        for kind in (SystemKind.SSC, SystemKind.SSC_R):
            for shards in (1, 2):
                with pytest.raises(ConfigError, match="at most 64 pages"):
                    build_system(self.config(kind, shards))

    def test_native_keeps_128_page_blocks(self):
        from repro.core.config import SystemKind
        from repro.core.flashtier import build_system
        system = build_system(self.config(SystemKind.NATIVE))
        assert system.device.chip.geometry.pages_per_block == 128

    def test_64_page_ssc_keeps_every_dirty_block(self):
        from repro.core.config import SystemKind
        from repro.core.flashtier import build_system
        system = build_system(
            self.config(SystemKind.SSC, pages_per_block=64)
        )
        ssc = system.ssc
        for lbn in range(1536):
            ssc.write_dirty(lbn, ("w", lbn))
        ssc.crash()
        ssc.recover()
        assert sum(ssc.is_dirty(lbn) for lbn in range(1536)) == 1536
        ssc.chip.audit()


class TestStaleBlockEntryAfterLogBitRot:
    """A flipped bit in the flushed log makes recovery discard the log
    tail, which can drop the record retiring a block-map entry whose
    block was since erased.  Recovery used to install that stale entry
    and mark the erased block DATA while it stayed in the free pool, so
    the group mapped onto a block that the next allocation would fill
    with other data.  Found by the flash-state audit in the crash
    explorer's bit-flip trials (seed 0, 150 ops, trials 6 and 9)."""

    def test_recovered_entries_never_map_free_blocks(self):
        from repro.check import faults
        from repro.check.explorer import build_device, run_workload
        from repro.check.oracle import SSCOracle
        from repro.check.workload import generate_workload
        from repro.sim.crash import CrashInjector

        workload = generate_workload(150, 0, lbn_range=64)
        baseline = build_device()
        counter = CrashInjector()
        baseline.attach_injector(counter)
        run_workload(baseline, SSCOracle(), workload, [])
        for index in (6, 9):
            rng = random.Random(index)
            boundary = 1 + rng.randrange(counter.ticks)
            ssc = build_device()
            injector = CrashInjector()
            ssc.attach_injector(injector)
            injector.arm(after_events=boundary - 1)
            if not run_workload(ssc, SSCOracle(), workload, []):
                injector.disarm()
                ssc.crash()
            assert faults.flip_log_record(ssc, rng)
            ssc.recover()
            for _group, pbn in ssc.engine.data_map.items():
                assert not ssc.chip.plane_of_block(pbn).is_free(pbn)
            ssc.chip.audit()


class TestBitRotSurvivesRelocation:
    """Garbage collection used to re-stamp each copied page's OOB
    checksum from its (possibly rotted) payload, so a page that rotted
    in place verified again once a merge had moved it, and recovery
    served the damaged payload: 25 writes after the rot, LBN 3 read
    back ``('<bitrot>', ('w', 3))``.  Relocation now carries the stored
    checksum, so the damage stays detectable and is discarded."""

    def test_rotted_page_is_discarded_after_a_merge_moves_it(self):
        from repro.check import faults
        from repro.check.explorer import build_device
        from repro.errors import NotPresentError

        ssc = build_device()
        for lbn in range(40):
            ssc.write_dirty(lbn, ("w", lbn))
        location = ssc.engine.current_location(3)
        faults.rot_page(ssc.chip, location[2])
        group_size = ssc.chip.geometry.pages_per_block
        neighbours = [lbn for lbn in range(group_size) if lbn != 3]
        writes = 0
        while ssc.engine.current_location(3) == location:
            lbn = neighbours[writes % len(neighbours)]
            ssc.write_dirty(lbn, ("w", lbn))
            writes += 1
            assert writes < 200, "no merge relocated LBN 3"
        ssc.crash()
        ssc.recover()
        ssc.chip.audit()
        with pytest.raises(NotPresentError):
            ssc.read(3)
        for lbn in range(40):
            if lbn != 3:
                assert ssc.read(lbn)[0] == ("w", lbn)
