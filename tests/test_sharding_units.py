"""Unit coverage of the sharding module's edges.

The differential/property/crash suites exercise the hot paths; these
tests pin the construction-time validation, the chip/engine view
plumbing the replay engine depends on, and the ``ShardedSSD`` striping
used by the native baseline.
"""

import pytest

from repro import CacheMode, ReplayEngine, SystemConfig, SystemKind, build_system
from repro.core.sharding import (
    ShardedSSC,
    ShardedSSD,
    ShardRouter,
)
from repro.errors import ConfigError, NotPresentError
from repro.flash.geometry import FlashGeometry
from repro.ftl.hybrid import HybridFTLConfig
from repro.ftl.ssd import SSD
from repro.sim.completion import Completion, DeviceOp
from repro.sim.crash import CrashInjector
from repro.ssc.device import SolidStateCache, SSCConfig
from repro.traces.synthetic import HOMES, generate_trace

GEOMETRY = FlashGeometry(planes=2, blocks_per_plane=16, pages_per_block=8)


def make_array(shards: int = 2, **router_kwargs) -> ShardedSSC:
    return ShardedSSC(
        [SolidStateCache(GEOMETRY, config=SSCConfig()) for _ in range(shards)],
        **router_kwargs,
    )


def make_ssd_array(shards: int = 2) -> ShardedSSD:
    return ShardedSSD(
        [SSD(geometry=GEOMETRY, config=HybridFTLConfig()) for _ in range(shards)]
    )


class TestRouterValidation:
    def test_rejects_zero_shards(self):
        with pytest.raises(ConfigError):
            ShardRouter(0)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigError):
            ShardRouter(2, "round-robin")

    def test_rejects_bad_pages_per_block(self):
        with pytest.raises(ConfigError):
            ShardRouter(2, "stripe", 0)

    def test_group_of(self):
        router = ShardRouter(3, "stripe", pages_per_block=8)
        assert router.group_of(7) == 0
        assert router.group_of(8) == 1

    def test_repr(self):
        assert "policy='hash'" in repr(ShardRouter(2, "hash"))


class TestArrayValidation:
    def test_rejects_empty_array(self):
        with pytest.raises(ConfigError):
            ShardedSSC([])
        with pytest.raises(ConfigError):
            ShardedSSD([])

    def test_rejects_heterogeneous_geometry(self):
        other = FlashGeometry(planes=2, blocks_per_plane=16, pages_per_block=16)
        with pytest.raises(ConfigError):
            ShardedSSC([
                SolidStateCache(GEOMETRY, config=SSCConfig()),
                SolidStateCache(other, config=SSCConfig()),
            ])

    def test_rejects_mismatched_router(self):
        with pytest.raises(ConfigError):
            make_array(2, router=ShardRouter(3))


class TestArraySurface:
    def test_identity_and_introspection(self):
        array = make_array(3)
        assert array.name == "array[3]"
        assert array.config is array.shards[0].config
        assert array.capacity_pages == 3 * array.shards[0].capacity_pages
        assert "shards=3" in repr(array)
        assert "ShardRouter" not in repr(array.engine)
        assert "chips=3" in repr(array.chip)

    def test_contains_and_dirty_route(self):
        array = make_array(2)
        array.write_dirty(5, "d5")
        owner = array.shard_of(5)
        assert array.contains(5) and owner.contains(5)
        assert array.is_dirty(5)
        other = array.shards[1 - array.router.shard_of(5)]
        assert not other.contains(5)

    def test_exists_detailed_merges_sorted(self):
        array = make_array(2)
        for lbn in (3, 8, 21):  # groups 0, 1, 2 — both shards hold some
            array.write_dirty(lbn, f"d{lbn}")
        entries, cost = array.exists_detailed(0, 64)
        assert [entry[0] for entry in entries] == [3, 8, 21]
        assert all(entry[1] for entry in entries)
        assert cost == max(
            shard.exists_detailed(0, 64)[1] for shard in array.shards
        )

    def test_shutdown_checkpoints_every_member(self):
        array = make_array(2)
        array.write_dirty(0, "a")
        array.write_dirty(8, "b")
        cost = array.shutdown()
        assert cost > 0
        assert all(
            shard.checkpoints.latest() is not None for shard in array.shards
        )

    def test_last_recovery_discarded_sums(self):
        array = make_array(2)
        array.write_dirty(0, "a")
        array.write_dirty(8, "b")
        array.crash()
        array.recover()
        assert array.last_recovery_discarded == sum(
            shard.last_recovery_discarded for shard in array.shards
        )

    def test_hash_policy_routes_reads_back(self):
        array = make_array(4, routing="hash")
        for lbn in range(0, 256, 7):
            array.write_clean(lbn, ("h", lbn))
        for lbn in range(0, 256, 7):
            assert array.read(lbn)[0] == ("h", lbn)

    def test_injector_fans_out_to_all_members(self):
        array = make_array(2)
        injector = CrashInjector()
        array.attach_injector(injector)
        array.write_dirty(0, "a")   # shard 0 boundary
        array.write_dirty(8, "b")   # shard 1 boundary
        assert injector.ticks >= 2


class TestArrayWidePowerFailure:
    """A CrashError from any member op must power-fail the whole array
    — otherwise surviving members keep volatile state no real power cut
    leaves behind, and recovery would silently diverge from it."""

    OPS = ["write_clean", "evict", "clean", "checkpoint_now", "shutdown"]

    @pytest.mark.parametrize("op", OPS)
    def test_crash_during_op_fails_every_shard(self, op):
        from repro.errors import CrashError

        array = ShardedSSC([
            SolidStateCache(GEOMETRY, config=SSCConfig(group_commit_ops=1))
            for _ in range(2)
        ])
        for lbn in (0, 8, 16, 24):     # both shards hold dirty state
            array.write_dirty(lbn, f"d{lbn}")
        injector = CrashInjector()
        array.attach_injector(injector)
        injector.arm(after_events=0)   # next durability boundary fires
        with pytest.raises(CrashError):
            if op == "write_clean":
                array.write_clean(0, "replacement")  # replace => sync
            elif op == "evict":
                array.evict(0)
            elif op == "clean":
                array.clean(0)
            elif op == "checkpoint_now":
                array.checkpoint_now()
            else:
                array.shutdown()
        assert all(shard._crashed for shard in array.shards)
        array.recover()
        assert all(not shard._crashed for shard in array.shards)


class TestEngineView:
    def test_aggregates_match_array_methods(self):
        array = make_array(2)
        for lbn in range(0, 64, 3):
            array.write_dirty(lbn, ("e", lbn))
        assert array.engine.pages_per_block == GEOMETRY.pages_per_block
        assert array.engine.cached_blocks() == array.cached_blocks()
        assert array.engine.device_memory_bytes() == array.device_memory_bytes()
        assert array.engine.stats.user_writes == sum(
            shard.engine.stats.user_writes for shard in array.shards
        )


class TestChipView:
    def test_engine_resource_table_covers_every_member_plane(self):
        system = build_system(SystemConfig(
            kind=SystemKind.SSC_R, mode=CacheMode.WRITE_BACK,
            cache_blocks=2048, disk_blocks=50_000, shards=4,
        ))
        engine = ReplayEngine(system.manager, queue_depth=8)
        records = generate_trace(HOMES.scaled(0.02), seed=3).records
        stats = engine.run(records, warmup_fraction=0.15)

        member_planes = [
            plane for shard in system.ssc.shards for plane in shard.chip.planes
        ]
        table = engine.resources
        assert len(table) == len(member_planes) + 1
        assert all(table[plane.resource_key] is plane for plane in member_planes)
        assert table["disk"] is system.disk
        # Busy time lands only on table keys, spread over every shard.
        busy = set(stats.device_busy_us)
        assert busy <= set(table)
        assert {key.split(":")[0] for key in busy - {"disk"}} == {
            "s0", "s1", "s2", "s3",
        }
        unknown = Completion(1.0, (DeviceOp("s9:plane:0", "page_read", 1.0),))
        with pytest.raises(KeyError, match="s9:plane:0"):
            engine._execute(unknown, 0.0, stats, serial=False)

    def test_engine_resource_table_for_native_array(self):
        # The striped SSD array of the native baseline exposes its
        # member chips the same way: one table entry per member plane.
        system = build_system(SystemConfig(
            kind=SystemKind.NATIVE, mode=CacheMode.WRITE_BACK,
            cache_blocks=2048, disk_blocks=50_000, shards=2,
        ))
        table = ReplayEngine(system.manager).resources
        member_planes = [
            plane for ssd in system.ssd.ssds for plane in ssd.chip.planes
        ]
        assert len(table) == len(member_planes) + 1
        assert all(table[plane.resource_key] is plane for plane in member_planes)
        assert table["disk"] is system.disk

    def test_geometry_timing_planes_come_from_shard_zero(self):
        array = make_array(2)
        assert array.chip.geometry is array.shards[0].chip.geometry
        assert array.chip.timing is array.shards[0].chip.timing
        assert array.chip.planes is array.shards[0].chip.planes

    def test_recorder_fans_out(self):
        from repro.sim.completion import OpRecorder

        array = make_array(2)
        recorder = OpRecorder()
        array.chip.op_recorder = recorder
        assert array.chip.op_recorder is recorder
        assert all(
            shard.chip.op_recorder is recorder for shard in array.shards
        )
        mark = recorder.begin()
        array.write_dirty(0, "a")   # shard 0
        array.write_dirty(8, "b")   # shard 1
        ops = recorder.end(mark)
        assert ops  # both members report through the one recorder

    def test_wear_and_free_blocks_aggregate(self):
        array = make_array(2)
        for lbn in range(0, 128):
            array.write_clean(lbn, ("w", lbn))
        assert array.chip.total_erases() == sum(
            shard.chip.total_erases() for shard in array.shards
        )
        assert array.chip.free_blocks_total() == sum(
            shard.chip.free_blocks_total() for shard in array.shards
        )
        assert array.chip.wear_differential() >= max(
            shard.chip.wear_differential() for shard in array.shards
        ) - 1


class TestShardedSSD:
    def test_dense_striping_is_a_bijection(self):
        array = make_ssd_array(2)
        span = min(64, array.capacity_pages)
        for lpn in range(span):
            array.write(lpn, ("p", lpn))
        for lpn in range(span):
            assert array.read(lpn)[0] == ("p", lpn)
        # Each member saw an equal slice of the dense space.
        per_member = [
            sum(1 for lpn in range(span) if array._route(lpn)[0] is ssd)
            for ssd in array.ssds
        ]
        assert per_member[0] == per_member[1] == span // 2

    def test_capacity_is_n_times_min_member(self):
        array = make_ssd_array(3)
        member = min(ssd.capacity_pages for ssd in array.ssds)
        assert array.capacity_pages == 3 * member
        assert array.capacity_bytes == array.capacity_pages * GEOMETRY.page_size

    def test_trim_and_is_mapped_route(self):
        array = make_ssd_array(2)
        array.write(10, "ten")
        assert array.is_mapped(10)
        array.trim(10)
        assert not array.is_mapped(10)
        assert not array.is_mapped(11)

    def test_dirty_flag_roundtrip(self):
        array = make_ssd_array(2)
        array.write(4, "x", dirty=True)
        ssd, local = array._route(4)
        location = ssd.ftl.log_map.lookup(local)
        assert ssd.chip.page(location).oob.dirty
        array.set_page_dirty(4, False)
        assert not ssd.chip.page(location).oob.dirty

    def test_memory_sums_and_scan_is_max(self):
        array = make_ssd_array(2)
        for lpn in range(32):
            array.write(lpn, lpn)
        assert array.device_memory_bytes() == sum(
            ssd.device_memory_bytes() for ssd in array.ssds
        )
        assert array.oob_recovery_scan_us() == max(
            ssd.oob_recovery_scan_us() for ssd in array.ssds
        )
        assert array.background_collect(1_000.0) == max(
            ssd.background_collect(0.0) for ssd in array.ssds
        ) or array.background_collect(0.0) >= 0.0

    def test_stats_merge_and_repr(self):
        array = make_ssd_array(2)
        for lpn in range(16):
            array.write(lpn, lpn)
        assert array.stats.user_writes == sum(
            ssd.stats.user_writes for ssd in array.ssds
        )
        assert "ShardedSSD(shards=2" in repr(array)

    def test_injector_targeting(self):
        array = make_ssd_array(2)
        injector = CrashInjector()
        array.attach_injector(injector, only_shard=1)
        array.write(0, "a")   # member 0: no ticks
        before = injector.ticks
        array.write(1, "b")   # member 1 boundary
        assert injector.ticks > before or before == 0

        broadcast = CrashInjector()
        array.attach_injector(broadcast)
        array.write(2, "c")
        array.write(3, "d")
        assert broadcast.ticks >= 2


class TestSingleMemberArrayReads:
    def test_absent_read_raises(self):
        array = make_array(1)
        with pytest.raises(NotPresentError):
            array.read(12)
