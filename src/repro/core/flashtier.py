"""Assembly of complete caching systems.

``build_system`` wires a flash device (SSD or SSC), a disk, and the
matching cache manager into one :class:`FlashTierSystem` — the unit the
examples and benchmarks operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.sharding import ShardedSSC, ShardedSSD
from repro.disk.model import Disk
from repro.engine import ReplayEngine
from repro.flash.geometry import FlashGeometry
from repro.ftl.hybrid import HybridFTLConfig
from repro.ftl.ssd import SSD
from repro.manager.base import CacheManager
from repro.manager.native import NativeCacheManager, NativeConfig
from repro.manager.writeback import FlashTierWBManager, WriteBackConfig
from repro.manager.writethrough import FlashTierWTManager
from repro.ssc.device import SolidStateCache, SSCConfig
from repro.ssc.engine import EvictionPolicy
from repro.stats.counters import ReplayStats
from repro.traces.record import TraceRecord


def cache_geometry(config: SystemConfig, shard_count: int = 1) -> FlashGeometry:
    """Flash geometry provisioning ``cache_blocks`` with slack.

    With ``shard_count > 1`` the geometry is for *one member device* of
    a sharded array at fixed total capacity: each shard gets
    ``ceil(cache_blocks / shard_count)`` blocks (rounding up, so the
    array never holds less than a single device would), subject to a
    viability floor — a member must still fit its FTL's log pool and
    spare blocks, so sharding a very small cache provisions slightly
    more than ``cache_blocks`` in total rather than failing.
    """
    blocks = -(-config.cache_blocks // shard_count)  # ceil
    if shard_count > 1:
        blocks = max(blocks, 16 * config.pages_per_block)
    capacity = int(blocks * config.capacity_slack) * config.page_size
    return FlashGeometry.for_capacity(
        capacity,
        planes=config.planes,
        pages_per_block=config.pages_per_block,
        page_size=config.page_size,
        oob_bytes=config.oob_bytes,
    )


@dataclass
class FlashTierSystem:
    """One assembled caching system: manager + cache device + disk."""

    config: SystemConfig
    manager: CacheManager
    disk: Disk
    ssd: Optional[SSD] = None
    ssc: Optional[SolidStateCache] = None

    @property
    def device(self) -> Union[SSD, SolidStateCache]:
        device = self.ssd if self.ssd is not None else self.ssc
        assert device is not None
        return device

    @property
    def device_stats(self):
        return self.device.stats

    def replay(
        self,
        trace: Sequence[TraceRecord],
        warmup_fraction: float = 0.0,
        keep_latencies: bool = False,
        queue_depth: int = 1,
        open_loop: bool = False,
    ) -> ReplayStats:
        """Replay ``trace`` through this system's manager.

        Runs the :class:`~repro.engine.ReplayEngine`: closed loop with
        ``queue_depth`` requests outstanding (the default of 1 is the
        paper's serial replay), or, with ``open_loop=True``, dispatching
        at each record's ``arrival_us``.
        """
        engine = ReplayEngine(self.manager, queue_depth=queue_depth)
        return engine.run(
            trace,
            warmup_fraction=warmup_fraction,
            keep_latencies=keep_latencies,
            open_loop=open_loop,
        )

    def total_memory_bytes(self) -> int:
        """Device plus host mapping memory (Table 4's combined view)."""
        return self.device.device_memory_bytes() + self.manager.host_memory_bytes()


def _member_device(config: SystemConfig, geometry: FlashGeometry):
    """One cache device of the kind ``config`` names."""
    if config.kind is SystemKind.NATIVE:
        return SSD(geometry=geometry, config=HybridFTLConfig())
    policy = (
        EvictionPolicy.MERGE if config.kind is SystemKind.SSC_R else EvictionPolicy.UTIL
    )
    return SolidStateCache(
        geometry=geometry,
        config=SSCConfig(policy=policy, consistency=config.consistency),
    )


def build_system(config: SystemConfig) -> FlashTierSystem:
    """Assemble the system described by ``config``.

    Builds ``config.shards`` member devices at fixed total capacity
    (each provisioned ``cache_blocks / shards`` blocks, see
    :func:`cache_geometry`).  A lone member is the cache device itself;
    several form a :class:`~repro.core.sharding.ShardedSSD` or
    :class:`~repro.core.sharding.ShardedSSC` array, the latter
    partitioning the disk LBN space by ``config.routing``.  The cache
    managers run unmodified against either — an array exposes the exact
    device interface they already speak.
    """
    disk = Disk(config.disk_blocks)
    geometry = cache_geometry(config, shard_count=config.shards)
    members = [_member_device(config, geometry) for _ in range(config.shards)]
    native = config.kind is SystemKind.NATIVE
    if config.shards == 1:
        device = members[0]
    elif native:
        device = ShardedSSD(members)
    else:
        device = ShardedSSC(members, config.routing)

    manager: CacheManager
    if native:
        manager = NativeCacheManager(
            device,
            disk,
            NativeConfig(
                mode=config.mode.value,
                dirty_threshold=config.dirty_threshold,
                consistency=config.consistency,
            ),
        )
        return FlashTierSystem(config=config, manager=manager, disk=disk, ssd=device)
    if config.mode is CacheMode.WRITE_BACK:
        manager = FlashTierWBManager(
            device, disk, WriteBackConfig(dirty_threshold=config.dirty_threshold)
        )
    else:
        manager = FlashTierWTManager(device, disk)
    return FlashTierSystem(config=config, manager=manager, disk=disk, ssc=device)
