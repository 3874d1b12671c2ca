"""The benchmark's three fixed-seed replay workloads.

Each workload is a closed loop driven from one process and one thread:
a trace generated from the ``--seed`` argument is replayed through a
system assembled by the public ``build_system``, with ``queue_depth``
requests kept outstanding by the simulated clients.  The program only
ever sees the generated records.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.flashtier import FlashTierSystem, build_system
from repro.perf.wallclock import WARMUP_FRACTION, ZIPF_PROFILE
from repro.traces.record import TraceRecord
from repro.traces.synthetic import PROFILES, WorkloadProfile, generate_trace

#: Traces per run.  The simulated metrics of one trace vary with its
#: seed; a run reports their mean over this many traces, which keeps
#: the spread between runs with different seeds small.
TRACES_PER_RUN = 5

#: Never-written LBNs read back after each replay (the must-be-None check).
UNWRITTEN_SAMPLE = 500


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a trace profile, a system and a depth.

    Why each workload was chosen is recorded in ``BENCHMARK.json``.
    """

    name: str
    profile: WorkloadProfile
    kind: SystemKind
    mode: CacheMode
    shards: int
    queue_depth: int
    #: Profile scale: every trace measures more than 20,000 requests
    #: after warm-up, so p99.9 has at least 10 samples beyond it.
    scale: float

    def make_trace(self, seed: int) -> List[TraceRecord]:
        return generate_trace(self.profile.scaled(self.scale), seed=seed).records

    def build(self) -> FlashTierSystem:
        profile = self.profile.scaled(self.scale)
        return build_system(
            SystemConfig(
                kind=self.kind,
                mode=self.mode,
                cache_blocks=profile.cache_blocks(),
                disk_blocks=profile.address_range_blocks,
                shards=self.shards,
            )
        )

    def replay(self, system: FlashTierSystem, trace: List[TraceRecord]):
        return system.replay(
            trace,
            warmup_fraction=WARMUP_FRACTION,
            keep_latencies=True,
            queue_depth=self.queue_depth,
        )


def trace_seeds(seed: int) -> List[int]:
    """The trace seeds of the run with ``seed``; disjoint across runs."""
    return [seed * TRACES_PER_RUN + index for index in range(TRACES_PER_RUN)]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="zipf-ssc-wt-qd8",
            profile=ZIPF_PROFILE,
            kind=SystemKind.SSC,
            mode=CacheMode.WRITE_THROUGH,
            shards=1,
            queue_depth=8,
            scale=0.4,
        ),
        Workload(
            name="homes-sscr-wb-x4-qd8",
            profile=PROFILES["homes"],
            kind=SystemKind.SSC_R,
            mode=CacheMode.WRITE_BACK,
            shards=4,
            queue_depth=8,
            scale=0.25,
        ),
        Workload(
            name="homes-native-wb-qd1",
            profile=PROFILES["homes"],
            kind=SystemKind.NATIVE,
            mode=CacheMode.WRITE_BACK,
            shards=1,
            queue_depth=1,
            scale=0.25,
        ),
    )
}


# ----------------------------------------------------------------------
# Simulated end-to-end metrics
# ----------------------------------------------------------------------


def ssc_members(system: FlashTierSystem) -> list:
    """The system's SSC devices: the array members, the lone SSC, or none."""
    if system.ssc is None:
        return []
    return list(getattr(system.ssc, "shards", [system.ssc]))


def sim_metrics(system: FlashTierSystem, stats) -> Tuple[Dict[str, float], Dict[str, int]]:
    """Simulated metrics of one finished replay, plus their bases.

    Everything here is a deterministic function of the trace; the
    recovery metric is added by :func:`recover`.  The second dict holds
    the sample counts and ratio bases printed beside the metrics.
    """
    latency = stats.latency
    programs = system.device.chip.stats.page_writes
    meta = sum(
        member.oplog.pages_written + member.checkpoints.pages_written
        for member in ssc_members(system)
    )
    user_writes = system.device.stats.user_writes
    metrics = {
        "sim_iops": stats.iops(),
        "sim_lat_p50_us": latency.percentile(50.0),
        "sim_lat_p99_us": latency.percentile(99.0),
        "sim_lat_p999_us": latency.percentile(99.9),
        "sim_miss_rate_pct": stats.miss_rate(),
        "sim_write_amp": (programs + meta) / user_writes if user_writes else 0.0,
        "sim_block_erases": float(system.device.chip.stats.block_erases),
        "sim_map_bytes": float(system.total_memory_bytes()),
    }
    p999 = metrics["sim_lat_p999_us"]
    bases = {
        "measured_requests": latency.count,
        "samples_beyond_p999": sum(1 for s in latency.samples if s > p999),
        "measured_reads": stats.reads,
        "user_page_programs": user_writes,
        "flash_page_programs": programs,
        "log_checkpoint_page_programs": meta,
    }
    return metrics, bases


def recover(system: FlashTierSystem) -> float:
    """Cut power at the end of the run and recover; simulated us.

    SSC systems crash the cache device and roll it forward, then the
    write-back manager rebuilds its dirty table (overlapped with normal
    activity, so not charged, as in Fig. 5).  The native system charges
    its manager metadata reload plus the SSD's OOB scan, as in Fig. 5.
    """
    if system.ssc is None:
        manager = system.manager
        return manager.recover_manager_us() + manager.recover_device_us()
    system.ssc.crash()
    recovery_us = system.ssc.recover()
    if system.config.mode is CacheMode.WRITE_BACK:
        system.manager.recover_us(system.config.disk_blocks)
    return recovery_us


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------


def check_outputs(
    system: FlashTierSystem, trace: List[TraceRecord], stats, seed: int
) -> Tuple[int, List[str]]:
    """Read the replay's results back through the manager.

    Every LBN the trace wrote must read back ``("w", lbn)``; a sample of
    never-written LBNs must read back ``None``; the ``ReplayStats``
    identities must hold.  Returns ``(attempted checks, failures)``.
    """
    failures: List[str] = []
    written = sorted({record.lbn for record in trace if record.is_write})
    written_set = set(written)
    rng = random.Random(seed)
    limit = system.config.disk_blocks
    unwritten: List[int] = []
    while len(unwritten) < UNWRITTEN_SAMPLE:
        lbn = rng.randrange(limit)
        if lbn not in written_set:
            unwritten.append(lbn)
    manager = system.manager
    for lbn in written:
        data, _ = manager.read(lbn)
        if data != ("w", lbn):
            failures.append(f"lbn {lbn} read back {data!r}")
    for lbn in unwritten:
        data, _ = manager.read(lbn)
        if data is not None:
            failures.append(f"never-written lbn {lbn} read back {data!r}")
    if stats.ops != stats.reads + stats.writes:
        failures.append(
            f"ops {stats.ops} != reads {stats.reads} + writes {stats.writes}"
        )
    if stats.read_hits + stats.read_misses != stats.reads:
        failures.append(
            f"read_hits {stats.read_hits} + read_misses {stats.read_misses} "
            f"!= measured reads {stats.reads}"
        )
    return len(written) + len(unwritten) + 2, failures
