"""Differential layer: the event engine at QD=1 IS the serial loop.

Closed-loop replay at ``queue_depth=1`` is the paper's serial replay:
one request at a time, simulated time advancing by each request's
service time.  :func:`_serial_replay` below is that loop in its plainest
form, kept here as the reference the :class:`~repro.engine.ReplayEngine`
must reproduce bit-for-bit.  This file enforces the claim across every
manager kind and both write modes, comparing not just aggregate
statistics but the full per-request latency streams, the per-request
hit/miss sequence, the per-resource busy-time attribution and the final
device state.

These tests are the lock that lets the hot paths underneath (sparse map
probing, FTL merges, completion tracing, the engine dispatch loop) be
optimized freely: any silent behaviour drift breaks an exact equality
here, before and after an optimization lands.
"""

import pytest

from repro import CacheMode, ReplayEngine, SystemConfig, SystemKind, build_system
from repro.stats.counters import LatencyStats, ReplayStats
from repro.traces.synthetic import HOMES, USR, generate_trace

ALL_COMBOS = [
    (kind, mode)
    for kind in (SystemKind.NATIVE, SystemKind.SSC, SystemKind.SSC_R)
    for mode in (CacheMode.WRITE_THROUGH, CacheMode.WRITE_BACK)
]


def _build(kind, mode, cache_blocks=2048):
    return build_system(
        SystemConfig(
            kind=kind,
            mode=mode,
            cache_blocks=cache_blocks,
            disk_blocks=50_000,
        )
    )


def _records(profile=HOMES, scale=0.02, seed=11):
    return generate_trace(profile.scaled(scale), seed=seed).records


def _serial_replay(manager, trace, warmup_fraction=0.0, keep_latencies=False):
    """Reference serial replay: one request at a time, a float clock
    that warm-up requests do not advance."""
    warmup_ops = int(len(trace) * warmup_fraction)
    stats = ReplayStats(latency=LatencyStats(keep_samples=keep_latencies))
    busy = stats.device_busy_us
    now_us = 0.0
    hits_before = manager.stats.read_hits
    misses_before = manager.stats.read_misses
    for index, record in enumerate(trace):
        if index == warmup_ops:
            hits_before = manager.stats.read_hits
            misses_before = manager.stats.read_misses
        if record.is_write:
            completion = manager.write(record.lbn, ("w", record.lbn))
        else:
            _data, completion = manager.read(record.lbn)
        if index < warmup_ops:
            continue
        now_us += float(completion)
        stats.ops += 1
        if record.is_write:
            stats.writes += 1
        else:
            stats.reads += 1
        stats.latency.record(float(completion))
        stats.service.record(float(completion))
        stats.queue_wait.record(0.0)
        for op in completion.ops:
            busy[op.resource] = busy.get(op.resource, 0.0) + op.duration_us
    stats.elapsed_us = now_us
    stats.read_hits = manager.stats.read_hits - hits_before
    stats.read_misses = manager.stats.read_misses - misses_before
    return stats


def _instrument(manager, journal):
    """Record every request's hit/miss tag and service time, in order."""
    original_read, original_write = manager.read, manager.write

    def read(lbn):
        data, completion = original_read(lbn)
        journal.append(("r", completion.hit, float(completion)))
        return data, completion

    def write(lbn, data):
        completion = original_write(lbn, data)
        journal.append(("w", completion.hit, float(completion)))
        return completion

    manager.read, manager.write = read, write


def _run_pair(kind, mode, records, warmup_fraction):
    """Replay identically-built systems through the reference serial
    loop and the engine."""
    legacy_system = _build(kind, mode)
    legacy_journal = []
    _instrument(legacy_system.manager, legacy_journal)
    legacy = _serial_replay(
        legacy_system.manager,
        records,
        warmup_fraction=warmup_fraction,
        keep_latencies=True,
    )

    event_system = _build(kind, mode)
    event_journal = []
    _instrument(event_system.manager, event_journal)
    event = ReplayEngine(event_system.manager, queue_depth=1).run(
        records, warmup_fraction=warmup_fraction, keep_latencies=True
    )
    return (legacy_system, legacy, legacy_journal), (event_system, event, event_journal)


class TestQueueDepthOneDifferential:
    @pytest.mark.parametrize("kind,mode", ALL_COMBOS)
    def test_stats_bit_for_bit(self, kind, mode):
        records = _records()
        (_, legacy, _), (_, event, _) = _run_pair(kind, mode, records, 0.15)

        assert event.ops == legacy.ops
        assert event.reads == legacy.reads
        assert event.writes == legacy.writes
        assert event.read_hits == legacy.read_hits
        assert event.read_misses == legacy.read_misses
        assert event.elapsed_us == legacy.elapsed_us
        assert event.iops() == legacy.iops()
        assert event.miss_rate() == legacy.miss_rate()
        # Full per-request latency streams, not just the aggregates.
        assert event.latency.samples == legacy.latency.samples
        assert event.service.samples == legacy.service.samples
        assert event.latency.total_us == legacy.latency.total_us
        assert event.latency.max_us == legacy.latency.max_us
        # With one request outstanding nothing can ever queue.
        assert event.queue_wait.total_us == 0.0
        assert event.queue_wait.max_us == 0.0
        # Per-resource busy attribution matches exactly.
        assert event.device_busy_us == legacy.device_busy_us

    @pytest.mark.parametrize("kind,mode", ALL_COMBOS)
    def test_hit_miss_sequence_bit_for_bit(self, kind, mode):
        records = _records()
        (_, _, legacy_journal), (_, _, event_journal) = _run_pair(
            kind, mode, records, 0.15
        )
        assert len(legacy_journal) == len(records)
        assert event_journal == legacy_journal

    @pytest.mark.parametrize("kind,mode", ALL_COMBOS)
    def test_device_state_identical(self, kind, mode):
        records = _records(scale=0.015)
        (legacy_system, _, _), (event_system, _, _) = _run_pair(
            kind, mode, records, 0.0
        )
        legacy_chip = legacy_system.device.chip
        event_chip = event_system.device.chip
        assert event_chip.stats.page_reads == legacy_chip.stats.page_reads
        assert event_chip.stats.page_writes == legacy_chip.stats.page_writes
        assert event_chip.stats.block_erases == legacy_chip.stats.block_erases
        assert event_chip.total_erases() == legacy_chip.total_erases()
        assert (
            event_system.device_stats.write_amplification()
            == legacy_system.device_stats.write_amplification()
        )
        if event_system.ssc is not None:
            assert legacy_system.ssc is not None
            assert (
                event_system.ssc.cached_blocks()
                == legacy_system.ssc.cached_blocks()
            )
            assert sorted(event_system.ssc.engine.iter_cached_lbns()) == sorted(
                legacy_system.ssc.engine.iter_cached_lbns()
            )

    def test_read_heavy_workload_also_differential(self):
        # usr is the read-heavy extreme (5.9 % writes): the hit path,
        # not the log-write path, dominates here.
        records = _records(USR, scale=0.02, seed=3)
        (_, legacy, lj), (_, event, ej) = _run_pair(
            SystemKind.SSC_R, CacheMode.WRITE_BACK, records, 0.15
        )
        assert event.latency.samples == legacy.latency.samples
        assert event.elapsed_us == legacy.elapsed_us
        assert ej == lj

    def test_warmup_boundary_differential(self):
        # The measurement-epoch reset is the trickiest seam: hit both
        # engines with a warmup fraction that lands mid-trace.
        records = _records(scale=0.015)
        (_, legacy, _), (_, event, _) = _run_pair(
            SystemKind.SSC, CacheMode.WRITE_BACK, records, 0.5
        )
        assert event.ops == legacy.ops
        assert event.elapsed_us == legacy.elapsed_us
        assert event.latency.samples == legacy.latency.samples
        assert event.device_busy_us == legacy.device_busy_us
