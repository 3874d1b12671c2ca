"""Trace replay: the one loop that drives a cache manager with a trace.

Reported IOPS is requests per second of *simulated* time, mirroring the
paper's trace-replay framework (§5).  The :class:`ReplayEngine` keeps
requests in flight in one of two ways:

* **Closed loop** — a fixed number of requests (``queue_depth``) is
  kept outstanding; each completion immediately dispatches the next
  trace record, like a benchmark thread pool.  At ``queue_depth=1``
  this is the paper's serial replay: one request at a time, each
  starting when its predecessor finishes.
* **Open loop** — requests dispatch at their recorded
  ``arrival_us`` timestamps regardless of completions, like replaying
  a production trace against a faster device.

Each request's :class:`~repro.sim.completion.Completion` carries the
operations it performed, attributed to contended resources (flash
planes, the disk spindle).  The engine schedules those operations onto
per-resource availability timelines: ops on distinct planes overlap,
ops on the same plane — or on the single disk spindle — queue behind
each other, and any service time not bound to a resource (controller
delays, log commits, checkpoints) stays serial within its request.

Functional device state still mutates in trace order at dispatch time
(the hit/miss sequence is identical at every queue depth); concurrency
changes *when* the time is charged, not *what* happens.

Warm-up follows §6.5: "To warm the cache, we replay the first 15 % of
the trace before gathering statistics."
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Sequence

from repro.manager.base import CacheManager
from repro.sim.completion import DISK_RESOURCE, Completion
from repro.stats.counters import LatencyStats, ReplayStats
from repro.traces.record import TraceRecord


def _resource_table(manager: CacheManager) -> Dict[str, Any]:
    """Every resource key the manager's devices emit, mapped to the
    object owning its availability timeline: each flash plane (of every
    member chip, for an array) and the disk."""
    device = getattr(manager, "ssc", None)
    if device is None:
        device = manager.ssd
    chip = device.chip
    table: Dict[str, Any] = {
        plane.resource_key: plane
        for member in getattr(chip, "chips", (chip,))
        for plane in member.planes
    }
    table[DISK_RESOURCE] = manager.disk
    return table


def _issue(manager: CacheManager, record: TraceRecord) -> Completion:
    if record.is_write:
        return manager.write(record.lbn, ("w", record.lbn))
    _data, completion = manager.read(record.lbn)
    return completion


def _trace_warmup_request(tracer, record: TraceRecord,
                          completion: Completion) -> None:
    """Emit a warm-up request's op.issue slice plus its op.device
    slices, laid back-to-back from the tracer's current time."""
    issue_ts = tracer.now_us
    tracer.emit(
        "op.issue", lane="requests", ts_us=issue_ts,
        dur_us=float(completion),
        kind="write" if record.is_write else "read",
        lbn=record.lbn, hit=completion.hit, queue_wait_us=0.0,
    )
    cursor = issue_ts
    for op in completion.ops:
        tracer.emit(
            "op.device", lane=op.resource, ts_us=cursor,
            dur_us=op.duration_us, kind=op.kind,
        )
        cursor += op.duration_us


class ReplayEngine:
    """Replays traces through a manager at a configurable queue depth."""

    def __init__(self, manager: CacheManager, queue_depth: int = 1):
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        self.manager = manager
        self.queue_depth = queue_depth
        #: Resource key -> object with ``reserve``/``reset_busy``.
        self.resources = _resource_table(manager)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def _execute(
        self,
        completion: Completion,
        at_us: float,
        stats: ReplayStats,
        serial: bool,
        tracer=None,
    ):
        """Place one request's operations on the resource timelines.

        Returns ``(queue_wait_us, finish_us)``.  ``queue_wait_us`` is
        the total time the request's operations spent waiting for busy
        resources; untraced service time (controller/log overhead) is
        serial within the request and never waits.  With a ``tracer``
        attached, each operation's op.device slice is emitted at the
        time it actually ran (its resource reservation).  A resource
        key missing from :attr:`resources` raises ``KeyError``.
        """
        busy = stats.device_busy_us
        if serial:
            # One outstanding request: every resource is idle at
            # dispatch by construction, so the finish is computed from
            # the total service time alone — simulated time is exactly
            # the running sum of service times.
            cursor = at_us
            for resource_key, kind, duration_us in completion.ops:
                busy[resource_key] = busy.get(resource_key, 0.0) + duration_us
                if tracer is not None:
                    tracer.emit(
                        "op.device", lane=resource_key, ts_us=cursor,
                        dur_us=duration_us, kind=kind,
                    )
                    cursor += duration_us
            return 0.0, at_us + float(completion)
        wait_us = 0.0
        cursor = at_us
        resources = self.resources
        for resource_key, kind, duration_us in completion.ops:
            start, finish = resources[resource_key].reserve(cursor, duration_us)
            wait_us += start - cursor
            cursor = finish
            busy[resource_key] = busy.get(resource_key, 0.0) + duration_us
            if tracer is not None:
                tracer.emit(
                    "op.device", lane=resource_key, ts_us=start,
                    dur_us=duration_us, kind=kind,
                )
        return wait_us, at_us + wait_us + float(completion)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    def run(
        self,
        trace: Sequence[TraceRecord],
        warmup_fraction: float = 0.0,
        keep_latencies: bool = False,
        open_loop: bool = False,
    ) -> ReplayStats:
        """Replay ``trace``; returns measured statistics.

        The first ``warmup_fraction`` of requests warm the cache
        without timing.  In closed-loop mode (default) ``queue_depth``
        requests are kept outstanding; with ``open_loop=True`` every
        measured record must carry an ``arrival_us`` timestamp and is
        dispatched at its recorded arrival instead.  Both inputs are
        validated before any request reaches the manager.
        """
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        warmup_ops = int(len(trace) * warmup_fraction)
        if open_loop:
            for index in range(warmup_ops, len(trace)):
                if trace[index].arrival_us is None:
                    raise ValueError(
                        "open-loop replay requires arrival_us on every "
                        f"measured record (record {index} has none)"
                    )

        manager = self.manager
        stats = ReplayStats(
            queue_depth=self.queue_depth,
            latency=LatencyStats(keep_samples=keep_latencies),
        )
        serial = not open_loop and self.queue_depth == 1
        tracer = manager.tracer  # None unless instrumented
        hits_before = manager.stats.read_hits
        misses_before = manager.stats.read_misses
        # Simulated time starts at zero when measurement begins (warm-up
        # consumes none).  In closed loop, ``outstanding`` is a min-heap
        # of the finish times of the requests in flight.
        outstanding: List[float] = []
        arrival_origin: Optional[float] = None
        dispatch_us = 0.0
        end_us = 0.0

        for index, record in enumerate(trace):
            if index == warmup_ops:
                # Measurement starts here, with every resource idle.
                for resource in self.resources.values():
                    resource.reset_busy()
                hits_before = manager.stats.read_hits
                misses_before = manager.stats.read_misses
            if index < warmup_ops:
                completion = _issue(manager, record)
                if tracer is not None:
                    _trace_warmup_request(tracer, record, completion)
                continue

            dispatch_wait_us = 0.0
            if open_loop:
                if arrival_origin is None:
                    arrival_origin = record.arrival_us
                arrival = record.arrival_us - arrival_origin
                # Records dispatch in trace order; a late predecessor
                # delays this request past its arrival.
                dispatch_us = max(dispatch_us, arrival)
                dispatch_wait_us = dispatch_us - arrival
            elif len(outstanding) >= self.queue_depth:
                dispatch_us = max(dispatch_us, heapq.heappop(outstanding))

            if tracer is not None:
                tracer.advance_to(dispatch_us)
            completion = _issue(manager, record)
            wait_us, finish_us = self._execute(
                completion, dispatch_us, stats, serial=serial, tracer=tracer,
            )
            wait_us += dispatch_wait_us
            if not open_loop:
                heapq.heappush(outstanding, finish_us)
            if finish_us > end_us:
                end_us = finish_us

            stats.ops += 1
            if record.is_write:
                stats.writes += 1
            else:
                stats.reads += 1
            latency_us = wait_us + float(completion)
            stats.latency.record(latency_us)
            stats.service.record(float(completion))
            stats.queue_wait.record(wait_us)
            if tracer is not None:
                tracer.emit(
                    "op.issue", lane="requests", ts_us=dispatch_us,
                    dur_us=latency_us,
                    kind="write" if record.is_write else "read",
                    lbn=record.lbn, hit=completion.hit,
                    queue_wait_us=wait_us,
                )

        # The run ends when the last outstanding request completes.
        stats.elapsed_us = end_us
        stats.read_hits = manager.stats.read_hits - hits_before
        stats.read_misses = manager.stats.read_misses - misses_before
        return stats
