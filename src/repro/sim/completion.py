"""Structured request completions and device-operation tracing.

The request path used to hand back a bare latency float: the manager
summed every device cost and the replay loop advanced the clock by the
total.  That representation cannot express *where* the time went, so
nothing above the device layer could overlap independent work — IOPS
was capped at 1/mean-latency regardless of how many flash planes the
device has.

This module is the richer currency the whole stack now trades in:

* :class:`DeviceOp` — one timed operation on one contended resource
  (a flash plane or the disk spindle).
* :class:`OpRecorder` — an ambient per-device-tree recorder; a capture
  brackets one request and collects every timed operation it caused,
  in execution order, across the flash chip and the disk.
* :class:`Completion` — a ``float`` subclass carrying the request's
  total service time (the float value, so every legacy call site that
  sums or compares latencies keeps working) plus the op trace and a
  hit/miss tag.

The :class:`~repro.engine.ReplayEngine` consumes completions to model
queue-depth concurrency: ops on distinct planes overlap, ops on the
same plane (or the one disk spindle) queue behind each other, and any
service time not bound to a resource — controller delays, log commits,
virtual-region metadata writes — stays serial within the request.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Tuple

#: Resource key of the (single-spindle) disk tier.
DISK_RESOURCE = "disk"

_PLANE_PREFIX = "plane:"

# Interned resource keys: every traced flash op calls plane_resource,
# and the replay engine keys busy-time dictionaries by the result, so
# one canonical string per plane keeps hashing cheap and allocation off
# the per-op path.
_PLANE_KEYS: dict = {}


def plane_resource(plane_id: int) -> str:
    """Resource key of flash plane ``plane_id`` (interned)."""
    key = _PLANE_KEYS.get(plane_id)
    if key is None:
        key = _PLANE_KEYS.setdefault(plane_id, f"{_PLANE_PREFIX}{plane_id}")
    return key


def is_plane_resource(resource: str) -> bool:
    """True if ``resource`` names a flash plane."""
    return resource.startswith(_PLANE_PREFIX)


# Interned per-shard plane keys, keyed by (shard_id, plane_id).  A
# sharded cache array namespaces each member device's planes so the
# replay engine schedules ops on different shards onto distinct
# availability timelines — that is what lets shards overlap under
# queue-depth concurrency.
_SHARD_PLANE_KEYS: dict = {}


def shard_plane_resource(shard_id: int, plane_id: int) -> str:
    """Resource key of plane ``plane_id`` on array shard ``shard_id``
    (``"s<k>:plane:<n>"``, interned)."""
    key = _SHARD_PLANE_KEYS.get((shard_id, plane_id))
    if key is None:
        key = _SHARD_PLANE_KEYS.setdefault(
            (shard_id, plane_id), f"s{shard_id}:{_PLANE_PREFIX}{plane_id}"
        )
    return key


class DeviceOp(NamedTuple):
    """One timed device operation attributed to one contended resource."""

    resource: str      # "plane:<n>" or "disk"
    kind: str          # "page_read", "page_write", "erase", "oob_scan", ...
    duration_us: float


class OpRecorder:
    """Collects the timed device operations of in-flight requests.

    Each traced device tree (flash chip, disk) holds a recorder; a
    cache manager shares one recorder across its devices so a request's
    operations come back in execution order.  Captures nest: a
    device-level capture inside a manager-level capture sees only its
    own operations while the outer capture sees everything.  With no
    capture active, recording is disabled and nothing is retained.
    """

    __slots__ = ("_ops", "_depth")

    def __init__(self):
        self._ops: List[DeviceOp] = []
        self._depth = 0

    @property
    def active(self) -> bool:
        """True while at least one capture is open."""
        return self._depth > 0

    def begin(self) -> int:
        """Open a capture; returns the mark to pass to :meth:`end`."""
        self._depth += 1
        return len(self._ops)

    def record(self, resource: str, kind: str, duration_us: float) -> None:
        """Record one timed operation (no-op unless a capture is open)."""
        if self._depth > 0:
            self._ops.append(DeviceOp(resource, kind, duration_us))

    def end(self, mark: int) -> Tuple[DeviceOp, ...]:
        """Close the capture opened at ``mark``; returns its operations."""
        if self._depth <= 0:
            raise RuntimeError("OpRecorder.end() without a matching begin()")
        self._depth -= 1
        ops = tuple(self._ops[mark:] if mark else self._ops)
        if self._depth == 0:
            self._ops.clear()
        return ops


class Completion(float):
    """A request's service time plus its structure.

    Subclasses ``float`` (the value is the total service latency in
    microseconds) so existing call sites that add, compare or record
    latencies keep working unchanged.  The attributes expose the
    breakdown the event-driven engine and the stats layer need:

    ``ops``
        The :class:`DeviceOp` trace, in execution order.
    ``hit``
        ``True``/``False`` for reads served from cache / disk,
        ``None`` where the notion does not apply (writes).
    """

    __slots__ = ("ops", "hit")

    def __new__(
        cls,
        latency_us: float,
        ops: Iterable[DeviceOp] = (),
        hit: Optional[bool] = None,
    ) -> "Completion":
        self = super().__new__(cls, latency_us)
        # Recorder captures already hand back tuples; re-tupling every
        # completion was a measurable per-op allocation.
        self.ops = ops if type(ops) is tuple else tuple(ops)
        self.hit = hit
        return self

    @property
    def latency_us(self) -> float:
        """Total service time (identical to ``float(self)``)."""
        return float(self)

    @property
    def disk_us(self) -> float:
        """Service time spent on the disk tier."""
        return sum(op.duration_us for op in self.ops if op.resource == DISK_RESOURCE)

    @property
    def flash_us(self) -> float:
        """Service time spent occupying flash planes."""
        return sum(op.duration_us for op in self.ops if is_plane_resource(op.resource))

    @property
    def cache_us(self) -> float:
        """Service time on the cache device (flash plus its controller,
        log-commit and metadata overheads) — everything but the disk."""
        return float(self) - self.disk_us

    @property
    def overhead_us(self) -> float:
        """Service time bound to no plane or spindle (control delays,
        log flushes, checkpoint writes).  Stays serial under concurrency."""
        return max(0.0, float(self) - sum(op.duration_us for op in self.ops))

    def __repr__(self) -> str:
        return (
            f"Completion({float(self):.1f}us, ops={len(self.ops)}, "
            f"hit={self.hit})"
        )
