"""The metric catalog, the snapshot, and :func:`collect`.

Mirrors :mod:`repro.obs.events` for metrics: a metric exists only with
a declaration — name, kind and a prose description — and the catalog
is what ``python -m repro obs schema --markdown`` renders into
``docs/metrics.md``.

The layer dataclasses (:class:`~repro.manager.base.ManagerStats`,
:class:`~repro.ftl.base.FTLStats`, :class:`~repro.flash.chip.FlashStats`,
the log/checkpoint counters, :class:`~repro.stats.counters.ReplayStats`)
are the only accumulators — the hot paths bump plain attributes.
:func:`collect` reads each cataloged metric straight from its layer
after a run: the prefix of a metric's name picks the layer and the
rest is the attribute, so exporting metrics costs nothing while the
simulation executes.

Snapshots form the same commutative monoid the sharded stat merges
do: ``merge`` adds two snapshots (shard A + shard B = array),
``diff`` subtracts a baseline (after - before = this phase), and the
empty snapshot is the identity.  The hypothesis tests in
``tests/test_obs_metrics.py`` pin those laws.  Histograms use fixed
``le`` bucket bounds (:meth:`~repro.stats.counters.LatencyStats.histogram`);
fixed bounds are what make ``merge`` well-defined — two histograms
merge by adding counts only when their bounds agree.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.stats.counters import LatencyStats

#: Fixed latency histogram bucket upper bounds, in microseconds.  The
#: range spans a flash page read (~an SSC hit) through multi-disk-seek
#: misses; fixed bounds keep cross-run and cross-shard merges exact.
LATENCY_BUCKETS_US: Tuple[float, ...] = (
    50.0, 100.0, 200.0, 500.0, 1000.0,
    2000.0, 5000.0, 10000.0, 20000.0, 50000.0,
)

#: (name, kind, description) for every declared metric, in the order
#: ``docs/metrics.md`` lists them.  Histograms carry their bounds as a
#: fourth element.  ``<layer>.<attribute>``: :func:`collect` reads
#: ``attribute`` from the layer's stats source(s).
METRICS: List[Tuple] = [
    # ---- cache manager (hit/miss accounting above the device) --------
    ("manager.reads", "counter",
     "Read requests the cache manager served."),
    ("manager.writes", "counter",
     "Write requests the cache manager served."),
    ("manager.read_hits", "counter",
     "Reads served from the cache device."),
    ("manager.read_misses", "counter",
     "Reads that had to go to disk."),
    ("manager.writebacks", "counter",
     "Dirty blocks written back to disk."),
    ("manager.cleans", "counter",
     "clean commands issued to the SSC (write-back manager)."),
    ("manager.evictions", "counter",
     "Manager-initiated evictions (native manager replacement)."),
    ("manager.metadata_writes", "counter",
     "Persisted manager-metadata updates (native write-back mode)."),
    # ---- FTL / cache engine ------------------------------------------
    ("ftl.user_reads", "counter",
     "Page reads performed on behalf of user requests."),
    ("ftl.user_writes", "counter",
     "Page programs performed on behalf of user requests."),
    ("ftl.gc_page_reads", "counter",
     "Page reads garbage-collection merges performed."),
    ("ftl.gc_page_writes", "counter",
     "Page programs garbage-collection merges performed; "
     "gc_page_writes / user_writes is the write amplification of "
     "Table 5."),
    ("ftl.meta_page_writes", "counter",
     "Flash pages written for durability metadata (operation log + "
     "checkpoints)."),
    ("ftl.full_merges", "counter",
     "Full merges: every live page of the erase group copied."),
    ("ftl.switch_merges", "counter",
     "Switch merges: a sequentially written log block promoted in "
     "place, zero copies."),
    ("ftl.partial_merges", "counter",
     "Partial merges: the sequential log block's tail completed before "
     "promotion."),
    ("ftl.silent_evictions", "counter",
     "Erase blocks the SSC reclaimed by dropping clean data instead of "
     "copying it (SE-Util / SE-Merge)."),
    ("ftl.evicted_valid_pages", "counter",
     "Live (clean) pages discarded by silent eviction."),
    # ---- flash chip --------------------------------------------------
    ("flash.page_reads", "counter",
     "Physical page reads the chip executed."),
    ("flash.page_writes", "counter",
     "Physical page programs the chip executed."),
    ("flash.block_erases", "counter",
     "Physical block erases the chip executed (wear)."),
    ("flash.oob_scans", "counter",
     "Out-of-band area scans (native OOB recovery path)."),
    ("flash.busy_us", "gauge",
     "Total simulated time flash planes spent busy."),
    # ---- operation log -----------------------------------------------
    ("log.sync_flushes", "counter",
     "Synchronous operation-log flushes (on the request path)."),
    ("log.async_flushes", "counter",
     "Asynchronous (group-commit) operation-log flushes."),
    ("log.records_written", "counter",
     "Mapping-change records made durable in the operation log."),
    ("log.pages_written", "counter",
     "Flash pages the operation log consumed."),
    ("log.erases", "counter",
     "Block erases spent recycling truncated log segments."),
    # ---- checkpoints -------------------------------------------------
    ("checkpoint.writes", "counter",
     "Mapping checkpoints committed (alternating-slot writes)."),
    ("checkpoint.pages_written", "counter",
     "Flash pages consumed by checkpoint commits."),
    # ---- replay-level results ----------------------------------------
    ("replay.ops", "counter",
     "Measured (post-warmup) trace requests replayed."),
    ("replay.reads", "counter",
     "Measured read requests replayed."),
    ("replay.writes", "counter",
     "Measured write requests replayed."),
    ("replay.read_hits", "counter",
     "Measured reads that hit the cache."),
    ("replay.read_misses", "counter",
     "Measured reads that missed to disk."),
    ("replay.elapsed_us", "gauge",
     "Simulated wall time of the measured window."),
    ("replay.latency_us", "histogram",
     "End-to-end request latency distribution over the measured window "
     "(requires latency samples, i.e. keep_latencies=True).",
     LATENCY_BUCKETS_US),
    # ---- memory footprint (Table 4) ----------------------------------
    ("memory.device_bytes", "gauge",
     "Modeled device RAM for mapping state."),
    ("memory.host_bytes", "gauge",
     "Modeled host RAM the cache manager needs."),
]


def _copy_histogram(hist: Mapping[str, Any], sign: int = 1) -> Dict[str, Any]:
    return {
        "bounds": list(hist["bounds"]),
        "counts": [sign * count for count in hist["counts"]],
        "count": sign * hist["count"],
        "sum": sign * hist["sum"],
    }


class MetricsSnapshot:
    """Frozen metric values supporting ``merge``/``diff``/``to_dict``.

    ``merge`` is commutative and associative with the empty snapshot
    as identity: counters and histogram counts/sums add, and gauges
    add too — for the levels we track (memory bytes, busy time) the
    sum across shards is the meaningful array-level value, and
    addition is what keeps the monoid laws exact.
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self,
                 counters: Optional[Mapping[str, float]] = None,
                 gauges: Optional[Mapping[str, float]] = None,
                 histograms: Optional[Mapping[str, Mapping[str, Any]]] = None):
        self.counters: Dict[str, float] = dict(counters or {})
        self.gauges: Dict[str, float] = dict(gauges or {})
        self.histograms: Dict[str, Dict[str, Any]] = {
            name: _copy_histogram(h) for name, h in (histograms or {}).items()
        }

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        return cls()

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Pointwise sum of two snapshots (shards -> array)."""
        return self._combine(other, 1, "merge")

    def diff(self, baseline: "MetricsSnapshot") -> "MetricsSnapshot":
        """Pointwise subtraction: ``after.diff(before)`` isolates a phase.

        Inverse of ``merge``: ``a.merge(b).diff(b)`` equals ``a`` on
        every metric present in ``a``.
        """
        return self._combine(baseline, -1, "diff")

    def _combine(self, other: "MetricsSnapshot", sign: int,
                 verb: str) -> "MetricsSnapshot":
        """``self + sign * other``, metric by metric."""
        result = MetricsSnapshot(self.counters, self.gauges, self.histograms)
        for mine, theirs in ((result.counters, other.counters),
                             (result.gauges, other.gauges)):
            for name, value in theirs.items():
                mine[name] = mine.get(name, 0.0) + sign * value
        for name, theirs in other.histograms.items():
            mine = result.histograms.get(name)
            if mine is None:
                result.histograms[name] = _copy_histogram(theirs, sign)
                continue
            if list(mine["bounds"]) != list(theirs["bounds"]):
                raise ValueError(
                    f"cannot {verb} histogram {name!r}: bucket bounds differ"
                )
            mine["counts"] = [a + sign * b for a, b in
                              zip(mine["counts"], theirs["counts"])]
            mine["count"] += sign * theirs["count"]
            mine["sum"] += sign * theirs["sum"]
        return result

    def to_dict(self) -> Dict[str, Any]:
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: _copy_histogram(h)
                for name, h in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricsSnapshot":
        return cls(payload.get("counters", {}),
                   payload.get("gauges", {}),
                   payload.get("histograms", {}))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (f"MetricsSnapshot(counters={len(self.counters)}, "
                f"gauges={len(self.gauges)}, "
                f"histograms={len(self.histograms)})")


def _sources(system: Any, replay_stats: Optional[Any]) -> Dict[str, List[Any]]:
    """Layer name -> the stats objects its metrics are read from.

    A layer with several sources (the per-shard operation logs and
    checkpoint stores of a sharded SSC array) reports their sum; one
    with none (the log of a plain SSD, replay results not given)
    reports zero.
    """
    manager = system.manager
    device = system.device
    shards = getattr(device, "shards", None)
    members = shards if isinstance(shards, list) else [device]
    stores = [member for member in members
              if getattr(member, "oplog", None) is not None
              and getattr(member, "checkpoints", None) is not None]
    return {
        "manager": [manager.stats],
        "ftl": [device.stats],
        "flash": [device.chip.stats],
        "log": [member.oplog for member in stores],
        "checkpoint": [member.checkpoints for member in stores],
        "replay": [] if replay_stats is None else [replay_stats],
        "memory": [SimpleNamespace(
            device_bytes=device.device_memory_bytes(),
            host_bytes=manager.host_memory_bytes(),
        )],
    }


def collect(system: Any,
            replay_stats: Optional[Any] = None) -> MetricsSnapshot:
    """Read every cataloged metric from ``system``'s layers.

    ``system`` is a :class:`~repro.core.flashtier.FlashTierSystem` (or
    anything exposing ``manager``/``device``); sharded arrays are
    handled transparently because their stats properties already merge
    across members.  ``replay_stats`` (a
    :class:`~repro.stats.counters.ReplayStats`) adds the replay-level
    results; the latency histogram fills only when the replay kept its
    samples.
    """
    sources = _sources(system, replay_stats)
    latency = LatencyStats() if replay_stats is None else replay_stats.latency
    values: Dict[str, Dict[str, Any]] = {"counter": {}, "gauge": {},
                                         "histogram": {}}
    for name, kind, _description, *bounds in METRICS:
        if kind == "histogram":
            # The one cataloged histogram is the replay latency.
            values[kind][name] = latency.histogram(bounds[0])
            continue
        layer, attribute = name.split(".", 1)
        values[kind][name] = sum(
            (getattr(source, attribute) for source in sources[layer]), 0.0
        )
    return MetricsSnapshot(values["counter"], values["gauge"],
                           values["histogram"])
