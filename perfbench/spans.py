"""Outside-in layer tracing for the benchmark's traced run.

:class:`SpanRecorder` replaces the public entry points of each layer on
the instances ``build_system`` returned with timing wrappers.  Nothing
in the program changes: a wrapper is an instance attribute that shadows
the class method, and :meth:`SpanRecorder.uninstall` deletes it again.

Every wrapped call records one span: its call site (layer and entry
point), the span open beneath which it ran, the request it belongs to
(the enclosing cache-manager call) and its start and end in host
nanoseconds.  Spans are kept in flat arrays in memory and written out
once, when the run ends.  A layer's self time is the duration of its
spans minus the durations of their direct child spans.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

#: Layers in the order the report lists them, named by module.
LAYERS = (
    "engine", "manager", "sharding", "ssc", "sparse_map", "log",
    "checkpoint", "ftl", "flash", "disk",
)

#: The SSC's six-operation interface (paper §4.2.1).
SSC_OPS = ("read", "write_dirty", "write_clean", "evict", "clean", "exists")


def _label(member) -> str:
    """Span-label prefix of one SSC device ("shard2", or "ssc" alone)."""
    return member.name or "ssc"


class SpanRecorder:
    """Installs layer wrappers and keeps the spans they record."""

    def __init__(self):
        self.sites: List[Tuple[str, str]] = []  # (layer, entry point)
        self.site = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        #: Exceptions that escaped a wrapped call, keyed by (site, type).
        self.raised: Counter = Counter()
        self._stack: List[int] = []
        self._request = [-1, 0]  # [current request id, open request spans]
        self._installed: List[Tuple[object, str]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def wrap(self, obj, method: str, layer: str, label: str,
             starts_request: bool = False) -> None:
        """Shadow ``obj.method`` with a span-recording wrapper."""
        if layer not in LAYERS:
            raise ValueError(f"unknown layer {layer!r}")
        original = getattr(obj, method)
        site_id = len(self.sites)
        self.sites.append((layer, label))
        stack = self._stack
        request = self._request
        raised = self.raised
        clock = time.perf_counter_ns
        sites, parents, requests = self.site, self.parent, self.request
        starts, ends = self.start_ns, self.end_ns

        def traced(*args, **kwargs):
            index = len(starts)
            if starts_request:
                if not request[1]:
                    request[0] += 1
                request[1] += 1
            sites.append(site_id)
            parents.append(stack[-1] if stack else -1)
            requests.append(request[0] if request[1] else -1)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            except BaseException as exc:
                raised[site_id, type(exc).__name__] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()
                if starts_request:
                    request[1] -= 1

        setattr(obj, method, traced)
        self._installed.append((obj, method))

    def install(self, system, members: List) -> None:
        """Wrap every layer's entry points on one built system.

        ``members`` are its SSC devices: empty for the native system,
        the lone SSC, or the members of a sharded array.
        """
        self.wrap(system, "replay", "engine", "system.replay")
        for op in ("read", "write"):
            self.wrap(system.manager, op, "manager", f"manager.{op}",
                      starts_request=True)
        for op in ("read", "write"):
            self.wrap(system.disk, op, "disk", f"disk.{op}")
        if not members:
            for op in ("read", "write", "trim", "set_page_dirty"):
                self.wrap(system.ssd, op, "ftl", f"ssd.{op}")
            self._wrap_chip(system.ssd.chip, "ssd")
            return
        if system.ssc is not members[0]:
            for op in SSC_OPS:
                self.wrap(system.ssc, op, "sharding", f"array.{op}")
        for member in members:
            name = _label(member)
            for op in SSC_OPS:
                self.wrap(member, op, "ssc", f"{name}.{op}")
            self.wrap(member, "checkpoint_now", "checkpoint",
                      f"{name}.checkpoint_now")
            self.wrap(member.checkpoints, "write", "checkpoint",
                      f"{name}.checkpoints.write")
            for op in ("append", "flush", "truncate_through"):
                self.wrap(member.oplog, op, "log", f"{name}.oplog.{op}")
            engine = member.engine
            for op in ("write", "trim", "set_clean", "current_location"):
                self.wrap(engine, op, "ftl", f"{name}.engine.{op}")
            for map_name in ("log_map", "data_map"):
                inner = getattr(engine, map_name).inner
                for op in ("lookup", "insert", "remove"):
                    self.wrap(inner, op, "sparse_map",
                              f"{name}.{map_name}.{op}")
            self._wrap_chip(member.chip, name)

    def _wrap_chip(self, chip, name: str) -> None:
        for op in ("read_page", "program_page", "erase_block", "scan_oob"):
            self.wrap(chip, op, "flash", f"{name}.chip.{op}")

    def uninstall(self) -> None:
        """Remove every wrapper, restoring the class methods."""
        for obj, method in reversed(self._installed):
            delattr(obj, method)
        self._installed.clear()

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start_ns)

    def self_ns(self) -> np.ndarray:
        """Each span's duration minus its direct children's durations."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end_ns, dtype=np.int64) - np.frombuffer(
            self.start_ns, dtype=np.int64
        )
        has_parent = parent >= 0
        child = np.zeros_like(duration)
        np.add.at(child, parent[has_parent], duration[has_parent])
        return duration - child

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``calls`` and ``self_ns`` totals."""
        layer_of_site = np.array(
            [LAYERS.index(layer) for layer, _entry in self.sites], dtype=np.int64
        )
        layer = layer_of_site[np.frombuffer(self.site, dtype=np.uint16)]
        calls = np.bincount(layer, minlength=len(LAYERS))
        self_total = np.bincount(layer, weights=self.self_ns(), minlength=len(LAYERS))
        return {
            name: {"calls": int(calls[i]), "self_ns": float(self_total[i])}
            for i, name in enumerate(LAYERS)
        }

    def calls_by_label(self) -> Dict[str, int]:
        counts = np.bincount(
            np.frombuffer(self.site, dtype=np.uint16), minlength=len(self.sites)
        )
        return {label: int(counts[i]) for i, (_layer, label) in enumerate(self.sites)}

    def raised_in(self, layer: str, exception: str) -> int:
        """Exceptions of type ``exception`` that escaped ``layer`` calls."""
        return sum(
            count
            for (site_id, name), count in self.raised.items()
            if name == exception and self.sites[site_id][0] == layer
        )

    def write(self, path: Path) -> None:
        """Write every span to ``path`` (a compressed ``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            site=np.frombuffer(self.site, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            start_ns=np.frombuffer(self.start_ns, dtype=np.int64),
            end_ns=np.frombuffer(self.end_ns, dtype=np.int64),
            sites=np.array(json.dumps(self.sites)),
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, system, stats,
                  members: List) -> Dict[str, float]:
    """Per-layer metrics of one traced replay of ``system``.

    Host numbers (``*.self_s``, calls, ``flash.host_ns_per_op``) come
    from the spans; simulated counts come from the layers' own
    statistics, cumulative over the whole replay including warm-up.
    ``members`` are the system's SSC devices (empty for the native
    system); every SSC-only metric reads 0 when it is empty.
    """
    layers = recorder.by_layer()
    metrics: Dict[str, float] = {}
    for name in LAYERS:
        metrics[f"{name}.self_s"] = layers[name]["self_ns"] / 1e9

    metrics["engine.sim_queue_wait_us_mean"] = stats.queue_wait.mean_us

    manager = system.manager.stats
    metrics["manager.calls"] = layers["manager"]["calls"]
    metrics["manager.miss_rate_pct"] = 100.0 * _ratio(
        manager.read_misses, manager.read_hits + manager.read_misses
    )
    for field in ("writebacks", "cleans", "evictions", "metadata_writes"):
        metrics[f"manager.{field}"] = getattr(manager, field)

    by_label = recorder.calls_by_label()
    member_calls = [
        sum(by_label[f"{_label(member)}.{op}"] for op in SSC_OPS)
        for member in members
    ]
    metrics["sharding.calls"] = layers["sharding"]["calls"]
    metrics["sharding.max_member_share"] = (
        _ratio(max(member_calls), sum(member_calls))
        if layers["sharding"]["calls"] else 0.0
    )

    metrics["ssc.calls"] = layers["ssc"]["calls"]
    metrics["ssc.not_present"] = recorder.raised_in("ssc", "NotPresentError")
    metrics["ssc.cache_full"] = recorder.raised_in("ssc", "CacheFullError")

    inner_maps = [
        getattr(member.engine, map_name).inner
        for member in members
        for map_name in ("log_map", "data_map")
    ]
    metrics["sparse_map.calls"] = layers["sparse_map"]["calls"]
    metrics["sparse_map.mean_probes"] = _ratio(
        sum(inner.total_probes for inner in inner_maps),
        sum(inner.total_lookups for inner in inner_maps),
    )

    logs = [member.oplog for member in members]
    metrics["log.appends"] = sum(
        count for label, count in by_label.items()
        if label.endswith(".oplog.append")
    )
    metrics["log.sync_flushes"] = sum(log.sync_flushes for log in logs)
    metrics["log.async_flushes"] = sum(log.async_flushes for log in logs)
    metrics["log.records_per_page"] = _ratio(
        sum(log.records_written for log in logs),
        sum(log.pages_written for log in logs),
    )
    metrics["checkpoint.writes"] = sum(
        member.checkpoints.writes for member in members
    )

    ftl = system.device.stats
    flash = system.device.chip.stats
    metrics["ftl.calls"] = layers["ftl"]["calls"]
    for field in ("full_merges", "partial_merges", "switch_merges",
                  "gc_page_writes", "silent_evictions", "evicted_valid_pages"):
        metrics[f"ftl.{field}"] = getattr(ftl, field)
    metrics["ftl.copies_per_erase"] = _ratio(ftl.gc_page_writes, flash.block_erases)

    metrics["flash.page_reads"] = flash.page_reads
    metrics["flash.page_writes"] = flash.page_writes
    metrics["flash.block_erases"] = flash.block_erases
    metrics["flash.host_ns_per_op"] = _ratio(
        layers["flash"]["self_ns"], layers["flash"]["calls"]
    )
    utilization = stats.utilization()
    metrics["flash.plane_util_max"] = max(
        (busy for key, busy in utilization.items() if "plane:" in key),
        default=0.0,
    )

    disk = system.disk.stats
    metrics["disk.reads"] = disk.reads
    metrics["disk.writes"] = disk.writes
    metrics["disk.sequential_share"] = _ratio(
        disk.sequential_hits, disk.reads + disk.writes
    )
    metrics["disk.util"] = utilization.get("disk", 0.0)
    return metrics
