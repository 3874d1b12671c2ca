"""Summarizing captured traces: ``repro trace report``.

Consumes the JSONL event stream a :class:`~repro.obs.trace.JsonlSink`
wrote (``repro replay --events-out``) and answers the questions the
paper's evaluation keeps asking:

* which erase groups cost the most garbage-collection time (top-N),
* where flash page writes actually went — user data, merge copies,
  log pages, checkpoint pages — i.e. the write-amplification
  breakdown behind Table 5's numbers,
* how long each roll-forward recovery phase took.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping

from repro.stats.report import format_table


def load_events(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL trace file into a list of event dicts.

    Raises ``ValueError`` naming ``path:line`` for a line that is not
    a JSON object, or whose ``args`` is not one.
    """
    events: List[Dict[str, Any]] = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: not a JSON event line: {exc}"
                ) from None
            if not isinstance(event, dict):
                raise ValueError(f"{path}:{line_no}: not a JSON object")
            if not isinstance(event.get("args", {}), dict):
                raise ValueError(
                    f"{path}:{line_no}: \"args\" is not a JSON object"
                )
            events.append(event)
    return events


def summarize(events: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Aggregate a trace into the report's sections.

    Raises ``ValueError`` naming the event (1-based position) when a
    field holds a value of the wrong type, e.g. non-numeric ``copies``.
    """
    gc_by_group: Dict[int, Dict[str, float]] = {}
    merge_kinds: Dict[str, int] = {}
    wa = {
        "user_writes": 0,
        "gc_copies": 0,
        "log_pages": 0,
        "checkpoint_pages": 0,
        "evicted_valid_pages": 0,
        "silent_evictions": 0,
    }
    recovery_phases: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, int] = {}

    for index, event in enumerate(events, start=1):
        try:
            name = event.get("name", "")
            if not isinstance(name, str):
                raise TypeError("event name is not a string")
            args = event.get("args", {})
            dur = float(event.get("dur_us", 0.0))
            counts[name] = counts.get(name, 0) + 1
            if name == "op.issue":
                if args.get("kind") == "write":
                    wa["user_writes"] += 1
            elif name == "gc.merge":
                kind = str(args.get("kind", "?"))
                merge_kinds[kind] = merge_kinds.get(kind, 0) + 1
                copies = int(args.get("copies", 0))
                wa["gc_copies"] += copies
                group = int(args.get("group", -1))
                entry = gc_by_group.setdefault(
                    group, {"merges": 0, "copies": 0, "dur_us": 0.0}
                )
                entry["merges"] += 1
                entry["copies"] += copies
                entry["dur_us"] += dur
            elif name == "evict.silent":
                wa["silent_evictions"] += 1
                wa["evicted_valid_pages"] += int(args.get("valid_pages", 0))
            elif name == "log.flush":
                wa["log_pages"] += int(args.get("pages", 0))
            elif name == "checkpoint.commit":
                wa["checkpoint_pages"] += int(args.get("pages", 0))
            elif name == "recovery.phase":
                phase = str(args.get("phase", "?"))
                entry = recovery_phases.setdefault(
                    phase, {"runs": 0, "count": 0, "dur_us": 0.0}
                )
                entry["runs"] += 1
                entry["count"] += int(args.get("count", 0))
                entry["dur_us"] += dur
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"event {index} ({event.get('name')!r}): bad field value: {exc}"
            ) from None

    return {
        "event_counts": counts,
        "gc_by_group": gc_by_group,
        "merge_kinds": merge_kinds,
        "write_breakdown": wa,
        "recovery_phases": recovery_phases,
    }


def format_report(summary: Mapping[str, Any], top: int = 10) -> str:
    """Render :func:`summarize`'s output as plain-text tables."""
    sections: List[str] = []

    counts = summary["event_counts"]
    total = sum(counts.values())
    sections.append(format_table(
        ["event", "count"],
        [(name, counts[name]) for name in sorted(counts)],
        title=f"Captured events ({total} total)",
    ))

    wa = summary["write_breakdown"]
    overhead = wa["gc_copies"] + wa["log_pages"] + wa["checkpoint_pages"]
    user = wa["user_writes"]
    rows = [
        ("user writes", user, "the work requested"),
        ("gc merge copies", wa["gc_copies"],
         f"+{wa['gc_copies'] / user:.2f} per user write" if user else "-"),
        ("log pages", wa["log_pages"], "durability: operation log"),
        ("checkpoint pages", wa["checkpoint_pages"], "durability: checkpoints"),
        ("silently evicted pages", wa["evicted_valid_pages"],
         f"copies *avoided* across {wa['silent_evictions']} evictions"),
    ]
    title = "Write-amplification breakdown"
    if user:
        title += f" (overhead {overhead / user:.2f} pages per user write)"
    sections.append(format_table(["source", "pages", "note"], rows, title=title))

    gc = summary["gc_by_group"]
    if gc:
        ranked = sorted(
            gc.items(), key=lambda item: item[1]["dur_us"], reverse=True
        )[:top]
        sections.append(format_table(
            ["erase group", "merges", "copies", "gc time"],
            [
                (group, int(e["merges"]), int(e["copies"]),
                 f"{e['dur_us']:.0f}us")
                for group, e in ranked
            ],
            title=f"Top {min(top, len(gc))} GC-cost erase groups "
                  f"(of {len(gc)} merged)",
        ))

    phases = summary["recovery_phases"]
    if phases:
        order = {"load_checkpoint": 0, "replay_log": 1, "materialize": 2}
        sections.append(format_table(
            ["phase", "runs", "units", "time"],
            [
                (phase, int(e["runs"]), int(e["count"]), f"{e['dur_us']:.0f}us")
                for phase, e in sorted(
                    phases.items(), key=lambda kv: order.get(kv[0], 99)
                )
            ],
            title="Recovery phases",
        ))

    return "\n\n".join(sections)
