"""The benchmark run: set-up, replays, checks, metrics and the report.

:func:`run` drives one invocation of ``run.py``.  It imports the
program, so ``run.py`` puts ``src/`` on the import path first.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import workloads as wl
from spans import LAYERS, SpanRecorder, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"


@dataclass
class Outcome:
    """What one run attempted, and every check that failed."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


@dataclass
class Replay:
    """One replay of one trace on a freshly built system."""

    trace_index: int
    replay_s: float
    recovery_s: float
    records: int
    sim: Dict[str, float]
    bases: Dict[str, int]
    layers: Optional[Dict[str, float]] = None


class Bench:
    """One invocation: set-up, replays and checks."""

    def __init__(self, workload: wl.Workload, seed: int):
        self.workload = workload
        self.seeds = wl.trace_seeds(seed)
        self.outcome = Outcome()
        self.traces: List = []
        self.setup: Dict[str, List[float]] = {
            "setup_s": [], "traces.generate_s": [], "core.build_s": [],
        }
        self.recorder: Optional[SpanRecorder] = None

    def set_up(self, index: int):
        """Generate trace ``index`` and build a system, timing each step.

        This runs before every replay, so the set-up samples spread over
        the whole run.  Regenerating a trace also checks that the
        generator gives the same records for the same seed.
        """
        seed = self.seeds[index]
        gc.collect()
        begin = time.perf_counter()
        trace = self.workload.make_trace(seed)
        generated = time.perf_counter()
        system = self.workload.build()
        built = time.perf_counter()
        self.setup["traces.generate_s"].append(generated - begin)
        self.setup["core.build_s"].append(built - generated)
        self.setup["setup_s"].append(built - begin)
        if index == len(self.traces):
            self.traces.append(trace)
        elif trace != self.traces[index]:
            self.outcome.fail(f"trace seed {seed} generated two traces")
        return self.traces[index], system

    def setup_median(self, name: str) -> float:
        return statistics.median(self.setup[name])

    def replay(self, index: int, traced: bool = False) -> Optional[Replay]:
        """Set up, replay trace ``index``, recover, and check the results."""
        seed = self.seeds[index]
        trace, system = self.set_up(index)
        members = wl.ssc_members(system)
        recorder = SpanRecorder() if traced else None
        if recorder is not None:
            recorder.install(system, members)
        self.outcome.attempted += len(trace)
        gc.collect()
        try:
            begin = time.perf_counter()
            stats = self.workload.replay(system, trace)
            replay_s = time.perf_counter() - begin
        except Exception:  # a request that raises is a failed request
            self.outcome.fail(
                f"replay of trace seed {seed} raised:\n{traceback.format_exc()}"
            )
            return None
        layers = None
        if recorder is not None:
            recorder.uninstall()
            layers = self._layers(recorder, system, stats, members, replay_s)
            self.recorder = recorder
        sim, bases = wl.sim_metrics(system, stats)
        begin = time.perf_counter()
        sim["sim_recovery_us"] = wl.recover(system)
        recovery_s = time.perf_counter() - begin
        checks, failures = wl.check_outputs(system, trace, stats, seed)
        self.outcome.attempted += checks
        for failure in failures:
            self.outcome.fail(f"trace seed {seed}: {failure}")
        return Replay(index, replay_s, recovery_s, len(trace), sim, bases, layers)

    def _layers(self, recorder, system, stats, members, replay_s):
        """Per-layer metrics of a traced replay, with the span checks."""
        layers = layer_metrics(recorder, system, stats, members)
        if (recorder.self_ns() < 0).any():
            self.outcome.fail("a span's children outlast it: wrappers misnested")
        layer_s = sum(layers[f"{name}.self_s"] for name in LAYERS)
        layers["other.self_s"] = replay_s - layer_s
        if not 0.0 <= layers["other.self_s"] <= 0.05 * replay_s:
            self.outcome.fail(
                f"layer self times ({layer_s:.3f} s) do not add up to the "
                f"traced replay ({replay_s:.3f} s)"
            )
        return layers

    def compare(self, first: Replay, again: Replay, what: str) -> None:
        """Determinism guard: every sim_* metric must repeat exactly."""
        for metric, value in first.sim.items():
            if again.sim[metric] != value:
                self.outcome.fail(
                    f"nondeterministic {metric} on trace seed "
                    f"{self.seeds[first.trace_index]} ({what}): "
                    f"{value!r} then {again.sim[metric]!r}"
                )

    def run_untraced(self, seconds: float):
        """Replay every trace once, then repeat them while time is left.

        Every trace is replayed at least once and the first one at
        least twice, so the determinism guard always runs.
        """
        first: Dict[int, Replay] = {}
        replays: List[Replay] = []
        start = time.perf_counter()
        step = 0.0
        count = len(self.seeds)
        while len(replays) <= count or _room_for(step, start, seconds):
            index = len(replays) % count
            began = time.perf_counter()
            result = self.replay(index)
            step = time.perf_counter() - began
            if result is None:
                break
            if index in first:
                self.compare(first[index], result, "untraced replays")
            else:
                first[index] = result
            replays.append(result)
        return first, replays

    def run_traced(self, seconds: float):
        """Pair untraced and traced replays of the first trace."""
        pairs = []
        start = time.perf_counter()
        step = 0.0
        while not pairs or _room_for(step, start, seconds):
            began = time.perf_counter()
            untraced = self.replay(0)
            traced = self.replay(0, traced=True) if untraced else None
            if traced is None:
                break
            self.compare(untraced, traced, "untraced vs traced")
            traced.layers["trace.overhead_pct"] = 100.0 * (
                traced.replay_s / untraced.replay_s - 1.0
            )
            traced.layers["recovery.host_s"] = untraced.recovery_s
            pairs.append((untraced, traced))
            step = time.perf_counter() - began
        return pairs


def _room_for(step: float, start: float, seconds: float) -> bool:
    """True if one more ``step`` of work ends nearer ``seconds`` after
    ``start`` than stopping now does."""
    return time.perf_counter() - start + step / 2 < seconds


def end_to_end(bench: Bench, first: Dict[int, Replay], replays: List[Replay]):
    """Host metrics over every replay, simulated ones over the traces.

    ``records_per_sec`` is the median over all replays, which cycle
    through the traces in turn.  Each ``sim_*`` value is the mean of the
    per-trace values, which repeat exactly for a trace.  Returns the
    metrics and the bases printed beside them.
    """
    metrics = {
        "records_per_sec": statistics.median(
            replay.records / replay.replay_s for replay in replays
        ),
        "setup_s": bench.setup_median("setup_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    traces = [first[index] for index in sorted(first)]
    for metric in traces[0].sim:
        metrics[metric] = statistics.fmean(trace.sim[metric] for trace in traces)
    beyond = min(trace.bases.pop("samples_beyond_p999") for trace in traces)
    if beyond < 10:
        bench.outcome.fail("fewer than 10 samples beyond p99.9 in a trace")
    bases: Dict[str, object] = {
        f"{key} (sum over traces)": sum(trace.bases[key] for trace in traces)
        for key in traces[0].bases
    }
    bases["samples_beyond_p999 (fewest in one trace)"] = beyond
    bases["traces"] = len(traces)
    bases["replays"] = len(replays)
    bases["records_per_sec of each replay"] = [
        round(replay.records / replay.replay_s) for replay in replays
    ]
    return metrics, bases


def per_layer(bench: Bench, pairs) -> Dict[str, float]:
    """Median of each per-layer metric over the traced replays."""
    metrics = {
        name: statistics.median(traced.layers[name] for _untraced, traced in pairs)
        for name in pairs[0][1].layers
    }
    metrics["traces.generate_s"] = bench.setup_median("traces.generate_s")
    metrics["core.build_s"] = bench.setup_median("core.build_s")
    return metrics


def print_report(args, bench: Bench, why: str, metrics, units, notes) -> None:
    outcome = bench.outcome
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace seeds {bench.seeds}  trace {args.trace}")
    print(f"why: {why}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:16.6g} {units[name]}")
    for name, value in notes.items():
        print(f"  ({name}: {value})")
    share = 100.0 * outcome.failed / max(1, outcome.attempted)
    print(f"  failed_ops_pct {share:.4g} % "
          f"({outcome.failed} failed of {outcome.attempted} attempted)")
    for error in outcome.errors[:20]:
        print(f"  FAILED: {error}")


def run(args) -> int:
    """Run one workload; print the report and the result line."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {entry["name"]: entry["why"] for entry in declared["workloads"]}
    if args.workload not in wl.WORKLOADS or args.workload not in why:
        print(f"unknown workload {args.workload!r}; choose from {sorted(why)}",
              file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declared[section]}

    bench = Bench(wl.WORKLOADS[args.workload], args.seed)
    measured: Dict[str, float] = {}
    notes: Dict[str, object] = {}
    if args.trace:
        pairs = bench.run_traced(args.seconds)
        if pairs:
            measured = per_layer(bench, pairs)
            path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            bench.recorder.write(path)
            notes["traced pairs"] = len(pairs)
            notes["spans"] = len(bench.recorder)
            notes["spans written to"] = path.relative_to(ROOT)
    else:
        first, replays = bench.run_untraced(args.seconds)
        if len(first) == len(bench.seeds):
            measured, notes = end_to_end(bench, first, replays)

    # Every declared metric must be measured; the rest are printed only.
    missing = sorted(set(units) - set(measured))
    if missing:
        bench.outcome.fail(f"declared metrics not measured: {missing}")
    metrics = {name: measured[name] for name in units if name in measured}
    for name in sorted(measured.keys() - units.keys()):
        notes[f"{name}, not gated"] = f"{measured[name]:.6g}"

    outcome = bench.outcome
    print_report(args, bench, why[args.workload], metrics, units, notes)
    result = {
        "correct": not outcome.errors,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    OUT.mkdir(exist_ok=True)
    report = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report.write_text(json.dumps(
        {**result, "notes": {key: str(value) for key, value in notes.items()},
         "errors": outcome.errors},
        indent=2,
    ))
    print(json.dumps(result))
    return 0 if result["correct"] else 1
