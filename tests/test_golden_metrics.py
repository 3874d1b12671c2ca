"""Golden fixtures for ``repro.obs.collect``.

``collect`` turns a system's layer counters (and optionally a
``ReplayStats``) into the ``MetricsSnapshot`` that ``repro replay
--metrics`` writes.  These fixtures pin ``to_dict()`` of that snapshot
for one small fixed-seed replay per system kind, both with the replay
stats (latency histogram filled from retained samples) and without:

* native FlashCache write-back;
* the SSC write-back array with 2 shards (log and checkpoint counters
  summed across members);
* SSC-R write-through.

Regenerate (only when a change is *meant* to move a metric)::

    PYTHONPATH=src python tests/test_golden_metrics.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.flashtier import build_system
from repro.obs import collect
from repro.traces.synthetic import PROFILES, generate_trace

GOLDEN_DIR = Path(__file__).parent / "golden"

#: name -> (system kind, mode, shards)
SHAPES = {
    "native_wb": (SystemKind.NATIVE, CacheMode.WRITE_BACK, 1),
    "ssc_wb_x2": (SystemKind.SSC, CacheMode.WRITE_BACK, 2),
    "ssc_r_wt": (SystemKind.SSC_R, CacheMode.WRITE_THROUGH, 1),
}


def run_shape(name: str):
    """Replay one shape; returns both ``collect`` outputs as JSON data."""
    kind, mode, shards = SHAPES[name]
    profile = PROFILES["homes"].scaled(0.03)
    system = build_system(SystemConfig(
        kind=kind, mode=mode, cache_blocks=profile.cache_blocks(),
        disk_blocks=profile.address_range_blocks, shards=shards,
    ))
    records = generate_trace(profile, seed=7).records
    stats = system.replay(records, warmup_fraction=0.15,
                          keep_latencies=True)
    snapshot = {
        "with_stats": collect(system, stats).to_dict(),
        "without_stats": collect(system).to_dict(),
    }
    # JSON round-trip so numbers normalize as in the file.
    return json.loads(json.dumps(snapshot))


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"metrics_{name}.json"


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_collect_matches_golden(name):
    golden = json.loads(golden_path(name).read_text())
    assert run_shape(name) == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_metrics.py --write")
    for shape in sorted(SHAPES):
        golden_path(shape).write_text(
            json.dumps(run_shape(shape), indent=2) + "\n")
        print(f"wrote {golden_path(shape)}")
