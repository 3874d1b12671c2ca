"""Golden fixtures for the three benchmark shapes, at small scale.

The differential tests compare two replay loops over the same flash
layer, so a change *inside* the flash layer (page storage, block
counters, the GC copy path) is invisible to them.  These fixtures pin
what that layer produces end to end for one fixed-seed trace per shape:

* ``ReplayStats.to_dict()``;
* the chip's page reads, page writes, erases and busy time;
* the FTL's GC copies, merges by kind and silent evictions;
* ``total_memory_bytes()``;
* the simulated recovery time after a power cut at the end of the run.

The shapes follow the repository benchmark (``BENCHMARK.json``): native
FlashCache write-back at QD=1, the write-through SSC at QD=8, and a
4-shard SSC-R write-back array at QD=8.

Regenerate (only when a change is *meant* to move simulated numbers)::

    PYTHONPATH=src python tests/test_golden_replays.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from repro.core.config import CacheMode, SystemConfig, SystemKind
from repro.core.flashtier import build_system
from repro.perf.wallclock import ZIPF_PROFILE
from repro.traces.synthetic import PROFILES, generate_trace

GOLDEN_DIR = Path(__file__).parent / "golden"

#: name -> (profile, system kind, mode, shards, queue depth, scale, seed)
SHAPES = {
    "native_wb_qd1": (PROFILES["homes"], SystemKind.NATIVE,
                      CacheMode.WRITE_BACK, 1, 1, 0.03, 11),
    "ssc_wt_qd8": (ZIPF_PROFILE, SystemKind.SSC,
                   CacheMode.WRITE_THROUGH, 1, 8, 0.03, 11),
    "ssc_r_wb_x4_qd8": (PROFILES["homes"], SystemKind.SSC_R,
                        CacheMode.WRITE_BACK, 4, 8, 0.03, 11),
}

CHIP_FIELDS = ("page_reads", "page_writes", "block_erases", "busy_us")
FTL_FIELDS = ("gc_page_writes", "full_merges", "partial_merges",
              "switch_merges", "silent_evictions")


def run_shape(name: str):
    """Replay one shape; returns ``(system, snapshot dict)``."""
    profile, kind, mode, shards, queue_depth, scale, seed = SHAPES[name]
    profile = profile.scaled(scale)
    system = build_system(SystemConfig(
        kind=kind, mode=mode, cache_blocks=profile.cache_blocks(),
        disk_blocks=profile.address_range_blocks, shards=shards,
    ))
    records = generate_trace(profile, seed=seed).records
    stats = system.replay(records, warmup_fraction=0.15,
                          queue_depth=queue_depth)
    chip_stats = system.device.chip.stats
    ftl_stats = system.device.stats
    snapshot = {
        "replay": stats.to_dict(),
        "chip": {field: getattr(chip_stats, field) for field in CHIP_FIELDS},
        "ftl": {field: getattr(ftl_stats, field) for field in FTL_FIELDS},
        "total_memory_bytes": system.total_memory_bytes(),
    }
    if system.ssc is None:
        manager = system.manager
        recovery_us = manager.recover_manager_us() + manager.recover_device_us()
    else:
        system.ssc.crash()
        recovery_us = system.ssc.recover()
    snapshot["recovery_us"] = recovery_us
    # JSON round-trip so tuples and ints normalize as in the file.
    return system, json.loads(json.dumps(snapshot))


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"replay_{name}.json"


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shape_matches_golden(name):
    _system, snapshot = run_shape(name)
    golden = json.loads(golden_path(name).read_text())
    assert snapshot == golden


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_replays.py --write")
    for shape in sorted(SHAPES):
        _system, data = run_shape(shape)
        golden_path(shape).write_text(json.dumps(data, indent=2) + "\n")
        print(f"wrote {golden_path(shape)}")
