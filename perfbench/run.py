"""Run one benchmark workload and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload zipf-ssc-wt-qd8 --seed 1 \\
        --seconds 40 --trace 0

``--trace 0`` replays the run's traces untraced and reports the
end-to-end metrics; ``--trace 1`` pairs an untraced replay with a
traced one and reports the per-layer metrics.  A readable report comes
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every check passed, and 2 when there is no program
under ``src/`` to benchmark.  Spans of the traced run and a JSON copy
of the report are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}: nothing to benchmark",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import run

    return run(args)


if __name__ == "__main__":
    sys.exit(main())
