"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  Every metric is printed with its unit; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record of the run
(workload details, the per-operation failure breakdown and the machine
drift reading) is written to ``perfbench/out/``; a traced run also writes
its spans there.  Exit status: 0 when every answer was correct, 1 when
the correctness gate tripped, 2 when the engine sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("paper-grid", "mixed-rw", "restart")
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: engine sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    from perfbench import runner
    from perfbench.workloads import Sizes

    record = runner.run(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        Sizes(),
        os.path.join(HERE, "out"),
    )
    for line in runner.report(record):
        print(line)
    print(json.dumps(record["result"]), flush=True)
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
