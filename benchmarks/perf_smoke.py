"""Wall-clock perf smoke: the paper points at sf=0.1 vs a checked-in baseline.

The simulated clock catches regressions in the modelled physics; this
script catches regressions in the *implementation* — an accidentally
quadratic loop or a de-optimised hot path shows up as wall-clock time
even when the simulated totals stay exact.

Points: Figure 9 (Q6') under every plan, plus the two slowest paper
points, Q7 and Q15 under XScan.

Usage::

    python benchmarks/perf_smoke.py                 # compare to baseline
    python benchmarks/perf_smoke.py --write-baseline  # refresh it

Each point runs ``ROUNDS`` times and the median round counts.  The run
fails if any point exceeds ``TOLERANCE`` times its baseline.  The
baseline (``benchmarks/perf_baseline.json``) is deliberately generous:
``--write-baseline`` records ``ENVELOPE`` times the measured medians, so
it encodes "not catastrophically slower", not "exactly as fast as the
machine that wrote it".
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from harness import PLANS, QUERY_BY_EXP, build_xmark_db, run_query

SCALE = 0.1
ROUNDS = 5
TOLERANCE = 2.0  # fail on >2x wall-clock regression
ENVELOPE = 3.0  # the baseline is this many times the measured medians
BASELINE_PATH = os.path.join(os.path.dirname(__file__), "perf_baseline.json")

#: (baseline key, query, plan)
POINTS = [(plan, QUERY_BY_EXP["q6"], plan) for plan in PLANS] + [
    ("q7_xscan", QUERY_BY_EXP["q7"], "xscan"),
    ("q15_xscan", QUERY_BY_EXP["q15"], "xscan"),
]


def measure() -> dict[str, float]:
    db = build_xmark_db(SCALE)
    medians: dict[str, float] = {}
    for key, query, plan in POINTS:
        times = []
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            result = run_query(db, query, plan)
            times.append(time.perf_counter() - t0)
            assert result.value if result.value is not None else result.nodes
        medians[key] = statistics.median(times)
    medians["total"] = sum(medians[key] for key, _, _ in POINTS)
    return medians


def _round_up(value: float) -> float:
    """``value`` rounded up to two significant digits."""
    unit = 10.0 ** (math.floor(math.log10(value)) - 1)
    return round(math.ceil(round(value / unit, 6)) * unit, 10)


def main(argv: list[str]) -> int:
    measured = measure()
    if "--write-baseline" in argv:
        envelope = {key: _round_up(ENVELOPE * value) for key, value in measured.items()}
        with open(BASELINE_PATH, encoding="utf-8") as inp:
            comment = json.load(inp).get("comment", "")
        with open(BASELINE_PATH, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "comment": comment,
                    "rounds": ROUNDS,
                    "scale": SCALE,
                    "wall_seconds": envelope,
                },
                out,
                indent=2,
                sort_keys=True,
            )
            out.write("\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0

    with open(BASELINE_PATH, encoding="utf-8") as inp:
        baseline = json.load(inp)["wall_seconds"]

    failed = False
    print(f"paper points sf={SCALE}, median of {ROUNDS} rounds (wall seconds):")
    for key in (*(key for key, _, _ in POINTS), "total"):
        limit = TOLERANCE * baseline[key]
        status = "ok" if measured[key] <= limit else "REGRESSION"
        failed |= status != "ok"
        print(
            f"  {key:>10s}  measured={measured[key]:.4f}  "
            f"baseline={baseline[key]:.4f}  limit={limit:.4f}  {status}"
        )
    if failed:
        print(f"FAIL: wall-clock exceeded {TOLERANCE}x the checked-in baseline")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
