"""Self-test of the benchmark at tiny scale (about half a minute).

Checks that every workload emits every metric with its unit, in both
the untraced and the traced run, that the metric lists agree with
``BENCHMARK.json``, and that planted wrong answers and a planted drift in
simulated time trip the correctness gate::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

TINY = dict(grid_scale=0.02, rw_scale=0.02, restart_scale=0.02, setup_reps=2, setup_seconds=0.0, min_passes=2)
TRACED = {"paper-grid": 1, "mixed-rw": 2, "restart": 1}
SEED = 7


def _run(runner, sizes, name: str, trace: bool) -> dict:
    return runner.run(name, SEED, 0.5, trace, sizes, os.path.join(HERE, "out"))


def _planted(runner, sizes, expected, workloads, name: str, plant) -> dict:
    """One run with ``plant`` applied to its expected row or evaluator."""
    lookup, evaluate = expected.lookup, workloads.evaluate_query

    def planted_lookup(sizes, doc_seed, workdir):
        row = copy.deepcopy(lookup(sizes, doc_seed, workdir))
        plant(row)
        return row

    expected.lookup = planted_lookup
    try:
        if name == "mixed-rw":
            workloads.evaluate_query = lambda tree, query: (
                evaluate(tree, query) + 1 if query == "count(//keyword)" else evaluate(tree, query)
            )
        return _run(runner, sizes, name, False)
    finally:
        expected.lookup, workloads.evaluate_query = lookup, evaluate


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import expected, runner, workloads

    sizes = workloads.Sizes(**TINY, traced_passes=TRACED)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)
        print(("ok   " if condition else "FAIL ") + message, flush=True)

    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check(declared[False] == runner.END_TO_END, "end-to-end metrics match BENCHMARK.json")
    check(declared[True] == runner.PER_LAYER, "per-layer metrics match BENCHMARK.json")
    check(
        {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS),
        "BENCHMARK.json lists only known workloads",
    )

    for name in workloads.WORKLOADS:
        for trace in (False, True):
            record = _run(runner, sizes, name, trace)
            line = record["result"]
            label = f"{name} trace {int(trace)}"
            check(line["failed"] == 0, f"{label}: no operation failed")
            check(line["correct"], f"{label}: correctness gate passes")
            check(
                {k: c["unit"] for k, c in line["metrics"].items()} == declared[trace],
                f"{label}: every metric emitted with its unit",
            )
            check(
                all(isinstance(c["value"], (int, float)) for c in line["metrics"].values()),
                f"{label}: every value is a number",
            )
            if not trace:
                want = {k for k, (_, on) in runner.DETAIL.items() if name in on}
                check(set(record["detail"]) == want, f"{label}: workload details emitted")

    def wrong_count(row):
        row["grid"]["answers"]["q6"] += 1

    def drifted_total(row):
        row["grid"]["points"]["q7"]["xscan"][0] += 1e-12

    def wrong_text(row):
        answers = row["restart"]["answers"]
        answers["q15_text"] = list(reversed(answers["q15_text"])) + ["x"]

    plants = (
        ("paper-grid", wrong_count, "wrong count answer"),
        ("paper-grid", drifted_total, "simulated total off by 1e-12 s"),
        ("restart", wrong_text, "wrong Q15 answer"),
        ("mixed-rw", lambda row: None, "wrong reference count"),
    )
    for name, plant, what in plants:
        record = _planted(runner, sizes, expected, workloads, name, plant)
        check(not record["result"]["correct"], f"{name}: planted {what} trips the gate")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
