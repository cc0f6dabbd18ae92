"""Measurement flow and metrics of one benchmark run.

An untraced run (``trace=False``) sets the workload up (at least
``setup_reps`` times and ``setup_seconds`` long), runs a first pass and
then steady passes until ``seconds`` have passed since the first pass
began, and reports the end-to-end metrics.

A traced run installs :class:`~perfbench.probes.Probes` for the set-ups,
the first pass and ``traced_passes`` steady passes, interleaved with as
many untraced passes (their ratio is ``bench.trace_overhead``), profiles
one more pass with ``cProfile`` for operator self time, and reports the
per-layer metrics.  Its pass counts are fixed, so per-layer totals
compare across commits.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import time
from statistics import median, quantiles

from perfbench import common, expected, probes as probes_mod
from perfbench.workloads import WORKLOADS, Pass, Sim, Sizes

#: end-to-end metrics: name -> unit.  Every workload reports all of
#: them; the two times are the low tail (:func:`_low`) of the set-ups
#: and of the steady passes, the others are no times.
END_TO_END = {
    "setup_s": "s",
    "pass_ms": "ms",
    "store_bytes_per_node": "B",
    "peak_rss_mb": "MiB",
}

ALL = ("paper-grid", "mixed-rw", "restart")
#: further figures, printed with the run and kept in its results file:
#: name -> (unit, workloads reporting it).  Their spread between runs is
#: too wide for a bound: single samples (``first_pass_s``, ``recover_s``),
#: medians of a few samples or of a mix of unlike operations (the query
#: percentiles), or figures of one workload only.
DETAIL = {
    "first_pass_s": ("s", ALL),
    "query_p50_ms": ("ms", ALL),
    "query_p90_ms": ("ms", ALL),
    "simple_ms": ("ms", ("paper-grid",)),
    "xschedule_ms": ("ms", ("paper-grid",)),
    "xscan_ms": ("ms", ("paper-grid",)),
    "update_p50_ms": ("ms", ("mixed-rw",)),
    "update_p90_ms": ("ms", ("mixed-rw",)),
    "recover_s": ("s", ("mixed-rw",)),
    "open_s": ("s", ("restart",)),
    "cold_queries_s": ("s", ("restart",)),
    "failed_frac": ("1", ALL),
}

#: per-layer metrics: name -> unit
PER_LAYER = {
    "xmark.generate_s": "s",
    "xml.parse_s": "s",
    "storage.import_s": "s",
    "storage.synopsis_collect_s": "s",
    "storage.pathsummary_collect_s": "s",
    "storage.synopsis_repair_ms": "ms",
    "storage.pathsummary_repair_ms": "ms",
    "storage.save_s": "s",
    "storage.load_store_s": "s",
    "storage.recollect_s": "s",
    "storage.image_bytes": "B",
    "storage.colview_builds": "count",
    "storage.colview_build_s": "s",
    "buffer.fix_calls": "count",
    "buffer.fix_s": "s",
    "buffer.hit_ratio": "1",
    "update.apply_ms": "ms",
    "wal.syncs": "count",
    "wal.sync_ms": "ms",
    "wal.bytes_per_op": "B",
    "wal.replay_s": "s",
    "sim.iosys_s": "s",
    "sim.total_s": "s",
    "sim.cpu_s": "s",
    "sim.io_requests": "count",
    "sim.pages_read": "count",
    "algebra.xstep_self_s": "s",
    "algebra.xassembly_self_s": "s",
    "algebra.xscan_self_s": "s",
    "algebra.xschedule_self_s": "s",
    "algebra.unnestmap_self_s": "s",
    "algebra.pipeline_self_s": "s",
    "algebra.instances_created": "count",
    "algebra.speculative_instances": "count",
    "algebra.merges": "count",
    "algebra.clusters_pruned": "count",
    "algebra.instances_per_result": "1",
    "xpath.compiles": "count",
    "xpath.compile_ms": "ms",
    "xpath.refuted": "count",
    "exec.plan_cache_hit_ratio": "1",
    "exec.replans": "count",
    "exec.batch_shared_scans": "count",
    "obs.events_recorded": "count",
    "obs.summary_ms": "ms",
    "gc.pause_ms_per_pass": "ms",
    "gc.gen2_collections": "count",
    "bench.trace_overhead": "1",
}

QUERY_OPS = ("query", "pick", "batch")
UPDATE_OPS = ("set_value", "delete", "insert")


def _setup(wl, sizes: Sizes) -> list[float]:
    """Set the workload up at least ``setup_reps`` times and until
    ``setup_seconds`` of set-up have passed; returns the durations.  The
    last set-up is kept for the passes."""
    wl.before_setup()
    times = []
    while len(times) < sizes.setup_reps or sum(times) < sizes.setup_seconds:
        if times:
            wl.reset()
            gc.collect()  # free the previous set-up before timing the next
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
    wl.after_setup()
    return times


def _pass(wl, hooks=None) -> Pass:
    p = Pass(ledger=wl.ledger, hooks=hooks)
    wl.run_pass(p)
    return p


def _samples(passes: list[Pass], kinds) -> list[float]:
    return [s for p in passes for s in p.latencies(*kinds)]


def _p90(values: list[float]) -> float:
    return quantiles(values, n=10, method="inclusive")[-1]


def _low(values: list[float]) -> float:
    """The 10th percentile.  A shared host slows a run in bursts and in
    phases that last minutes; a run's median follows those phases, its
    fast tail much less, and the tail still carries all of the program's
    own cost."""
    return quantiles(values, n=10, method="inclusive")[0]


def measure(name: str, seed: int, seconds: float, sizes: Sizes, workdir: str) -> dict:
    """The untraced run: end-to-end metrics and workload details."""
    wl = WORKLOADS[name](seed, sizes, None, workdir)
    wl.expected = _expected(wl, workdir)
    drift_before = common.drift_loop()
    setups = _setup(wl, sizes)
    t_start = time.perf_counter()
    first = _pass(wl)
    steady: list[Pass] = []
    while time.perf_counter() - t_start < seconds or len(steady) < sizes.min_passes:
        steady.append(_pass(wl))
    extras = wl.finish()
    rss = common.peak_rss_mb()
    drift_after = common.drift_loop()

    ledger = wl.ledger
    queries = _samples(steady, QUERY_OPS)
    metrics = {
        "setup_s": _low(setups),
        "pass_ms": 1000 * _low([p.wall for p in steady]),
        "store_bytes_per_node": extras["store_bytes_per_node"],
        "peak_rss_mb": rss,
    }
    detail = {
        "first_pass_s": first.wall,
        "query_p50_ms": 1000 * median(queries),
        "query_p90_ms": 1000 * _p90(queries),
        "failed_frac": ledger.n_failed / ledger.n_attempted,
    }
    if name == "paper-grid":
        for plan in common.PLANS:
            detail[f"{plan}_ms"] = 1000 * median([p.by_plan.get(plan, 0.0) for p in steady])
    elif name == "mixed-rw":
        updates = _samples(steady, UPDATE_OPS)
        detail["update_p50_ms"] = 1000 * median(updates)
        detail["update_p90_ms"] = 1000 * _p90(updates)
        detail["recover_s"] = extras["recover_s"]
    else:
        detail["open_s"] = median(_samples(steady, ("open",)))
        detail["cold_queries_s"] = median([sum(p.latencies("query")) for p in steady])
    return {
        "metrics": metrics,
        "detail": detail,
        "samples": {
            "setups": len(setups),
            "steady_passes": len(steady),
            "queries": len(queries),
            "updates": len(_samples(steady, UPDATE_OPS)),
        },
        "extras": extras,
        "drift_s": {"before": drift_before, "after": drift_after},
        "walls": {"setups_s": setups, "passes_ms": [1000 * p.wall for p in steady]},
        "wl": wl,
    }


def _expected(wl, workdir: str):
    """The table row a workload checks against (mixed-rw checks live)."""
    if wl.table is None:
        return None
    return expected.lookup(wl.sizes, wl.doc_seed, workdir)[wl.table]


def measure_traced(name: str, seed: int, seconds: float, sizes: Sizes, workdir: str) -> dict:
    """The traced run: per-layer metrics (``seconds`` is not used; the
    pass counts are fixed)."""
    wl = WORKLOADS[name](seed, sizes, None, workdir)
    wl.expected = _expected(wl, workdir)
    probes = probes_mod.Probes()
    drift_before = common.drift_loop()
    probes.install()
    start = probes.snapshot()
    sim = Sim()
    counters: dict[str, float] = {}
    #: probe readings summed over the traced passes only
    passes = {"busy": {}, "calls": {}, "gc_pause": 0.0, "gc_gen2": 0}
    traced_walls, plain_walls = [], []

    def traced_pass() -> Pass:
        before, mark = wl.session_counters(), probes.snapshot()
        p = _pass(wl, hooks=probes)
        delta = probes.since(mark)
        for table in ("busy", "calls"):
            for key, value in delta[table].items():
                passes[table][key] = passes[table].get(key, 0) + value
        passes["gc_pause"] += delta["gc_pause"]
        passes["gc_gen2"] += delta["gc_gen2"]
        sim.merge(p.sim)
        for key, value in wl.session_counters().items():
            counters[key] = counters.get(key, 0) + value - before.get(key, 0)
        return p

    setups = _setup(wl, sizes)
    traced_pass()  # the first pass
    for _ in range(sizes.traced_passes[name]):
        probes.uninstall()
        plain_walls.append(_pass(wl).wall)
        probes.install()
        traced_walls.append(traced_pass().wall)
    n_passes = 1 + len(traced_walls)
    probes.uninstall()
    operators = probes_mod.profile_pass(lambda: _pass(wl))
    probes.install()
    finish_mark = probes.snapshot()
    extras = wl.finish()
    recover_total, recover_load = probes.nested(finish_mark, "wal.recover", "storage.load_store")
    probes.uninstall()
    drift_after = common.drift_loop()
    probes.write(os.path.join(os.path.dirname(workdir), f"spans-{name}-seed{seed}.jsonl"))

    busy, calls = passes["busy"], passes["calls"]
    run = probes.since(start)  # set-ups, traced passes and finish
    run_busy, run_calls = run["busy"], run["calls"]

    def per_call(table_busy, table_calls, *names, scale=1.0):
        n = sum(table_calls.get(k, 0) for k in names)
        return scale * sum(table_busy.get(k, 0.0) for k in names) / n if n else 0.0

    loads = run_calls.get("engine.load", 0)
    recollect = sum(
        run_busy.get(k, 0.0)
        for k in (
            "storage.recollect_statistics",
            "storage.recollect_synopsis",
            "storage.recollect_pathsummary",
        )
    )
    parses = run_calls.get("xml.parse", 0)
    _, finish_of_parse = probes.nested(start, "engine.load_xml", "xml.tree_finish")
    lookups = sim.buffer_hits + sim.buffer_misses
    cache = counters.get("hits", 0) + counters.get("misses", 0)
    metrics = {
        "xmark.generate_s": per_call(run_busy, run_calls, "xmark.generate"),
        "xml.parse_s": (run_busy.get("xml.parse", 0.0) + finish_of_parse) / parses
        if parses
        else 0.0,
        "storage.import_s": per_call(run_busy, run_calls, "storage.import"),
        "storage.synopsis_collect_s": per_call(run_busy, run_calls, "storage.synopsis_collect"),
        "storage.pathsummary_collect_s": per_call(
            run_busy,
            run_calls,
            "storage.pathsummary_collect_tree",
            "storage.pathsummary_collect",
        ),
        "storage.synopsis_repair_ms": per_call(busy, calls, "storage.synopsis_repair", scale=1e3),
        "storage.pathsummary_repair_ms": per_call(
            busy, calls, "storage.pathsummary_repair", scale=1e3
        ),
        "storage.save_s": per_call(run_busy, run_calls, "storage.save"),
        "storage.load_store_s": per_call(run_busy, run_calls, "storage.load_store"),
        "storage.recollect_s": recollect / loads if loads else recollect,
        "storage.image_bytes": extras["image_bytes"],
        "storage.colview_builds": calls.get("storage.colview_build", 0),
        "storage.colview_build_s": busy.get("storage.colview_build", 0.0),
        "buffer.fix_calls": calls.get("buffer.fix", 0),
        "buffer.fix_s": busy.get("buffer.fix", 0.0),
        "buffer.hit_ratio": sim.buffer_hits / lookups if lookups else 0.0,
        "update.apply_ms": per_call(
            busy, calls, "update.insert", "update.delete", "update.set_value", scale=1e3
        ),
        "wal.syncs": calls.get("wal.sync", 0),
        "wal.sync_ms": per_call(busy, calls, "wal.sync", scale=1e3),
        "wal.bytes_per_op": extras["wal_bytes"] / extras["wal_ops"]
        if extras.get("wal_ops")
        else 0.0,
        "wal.replay_s": recover_total - recover_load,
        "sim.iosys_s": sum(v for k, v in busy.items() if k.startswith("sim.iosys_")),
        "sim.total_s": sim.total_s,
        "sim.cpu_s": sim.cpu_s,
        "sim.io_requests": sim.io_requests,
        "sim.pages_read": sim.pages_read,
        "algebra.xstep_self_s": operators["xstep"],
        "algebra.xassembly_self_s": operators["xassembly"],
        "algebra.xscan_self_s": operators["xscan"],
        "algebra.xschedule_self_s": operators["xschedule"],
        "algebra.unnestmap_self_s": operators["unnestmap"],
        "algebra.pipeline_self_s": operators["pipeline"],
        "algebra.instances_created": sim.instances_created,
        "algebra.speculative_instances": sim.speculative_instances,
        "algebra.merges": sim.merges,
        "algebra.clusters_pruned": sim.clusters_pruned,
        "algebra.instances_per_result": sim.instances_created / sim.results
        if sim.results
        else 0.0,
        "xpath.compiles": calls.get("xpath.compile", 0),
        "xpath.compile_ms": per_call(busy, calls, "xpath.compile", scale=1e3),
        "xpath.refuted": sim.refuted,
        "exec.plan_cache_hit_ratio": counters.get("hits", 0) / cache if cache else 0.0,
        "exec.replans": counters.get("replans", 0),
        "exec.batch_shared_scans": counters.get("batch_shared_scans", 0),
        "obs.events_recorded": counters.get("events_recorded", 0),
        "obs.summary_ms": per_call(busy, calls, "obs.summary", scale=1e3),
        "gc.pause_ms_per_pass": 1e3 * passes["gc_pause"] / n_passes,
        "gc.gen2_collections": passes["gc_gen2"],
        "bench.trace_overhead": median(traced_walls) / median(plain_walls),
    }
    return {
        "metrics": metrics,
        "samples": {"setups": len(setups), "traced_passes": n_passes},
        "extras": extras,
        "drift_s": {"before": drift_before, "after": drift_after},
        "wl": wl,
    }


def run(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes, out_dir: str) -> dict:
    """One benchmark run; returns the result line plus everything kept in
    the results file.  Scratch files live in a private directory under
    ``out_dir``, removed when the run ends."""
    workdir = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        measured = (measure_traced if trace else measure)(name, seed, seconds, sizes, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl = measured.pop("wl")
    ledger = wl.ledger
    units = PER_LAYER if trace else END_TO_END
    line = {
        "correct": not ledger.wrong,
        "attempted": ledger.n_attempted,
        "failed": ledger.n_failed,
        "metrics": {k: {"value": measured["metrics"][k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "document_seed": wl.doc_seed,
        "seconds": seconds,
        "trace": trace,
        "result": line,
        "by_op": {
            kind: {"attempted": ledger.attempted.get(kind, 0), "failed": ledger.failed.get(kind, 0)}
            for kind in wl.ops
        },
        "wrong": ledger.wrong[:20],
        "errors": ledger.errors[:20],
        **{k: v for k, v in measured.items() if k != "metrics"},
    }
    if "detail" in measured:
        record["detail"] = {
            k: {"value": v, "unit": DETAIL[k][0]} for k, v in measured["detail"].items()
        }
    path = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as out:
        json.dump(record, out, indent=1, sort_keys=True)
        out.write("\n")
    record["path"] = path
    return record


def report(record: dict) -> list[str]:
    """Human-readable lines: every metric with its unit, then the gate."""
    lines = [f"workload {record['workload']} seed {record['seed']} "
             f"(document seed {record['document_seed']}), trace {int(record['trace'])}"]
    for name, cell in record["result"]["metrics"].items():
        lines.append(f"  {name:32s} {cell['value']:>16.6g} {cell['unit']}")
    for name, cell in record.get("detail", {}).items():
        lines.append(f"  {name:32s} {cell['value']:>16.6g} {cell['unit']}  (workload detail)")
    drift = record["drift_s"]
    lines.append(
        f"  reference loop {drift['before']:.4f} s before, {drift['after']:.4f} s after "
        "(machine drift; scales nothing)"
    )
    result = record["result"]
    lines.append(
        f"  operations: {result['attempted']} attempted, {result['failed']} failed; "
        + ", ".join(f"{k} {v['failed']}/{v['attempted']}" for k, v in record["by_op"].items())
    )
    if "value_growth_refused" in record["extras"]:
        lines.append(
            "  known defect (ROADMAP item 5): growing a value past its page's free space is "
            + ("still refused" if record["extras"]["value_growth_refused"] else "no longer refused")
        )
    for message in record["wrong"]:
        lines.append(f"  WRONG: {message}")
    lines.append(f"  correct: {result['correct']}; results in {record['path']}")
    return lines
