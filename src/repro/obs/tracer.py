"""The Tracer: a bounded event ring plus an online metrics registry.

One :class:`Tracer` instance is installed on an
:class:`~repro.exec.environment.ExecutionEnvironment` and shared by every
context built from it (cold contexts, warm sessions, batch views alike),
so a whole workload lands in one trace.  Instrumentation sites throughout
the stack call :meth:`Tracer.count` (a counter mirror of a ``Stats``
increment) and :meth:`Tracer.event` (a structured record in the ring).

Two invariants the rest of the system relies on:

* the tracer never charges the simulated clock — timestamps are *read*
  from it, so traced runs are bit-identical in simulated time;
* every ``Stats`` counter increment in the engine has a matching
  ``count`` call with the same name and amount, which is what makes
  :meth:`repro.obs.metrics.TraceSummary.reconcile` exact.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.obs.metrics import TraceSummary


class TraceEvent:
    """One structured trace record.

    ``ts`` is the simulated time of the event; ``dur`` (when not None)
    makes it a *span* (``ts`` is then the span's start).  ``cat`` groups
    events into tracks: ``io``, ``disk``, ``buffer``, ``op``,
    ``session``, ``degradation``.
    """

    __slots__ = ("ts", "cat", "name", "page", "dur", "args")

    def __init__(
        self,
        ts: float,
        cat: str,
        name: str,
        page: int | None = None,
        dur: float | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        self.ts = ts
        self.cat = cat
        self.name = name
        self.page = page
        self.dur = dur
        self.args = args

    def as_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {"ts": self.ts, "cat": self.cat, "name": self.name}
        if self.page is not None:
            record["page"] = self.page
        if self.dur is not None:
            record["dur"] = self.dur
        if self.args:
            record["args"] = self.args
        return record

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f", page={self.page}" if self.page is not None else ""
        return f"TraceEvent({self.ts:.6f}, {self.cat}/{self.name}{extra})"


class Tracer:
    """Record structured execution events and derive rollups.

    The ring buffer holds the most recent ``capacity`` events; metric
    counters, operator rollups, the cluster heatmap and the retry
    histogram are maintained *online* at record time, so they stay exact
    even after the ring has wrapped (``dropped`` tells you by how much).
    """

    def __init__(self, capacity: int = 65536, shadow: bool = False) -> None:
        if capacity < 1:
            raise ValueError(f"tracer capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: True for a sanitizer-installed shadow tracer
        #: (:mod:`repro.analysis.sanitize`): it exists only to feed the
        #: shadow accounting, so reporting sites skip it and
        #: ``Result.trace_summary`` stays ``None`` exactly as if no
        #: tracer were attached
        self.shadow = shadow
        self.events: deque[TraceEvent] = deque(maxlen=capacity)
        #: total events recorded (including any the ring has dropped)
        self.events_recorded = 0
        #: mirror of every Stats counter increment, by field name
        self.counters: dict[str, float] = {}
        #: per-operator rollups: class name -> opens/calls/out/busy
        self.operators: dict[str, dict[str, float]] = {}
        #: cluster-access heatmap: page -> physical service count
        self.cluster_reads: dict[int, int] = {}
        #: retry histogram: attempt number -> occurrences
        self.retry_histogram: dict[int, int] = {}
        #: plan-cache behaviour across the sessions sharing this tracer
        self.plan_cache = {"hits": 0, "misses": 0}
        #: batch routing decisions
        self.batches = {"batches": 0, "scan_shared": 0, "interleaved": 0}
        #: AUTO plan-choice resolutions by decision source
        self.plan_choices = {"estimator": 0, "measured": 0, "explore": 0}
        #: largest simulated timestamp seen (for events outside any clock)
        self.last_ts = 0.0

    @property
    def dropped(self) -> int:
        """Events recorded but no longer in the ring."""
        return self.events_recorded - len(self.events)

    # ------------------------------------------------------------ recording

    def count(self, name: str, amount: float = 1) -> None:
        """Mirror one ``Stats`` counter increment (``stats.name += amount``)."""
        counters = self.counters
        counters[name] = counters.get(name, 0) + amount

    def event(
        self,
        ts: float,
        cat: str,
        name: str,
        page: int | None = None,
        dur: float | None = None,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Append one structured event to the ring."""
        self.events.append(TraceEvent(ts, cat, name, page=page, dur=dur, args=args))
        self.events_recorded += 1
        if ts > self.last_ts:
            self.last_ts = ts

    def io_retry(self, attempt: int) -> None:
        """One recovery retry, by the attempt number it followed."""
        hist = self.retry_histogram
        hist[attempt] = hist.get(attempt, 0) + 1

    def cluster_read(self, page: int) -> None:
        """One physical service of ``page`` (the heatmap's unit)."""
        heat = self.cluster_reads
        heat[page] = heat.get(page, 0) + 1

    def op_call(self, name: str, produced: bool) -> None:
        """One ``next()`` crossing of operator class ``name``."""
        self.op_calls(name, 1, 1 if produced else 0)

    def op_calls(self, name: str, calls: int, out: int) -> None:
        """``calls`` crossings of operator ``name``, ``out`` of them producing."""
        ops = self.operators.get(name)
        if ops is None:
            ops = self.operators[name] = {
                "opens": 0,
                "calls": 0,
                "out": 0,
                "busy": 0.0,
            }
        ops["calls"] += calls
        ops["out"] += out

    def op_span(self, name: str, t0: float, t1: float, out: int) -> None:
        """One open→close lifetime of an operator instance."""
        ops = self.operators.get(name)
        if ops is None:
            ops = self.operators[name] = {
                "opens": 0,
                "calls": 0,
                "out": 0,
                "busy": 0.0,
            }
        ops["opens"] += 1
        ops["busy"] += t1 - t0
        self.event(t0, "op", name, dur=t1 - t0, args={"out": out})

    def plan_cache_event(self, hit: bool, query: str, doc: str, plan: str) -> None:
        """A session's plan-cache lookup (compilation is off the sim clock)."""
        self.plan_cache["hits" if hit else "misses"] += 1
        self.event(
            self.last_ts,
            "session",
            "plan-cache-hit" if hit else "plan-cache-miss",
            args={"query": query, "doc": doc, "plan": plan},
        )

    def plan_choice_event(
        self,
        chosen: str,
        source: str,
        sequential_cost: float | None = None,
        random_cost: float | None = None,
        margin: float | None = None,
    ) -> None:
        """One AUTO resolution (planning is off the sim clock, like the
        plan cache): the chosen family, why it won (``estimator`` /
        ``measured`` / ``explore``) and the predicted costs behind it."""
        self.plan_choices[source] = self.plan_choices.get(source, 0) + 1
        self.event(
            self.last_ts,
            "session",
            "plan-choice",
            args={
                "chosen": chosen,
                "source": source,
                "sequential_cost": sequential_cost,
                "random_cost": random_cost,
                "margin": margin,
            },
        )

    def rewrite_event(
        self,
        query: str,
        refuted: bool,
        expanded: int,
        cardinality: float | None = None,
    ) -> None:
        """One path-summary rewrite decision (planning is off the sim
        clock): whether the path was refuted outright, how many
        ``descendant`` steps were expanded into child chains, and the
        exact cardinality when the summary proved one."""
        self.event(
            self.last_ts,
            "session",
            "path-refuted" if refuted else "path-rewrite",
            args={
                "query": query,
                "refuted": refuted,
                "expanded": expanded,
                "cardinality": cardinality,
            },
        )

    def batch_event(
        self, ts: float, queries: int, scan_shared: int, interleaved: int
    ) -> None:
        """One ``run_batch`` routing decision."""
        self.batches["batches"] += 1
        self.batches["scan_shared"] += scan_shared
        self.batches["interleaved"] += interleaved
        self.event(
            ts,
            "session",
            "batch",
            args={
                "queries": queries,
                "scan_shared": scan_shared,
                "interleaved": interleaved,
            },
        )

    # ----------------------------------------------------------- summaries

    def mark(self) -> dict[str, float]:
        """Counter snapshot; pass to :meth:`summary` for a per-run delta.

        The same discipline as ``Stats.snapshot``/``diff``: warm sessions
        and batches mark before a run and summarise since the mark, so
        the per-run summary reconciles with the per-run stats delta.
        """
        return dict(self.counters)

    def summary(self, since: dict[str, float] | None = None) -> TraceSummary:
        """Derive the current rollups (counters diffed against ``since``)."""
        if since is None:
            counters = dict(self.counters)
        else:
            counters = {
                name: value - since.get(name, 0)
                for name, value in self.counters.items()
            }
        return TraceSummary(
            counters=counters,
            operators={name: dict(roll) for name, roll in self.operators.items()},
            cluster_reads=dict(self.cluster_reads),
            retry_histogram=dict(self.retry_histogram),
            plan_cache=dict(self.plan_cache),
            batches=dict(self.batches),
            plan_choices=dict(self.plan_choices),
            events_recorded=self.events_recorded,
            events_dropped=self.dropped,
        )

    # -------------------------------------------------------------- export

    def export_jsonl(self, path: str) -> int:
        """Write the ring as JSON-lines; returns the number of events."""
        import json

        with open(path, "w", encoding="utf-8") as handle:
            for event in self.events:
                handle.write(json.dumps(event.as_dict(), sort_keys=True))
                handle.write("\n")
        return len(self.events)

    def export_chrome(self, path: str) -> int:
        """Write a Chrome-trace-viewer file (about:tracing / Perfetto).

        Events with a duration become complete (``"ph": "X"``) spans,
        the rest instants; each category gets its own named thread row.
        Timestamps are converted from simulated seconds to microseconds.
        """
        import json

        tids: dict[str, int] = {}
        trace_events: list[dict[str, Any]] = []
        for event in self.events:
            tid = tids.get(event.cat)
            if tid is None:
                tid = tids[event.cat] = len(tids) + 1
                trace_events.append(
                    {
                        "ph": "M",
                        "name": "thread_name",
                        "pid": 1,
                        "tid": tid,
                        "args": {"name": event.cat},
                    }
                )
            record: dict[str, Any] = {
                "name": event.name,
                "cat": event.cat,
                "pid": 1,
                "tid": tid,
                "ts": round(event.ts * 1e6, 3),
            }
            args = dict(event.args) if event.args else {}
            if event.page is not None:
                args["page"] = event.page
            if args:
                record["args"] = args
            if event.dur is not None:
                record["ph"] = "X"
                record["dur"] = round(event.dur * 1e6, 3)
            else:
                record["ph"] = "i"
                record["s"] = "t"
            trace_events.append(record)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": trace_events, "displayTimeUnit": "ms"}, handle)
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer({self.events_recorded} events, {self.dropped} dropped, "
            f"{len(self.counters)} counters)"
        )
