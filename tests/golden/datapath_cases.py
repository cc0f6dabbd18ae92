"""The golden-fixture matrix of the intra-cluster datapath.

Every case is one cold query execution: a store (random document or
XMark, at a fixed physical layout), a query, a physical plan, evaluation
options and an optional fault profile.  :func:`outcome_row` reduces the
execution to what the fixture pins — the value (or the node count plus a
digest of the node ids), the non-zero ``Stats`` counters, and the exact
simulated total and CPU time.

The matrix covers every axis under every plan on three layouts, the
paper queries on XMark, all fault profiles, predicate evaluation
(existence, ``=``/``!=`` against a path, ``[. = "x"]``, nested and
text-value comparisons) and fallback mode under small memory limits.
``datapath.json`` holds the recorded rows; ``record_datapath.py``
writes it and ``tests/integration/test_datapath_golden.py`` checks it.
The rows were recorded for exactly these cases: editing a case (or the
order its paths are drawn in) orphans its row.

:data:`TRACED_CASES` rerun the XMark and fallback cases, two budget
truncations per scan-plan family and Q15 with the path summary off (a
13-step chain on the cost-sensitive plans) with a tracer attached;
:func:`traced_row` adds the trace to the row — the mirrored counters,
the per-operator ``opens``/``calls``/``out``/``busy`` rollups and a
digest of the ordered ``op`` events (operator spans and
``xstep-batch``).  ``traced.json`` holds those rows.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any

from repro import PROFILES, Database, EvalOptions, ExecutionBudget, ImportOptions
from repro.model.tree import LogicalTree
from repro.obs.tracer import Tracer
from repro.xmark import PAPER_QUERIES, Q7, Q15, generate_xmark
from repro.xpath.reference import evaluate_query
from tests.conftest import make_random_tree

AXES = [
    "child",
    "descendant",
    "descendant-or-self",
    "self",
    "parent",
    "ancestor",
    "ancestor-or-self",
    "following-sibling",
    "preceding-sibling",
]
TESTS = ["a", "b", "c", "nosuchtag", "*", "node()", "text()"]

#: (label, plan, EvalOptions overrides) — XScan always speculates, so
#: only XSchedule distinguishes the speculative setting
PLAN_VARIANTS: list[tuple[str, str, tuple[tuple[str, Any], ...]]] = [
    ("simple", "simple", ()),
    ("xschedule", "xschedule", ()),
    ("xschedule-spec", "xschedule", (("speculative", True),)),
    ("xscan", "xscan", ()),
    ("xscan-shared", "xscan-shared", ()),
]

PREDICATE_QUERIES = [
    "//a[b]",
    "//a[b/c]",
    "//b[c[d]]",
    "/child::root/*[@id]",
    "//e[ancestor::a]",
    "//b[following-sibling::c]",
    "//d[preceding-sibling::*/c]",
    "//c[parent::b]",
    "//e[../@id]",
    "count(//d[e])",
    '//a[b = "ttt"]',
    '//a[b != "t"]',
    '//a[*/text() = "ttttt"]',
    '/child::root/a[descendant::e = "tt"]',
    '//b[@id = "7"]',
    '//a[text() = "tt"]',
    '//a[b[text() = "ttt"]]',
    '//*[. = "ttt"]',
    '//c[. = "tttt"]',
    '//a[. = "x"]',
]


@dataclass(frozen=True)
class Case:
    """One cold execution of the matrix."""

    id: str
    store: tuple[Any, ...]  #: ("random", seed, fragmentation) or ("xmark", fragmentation)
    query: str
    plan: str
    options: tuple[tuple[str, Any], ...] = ()  #: EvalOptions overrides
    faults: tuple[str, int] | None = None  #: (profile name, fault seed)


def _random_path(rng: random.Random, lead_axis: str) -> str:
    """A path under the document element whose second step is ``lead_axis``."""
    steps = [rng.choice(["child::root", "child::root/child::*", f"descendant::{rng.choice('abcde')}"])]
    steps.append(f"{lead_axis}::{rng.choice(TESTS)}")
    for _ in range(rng.randrange(2)):
        steps.append(f"{rng.choice(AXES)}::{rng.choice(TESTS)}")
    return "/" + "/".join(steps)


def _random_cases() -> list[Case]:
    """Every axis leads some path on every layout, under every plan."""
    cases = []
    for seed in range(8):
        for fragmentation in (0.0, 0.7, 1.0):
            rng = random.Random(seed * 100 + int(fragmentation * 10))
            for i in range(4):
                path = _random_path(rng, AXES[(seed + 3 * i) % len(AXES)])
                for label, plan, options in PLAN_VARIANTS:
                    cases.append(
                        Case(
                            f"random/{seed}/{fragmentation}/{i}/{label}",
                            ("random", seed, fragmentation),
                            path,
                            plan,
                            options,
                        )
                    )
    return cases


def _xmark_cases() -> list[Case]:
    return [
        Case(f"xmark/{fragmentation}/{name}/{label}", ("xmark", fragmentation), query, plan, options)
        for fragmentation in (0.0, 1.0)
        for name, _, query in PAPER_QUERIES
        for label, plan, options in PLAN_VARIANTS
    ]


def _fault_cases() -> list[Case]:
    paths = [
        "/descendant::a/child::b",
        "/child::root/child::*/ancestor-or-self::node()",
        "/descendant::c/following-sibling::*",
    ]
    return [
        Case(
            f"faults/{profile}/{fault_seed}/{i}/{label}",
            ("random", 3, 0.7),
            path,
            plan,
            options,
            (profile, fault_seed),
        )
        for profile in sorted(name for name in PROFILES if name != "none")
        for fault_seed in (0, 1)
        for i, path in enumerate(paths)
        for label, plan, options in PLAN_VARIANTS
        if label != "xschedule-spec"
    ]


def _predicate_cases() -> list[Case]:
    """Predicates run on the Simple plan only (XStep refuses them)."""
    return [
        Case(f"predicate/{seed}/{fragmentation}/{i}", ("random", seed, fragmentation), query, "simple")
        for seed in (0, 1, 2, 5)
        for fragmentation in (0.0, 1.0)
        for i, query in enumerate(PREDICATE_QUERIES)
    ]


def _fallback_cases() -> list[Case]:
    """Small memory limits trip XAssembly's fallback mid-plan."""
    cases = []
    for seed in (1, 4, 6):
        for fragmentation in (0.7, 1.0):
            rng = random.Random(1000 + seed)
            for i, axis in enumerate(("descendant", "following-sibling", "ancestor", "child")):
                path = _random_path(rng, axis)
                for plan in ("xschedule", "xscan"):
                    for limit in (1, 6):
                        cases.append(
                            Case(
                                f"fallback/{seed}/{fragmentation}/{i}/{plan}/{limit}",
                                ("random", seed, fragmentation),
                                path,
                                plan,
                                (("speculative", True), ("memory_limit", limit), ("k_min_queue", 2)),
                            )
                        )
    return cases


CASES: list[Case] = (
    _random_cases() + _xmark_cases() + _fault_cases() + _predicate_cases() + _fallback_cases()
)


def _traced_cases() -> list[Case]:
    """The cases the traced fixture pins (see the module docstring)."""
    cases = [
        dataclasses.replace(case, id=f"traced/{case.id}")
        for case in _xmark_cases() + _fallback_cases()
    ]
    budgets = [
        ("seconds", ExecutionBudget(max_seconds=0.02, on_exceeded="partial")),
        ("pages", ExecutionBudget(max_pages=20, on_exceeded="partial")),
    ]
    for label, budget in budgets:
        for plan in ("xschedule", "xscan", "xscan-shared"):
            cases.append(
                Case(
                    f"traced/budget/{label}/{plan}",
                    ("xmark", 1.0),
                    Q7,
                    plan,
                    (("budget", budget),),
                )
            )
    for fragmentation in (0.0, 1.0):
        for label, plan, options in PLAN_VARIANTS:
            cases.append(
                Case(
                    f"traced/q15-nosummary/{fragmentation}/{label}",
                    ("xmark", fragmentation),
                    Q15,
                    plan,
                    options + (("pathsummary", False),),
                )
            )
    return cases


TRACED_CASES: list[Case] = _traced_cases()

#: ring capacity of the traced runs: large enough that no case drops
TRACE_CAPACITY = 1 << 20

_STORES: dict[tuple[Any, ...], tuple[Any, LogicalTree]] = {}


def store_and_tree(key: tuple[Any, ...]) -> tuple[Any, LogicalTree]:
    """The (shared) document store of ``key`` and its logical tree."""
    if key not in _STORES:
        if key[0] == "xmark":
            db = Database(page_size=2048, buffer_pages=64)
            tree = generate_xmark(scale=0.01, tags=db.tags, seed=0)
            options = ImportOptions(page_size=2048, fragmentation=key[1], seed=0)
        else:
            _, seed, fragmentation = key
            db = Database(page_size=512, buffer_pages=48)
            tree = make_random_tree(db.tags, seed=seed, n_top=25)
            options = ImportOptions(page_size=512, fragmentation=fragmentation, seed=seed)
        db.add_tree(tree, "d", options)
        _STORES[key] = (db.store, tree)
    return _STORES[key]


def run_case(case: Case, tracer: Tracer | None = None):
    """Execute ``case`` cold on a fresh runtime over its shared store."""
    store, _ = store_and_tree(case.store)
    faults = None
    if case.faults is not None:
        profile, fault_seed = case.faults
        faults = dataclasses.replace(PROFILES[profile], seed=fault_seed)
    buffer_pages = 64 if case.store[0] == "xmark" else 48
    db = Database(
        page_size=store.segment.page_size,
        buffer_pages=buffer_pages,
        store=store,
        faults=faults,
        tracer=tracer,
    )
    options = EvalOptions(**dict(case.options))
    return db.execute(case.query, doc="d", plan=case.plan, options=options)


def nodes_digest(nodes: list[int]) -> str:
    return hashlib.sha256(",".join(map(str, nodes)).encode()).hexdigest()[:16]


def outcome_row(result) -> dict[str, Any]:
    """The fixture row of one execution."""
    row: dict[str, Any] = {}
    if result.value is not None:
        row["value"] = result.value
    else:
        row["count"] = len(result.nodes)
        row["digest"] = nodes_digest(result.nodes)
    row["stats"] = {k: v for k, v in result.stats.as_dict().items() if v}
    row["total"] = result.total_time
    row["cpu"] = result.cpu_time
    return row


def run_traced(case: Case) -> tuple[Any, dict[str, Any]]:
    """Execute ``case`` with a fresh tracer: its result and traced row."""
    tracer = Tracer(capacity=TRACE_CAPACITY)
    result = run_case(case, tracer)
    assert tracer.dropped == 0, f"{case.id}: trace ring dropped events"
    return result, traced_row(result, tracer)


def traced_row(result, tracer: Tracer) -> dict[str, Any]:
    """The traced fixture row: :func:`outcome_row` plus the trace."""
    row = outcome_row(result)
    row["partial"] = result.partial
    summary = result.trace_summary
    row["counters"] = {k: v for k, v in summary.counters.items() if v}
    row["operators"] = summary.operators
    events = [
        [event.ts, event.name, event.page, event.dur, event.args]
        for event in tracer.events
        if event.cat == "op"
    ]
    row["op_events"] = len(events)
    row["op_digest"] = hashlib.sha256(
        json.dumps(events, sort_keys=True).encode()
    ).hexdigest()[:16]
    return row


def reference_outcome(case: Case) -> tuple[str, Any]:
    """What ``xpath/reference.py`` says ``case`` returns, as node ids."""
    return _reference(case.store, case.query)


@functools.lru_cache(maxsize=None)
def _reference(key: tuple[Any, ...], query: str) -> tuple[str, Any]:
    store, tree = store_and_tree(key)
    expected = evaluate_query(tree, query)
    if isinstance(expected, float):
        return ("value", expected)
    import_result = store.document("d").import_result
    return ("nodes", tuple(import_result.nodeid_of(n) for n in expected))


def result_outcome(result) -> tuple[str, Any]:
    if result.value is not None:
        return ("value", result.value)
    return ("nodes", tuple(result.nodes))
