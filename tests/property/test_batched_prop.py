"""Property: tracing the batch-at-a-time kernels changes nothing.

The column-view kernels flush counter deltas and emit per-batch span
events; a tracer attached to a run must still reconcile
counter-for-counter against ``Stats`` and must not perturb results or
simulated time.  (Bit-identity of the kernels themselves is pinned by
the golden fixtures, ``tests/integration/test_datapath_golden.py``.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, ImportOptions, Tracer
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
PLANS = ["simple", "xschedule", "xscan", "xscan-shared"]


@st.composite
def location_paths(draw):
    n_steps = draw(st.integers(min_value=1, max_value=4))
    steps = [
        f"{draw(st.sampled_from(AXES))}::{draw(st.sampled_from(TESTS))}"
        for _ in range(n_steps)
    ]
    return "/" + "/".join(steps)


_STORE_CACHE: dict = {}


def _store(seed: int, fragmentation: float):
    key = (seed, fragmentation)
    if key not in _STORE_CACHE:
        db = Database(page_size=512, buffer_pages=48)
        tree = make_random_tree(db.tags, seed=seed, n_top=25)
        db.add_tree(
            tree,
            "d",
            ImportOptions(page_size=512, fragmentation=fragmentation, seed=seed),
        )
        _STORE_CACHE[key] = db.store
    return _STORE_CACHE[key]


def _outcome(result):
    if result.value is not None:
        return ("value", result.value)
    return ("nodes", tuple(result.nodes))


def _assert_identical(on, off, context):
    assert _outcome(on) == _outcome(off), context
    assert on.stats.as_dict() == off.stats.as_dict(), context
    assert on.total_time == off.total_time, context


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=3),
    plan=st.sampled_from(PLANS),
    path=location_paths(),
)
def test_batched_trace_reconciles_and_does_not_perturb(seed, plan, path):
    """The per-batch span events and delta-flushed counter mirrors keep
    the tracer contract: attaching one changes nothing, and the summary
    reconciles counter-for-counter against ``Stats``."""
    store = _store(seed, 1.0)
    vanilla = Database(page_size=512, buffer_pages=48, store=store).execute(
        path, doc="d", plan=plan
    )
    traced = Database(
        page_size=512, buffer_pages=48, store=store, tracer=Tracer()
    ).execute(path, doc="d", plan=plan)
    _assert_identical(traced, vanilla, (plan, path))
    assert traced.trace_summary is not None
    mismatches = traced.trace_summary.reconcile(traced.stats)
    assert mismatches == {}, (plan, path, mismatches)
