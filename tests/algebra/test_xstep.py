"""Unit tests for XStep's applicability and outputs.

The step chain runs inside XAssembly (:func:`repro.algebra.xstep.run_path`),
so each case feeds instances from a list source through an XAssembly and
observes what the steps hand on: results, junctions proven into R (and
reported to a schedule), instances parked in S, and the counters.
"""

import pytest

from repro import Database, ImportOptions
from repro.algebra.base import Operator
from repro.algebra.pathinstance import PathInstance
from repro.algebra.steps import CompiledNodeTest, CompiledPredicate, CompiledStep
from repro.algebra.xassembly import XAssembly
from repro.axes import Axis
from repro.errors import PlanError
from repro.model.builder import TreeBuilder
from repro.storage.nodeid import make_nodeid, slot_of
from repro.xpath.reference import evaluate_query

from tests.paper_tree import PAGE_A, PAGE_D, build_paper_tree


class ListSource(Operator):
    def __init__(self, ctx, items):
        super().__init__(ctx)
        self.items = items

    def _produce(self):
        yield from self.items


class FakeSchedule:
    def __init__(self):
        self.added = []

    def add_from_assembly(self, s_l, n_l, s_r, target):
        self.added.append((s_l, n_l, s_r, target))

    def enter_fallback(self):
        pass


@pytest.fixture()
def paper():
    return build_paper_tree()


def make_step(paper, axis, name=None, kind="name"):
    tag = paper.db.tags.lookup(name) if name else None
    return CompiledStep(axis, CompiledNodeTest.compile(kind if name or kind != "name" else "name", axis, tag))


def pin(paper, page_no):
    ctx = paper.db.make_context()
    frame = ctx.buffer.fix(page_no)
    ctx.set_current_frame(frame)
    return ctx


def drain(op):
    op.open()
    out = []
    while True:
        item = op.next()
        if item is None:
            op.close()
            return out
        out.append(make_nodeid(item.page_no, item.slot))


def test_applicable_instance_extended(paper):
    ctx = pin(paper, PAGE_D)
    d1 = paper.nodes["d1"]
    context = PathInstance(0, d1, False, 0, slot_of(d1), False, False, PAGE_D)
    schedule = FakeSchedule()
    step = make_step(paper, Axis.CHILD, "C")
    out = drain(XAssembly(ctx, ListSource(ctx, [context]), [step], schedule=schedule))
    # two deferred borders (a, c tested later) + d4 matching C
    assert out == [paper.nodes["d4"]]
    assert schedule.added == [
        (0, d1, 0, paper.nodes["a1"]),
        (0, d1, 0, paper.nodes["c1"]),
    ]
    assert ctx.stats.border_crossings_deferred == 2
    ctx.release()


def test_non_applicable_passes_through(paper):
    """A step skips instances that do not end at its previous step."""
    ctx = pin(paper, PAGE_D)
    d1 = paper.nodes["d1"]
    # ends at step 1, so only step 2 applies; step 1 would drop it
    halfway = PathInstance(0, d1, False, 1, slot_of(d1), False, False, PAGE_D)
    # already full: passes both steps untouched
    full = PathInstance(0, d1, False, 2, slot_of(paper.nodes["d4"]), False, False, PAGE_D)
    steps = [make_step(paper, Axis.CHILD, "Z"), make_step(paper, Axis.CHILD, "C")]
    out = drain(XAssembly(ctx, ListSource(ctx, [full, halfway]), steps))
    assert out == [paper.nodes["d4"]]
    assert ctx.stats.duplicates_suppressed == 1
    # only step 2 tested: d1's three children (d4 and two deferred borders)
    assert ctx.stats.node_tests == 1
    assert ctx.stats.border_crossings_deferred == 2
    ctx.release()


def test_paused_instance_not_reprocessed(paper):
    """A border produced by a step is NOT applicable to later steps."""
    ctx = pin(paper, PAGE_D)
    d1 = paper.nodes["d1"]
    paused = PathInstance(0, d1, False, 0, slot_of(paper.nodes["d2"]), True, False, PAGE_D)
    schedule = FakeSchedule()
    steps = [make_step(paper, Axis.CHILD, "A"), make_step(paper, Axis.CHILD, "B")]
    out = drain(XAssembly(ctx, ListSource(ctx, [paused]), steps, schedule=schedule))
    assert out == []
    # s_r=0 stays untouched by both steps and proves its junction
    assert schedule.added == [(0, d1, 0, paper.nodes["a1"])]
    assert ctx.stats.node_tests == 0
    assert ctx.stats.intra_hops == 0
    ctx.release()


def test_resumed_instance_processed(paper):
    ctx = pin(paper, PAGE_A)
    resumed = PathInstance(
        0, None, False, 0, slot_of(paper.nodes["a1"]), True, True, PAGE_A
    )
    step = make_step(paper, Axis.CHILD, "A")
    out = drain(XAssembly(ctx, ListSource(ctx, [resumed]), [step]))
    assert out == [paper.nodes["a2"]]
    ctx.release()


def test_failed_node_test_kills_instance(paper):
    ctx = pin(paper, PAGE_A)
    resumed = PathInstance(
        0, None, False, 0, slot_of(paper.nodes["a1"]), True, True, PAGE_A
    )
    schedule = FakeSchedule()
    step = make_step(paper, Axis.CHILD, "Z", kind="name")  # unknown tag
    out = drain(XAssembly(ctx, ListSource(ctx, [resumed]), [step], schedule=schedule))
    assert out == []
    assert schedule.added == []
    assert ctx.stats.node_tests == 1
    ctx.release()


def test_left_open_flag_propagates(paper):
    ctx = pin(paper, PAGE_A)
    a1 = paper.nodes["a1"]
    speculative = PathInstance(1, a1, True, 1, slot_of(a1), True, True, PAGE_A)
    steps = [make_step(paper, Axis.CHILD, "C"), make_step(paper, Axis.CHILD, "A")]
    assembly = XAssembly(ctx, ListSource(ctx, [speculative]), steps)
    assert drain(assembly) == []
    # the extension to a2 stays left-open: parked in S under its left
    # junction (1, a1) as a complete full instance (s_r=2)
    width = len(steps) + 1
    assert assembly._s == {a1 * width + 1: (paper.nodes["a2"] * width + 2) * 2}
    assert assembly._s_size == 1
    ctx.release()


def test_predicates_rejected(paper):
    ctx = paper.db.make_context()
    step = make_step(paper, Axis.CHILD, "A")
    step.predicates.append(CompiledPredicate([]))
    with pytest.raises(PlanError):
        XAssembly(ctx, ListSource(ctx, []), [step])


def test_wrong_page_instance_raises(paper):
    ctx = pin(paper, PAGE_D)
    wrong = PathInstance(0, None, False, 0, 0, False, False, PAGE_A)
    step = make_step(paper, Axis.CHILD, "A")
    op = XAssembly(ctx, ListSource(ctx, [wrong]), [step])
    op.open()
    with pytest.raises(PlanError):
        op.next()
    op.close()
    ctx.release()


@pytest.mark.parametrize("plan", ["xschedule", "xscan", "xscan-shared"])
def test_forty_step_child_path_matches_reference(plan):
    """A 40-step path over a deep, fragmented document: R/S keys pack
    the step into the NodeID for any path length."""
    db = Database(page_size=512, buffer_pages=16)
    builder = TreeBuilder(db.tags)
    builder.start_element("root")
    depth = 44
    for level in range(depth):
        builder.start_element("n")
        for sibling in range(level % 3):
            builder.start_element("leaf")
            builder.end_element()
    for _ in range(depth):
        builder.end_element()
    builder.end_element()
    tree = builder.finish()
    db.add_tree(tree, "deep", ImportOptions(page_size=512, fragmentation=1.0, seed=4))
    query = "/" + "/".join(["child::*"] * 40)
    result = db.execute(query, doc="deep", plan=plan)
    import_result = db.store.document("deep").import_result
    expected = sorted(import_result.nodeid_of(n) for n in evaluate_query(tree, query))
    assert len(expected) == 2  # the 40th nesting level: ``n`` and a ``leaf``
    assert sorted(result.nodes) == expected
