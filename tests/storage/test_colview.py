"""Tests for the columnar cluster view (storage/colview.py).

Two layers of guarantees:

* parity — for every core slot and axis of a stored document,
  :meth:`ColumnView.axis_candidates` / :meth:`resume_candidates` /
  :meth:`entry_slots` enumerate exactly what ``iter_axis`` /
  ``iter_resume`` / ``speculative_entries`` do, with the same number of
  hop charges encoded in the batch shape;
* coherence — every mutation door (``Page.add``, ``Page.tombstone``,
  the direct-write sites in ``storage/update.py``) drops the view, so a
  query after an update can never see stale columns.  The tombstone
  slot-reuse case is the regression this PR fixes: ``Page.add`` popping
  a ``free_slots`` entry rewrites the middle of the record array and
  must invalidate exactly as deletes do.
"""

import pytest

from repro import Database, ImportOptions
from repro.axes import Axis
from repro.model.tree import Kind
from repro.storage.colview import KIND_BORDER, KIND_TOMBSTONE, ColumnView
from repro.storage.nav import iter_axis, iter_resume, speculative_entries
from repro.storage.record import CoreRecord
from repro.storage.store import export_tree
from repro.storage.update import delete_subtree, insert_node
from repro.xpath.parser import parse_path
from repro.xpath.reference import evaluate_path

from tests.conftest import make_random_tree

AXES = (
    Axis.SELF,
    Axis.CHILD,
    Axis.ATTRIBUTE,
    Axis.DESCENDANT,
    Axis.DESCENDANT_OR_SELF,
    Axis.PARENT,
    Axis.ANCESTOR,
    Axis.ANCESTOR_OR_SELF,
    Axis.FOLLOWING_SIBLING,
    Axis.PRECEDING_SIBLING,
)


def build_db(seed=7, fragmentation=1.0, page_size=512):
    db = Database(page_size=page_size, buffer_pages=48)
    tree = make_random_tree(db.tags, seed=seed, n_top=25)
    db.add_tree(
        tree,
        "d",
        ImportOptions(page_size=page_size, fragmentation=fragmentation, seed=seed),
    )
    return db


def scalar_enumeration(page, slot, axis, resumed):
    """Drain the nav generator, counting hop charges.

    Enumerations that raise (degenerate border/axis combos never reached
    by real plans) reduce to the exception's type and message, so parity
    extends to the error contract.
    """
    hops = 0

    def charge():
        nonlocal hops
        hops += 1

    try:
        nav = (
            iter_resume(page, slot, axis, charge)
            if resumed
            else iter_axis(page, slot, axis, charge)
        )
        return _normalize(list(nav)), hops
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))


def batch_enumeration(view, slot, axis, resumed):
    """Replay a candidate batch into (is_border, slot) pairs + hop count."""
    try:
        if resumed:
            upfront, free_head, cands = view.resume_candidates(slot, axis)
        else:
            upfront, free_head, cands = view.axis_candidates(slot, axis)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc))
    kinds = view.kinds
    pairs = _normalize([(s >= 0 and kinds[s] < 0, s) for s in cands])
    hops = upfront + max(0, len(cands) - free_head)
    return pairs, hops


def _normalize(pairs):
    """Collapse the borderness flag for sentinel slots.

    Slot -1 is a continuation proxy's "no local root" marker; degenerate
    resumes (axes real plans never resume at a proxy) surface it as a
    candidate, where any flag derived from it is a Python index
    wraparound artefact on both sides.  Slot identity still must agree.
    """
    return [(("degenerate", s) if s < 0 else (flag, s)) for flag, s in pairs]


@pytest.mark.parametrize("fragmentation", [0.0, 1.0])
def test_axis_and_resume_parity_everywhere(fragmentation):
    """Every (slot, axis) batch mirrors nav candidate-for-candidate."""
    db = build_db(fragmentation=fragmentation)
    doc = db.document("d")
    checked_core = checked_border = 0
    for page_no in doc.page_nos:
        page = db.store.segment.page(page_no)
        view = page.colview()
        for slot, record in enumerate(page.records):
            if record is None:
                assert view.kinds[slot] == KIND_TOMBSTONE
                continue
            resumed = record.is_border
            if resumed:
                assert view.kinds[slot] == KIND_BORDER
                # resume only at axes that can actually enter through this
                # border (mirrors speculative_entries): downward steps
                # pause at upward borders, upward steps at downward ones,
                # sibling scans at either; a self step never crosses
                axes = tuple(
                    axis
                    for axis in AXES
                    if axis is not Axis.SELF
                    and (
                        (axis.is_downward and not record.down)
                        or (axis.is_upward and record.down)
                        or (not axis.is_downward and not axis.is_upward)
                    )
                )
            else:
                axes = AXES
            for axis in axes:
                want = scalar_enumeration(page, slot, axis, resumed)
                got = batch_enumeration(view, slot, axis, resumed)
                assert got == want, (page_no, slot, axis, resumed)
            checked_core += not resumed
            checked_border += resumed
    assert checked_core > 50 and checked_border > 5


def test_entry_slots_match_speculative_entries():
    db = build_db()
    doc = db.document("d")
    for page_no in doc.page_nos:
        page = db.store.segment.page(page_no)
        view = page.colview()
        for axis in AXES:
            assert view.entry_slots(axis) == list(speculative_entries(page, axis)), (
                page_no,
                axis,
            )


def test_view_is_lazy_and_memoized():
    db = build_db()
    doc = db.document("d")
    page = db.store.segment.page(doc.page_nos[0])
    assert page._colview is None
    view = page.colview()
    assert isinstance(view, ColumnView)
    assert page.colview() is view
    core = next(
        s for s, r in enumerate(page.records) if r is not None and not r.is_border
    )
    batch = view.axis_candidates(core, Axis.DESCENDANT)
    assert view.axis_candidates(core, Axis.DESCENDANT) is batch


def test_tombstone_invalidates_view():
    db = build_db()
    doc = db.document("d")
    page = db.store.segment.page(doc.page_nos[0])
    view = page.colview()
    slot = next(
        s
        for s, r in enumerate(page.records)
        if r is not None and not r.is_border and not r.child_slots and r.parent_slot >= 0
    )
    parent = page.records[slot].parent_slot
    if not page.records[parent].is_border:
        page.records[parent].child_slots.remove(slot)
    page.tombstone(slot)
    assert page._colview is None
    rebuilt = page.colview()
    assert rebuilt is not view
    assert rebuilt.kinds[slot] == KIND_TOMBSTONE


def test_add_reusing_tombstoned_slot_invalidates_view():
    """The satellite regression: ``Page.add`` into a ``free_slots`` entry
    rewrites the middle of the record array and must drop the view."""
    db = build_db()
    doc = db.document("d")
    page = db.store.segment.page(doc.page_nos[0])
    slot = next(
        s
        for s, r in enumerate(page.records)
        if r is not None and not r.is_border and not r.child_slots and r.parent_slot >= 0
    )
    record = page.records[slot]
    parent = record.parent_slot
    if not page.records[parent].is_border:
        page.records[parent].child_slots.remove(slot)
    page.tombstone(slot)
    stale = page.colview()
    assert stale.kinds[slot] == KIND_TOMBSTONE
    reused = page.add(
        CoreRecord(Kind.ELEMENT, record.tag, record.ordpath, parent)
    )
    assert reused == slot, "expected the tombstoned slot to be reused"
    assert page._colview is None, "slot reuse must invalidate the columnar view"
    assert page.colview().kinds[slot] >= 0


def _drop_views(db):
    for page_no in db.document("d").page_nos:
        db.store.segment.page(page_no).invalidate_colview()


def _check_fresh(db, query, plan="simple"):
    """``query`` agrees with the reference evaluator on the store's
    exported tree, and with a rerun after every page's view is dropped.
    Returns the result's element names."""
    doc = db.document("d")
    result = db.execute(query, doc="d", plan=plan)
    tree = export_tree(db.store, doc)
    expected = [tree.tag_name(n) for n in evaluate_path(tree, parse_path(query))]
    names = [db.node_info(nid)[1] for nid in result.nodes]
    assert names == expected, (plan, query)
    _drop_views(db)
    rerun = db.execute(query, doc="d", plan=plan)
    assert rerun.nodes == result.nodes, (plan, query)
    assert rerun.total_time == result.total_time, (plan, query)
    return names


def test_update_then_query_sees_fresh_columns():
    """End-to-end: delete + insert (reusing slots) between queries
    returns exactly what the reference evaluator and view-less reruns
    return."""
    db = Database(page_size=512, buffer_pages=32)
    db.load_xml("<root><a>one</a><b/><c>two</c></root>", "d")
    doc = db.document("d")
    assert _check_fresh(db, "/child::root/*") == ["a", "b", "c"]
    b = db.execute("/root/b", doc="d", plan="simple").nodes[0]
    delete_subtree(db.store, doc, b)
    assert _check_fresh(db, "/child::root/*") == ["a", "c"]
    root = db.execute("/root", doc="d", plan="simple").nodes[0]
    insert_node(db.store, doc, root, 2, "z")
    for query in ("/child::root/*", "/child::root/z", "//z"):
        _check_fresh(db, query)
    assert _check_fresh(db, "/child::root/*") == ["a", "c", "z"]


def test_random_update_storm_matches_reference():
    """Many structural updates; after each, every plan agrees with the
    reference evaluator and with a view-less rerun."""
    db = build_db(page_size=512)
    doc = db.document("d")
    queries = ("//a", "/child::root/*", "//b//c", "//e")
    for round_no in range(6):
        victims = db.execute("//a", doc="d", plan="simple").nodes
        if victims:
            delete_subtree(db.store, doc, victims[round_no % len(victims)])
        roots = db.execute("/root", doc="d", plan="simple").nodes
        insert_node(db.store, doc, roots[0], 0, "a")
        for query in queries:
            for plan in ("simple", "xschedule", "xscan"):
                _check_fresh(db, query, plan)
