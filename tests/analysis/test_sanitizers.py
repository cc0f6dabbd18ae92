"""The reprosan runtime sanitizers: seeded-bug matrix and overhead contract.

Each sanitizer must demonstrably catch its bug class: we *seed* a
deliberate bug (an unmirrored charge, a run-count-dependent clock, a
corrupted incremental repair, a stale columnar cache) and assert the
sanitizer trips on it.  The flip side is the overhead contract: with
``REPRO_SAN`` unset no shadow structures exist, and with it set the
observable outcome — value, counters, simulated timings — is
bit-identical to an unsanitized run.
"""

from __future__ import annotations

import json

import pytest

from repro.algebra.context import EvalContext
from repro.analysis.sanitize import ALL_MODES, SanitizerError, modes
from repro.model.tree import Kind
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from repro.storage.nodeid import page_of, slot_of
from repro.storage.record import CoreRecord
from repro.storage.update import update_value
from tests.conftest import small_database

#: a predicate under the Simple plan: predicate evaluation navigates
#: full-tree and charges its hops through EvalContext.charge_hop, the
#: helper the charge tests seed bugs into
CHARGE_HOP_QUERY = "//a[b]"


@pytest.fixture(autouse=True)
def _sanitizers_off(monkeypatch):
    """Each test opts in explicitly; none inherits the runner's env."""
    monkeypatch.delenv("REPRO_SAN", raising=False)
    monkeypatch.delenv("REPRO_SAN_REPORT", raising=False)


def _find_text_node(db, doc_name="d"):
    doc = db.document(doc_name)
    for page_no in doc.page_nos:
        page = db.store.segment.page(page_no)
        for slot, record in enumerate(page.records):
            if isinstance(record, CoreRecord) and record.kind == Kind.TEXT:
                from repro.storage.nodeid import make_nodeid

                return make_nodeid(page_no, slot)
    raise AssertionError("random document unexpectedly has no text node")


# ------------------------------------------------------------ mode parsing


def test_modes_parsing(monkeypatch):
    assert modes() == frozenset()
    monkeypatch.setenv("REPRO_SAN", "1")
    assert modes() == ALL_MODES
    monkeypatch.setenv("REPRO_SAN", "all")
    assert modes() == ALL_MODES
    monkeypatch.setenv("REPRO_SAN", "charge, mutation")
    assert modes() == frozenset({"charge", "mutation"})
    monkeypatch.setenv("REPRO_SAN", "chrage")
    with pytest.raises(SanitizerError, match="unknown REPRO_SAN mode"):
        modes()


# ------------------------------------------------------- overhead contract


def test_off_allocates_no_shadow_structures():
    db, _ = small_database()
    ctx = db.make_context()
    assert ctx.san is None
    assert ctx.tracer is None
    result = db.execute("count(/root/a)", doc="d")
    assert result.trace_summary is None


def test_sanitized_run_is_bit_identical(monkeypatch):
    db, _ = small_database()
    plain = db.execute("//a/b", doc="d", plan="xscan")
    monkeypatch.setenv("REPRO_SAN", "1")
    db2, _ = small_database()
    sanitized = db2.execute("//a/b", doc="d", plan="xscan")
    assert sanitized.nodes == plain.nodes
    assert sanitized.total_time == plain.total_time
    assert sanitized.cpu_time == plain.cpu_time
    assert sanitized.io_wait == plain.io_wait
    assert sanitized.stats.as_dict() == plain.stats.as_dict()
    # the shadow tracer exists only for the shadow books: it must not
    # surface as a trace summary the unsanitized run would not have had
    assert sanitized.trace_summary is None


def test_user_tracer_still_surfaces_under_sanitizers(monkeypatch):
    monkeypatch.setenv("REPRO_SAN", "1")
    db, _ = small_database()
    db.env.tracer = Tracer()
    result = db.execute("count(/root/a)", doc="d")
    assert result.trace_summary is not None
    assert result.trace_summary.reconcile(result.stats) == {}


# --------------------------------------------------------- charge sanitizer


def test_charge_sanitizer_catches_unmirrored_charge(monkeypatch):
    monkeypatch.setenv("REPRO_SAN", "charge")

    def unmirrored_charge_hop(self):  # seeded bug: no tracer mirror
        cost = self._cost_hop
        self.clock.now += cost
        self.clock.cpu_time += cost
        self.stats.intra_hops += 1

    monkeypatch.setattr(EvalContext, "charge_hop", unmirrored_charge_hop)
    db, _ = small_database()
    with pytest.raises(SanitizerError, match="intra_hops"):
        db.execute(CHARGE_HOP_QUERY, doc="d", plan="simple")


def test_charge_sanitizer_catches_double_charge(monkeypatch):
    monkeypatch.setenv("REPRO_SAN", "charge")
    original = EvalContext.charge_hop

    def double_charge_hop(self):  # seeded bug: the PR 3 shape, one
        original(self)  # logical event charged at two layers
        self.stats.intra_hops += 1

    monkeypatch.setattr(EvalContext, "charge_hop", double_charge_hop)
    db, _ = small_database()
    with pytest.raises(SanitizerError, match="intra_hops"):
        db.execute(CHARGE_HOP_QUERY, doc="d", plan="simple")


def test_charge_sanitizer_catches_clock_identity_breach(monkeypatch):
    monkeypatch.setenv("REPRO_SAN", "charge")
    original = EvalContext.charge_hop

    def untracked_time(self):  # seeded bug: now moves outside both buckets
        original(self)
        self.clock.now += 1e-6

    monkeypatch.setattr(EvalContext, "charge_hop", untracked_time)
    db, _ = small_database()
    with pytest.raises(SanitizerError, match="clock identity"):
        db.execute(CHARGE_HOP_QUERY, doc="d", plan="simple")


# ---------------------------------------------------- determinism sanitizer


def test_determinism_sanitizer_passes_clean_runs(monkeypatch):
    monkeypatch.setenv("REPRO_SAN", "determinism")
    db, _ = small_database()
    result = db.execute("//a/b", doc="d")
    assert result.nodes is not None
    # the re-execution ran on an uncounted shadow runtime
    assert db.env.contexts_built == 1


def test_determinism_sanitizer_catches_run_dependence(monkeypatch):
    db, _ = small_database()
    built = {"n": 0}
    original = SimClock.__init__

    def skewed_init(self):  # seeded bug: every second runtime starts late
        original(self)
        built["n"] += 1
        if built["n"] % 2 == 0:
            self.now = 1e-9

    monkeypatch.setattr(SimClock, "__init__", skewed_init)
    monkeypatch.setenv("REPRO_SAN", "determinism")
    with pytest.raises(SanitizerError, match="clock differs|stats\\."):
        db.execute("//a/b", doc="d")


def test_determinism_trace_diff_is_tick_for_tick():
    from repro.analysis.sanitize.determinism import _diff_events

    first, second = Tracer(), Tracer()
    first.event(0.5, "io", "read", page=3)
    second.event(0.5, "io", "read", page=3)
    _diff_events(first, 0, second)  # identical streams: silent
    first.event(0.7, "io", "read", page=4)
    second.event(0.7, "io", "read", page=5)
    with pytest.raises(SanitizerError, match="trace event 1"):
        _diff_events(first, 0, second)
    second.event(0.8, "io", "read", page=6)
    with pytest.raises(SanitizerError, match="differ in length"):
        _diff_events(first, 0, second)


# ------------------------------------------------------- mutation sanitizer


def test_mutation_sanitizer_catches_stale_synopsis_repair(monkeypatch, tmp_path):
    import repro.storage.wal as walmod

    db, _ = small_database()
    db.attach_wal(str(tmp_path / "wal.log"))
    doc = db.document("d")
    assert doc.synopsis is not None

    def stale_repair(store, document, base, touched):  # seeded bug: the
        document.synopsis = base  # repair "forgets" the touched pages
        return base

    monkeypatch.setattr(walmod, "repair_synopsis", stale_repair)
    monkeypatch.setenv("REPRO_SAN", "mutation")
    with pytest.raises(SanitizerError, match="synopsis"):
        db.wal.insert("d", doc.root, 0, "zzz")


def test_mutation_sanitizer_passes_real_repair(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SAN", "mutation")
    db, _ = small_database()
    db.attach_wal(str(tmp_path / "wal.log"))
    doc = db.document("d")
    nid = db.wal.insert("d", doc.root, 0, "zzz")
    assert db.execute("count(//zzz)", doc="d").value == 1.0
    assert db.wal.delete("d", nid) == 1


def test_mutation_sanitizer_catches_stale_colview(monkeypatch):
    db, _ = small_database()
    nid = _find_text_node(db)
    page = db.store.segment.page(page_of(nid))
    view = page.colview()  # build and cache the columnar mirror
    view.tags[slot_of(nid)] += 1  # seeded bug: a cache gone stale
    monkeypatch.setenv("REPRO_SAN", "mutation")
    with pytest.raises(SanitizerError, match="column view"):
        update_value(db.store, nid, "x")


# ------------------------------------------------------------ the artifact


def test_failures_land_in_the_report_artifact(monkeypatch, tmp_path):
    report = tmp_path / "reprosan.jsonl"
    monkeypatch.setenv("REPRO_SAN", "charge")
    monkeypatch.setenv("REPRO_SAN_REPORT", str(report))

    def unmirrored_charge_hop(self):
        cost = self._cost_hop
        self.clock.now += cost
        self.clock.cpu_time += cost
        self.stats.intra_hops += 1

    monkeypatch.setattr(EvalContext, "charge_hop", unmirrored_charge_hop)
    db, _ = small_database()
    with pytest.raises(SanitizerError):
        db.execute(CHARGE_HOP_QUERY, doc="d", plan="simple")
    lines = report.read_text(encoding="utf-8").splitlines()
    assert lines
    record = json.loads(lines[0])
    assert record["sanitizer"] == "charge"
    assert "intra_hops" in record["message"]
