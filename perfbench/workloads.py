"""The three workloads: paper-grid, mixed-rw and restart.

Every workload runs in one process and one thread as a closed loop: the
next request is sent as soon as the previous one returns.  A workload is
set up at least ``setup_reps`` times and until ``setup_seconds`` of
set-up have passed (the last set-up is kept), and then runs
passes, one pass being one cycle of its operation list.  Each operation
is timed on its own; checking its answer happens outside the timed
region.
"""

from __future__ import annotations

import gc
import os
import random
import time
from dataclasses import dataclass, field

from repro import Database, ReproError, Tracer
from repro.storage.nodeid import page_of
from repro.storage.store import export_tree
from repro.xml.escape import serialize
from repro.xpath.reference import evaluate_query

from perfbench import common
from perfbench.common import PLANS, QUERIES, Ledger


@dataclass(frozen=True)
class Sizes:
    """Document sizes and repetition counts; the self-test shrinks them."""

    grid_scale: float = 0.5  #: paper-grid (726 pages at seed 1)
    rw_scale: float = 0.1  #: mixed-rw (141 pages at seed 1)
    restart_scale: float = 0.5  #: restart
    #: set-ups run at least this many times and this long in total:
    #: one mixed-rw set-up takes under a second, short enough for the
    #: host's bursts of contention to move a median of few
    setup_reps: int = 5
    setup_seconds: float = 6.0
    min_passes: int = 3
    #: steady passes per half of the traced run's interleaved window
    traced_passes: dict = field(
        default_factory=lambda: {"paper-grid": 3, "mixed-rw": 8, "restart": 3}
    )


@dataclass
class Sim:
    """Simulated totals and engine counters summed over query results."""

    total_s: float = 0.0
    cpu_s: float = 0.0
    io_requests: int = 0
    pages_read: int = 0
    buffer_hits: int = 0
    buffer_misses: int = 0
    instances_created: int = 0
    speculative_instances: int = 0
    merges: int = 0
    clusters_pruned: int = 0
    refuted: int = 0
    results: int = 0  #: result items produced (a count's value, or nodes)

    def add(self, timed, stats, items: int) -> None:
        self.total_s += timed.total_time
        self.cpu_s += timed.cpu_time
        self.io_requests += stats.io_requests
        self.pages_read += stats.pages_read
        self.buffer_hits += stats.buffer_hits
        self.buffer_misses += stats.buffer_misses
        self.instances_created += stats.instances_created
        self.speculative_instances += stats.speculative_instances
        self.merges += stats.merges
        self.clusters_pruned += (
            stats.synopsis_clusters_pruned + stats.pathsummary_clusters_pruned
        )
        self.refuted += stats.paths_refuted
        self.results += items

    def merge(self, other: "Sim") -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)


#: what :meth:`Pass.op` returns for an operation that raised
FAILED = object()


def _items(result) -> int:
    if result.nodes is not None:
        return len(result.nodes)
    return int(result.value or 0)


@dataclass
class Pass:
    """One cycle of a workload's operation list."""

    ledger: Ledger
    samples: list = field(default_factory=list)  #: (kind, seconds)
    wall: float = 0.0  #: timed work of the pass (checks excluded)
    sim: Sim = field(default_factory=Sim)
    #: paper-grid: wall seconds of Q6'+Q7+Q15 under each plan
    by_plan: dict = field(default_factory=dict)
    hooks: object = None  #: traced run: marks each request's spans

    def op(self, kind: str, fn):
        """Run and time one operation; returns its value, or FAILED when
        it raised (which counts as a failure of ``kind``)."""
        self.ledger.attempt(kind)
        if self.hooks is not None:
            self.hooks.begin_request(kind)
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # every failure is counted, none retried
            self.wall += time.perf_counter() - t0
            self.ledger.fail(kind, f"{type(exc).__name__}: {exc}")
            return FAILED
        elapsed = time.perf_counter() - t0
        self.wall += elapsed
        self.samples.append((kind, elapsed))
        return value

    def latencies(self, *kinds: str) -> list[float]:
        return [s for k, s in self.samples if k in kinds]


class Workload:
    name = ""
    ops = ()  #: operation kinds, for the failure breakdown
    table = "grid"  #: its part of the expected table's row (None: checks live)

    def __init__(self, seed: int, sizes: Sizes, expected, workdir: str) -> None:
        self.seed = seed
        self.doc_seed = common.xmark_seed(seed)
        self.sizes = sizes
        self.expected = expected
        self.workdir = workdir
        self.ledger = Ledger()

    def before_setup(self) -> None:
        """Untimed preparation, once before the set-ups."""

    def reset(self) -> None:
        """Drop the state of the previous set-up."""

    def setup(self) -> None:
        """The timed set-up; repeated as :class:`Sizes` says."""
        raise NotImplementedError

    def after_setup(self) -> None:
        """Untimed preparation after each set-up, before its first pass."""

    def run_pass(self, p: Pass) -> None:
        raise NotImplementedError

    def finish(self) -> dict:
        """Final checks after the last pass; returns extra figures."""
        return {}

    def session_counters(self) -> dict:
        """Plan-cache and batch counters (summed over sessions)."""
        return {}


# ------------------------------------------------------------ paper-grid


class PaperGrid(Workload):
    """The nine (Q6'/Q7/Q15 x simple/xschedule/xscan) points through one
    cached cold session on an XMark sf 0.5 document."""

    name = "paper-grid"
    ops = ("query",)

    def reset(self) -> None:
        self.db = self.session = None

    def setup(self) -> None:
        self.db = common.build_xmark(self.sizes.grid_scale, self.doc_seed)

    def after_setup(self) -> None:
        self.session = self.db.session()
        doc = self.db.document("xmark")
        nodeid_of = doc.import_result.nodeid_of
        self.q15_nodes = [nodeid_of(n) for n in self.expected["answers"]["q15_nodes"]]
        self.n_nodes = doc.n_nodes

    def run_pass(self, p: Pass) -> None:
        answers = self.expected["answers"]
        grid = self.expected["points"]
        for qid, query in QUERIES:
            for plan in PLANS:
                kind = "query"
                result = p.op(
                    kind,
                    lambda: self.session.execute(query, doc="xmark", plan=plan),
                )
                if result is FAILED:
                    continue
                p.by_plan[plan] = p.by_plan.get(plan, 0.0) + p.samples[-1][1]
                p.sim.add(result, result.stats, _items(result))
                want = self.q15_nodes if qid == "q15" else answers[qid]
                got = result.nodes if qid == "q15" else result.value
                if got != want:
                    p.ledger.mismatch(kind, f"{qid}/{plan}: answer differs from the reference")
                total, cpu = grid[qid][plan]
                if result.total_time != total or result.cpu_time != cpu:
                    p.ledger.mismatch(
                        kind,
                        f"{qid}/{plan}: simulated total/cpu {result.total_time!r}/"
                        f"{result.cpu_time!r} drifted from the table {total!r}/{cpu!r}",
                    )

    def finish(self) -> dict:
        path = os.path.join(self.workdir, "grid.rpro")
        self.db.save(path)
        size = os.path.getsize(path)
        os.remove(path)
        return {"image_bytes": size, "store_bytes_per_node": size / self.n_nodes}

    def session_counters(self) -> dict:
        s = self.session
        return {"hits": s.cache_hits, "misses": s.cache_misses, "replans": s.replans}


# -------------------------------------------------------------- mixed-rw

#: targets are picked by query each round
VALUE_TARGETS = "//keyword/text()"
MAIL_TARGETS = "/site/regions/*/item/mailbox/mail"
ITEM_TARGETS = "/site/regions/*/item"
#: selective queries: (query, plan)
SELECTIVE = (
    (QUERIES[2][1], "auto"),
    ("count(//keyword)", "auto"),
    (QUERIES[0][1], "xschedule"),
)
#: one run_batch of scan-shareable paths, all under the scan plan
BATCH = (
    "count(/site/people/person)",
    "count(/site/regions/*/item/mailbox/mail)",
    "count(/site/open_auctions/open_auction/bidder)",
)
INSERT_TAG = "benchnote"
_LETTERS = "abcdefghijklmnopqrstuvwxyz "


def _holds(check, *args) -> bool:
    """A check's verdict; a check that raises (a node that is not
    there) is a failed check."""
    try:
        return bool(check(*args))
    except ReproError:
        return False


def _node_rows(db: Database, nodes) -> list:
    return [db.node_info(n) for n in nodes]


def _ref_rows(tree, nodes) -> list:
    return [(tree.kind_of(n).name, tree.tag_name(n), tree.value_of(n)) for n in nodes]


def _room(db: Database, nid) -> int:
    """Free bytes on the page that holds node ``nid``."""
    return db.store.segment.page(page_of(nid)).free_bytes()


def _growth_refused(db: Database) -> bool:
    """Whether the engine still refuses to grow a value past its page's
    free space (the defect of ROADMAP item 5).  Mutates ``db``."""
    nid = db.execute(VALUE_TARGETS, doc="xmark").nodes[0]
    value = (db.node_info(nid)[2] or "") + "x" * (_room(db, nid) + 64)
    try:
        db.session().set_value("xmark", nid, value)
    except ReproError:
        return True
    return False


class MixedRW(Workload):
    """Queries and durable updates on a warm session over XMark sf 0.1.

    Flush policy: the three updates of a round share one ``group_commit``
    window, so each round costs one fsync.
    """

    name = "mixed-rw"
    ops = ("pick", "set_value", "delete", "insert", "query", "batch")
    table = None  #: the document changes: checked against the live reference

    def reset(self) -> None:
        if getattr(self, "db", None) is not None and self.db.wal is not None:
            self.db.wal.close()
        self.db = self.session = None

    def setup(self) -> None:
        self.image = os.path.join(self.workdir, "rw.rpro")
        self.db = common.build_xmark(self.sizes.rw_scale, self.doc_seed, tracer=Tracer())
        self.db.attach_wal(self.image)

    def after_setup(self) -> None:
        self.session = self.db.session(warm=True)
        self.rng = random.Random(self.seed)
        self.batch_shared_scans = 0
        self.tree = export_tree(self.db.store, self.db.document("xmark"))

    def _query(self, p: Pass, kind: str, query: str, plan: str):
        """Run one query op and check it; returns (result, reference)."""
        result = p.op(kind, lambda: self.session.execute(query, doc="xmark", plan=plan))
        want = evaluate_query(self.tree, query)
        if result is FAILED:
            return None, want
        p.sim.add(result, result.stats, _items(result))
        if isinstance(want, list):
            ok = result.nodes is not None and _holds(
                lambda: _node_rows(self.db, result.nodes) == _ref_rows(self.tree, want)
            )
        else:
            ok = result.value == want
        if not ok:
            p.ledger.mismatch(kind, f"{query} [{plan}]: answer differs from the reference")
        return result, want

    def run_pass(self, p: Pass) -> None:
        db, session, rng, tree = self.db, self.session, self.rng, self.tree
        # 1. pick targets by query, and draw the updates
        texts, _ = self._query(p, "pick", VALUE_TARGETS, "auto")
        mails, ref_mails = self._query(p, "pick", MAIL_TARGETS, "auto")
        items, ref_items = self._query(p, "pick", ITEM_TARGETS, "auto")
        updates = []  #: (kind, call, check)
        if texts is not None and texts.nodes:
            nid = rng.choice(texts.nodes)
            old = db.node_info(nid)[2] or ""
            length = max(1, round(len(old) * rng.uniform(0.5, 2.0)))
            # the engine cannot yet grow a value past its page's free
            # space (ROADMAP item 5), and no operation of the benchmark
            # may fail: growth stops there; finish() probes the defect
            length = min(length, len(old) + _room(db, nid))
            # a letter first: the XML parser drops whitespace-only text
            # (the import convention), so such a value would not survive
            # the export round trip that finish() checks
            value = rng.choice(_LETTERS[:-1]) + "".join(
                rng.choice(_LETTERS) for _ in range(length - 1)
            )
            updates.append((
                "set_value",
                lambda: session.set_value("xmark", nid, value),
                lambda _: db.node_info(nid)[2] == value,
            ))
        if mails is not None and mails.nodes:
            index = rng.randrange(len(mails.nodes))
            mail, size = mails.nodes[index], tree.subtree_size(ref_mails[index])
            updates.append((
                "delete",
                lambda: session.delete("xmark", mail),
                lambda removed: removed == size,
            ))
        if items is not None and items.nodes:
            index = rng.randrange(len(items.nodes))
            parent = items.nodes[index]
            # a position on the child axis: attributes stay in front
            n_attributes = len(list(tree.attributes(ref_items[index])))
            n_children = len(list(tree.element_children(ref_items[index])))
            position = n_attributes + rng.randrange(n_children + 1)
            updates.append((
                "insert",
                lambda: session.insert("xmark", parent, position, INSERT_TAG),
                lambda nid: db.node_info(nid) == ("ELEMENT", INSERT_TAG, None),
            ))
        # 2. the updates share one group-commit window, hence one fsync;
        # each is checked at once (a later one may delete its node), and
        # the checks' time is kept out of the commit
        first = len(p.samples)
        t0 = time.perf_counter()
        wall = p.wall
        checking = 0.0
        with db.wal.group_commit():
            for kind, call, check in updates:
                outcome = p.op(kind, call)
                if outcome is FAILED:
                    continue
                c0 = time.perf_counter()
                if not _holds(check, outcome):
                    p.ledger.mismatch(kind, "update did not take effect as reported")
                checking += time.perf_counter() - c0
        commit = max(0.0, time.perf_counter() - t0 - (p.wall - wall) - checking)
        p.wall += commit
        # each acknowledged update carries its share of the fsync
        done = range(first, len(p.samples))
        for i in done:
            kind, seconds = p.samples[i]
            p.samples[i] = (kind, seconds + commit / len(done))
        # 3. selective queries on the updated document
        self.tree = export_tree(db.store, db.document("xmark"))
        for query, plan in SELECTIVE:
            self._query(p, "query", query, plan)
        outcome = p.op("batch", lambda: session.run_batch(list(BATCH), doc="xmark", plan="xscan"))
        if outcome is not FAILED:
            self.batch_shared_scans += outcome.scan_shared
            p.sim.add(outcome, outcome.stats, sum(_items(r) for r in outcome.results))
            for query, result in zip(BATCH, outcome.results):
                if result.value != evaluate_query(self.tree, query):
                    p.ledger.mismatch("batch", f"{query}: answer differs from the reference")

    def finish(self) -> dict:
        db = self.db
        db.wal.close()
        wal_path = db.wal.wal_path
        image_bytes = os.path.getsize(self.image)
        wal_bytes = os.path.getsize(wal_path)
        n_ops = db.wal.lsn
        # recover as the CLI's ``recover`` subcommand does, with the
        # statistics recollected so the recovered store can plan AUTO
        t0 = time.perf_counter()
        recovered, report = Database.recover(self.image, collect_statistics=True)
        recover_s = time.perf_counter() - t0
        live = db.document("xmark")
        again = recovered.document("xmark")
        live_text = serialize(export_tree(db.store, live))
        if report.last_lsn != n_ops:
            self.ledger.gate(f"recovery reached LSN {report.last_lsn}, expected {n_ops}")
        if serialize(export_tree(recovered.store, again)) != live_text:
            self.ledger.gate("recovered document differs from the live one")
        if again.synopsis != live.synopsis or again.pathsummary != live.pathsummary:
            self.ledger.gate("recovered synopsis or path summary differs from the live one")
        if again.page_nos != live.page_nos or again.n_nodes != live.n_nodes:
            self.ledger.gate("recovered page set or node count differs from the live one")
        # the updated document survives the CLI's --xml round trip
        reparsed = common.new_database()
        reparsed.load_xml(db.export_xml("xmark")[0], "xmark")
        if serialize(export_tree(reparsed.store, reparsed.document("xmark"))) != live_text:
            self.ledger.gate("exported XML of the updated document does not parse back")
        return {
            # on the recovered copy, which nothing reads after this
            "value_growth_refused": _growth_refused(recovered),
            "recover_s": recover_s,
            "image_bytes": image_bytes,
            "wal_bytes": wal_bytes,
            "wal_ops": n_ops,
            "store_bytes_per_node": (image_bytes + wal_bytes) / live.n_nodes,
        }

    def session_counters(self) -> dict:
        s = self.session
        return {
            "hits": s.cache_hits,
            "misses": s.cache_misses,
            "replans": s.replans,
            "batch_shared_scans": self.batch_shared_scans,
            "events_recorded": self.db.env.tracer.events_recorded,
        }


# --------------------------------------------------------------- restart


def xmark_text(scale: float, doc_seed: int) -> str:
    """The seed's XMark document serialised as XML text."""
    db = common.new_database()
    return serialize(common.generate(db, scale, doc_seed))


def save_from_text(text: str, doc_seed: int, image: str) -> Database:
    """The CLI's ``--xml FILE --save IMAGE``: parse, import and persist."""
    db = common.new_database()
    db.load_xml(text, "xmark", common.import_options(doc_seed))
    db.save(image)
    return db


class Restart(Workload):
    """Open a saved image, answer Q6', Q7 and Q15 once under AUTO, drop
    the database: the CLI's ``--store FILE Q...`` pattern."""

    name = "restart"
    ops = ("open", "query")
    table = "restart"
    compiles = 0

    def reset(self) -> None:
        self.db = None

    def setup(self) -> None:
        self.image = os.path.join(self.workdir, "restart.rpro")
        self.db = save_from_text(self.text, self.doc_seed, self.image)

    def before_setup(self) -> None:
        # serialised before the clock starts
        self.text = xmark_text(self.sizes.restart_scale, self.doc_seed)

    def after_setup(self) -> None:
        self.n_nodes = self.db.document("xmark").n_nodes
        self.db = None

    def run_pass(self, p: Pass) -> None:
        answers = self.expected["answers"]
        table = self.expected["auto"]
        db = p.op("open", lambda: Database.load(self.image))
        if db is FAILED:
            return
        for qid, query in QUERIES:
            result = p.op("query", lambda: db.execute(query, doc="xmark"))
            if result is FAILED:
                continue
            self.compiles += 1
            p.sim.add(result, result.stats, _items(result))
            if qid == "q15":
                ok = result.nodes is not None and _holds(
                    lambda: [db.node_info(n)[2] for n in result.nodes] == answers["q15_text"]
                )
            else:
                ok = result.value == answers[qid]
            if not ok:
                p.ledger.mismatch("query", f"{qid}: answer differs from the reference")
            plans, total, cpu = table[qid]
            got = [k.value for k in result.plan_kinds]
            if got != plans or result.total_time != total or result.cpu_time != cpu:
                p.ledger.mismatch(
                    "query",
                    f"{qid}: AUTO run {got} {result.total_time!r}/{result.cpu_time!r} "
                    f"drifted from the table {plans} {total!r}/{cpu!r}",
                )
        # like the CLI's process exit, dropping the database (and its
        # cyclic garbage) ends the operation outside the timed region
        del db
        gc.collect()

    def finish(self) -> dict:
        size = os.path.getsize(self.image)
        return {"image_bytes": size, "store_bytes_per_node": size / self.n_nodes}

    def session_counters(self) -> dict:
        return {"hits": 0, "misses": self.compiles, "replans": 0}


WORKLOADS = {w.name: w for w in (PaperGrid, MixedRW, Restart)}
