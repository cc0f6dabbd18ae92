"""Shared pieces of the benchmark: document builds, timing, accounting.

Documents are built the way ``benchmarks/harness.py`` builds them for the
paper's figures: 8 KiB pages, a 256-page buffer and a fully fragmented
layout (``fragmentation=1.0``).  Library calls go through module
attributes (``xmark.generate_xmark``, not a local import) so the traced
run's wrappers see them.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field

import repro.xmark as xmark
from repro import Database, ImportOptions
from repro.xmark import Q6_PRIME, Q7, Q15

PAGE_SIZE = 8192
BUFFER_PAGES = 256
FRAGMENTATION = 1.0

#: the paper's three queries, in the fixed order every workload uses
QUERIES = (("q6", Q6_PRIME), ("q7", Q7), ("q15", Q15))
PLANS = ("simple", "xschedule", "xscan")

#: XMark documents are drawn from this many seeds (``seed % TABLE_SEEDS``)
#: so that every document has a row in the checked-in table of simulated
#: totals; update-target draws use the full workload seed.
TABLE_SEEDS = 16


def xmark_seed(seed: int) -> int:
    return seed % TABLE_SEEDS


def import_options(doc_seed: int) -> ImportOptions:
    return ImportOptions(page_size=PAGE_SIZE, fragmentation=FRAGMENTATION, seed=doc_seed)


def new_database(tracer=None) -> Database:
    return Database(page_size=PAGE_SIZE, buffer_pages=BUFFER_PAGES, tracer=tracer)


def generate(db: Database, scale: float, doc_seed: int):
    """The XMark logical tree for ``(scale, doc_seed)`` on ``db``'s tags."""
    return xmark.generate_xmark(scale=scale, tags=db.tags, seed=doc_seed)


def build_xmark(scale: float, doc_seed: int, tracer=None) -> Database:
    """Generate and import one XMark document named ``xmark``."""
    db = new_database(tracer)
    db.add_tree(generate(db, scale, doc_seed), "xmark", import_options(doc_seed))
    return db


def drift_loop() -> float:
    """Seconds for a fixed pure-Python loop: a machine-speed reading.

    Recorded before and after each workload and stored with its
    results; it scales no metric.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - t0
    if acc < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Ledger:
    """Operations attempted and failed, by operation type.

    An exception and a wrong answer both count as a failure of the
    operation that produced it; nothing is retried or filtered.  Wrong
    answers and gate violations also go to :attr:`wrong`, which makes the
    run incorrect.
    """

    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)

    def attempt(self, kind: str) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1

    def fail(self, kind: str, message: str) -> None:
        self.failed[kind] = self.failed.get(kind, 0) + 1
        self.errors.append(f"{kind}: {message}")

    def mismatch(self, kind: str, message: str) -> None:
        """A wrong answer: a failed operation and an incorrect run."""
        self.fail(kind, message)
        self.wrong.append(f"{kind}: {message}")

    def gate(self, message: str) -> None:
        """A check outside any one operation failed (drift, recovery)."""
        self.wrong.append(message)

    @property
    def n_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())
