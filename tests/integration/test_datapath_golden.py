"""The single intra-cluster datapath against its golden fixtures.

``tests/golden/datapath.json`` was recorded while two datapaths still
existed (record-object navigation and the column-view kernels), with
both agreeing on every row.  Each case must still reproduce its row
exactly — value or node digest, every ``Stats`` counter, simulated total
and CPU time — and its result must equal the reference evaluator's.

``tests/golden/traced.json`` pins the same for traced runs, plus the
trace itself: mirrored counters, per-operator rollups and the ordered
operator events.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.golden.datapath_cases import (
    CASES,
    TRACED_CASES,
    outcome_row,
    reference_outcome,
    result_outcome,
    run_case,
    run_traced,
)

GOLDEN = Path(__file__).parents[1] / "golden"
FIXTURE = json.loads((GOLDEN / "datapath.json").read_text(encoding="utf-8"))
TRACED = json.loads((GOLDEN / "traced.json").read_text(encoding="utf-8"))


def _check_group(group: str) -> None:
    cases = [case for case in CASES if case.id.split("/")[0] == group]
    assert cases
    mismatches = []
    for case in cases:
        result = run_case(case)
        if outcome_row(result) != FIXTURE["rows"][case.id]:
            mismatches.append(f"{case.id} ({case.query}): differs from the golden row")
        if result_outcome(result) != reference_outcome(case):
            mismatches.append(f"{case.id} ({case.query}): differs from the reference")
    assert not mismatches, "\n".join(mismatches[:20])


def test_fixture_covers_every_case():
    assert sorted(FIXTURE["rows"]) == sorted(case.id for case in CASES)


def test_random_paths_match_golden():
    """Every axis, every plan, three layouts."""
    _check_group("random")


def test_xmark_queries_match_golden():
    """The paper queries on XMark, both layouts, every plan."""
    _check_group("xmark")


def test_faults_match_golden():
    """Retries, latency spikes and lost requests replay identically."""
    _check_group("faults")


@pytest.mark.parametrize("group", ["predicate", "fallback"])
def test_full_tree_navigation_matches_golden(group):
    """Predicates (Simple plan) and fallback mode navigate full-tree."""
    _check_group(group)


def test_traced_fixture_covers_every_case():
    assert sorted(TRACED["rows"]) == sorted(case.id for case in TRACED_CASES)


@pytest.mark.parametrize("group", ["xmark", "fallback", "budget", "q15-nosummary"])
def test_traced_runs_match_golden(group):
    """Traced runs replay counters, operator rollups and op events."""
    cases = [case for case in TRACED_CASES if case.id.split("/")[1] == group]
    assert cases
    mismatches = []
    for case in cases:
        result, row = run_traced(case)
        expected = TRACED["rows"][case.id]
        if row != expected:
            keys = sorted(k for k in row.keys() | expected.keys() if row.get(k) != expected.get(k))
            mismatches.append(f"{case.id} ({case.query}): differs in {keys}")
        if group != "budget" and result_outcome(result) != reference_outcome(case):
            mismatches.append(f"{case.id} ({case.query}): differs from the reference")
        if group == "budget" and not result.partial:
            mismatches.append(f"{case.id}: the budget did not truncate the run")
    assert not mismatches, "\n".join(mismatches[:20])
