"""The single intra-cluster datapath against its golden fixtures.

``tests/golden/datapath.json`` was recorded while two datapaths still
existed (record-object navigation and the column-view kernels), with
both agreeing on every row.  Each case must still reproduce its row
exactly — value or node digest, every ``Stats`` counter, simulated total
and CPU time — and its result must equal the reference evaluator's.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.golden.datapath_cases import (
    CASES,
    outcome_row,
    reference_outcome,
    result_outcome,
    run_case,
)

FIXTURE = json.loads(
    (Path(__file__).parents[1] / "golden" / "datapath.json").read_text(encoding="utf-8")
)


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
