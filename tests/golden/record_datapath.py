"""Record the datapath golden fixtures (``tests/golden/datapath.json``).

Runs every case of :mod:`tests.golden.datapath_cases` and refuses to
write unless every result agrees with the reference evaluator::

    PYTHONPATH=src python -m tests.golden.record_datapath
    PYTHONPATH=src python -m tests.golden.record_datapath --traced

``--traced`` writes ``tests/golden/traced.json`` from the traced cases
instead; a budget case must come back truncated (``partial``), every
other case must agree with the reference evaluator.  The traced rows
were recorded at commit af29f6a, the last commit whose cost-sensitive
plans ran the XStep chain as one generator per step.

The checked-in rows were recorded at commit 3695bfe, where the engine
still carried two intra-cluster datapaths (record-object navigation and
the column-view kernels): each case ran on both, and the rows were
written only because both agreed on every one.  Rerecording replaces
that evidence, so do it only for a deliberate change of behaviour, and
say so in the change that does.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from tests.golden.datapath_cases import (
    CASES,
    TRACED_CASES,
    outcome_row,
    reference_outcome,
    result_outcome,
    run_case,
    run_traced,
)

FIXTURE = Path(__file__).with_name("datapath.json")
TRACED_FIXTURE = Path(__file__).with_name("traced.json")


def main(traced: bool = False) -> int:
    rows = {}
    failures = []
    for case in TRACED_CASES if traced else CASES:
        if traced:
            result, row = run_traced(case)
            if case.id.startswith("traced/budget/"):
                if not result.partial:
                    failures.append(f"{case.id}: the budget did not truncate the run")
            elif result_outcome(result) != reference_outcome(case):
                failures.append(f"{case.id}: result differs from the reference evaluator")
            rows[case.id] = row
            continue
        result = run_case(case)
        if result_outcome(result) != reference_outcome(case):
            failures.append(f"{case.id}: result differs from the reference evaluator")
        rows[case.id] = outcome_row(result)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        print(f"{len(failures)} disagreements; fixture not written", file=sys.stderr)
        return 1
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    lines = [f'  "{case_id}": {json.dumps(row, sort_keys=True)}' for case_id, row in rows.items()]
    target = TRACED_FIXTURE if traced else FIXTURE
    target.write_text(
        '{\n "recorded_at": "%s",\n "rows": {\n%s\n }\n}\n' % (commit, ",\n".join(lines)),
        encoding="utf-8",
    )
    print(f"wrote {len(rows)} rows to {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main(traced="--traced" in sys.argv[1:]))
