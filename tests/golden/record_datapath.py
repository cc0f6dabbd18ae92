"""Record the datapath golden fixtures (``tests/golden/datapath.json``).

Runs every case of :mod:`tests.golden.datapath_cases` and refuses to
write unless every result agrees with the reference evaluator::

    PYTHONPATH=src python -m tests.golden.record_datapath

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
    outcome_row,
    reference_outcome,
    result_outcome,
    run_case,
)

FIXTURE = Path(__file__).with_name("datapath.json")


def main() -> int:
    rows = {}
    failures = []
    for case in CASES:
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
    FIXTURE.write_text(
        '{\n "recorded_at": "%s",\n "rows": {\n%s\n }\n}\n' % (commit, ",\n".join(lines)),
        encoding="utf-8",
    )
    print(f"wrote {len(rows)} rows to {FIXTURE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
