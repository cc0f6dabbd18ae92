"""Expected answers and simulated totals for the XMark documents.

The table holds, for each document seed, paper-grid's and restart's
reference answers of Q6', Q7 and Q15 (from the storage-oblivious
evaluator ``repro.xpath.reference``), the simulated total and CPU
seconds of every paper-grid point, and the plan choice, total and CPU of
restart's AUTO runs.  Simulated time is the paper's model and must not drift: a run
whose figures differ from the table by any amount is incorrect.

Regenerate (only when a change is meant to alter the simulation)::

    python3 perfbench/expected.py            # writes perfbench/expected.json
"""

from __future__ import annotations

import json
import os
import sys

TABLE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def _answers(tree) -> dict:
    """Reference answers of Q6', Q7 and Q15 on a logical tree."""
    from repro.xpath.reference import evaluate_query

    from perfbench import common

    answers = {}
    for qid, query in common.QUERIES:
        want = evaluate_query(tree, query)
        if qid == "q15":
            answers["q15_nodes"] = want
            answers["q15_text"] = [tree.value_of(n) for n in want]
        else:
            answers[qid] = want
    return answers


def compute_grid(scale: float, doc_seed: int) -> dict:
    """paper-grid's row: answers and every point's simulated figures."""
    from perfbench import common

    db = common.new_database()
    tree = common.generate(db, scale, doc_seed)
    answers = _answers(tree)
    db.add_tree(tree, "xmark", common.import_options(doc_seed))
    session = db.session()
    points = {}
    for qid, query in common.QUERIES:
        points[qid] = {}
        for plan in common.PLANS:
            result = session.execute(query, doc="xmark", plan=plan)
            points[qid][plan] = [result.total_time, result.cpu_time]
    return {"answers": answers, "points": points}


def compute_restart(scale: float, doc_seed: int, workdir: str) -> dict:
    """restart's row: answers and the AUTO runs on the loaded image
    (written to ``workdir`` and removed)."""
    from repro import Database

    from perfbench import common, workloads

    answers = _answers(common.generate(common.new_database(), scale, doc_seed))
    image = os.path.join(workdir, "expected.rpro")
    workloads.save_from_text(workloads.xmark_text(scale, doc_seed), doc_seed, image)
    loaded = Database.load(image)
    os.remove(image)
    auto = {}
    for qid, query in common.QUERIES:
        result = loaded.execute(query, doc="xmark")
        got = (
            [loaded.node_info(n)[2] for n in result.nodes]
            if qid == "q15"
            else result.value
        )
        if got != answers["q15_text" if qid == "q15" else qid]:
            raise SystemExit(f"restart's {qid} differs from the reference answer")
        auto[qid] = [[k.value for k in result.plan_kinds], result.total_time, result.cpu_time]
    return {"answers": answers, "auto": auto}


def lookup(sizes, doc_seed: int, workdir: str) -> dict:
    """The checked-in row for ``doc_seed``; other scales are computed.

    Only the checked-in table can catch drift in simulated time; rows
    computed on the fly (the self-test's tiny documents) check answers
    against the reference and exercise the gate's mechanics.
    """
    with open(TABLE_PATH, encoding="utf-8") as handle:
        table = json.load(handle)
    if (table["grid_scale"], table["restart_scale"]) != (sizes.grid_scale, sizes.restart_scale):
        return {
            "grid": compute_grid(sizes.grid_scale, doc_seed),
            "restart": compute_restart(sizes.restart_scale, doc_seed, workdir),
        }
    row = table["seeds"].get(str(doc_seed))
    if row is None:
        raise SystemExit(f"{TABLE_PATH} has no row for document seed {doc_seed}")
    return row


def main() -> int:
    from perfbench import common
    from perfbench.workloads import Sizes

    sizes = Sizes()
    workdir = os.path.join(os.path.dirname(TABLE_PATH), "out")
    os.makedirs(workdir, exist_ok=True)
    seeds = {}
    for doc_seed in range(common.TABLE_SEEDS):
        seeds[str(doc_seed)] = {
            "grid": compute_grid(sizes.grid_scale, doc_seed),
            "restart": compute_restart(sizes.restart_scale, doc_seed, workdir),
        }
        print(f"document seed {doc_seed} done", flush=True)
    table = {"grid_scale": sizes.grid_scale, "restart_scale": sizes.restart_scale, "seeds": seeds}
    with open(TABLE_PATH, "w", encoding="utf-8") as out:
        json.dump(table, out, sort_keys=True)
        out.write("\n")
    print(f"wrote {TABLE_PATH}")
    return 0


if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(root, "src"), root]
    raise SystemExit(main())
