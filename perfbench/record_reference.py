"""Record the reference answers every benchmark run is checked against.

Usage (from the repository root): python3 perfbench/record_reference.py

Runs the query set of each workload once, at the current commit, and
writes ``perfbench/reference.json``.  Queries that raise are listed under
``known_failures`` with their error and get no reference answer.
Recording stops if a realizable verdict's witness fails the check.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time

import run
import workloads


def main() -> int:
    answers, known_failures = {}, {}
    run.ROOT.joinpath(".perfbench_out").mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.ROOT / ".perfbench_out") as tmp:
            runner = run.Runner(name, run.Path(tmp), time.perf_counter() + 1800)
            res = runner.launch(workloads.query_set(name))
        bad = [qid for qid, ok in res["witness_ok"].items() if not ok]
        if bad:
            print(f"error: witnesses failed the check: {bad}", file=sys.stderr)
            return 1
        for q in res["queries"]:
            if q["error"] is None:
                answers[q["id"]] = q["answer"]
            else:
                known_failures[q["id"]] = q["error"]
        print(f"{name}: {len(res['queries'])} queries, {res['pass_end'] - res['pass_start']:.1f} s", file=sys.stderr)
    run.REFERENCE.write_text(
        json.dumps({"answers": answers, "known_failures": known_failures}, indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
