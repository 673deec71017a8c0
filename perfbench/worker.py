"""One fresh benchmark process: set up, run one pass of queries, check
witnesses, write the results as JSON.

Usage: python3 worker.py JOB.json RESULT.json

The job names the workload, the queries, whether to trace, and whether
to stop after set-up.  Set-up is ``import hopfgalois`` plus building the
input groups; it ends at the ``ready`` timestamp, which the parent
compares with its own clock reading from before the launch (both are
CLOCK_MONOTONIC through ``time.perf_counter``).

A speed probe (a fixed pure-Python loop) runs when the process starts,
before every query and after the last one, outside every timed
interval.  The result lists each probe's end time and duration, and
set-up records the mean of the first probe and the one after ``ready``;
``run.py`` rescales the times by them.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent


def speed_probe() -> float:
    """Time of a fixed pure-Python loop, 3.5-5.5 ms on the box this was
    tuned on.  It tracks the machine's speed, not the program's."""
    start = time.perf_counter()
    acc = 0
    for i in range(40_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(job_path, result_path):
    start_probe = speed_probe()
    job = json.loads(Path(job_path).read_text())
    workload, queries, trace = job["workload"], job["queries"], job["trace"]
    import hopfgalois  # noqa: F401  (set-up cost: the import itself)

    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    groups = workloads.setup(workload, queries)
    ready = time.perf_counter()
    probes = []  # [end, duration]: before each query, and after the last

    def probe():
        duration = speed_probe()
        probes.append([time.perf_counter(), duration])

    probe()
    out = {"ready": ready, "start_probe_s": start_probe, "setup_probe_s": (start_probe + probes[0][1]) / 2}
    if job["setup_only"]:
        Path(result_path).write_text(json.dumps(out))
        return

    ctx = {"groups": groups, "witnesses": {}}
    cli_traces = []
    if workload == "cli-store":
        store_dir = Path(job["scratch"])
        store_dir.mkdir(parents=True, exist_ok=True)
        ctx["store"] = str(store_dir / "S.jsonl")
        ctx["env"] = dict(os.environ)
        counter = itertools.count()

        def cli_prefix():
            if not trace:
                return [sys.executable, "-m", "hopfgalois"]
            spans = store_dir / f"cli-{next(counter)}.json"
            cli_traces.append(spans)
            return [sys.executable, str(HERE / "cli_child.py"), str(spans)]

        ctx["cli_prefix"] = cli_prefix

    results = []

    def timed(qid, fn):
        if len(probes) == len(results):
            probe()
        start = time.perf_counter()
        try:
            payload, answer = fn()
            error = None
        except Exception as exc:  # a failed query is data, not a crash
            payload, answer = None, None
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        results.append({"id": qid, "start": start, "end": end, "answer": answer, "error": error})
        return payload

    pass_start = time.perf_counter()
    for q in queries:
        workloads.run_query(workload, q, ctx, timed)
    pass_end = time.perf_counter()
    probe()
    out.update(pass_start=pass_start, pass_end=pass_end, peak_rss_mb=_peak_rss_mb(), probes=probes)

    if tracer:
        tracer.uninstall()
        traces = [tracer.export()]
        import_s = 0.0
        for path in cli_traces:
            if path.exists():
                child = json.loads(path.read_text())
                traces.append(child["trace"])
                import_s += child["import_s"]
        out["pass_stats"] = tracing.summarize(traces, since=pass_start)
        stats = tracing.summarize(traces)
        stats["cli.import_s"] = import_s
        autcache = Path(ctx["store"] + ".autcache.json") if "store" in ctx else None
        stats["store.autcache_bytes"] = autcache.stat().st_size if autcache and autcache.exists() else 0
        out["stats"] = stats
        Path(job["spans_file"]).write_text(json.dumps(traces))

    # Witness checks run after the pass and outside the trace.  Passes
    # repeat the same deterministic queries, so one pass checks them.
    checked = {}
    for qid, payload in ctx["witnesses"].items() if job["check_witnesses"] else ():
        try:
            if workload == "cli-store":
                checked[qid] = workloads.cli_witness_ok(payload)
            else:
                checked[qid] = workloads.witness_ok(*payload)
        except Exception as exc:  # a crashing check is a failed check
            checked[qid] = False
            print(f"witness check {qid}: {type(exc).__name__}: {exc}", file=sys.stderr)
    out["witness_ok"] = checked
    out["queries"] = results
    Path(result_path).write_text(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
