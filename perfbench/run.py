"""hopfgalois benchmark: one workload, fresh processes, checked answers.

Usage (from the repository root):

    python3 perfbench/run.py --workload hol-braces --seed 1 --seconds 30 --trace 0

Each pass runs in a fresh worker process: launch, ``import hopfgalois``
and building the input groups are set-up; the queries then go one at a
time (closed loop, one client), in an order the seed shuffles per pass.
A run makes a fixed number of passes per workload, scaled from the 30 s
it was sized for to ``--seconds``, so every run pools the same number
of samples; set-up-only processes follow until it has seven set-up
times.

The box this was tuned on is shared, and Python on it runs at speeds
up to 1.7x apart, for seconds to minutes at a time.  So every time is
rescaled to a reference speed: the worker times a fixed pure-Python
loop (the speed probe) right before and after each query and around
set-up, and a time ``t`` whose probes took ``p`` counts as
``t * REF_PROBE_S / p``.  For a query, ``p`` is the median of the probes
from one query length before it to one query length after it, and at
least the two next to it: single probes are noisy, so a long query is
rescaled by the speed over its span.

``wall_s`` is the median over the passes of the summed query times.
The latency metrics pool the queries of all passes, and are
Harrell-Davis quantile estimates, which a sample or two moving across a
gap in the latencies shifts only a little.  The raw times are in the
report.  Every answer is checked against
``reference.json``; a query with no reference answer counts as failed
unless it is a realizable verdict whose witness passes the independent
check.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics; the raw
spans go to ``.perfbench_out/``.  The second-to-last stdout line is a
JSON report (calibration loop, every failing query, tail percentile,
tracing overhead and predictions); the last line is the result object.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
RUN_LIMIT_S = 170  # a run must end within 180 s
SIZED_FOR_S = 30  # the run length workloads.PASSES is sized for
MIN_SETUPS = 7
REF_PROBE_S = 0.004  # the speed probe's time at the reference speed

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metric name -> unit.  Ratios are 0 when the layer made no calls.
LAYER_TIMES = (
    "realize.regular_subgroups",
    "realize.crossed_homomorphisms",
    "realize.realizable_via_cocycles",
    "realize.count_crossed_pairs",
    "realize.transport_characteristic",
    "factory.holomorph",
    "factory.class_index",
    "factory.catalog",
    "factory.build",
    "factory.automorphism_group",
    "groups.are_isomorphic",
    "groups.homomorphisms",
    "groups.subgroups_of_order",
    "groups.PermGroup.table",
    "groups.PermGroup.minimal_generating_set",
    "brace.brace_from_regular",
    "brace.verify_brace",
    "brace.lambda_circ_in_hol",
    "audit.run_audit",
    "store.ResultsStore.record",
    "cli.main",
)
PER_LAYER = {}
for _layer in LAYER_TIMES:
    PER_LAYER[f"{_layer}.s"] = "s"
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update(
    {
        "realize.regular_subgroups.found": "count",
        "perm.compose.calls": "count",
        "factory.holomorph.calls": "count",
        "factory.holomorph.elements": "count",
        "factory.class_index.calls": "count",
        "groups.are_isomorphic.calls": "count",
        "groups.are_isomorphic.matched_ratio": "ratio",
        "brace.verify_brace.calls": "count",
        "groups.homomorphisms.calls": "count",
        "groups.homomorphisms.found": "count",
        "factory.automorphism_group.elements": "count",
        "realize.regular_subgroups.calls": "count",
        "realize.crossed_homomorphisms.calls": "count",
        "realize.crossed_homomorphisms.witnesses": "count",
        "realize.crossed_homomorphisms.hit_ratio": "ratio",
        "audit.cached_realizable.calls": "count",
        "audit.cached_realizable.miss_ratio": "ratio",
        "store.AutCache.load_s": "s",
        "store.AutCache.get.hit_ratio": "ratio",
        "store.AutCache.put.calls": "count",
        "store.AutCache.put.s": "s",
        "store.autcache_bytes": "bytes",
        "cli.import_s": "s",
        "parallel.parallel_map.calls": "count",
        "trace.overhead_s": "s",
    }
)

# What the traced run should show, counting spans of the pass only
# (checked and reported, not a gate): the metric that should be the
# largest of its kind, and the call counts that should be zero.  Entry
# points and the PermGroup helpers (tables and generating sets, built
# under every layer, set-up included) are not rivals for "largest".
DOMINANT = {
    "hol-braces": "realize.regular_subgroups.self_s",
    "cocycle-verdicts": "groups.homomorphisms.s",
    "cocycle-counts": "realize.crossed_homomorphisms.s",
}
ENTRY_POINTS = {"realize.realizable_via_cocycles.s", "realize.count_crossed_pairs.s"}
ZERO_CALLS = {
    "hol-braces": ("realize.crossed_homomorphisms.calls",),
    "cocycle-verdicts": ("factory.holomorph.calls", "realize.regular_subgroups.calls"),
    "cocycle-counts": ("factory.holomorph.calls", "realize.regular_subgroups.calls"),
}


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks the machine, not the program."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


class Runner:
    """Launches worker processes for one workload and keeps their results."""

    def __init__(self, workload, scratch: Path, deadline: float):
        self.workload = workload
        self.scratch = scratch
        self.deadline = deadline
        self.launches = 0
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.env["PYTHONHASHSEED"] = "0"

    def launch(self, queries, trace=False, setup_only=False, spans_file=None, check=True):
        i = self.launches
        self.launches += 1
        job = {
            "workload": self.workload,
            "queries": queries,
            "trace": trace,
            "setup_only": setup_only,
            "check_witnesses": check,
            "scratch": str(self.scratch / f"store-{i}"),
            "spans_file": str(spans_file) if spans_file else None,
        }
        job_path = self.scratch / f"job-{i}.json"
        result_path = self.scratch / f"result-{i}.json"
        job_path.write_text(json.dumps(job))
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
            env=self.env,
            stdout=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            code = proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise RuntimeError(f"worker {i} passed the {RUN_LIMIT_S} s run limit")
        if code != 0:
            raise RuntimeError(f"worker {i} exited with code {code}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["ready"] - start - result["start_probe_s"]
        return result


def check(passes, reference):
    """(failures, wrong): failing query ids with reasons, and the ids whose
    answer contradicts the reference (those make the run incorrect)."""
    answers = reference["answers"]
    witness_ok = {}  # checked in one pass, valid for the same query in all
    for res in passes:
        witness_ok.update(res["witness_ok"])
    failures, wrong = [], []
    for res in passes:
        for q in res["queries"]:
            qid = q["id"]
            known = qid in answers
            reason = None
            if q["error"] is not None:
                reason = q["error"]
            elif witness_ok.get(qid) is False:
                reason = "BadWitness: witness failed the independent check"
            elif known and q["answer"] != answers[qid]:
                reason = f"WrongAnswer: {q['answer']!r} != {answers[qid]!r}"
            elif not known and witness_ok.get(qid) is not True:
                reason = "NoReference: no answer recorded for this query"
            if reason is not None:
                failures.append({"id": qid, "error": reason})
                if known:
                    wrong.append(qid)
    return failures, wrong


def _betainc(a, b, x):
    """The regularized incomplete beta function I_x(a, b), by its
    continued fraction (modified Lentz)."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    front = math.exp(log_front) / a
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    f = d
    for m in range(1, 500):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            f *= c * d
        if abs(c * d - 1.0) < 1e-12:
            break
    return front * f


def quantile(samples, p):
    """The Harrell-Davis estimate of the p-quantile: a weighted mean of all
    order statistics, so one sample crossing a gap moves it a little."""
    xs = sorted(samples)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def tail(samples):
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, and its estimate; the median if there are too few."""
    n = len(samples)
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p, quantile(samples, p / 100)
    return 50, quantile(samples, 0.5)


def at_reference(t, probe_s):
    """A time ``t`` measured while the speed probe took ``probe_s``,
    rescaled to the reference speed."""
    return t * REF_PROBE_S / probe_s


def pass_times(r):
    """[(time at the reference speed, query id)] for one pass.  Probe ``i``
    ran just before query ``i``; the last one after the last query."""
    ends = [t for t, _ in r["probes"]]
    out = []
    for i, q in enumerate(r["queries"]):
        span = q["end"] - q["start"]
        lo = bisect.bisect_left(ends, q["start"] - span)
        hi = bisect.bisect_right(ends, q["end"] + span + REF_PROBE_S)
        window = [d for _, d in r["probes"][min(lo, i) : max(hi, i + 2)]]
        out.append((at_reference(span, statistics.median(window)), q["id"]))
    return out


def end_to_end(passes, setups, failed, attempted):
    times = [pass_times(r) for r in passes]
    timed = sorted((tq for pass_times in times for tq in pass_times), reverse=True)
    latencies = [t for t, _ in timed]
    pct, tail_value = tail(latencies)
    values = {
        "setup_s": statistics.median(at_reference(r["setup_s"], r["setup_probe_s"]) for r in setups),
        "wall_s": statistics.median(sum(t for t, _ in pass_times) for pass_times in times),
        "query_p50_s": quantile(latencies, 0.5),
        "query_tail_s": tail_value,
        "ok_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in passes),
    }
    return values, {"percentile": pct, "samples": len(latencies), "slowest": timed[:12]}


RATIOS = {  # ratio metric -> (numerator, denominator) counters
    "groups.are_isomorphic.matched_ratio": ("groups.are_isomorphic.matched", "groups.are_isomorphic.calls"),
    "realize.crossed_homomorphisms.hit_ratio": (
        "realize.crossed_homomorphisms.hits",
        "realize.crossed_homomorphisms.calls",
    ),
    "audit.cached_realizable.miss_ratio": ("audit.cached_realizable.misses", "audit.cached_realizable.calls"),
    "store.AutCache.get.hit_ratio": ("store.AutCache.get.hits", "store.AutCache.get.calls"),
}


def per_layer(stats):
    values = dict(stats)
    for name, (num, den) in RATIOS.items():
        values[name] = stats.get(num, 0) / stats[den] if stats.get(den) else 0.0
    values["store.AutCache.load_s"] = stats["store.AutCache.load.s"]
    return values


def predictions(workload, values):
    out = {}
    top = DOMINANT.get(workload)
    if top is not None:
        kind = top.rsplit(".", 1)[1]
        rivals = {
            k: v
            for k, v in values.items()
            if k.endswith("." + kind)
            and k in PER_LAYER
            and k not in ENTRY_POINTS
            and not k.startswith("groups.PermGroup.")
        }
        leader = max(rivals, key=rivals.get)
        out[f"dominant {top}"] = {"held": leader == top, "largest": leader}
    for name in ZERO_CALLS.get(workload, ()):
        out[f"zero {name}"] = {"held": values.get(name, 0) == 0, "value": values.get(name, 0)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "hopfgalois" / "__init__.py").is_file():
        print(f"error: no hopfgalois sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())

    began = time.perf_counter()
    calib_start = calibrate()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        runner = Runner(args.workload, scratch, began + RUN_LIMIT_S)
        if args.trace:
            queries = workloads.make_queries(args.workload, args.seed, 0)
            spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            plain = runner.launch(queries)
            traced = runner.launch(queries, trace=True, spans_file=spans_file, check=False)
            passes = [plain, traced]
            values = per_layer(traced["stats"])
            plain_wall = plain["pass_end"] - plain["pass_start"]
            traced_wall = traced["pass_end"] - traced["pass_start"]
            values["trace.overhead_s"] = traced_wall - plain_wall
            report["trace"] = {
                "untraced_wall_s": plain_wall,
                "traced_wall_s": traced_wall,
                "overhead_s": traced_wall - plain_wall,
                "spans_file": str(spans_file.relative_to(ROOT)),
                "top_self_s": sorted(
                    ((k, v) for k, v in values.items() if k.endswith(".self_s")),
                    key=lambda kv: -kv[1],
                )[:5],
                "predictions": predictions(args.workload, per_layer(traced["pass_stats"])),
            }
            for name, verdict in report["trace"]["predictions"].items():
                if not verdict["held"]:
                    print(f"warning: trace prediction failed: {name}: {verdict}", file=sys.stderr)
            metrics = {k: (values.get(k, 0), unit) for k, unit in PER_LAYER.items()}
        else:
            count = max(1, round(workloads.PASSES[args.workload] * args.seconds / SIZED_FOR_S))
            passes = [
                runner.launch(workloads.make_queries(args.workload, args.seed, i), check=i == 0)
                for i in range(count)
            ]
            setups = list(passes)
            while len(setups) < MIN_SETUPS:
                setups.append(runner.launch(workloads.query_set(args.workload), setup_only=True))
        failures, wrong = check(passes, reference)
        attempted = sum(len(r["queries"]) for r in passes)
        if not args.trace:
            values, tail_info = end_to_end(passes, setups, len(failures), attempted)
            metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
            report.update(
                passes=len(passes),
                raw_wall_s_each=[r["pass_end"] - r["pass_start"] for r in passes],
                raw_setup_s_each=[r["setup_s"] for r in setups],
                probe_s_median=statistics.median(d for r in passes for _, d in r["probes"]),
                query_tail=tail_info,
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report.update(
        attempted=attempted,
        failed_ratio=len(failures) / attempted,
        failures=failures,
        wrong=wrong,
        calibration_s={"start": calib_start, "end": calibrate()},
        run_s=time.perf_counter() - began,
    )
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
