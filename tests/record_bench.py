"""Record one benchmark file, ``BENCH_<k>.json`` at the repository root:

    PYTHONPATH=src:tests python tests/record_bench.py <k>

It runs ``perfbench/run.py`` as it stands, ``--trace 0`` for the run
length ``BENCHMARK.json`` declares, once on each of its workloads, and
keeps each one's six end-to-end metrics, seed, answer counts and
correctness.  It adds a speed probe of the box, the best of nine cold
``python -c pass`` runs, and the Tier-1 suite's wall time with its five
slowest tests.  Then it prints the change of every figure from the
newest earlier BENCH file, the one with the largest k below this one.
One run per workload is a snapshot, not a claim: a gain is shown by
alternating pairs of parent and change runs.  The file name keeps
pytest from collecting it.
"""

import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--durations=5"]


def bench_path(k):
    return ROOT / f"BENCH_{k}.json"


def earlier_bench(k):
    """The newest BENCH file below k, or None."""
    names = (re.fullmatch(r"BENCH_(\d+)\.json", p.name) for p in ROOT.glob("BENCH_*.json"))
    below = [int(m[1]) for m in names if m and int(m[1]) < k]
    return bench_path(max(below)) if below else None


def run_workload(name, seconds):
    argv = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(SEED),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    return {
        "seed": SEED,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def python_pass_s():
    best = float("inf")
    for _ in range(9):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        best = min(best, time.perf_counter() - started)
    return best


def tier1():
    """Tier-1's wall time, its counts and its five slowest tests."""
    started = time.perf_counter()
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run([sys.executable, *TIER1], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - started
    summary = proc.stdout.splitlines()[-1]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary.split(" in ")[0])}
    durations = re.findall(r"^([\d.]+)s (\w+) +(.+)$", proc.stdout, re.M)
    slowest = [[float(s), phase, test] for s, phase, test in durations]
    return {"wall_s": wall, "counts": counts, "slowest": slowest}


def bench_changes(old, new):
    """Lines saying how each figure of BENCH record ``new`` moved from
    ``old``: the speed probe, Tier-1's wall time and every end-to-end
    metric of each workload both records hold, as old -> new (ratio)."""
    def line(name, a, b):
        ratio = f"{b / a:.3f}" if a else "n/a"
        return f"{name}: {a:.4g} -> {b:.4g} ({ratio})"

    lines = [line("python -c pass s", old["python_pass_s"], new["python_pass_s"]),
             line("tier-1 wall s", old["tier1"]["wall_s"], new["tier1"]["wall_s"])]
    for workload, run in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            lines.append(f"{workload}: new")
            continue
        for metric, value in run["metrics"].items():
            if metric in before["metrics"]:
                lines.append(line(f"{workload} {metric}", before["metrics"][metric], value))
    return lines


def main(argv):
    if len(argv) != 1 or not argv[0].isdigit():
        sys.exit("usage: record_bench.py <k>")
    k = int(argv[0])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "seconds": seconds,
        "python_pass_s": python_pass_s(),
        "workloads": {w["name"]: run_workload(w["name"], seconds) for w in declared["workloads"]},
        "tier1": tier1(),
    }
    path = bench_path(k)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    previous = earlier_bench(k)
    if previous is None:
        print("no earlier BENCH file")
        return 0
    print(f"against {previous.name}:")
    for line in bench_changes(json.loads(previous.read_text()), record):
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
