#!/usr/bin/env python3
"""Benchmark the working tree against a base revision, in alternating pairs.

    python3 scripts/bench.py --base HEAD --label mychange

Extracts `--base` with `git archive` into a temporary directory and runs the
repository's benchmark, `perfbench/run.py`, unchanged, in each tree: ten
pairs of seed-0 runs of every BENCHMARK.json workload at its `run_seconds`,
one run of each side a pair, the base first in odd pairs and second in even
ones, so a slow spell of a shared host hits both sides alike.  `run.py` imports the
package from its own tree's `src/`, so each side runs its own code.  For each
workload and each end-to-end metric that BENCHMARK.json lists, it writes
every value, the two medians, the base's interquartile range, how much worse
the change's median is as a fraction of the base's (`worse_by`, to set beside
the metric's `bound`) and the pairs the working tree won to BENCH_<label>.json
at the repository root.  It also
records one tier-1 run of each side (wall time and pytest's outcome counts)
and one seed-0 `--trace 1` run of each workload on the working tree, for the
per-layer metrics and the probe rows.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOST_FIELDS = ("nproc", "cpu_model", "python", "numpy", "scipy")
PAIRS, SEED = 10, 0
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]  # run with src/ on PYTHONPATH


def run_once(tree: Path, workload: str, seconds: float, trace: int = 0) -> dict:
    """One perfbench run in tree: its run record, with the result line as "result"."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
           "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True).stdout.splitlines()
    return json.loads(lines[-2])["run_record"] | {"result": json.loads(lines[-1])}


def tier1_counts(output: str) -> dict:
    """The outcome counts in pytest's closing summary line, e.g. {"passed": 465, "failed": 2}."""
    last = (output.strip().splitlines() or [""])[-1]
    found = re.findall(r"(\d+) (passed|failed|errors?|skipped|xfailed|xpassed)\b", last)
    return {("error" if word.startswith("error") else word): int(n) for n, word in found}


def tier1(tree: Path) -> dict:
    """One tier-1 run in tree: its wall time and outcome counts."""
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    return {"wall_s": round(time.perf_counter() - t0, 2), **tier1_counts(done.stdout)}


def summarize(runs: dict, metrics: list) -> dict:
    """runs[workload] = {"base": [record, ...], "change": [record, ...]}, pair k at place k of each list;
    metrics are BENCHMARK.json's end_to_end entries.  Returns the summary of each workload."""
    out = {}
    for workload, sides in runs.items():
        results = {side: [r["result"] for r in recs] for side, recs in sides.items()}
        summary = {"correct": {side: all(r["correct"] for r in rs) for side, rs in results.items()},
                   "failed_ops": {side: [r["failed"] for r in rs] for side, rs in results.items()},
                   "metrics": {}}
        for m in metrics:
            base, change = ([r["metrics"][m["name"]]["value"] for r in results[s]] for s in ("base", "change"))
            q1, _, q3 = statistics.quantiles(base, n=4, method="inclusive")
            sign = 1 if m["better"] == "lower" else -1
            base_median, change_median = statistics.median(base), statistics.median(change)
            summary["metrics"][m["name"]] = {
                "unit": m["unit"], "better": m["better"], "base": base, "change": change,
                "base_median": base_median, "change_median": change_median,
                "base_iqr": q3 - q1, "worse_by": sign * (change_median - base_median) / base_median,
                "pairs_won": sum(sign * (c - b) < 0 for b, c in zip(base, change)), "pairs": len(base),
            }
        out[workload] = summary
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    args = ap.parse_args(argv)
    seconds, workloads = bench["run_seconds"], [w["name"] for w in bench["workloads"]]

    git = lambda *a: subprocess.run(["git", *a], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    base_rev, head = git("rev-parse", "--verify", args.base + "^{commit}"), git("rev-parse", "HEAD")
    runs = {w: {"base": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_tree:
        archive = subprocess.run(["git", "archive", base_rev], cwd=ROOT, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive, check=True)
        for k in range(1, PAIRS + 1):
            for w in workloads:
                order = [("base", Path(base_tree)), ("change", ROOT)]
                for side, tree in order if k % 2 else order[::-1]:
                    runs[w][side].append(run_once(tree, w, seconds))
                    print(f"pair {k}/{PAIRS} {w} {side}: {runs[w][side][-1]['result']['metrics']}", flush=True)
        suites = {side: tier1(tree) for side, tree in (("base", Path(base_tree)), ("change", ROOT))}
        print(f"tier-1: {suites}", flush=True)
    traced = {w: run_once(ROOT, w, seconds, trace=1) for w in workloads}
    record = runs[workloads[0]]["change"][0]
    report = {
        "label": args.label,
        "base": base_rev,
        "change": f"working tree on {head}" + (" (uncommitted changes)" if git("status", "--porcelain") else ""),
        "pairs": PAIRS, "seconds": seconds, "workload_seed": SEED,
        "host": {f: record[f] for f in HOST_FIELDS},
        "workloads": summarize(runs, bench["end_to_end"]),
        "tier1": suites,
        "trace": {w: {"correct": r["result"]["correct"], "metrics": r["metrics"],
                      "trace_unwrapped": r["trace_unwrapped"]} for w, r in traced.items()},
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
