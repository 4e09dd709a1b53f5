#!/usr/bin/env python3
"""Distortion of random tree codes versus the distortion-rate target.

For a uniform source with Hamming distortion, runs the verify-theorem
experiment, whose exact encoder runs over independent code draws at
increasing block lengths, and plots the mean per-symbol distortion
approaching D(R) from above.  Companion script; tests/test_scripts.py runs it
once with tiny arguments.
"""

import argparse
import csv
import json
import os
import sys

from cayleycodec.harness import ExperimentConfig, run_experiment


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/achievability")
    ap.add_argument("--alphabet", type=int, default=4)
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--n", type=int, nargs="+", default=[6, 8, 10, 12, 14, 16, 18])
    ap.add_argument("--trials", type=int, default=30)
    ap.add_argument("--seed", type=int, default=314159)
    args = ap.parse_args(argv)

    A = args.alphabet
    cfg = ExperimentConfig.from_dict({
        "kind": "verify-theorem",
        "master_seed": args.seed,
        "models": {"source": {"probs": [1.0 / A] * A}, "distortion": {"hamming": A}},
        "shape": {"d": args.d, "n_list": args.n},
        "trials": args.trials,
        "fixed_sequence": True,
    })
    code = run_experiment(cfg, args.out)
    summary = json.load(open(os.path.join(args.out, "verify_theorem_summary.json")))
    print(json.dumps(summary, indent=2))

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available, skipping the figure", file=sys.stderr)
        return code

    with open(os.path.join(args.out, "verify_theorem.csv")) as fh:
        rows = list(csv.DictReader(fh))
    ns = [int(r["n"]) for r in rows]
    means = [float(r["mean_distortion"]) for r in rows]
    errs = [float(r["std"]) / args.trials ** 0.5 for r in rows]
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.errorbar(ns, means, yerr=errs, fmt="o-", capsize=3, label="ensemble mean")
    ax.axhline(summary["d_of_r"], color="k", ls="--", lw=0.8, label="D(R)")
    ax.set_xlabel("block length n")
    ax.set_ylabel("per-symbol distortion")
    ax.legend()
    fig.tight_layout()
    path = os.path.join(args.out, "achievability.png")
    fig.savefig(path, dpi=150)
    print(f"wrote {path}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
