#!/usr/bin/env python3
"""Sweep the free energy across the freezing transition and plot it.

Runs the phase-scan experiment for a Gaussian energy model, then (if
matplotlib is available) renders f(beta) together with its first and second
finite differences so the kink at beta_c is visible.  Companion script;
tests/test_scripts.py runs it once with tiny arguments.
"""

import argparse
import csv
import json
import math
import os
import sys

from cayleycodec.harness import ExperimentConfig, run_experiment


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/phase_diagram")
    ap.add_argument("--d", type=int, default=2)
    ap.add_argument("--std", type=float, default=1.0)
    ap.add_argument("--step", type=float, default=1e-3)
    ap.add_argument("--halfwidth", type=float, default=0.4)
    ap.add_argument("--seed", type=int, default=2024)
    args = ap.parse_args(argv)

    beta_c = math.sqrt(2 * math.log(args.d)) / args.std
    cfg = ExperimentConfig.from_dict({
        "kind": "phase-scan",
        "master_seed": args.seed,
        "models": {"energy": {"kind": "gaussian", "mean": 0.0, "std": args.std}},
        "shape": {"d": args.d},
        "beta_grid": {
            "start": max(args.step, beta_c - args.halfwidth),
            "stop": beta_c + args.halfwidth,
            "step": args.step,
        },
    })
    code = run_experiment(cfg, args.out)
    summary = json.load(open(os.path.join(args.out, "phase_scan_summary.json")))
    print(json.dumps(summary, indent=2))

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available, skipping the figure", file=sys.stderr)
        return code

    with open(os.path.join(args.out, "phase_scan.csv")) as fh:
        rows = list(csv.DictReader(fh))
    betas = [float(r["beta"]) for r in rows]
    cols = ["f", "df", "d2f"]
    fig, axes = plt.subplots(3, 1, figsize=(6, 9), sharex=True)
    for ax, col in zip(axes, cols):
        ax.plot(betas, [float(r[col]) for r in rows], lw=1)
        ax.axvline(beta_c, color="k", ls=":", lw=0.8)
        ax.set_ylabel(col)
    axes[-1].set_xlabel("beta")
    fig.suptitle(f"freezing transition, d={args.d}, beta_c={beta_c:.5f}")
    fig.tight_layout()
    path = os.path.join(args.out, "phase_diagram.png")
    fig.savefig(path, dpi=150)
    print(f"wrote {path}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
