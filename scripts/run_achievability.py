#!/usr/bin/env python3
"""Distortion of random tree codes versus the distortion-rate target.

For a uniform source with Hamming distortion, runs the exact encoder over
independent code draws at increasing block lengths and plots the mean
per-symbol distortion approaching D(R) from above.  Companion script;
tests/test_scripts.py runs it once with tiny arguments.
"""

import argparse
import json
import os
import sys

import numpy as np

from cayleycodec import (
    CodingDistribution,
    DistortionMatrix,
    SourceModel,
    simulate_ensemble,
    verify_d0_equals_d,
)


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
    P = SourceModel(np.full(A, 1.0 / A))
    Q = CodingDistribution(np.full(A, 1.0 / A))
    rho = DistortionMatrix.hamming(A)
    target = verify_d0_equals_d(P, rho, args.d).d_of_r
    print(f"D(R) target at R = ln {args.d}: {target:.6f}")

    rows = []
    for n in args.n:
        stats = simulate_ensemble(P, Q, rho, args.d, n, args.trials, args.seed,
                                  fixed_sequence=True)
        rows.append({"n": n, "mean": stats.mean, "std": stats.std,
                     "gap": stats.mean - target})
        print(f"n={n:3d}  mean={stats.mean:.5f}  gap={stats.mean - target:+.5f}")

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "achievability.json"), "w") as fh:
        json.dump({"target": target, "rows": rows}, fh, indent=2)

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available, skipping the figure", file=sys.stderr)
        return 0

    ns = [r["n"] for r in rows]
    means = [r["mean"] for r in rows]
    errs = [r["std"] / max(args.trials, 1) ** 0.5 for r in rows]
    fig, ax = plt.subplots(figsize=(6, 4))
    ax.errorbar(ns, means, yerr=errs, fmt="o-", capsize=3, label="ensemble mean")
    ax.axhline(target, color="k", ls="--", lw=0.8, label="D(R)")
    ax.set_xlabel("block length n")
    ax.set_ylabel("per-symbol distortion")
    ax.legend()
    fig.tight_layout()
    path = os.path.join(args.out, "achievability.png")
    fig.savefig(path, dpi=150)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
