"""Command-line entry point.

Subcommands mirror the experiment kinds; every run is driven by a JSON
config plus a few overriding flags.  Exit codes: 0 on pass/completion,
2 when a theorem check is NOT-APPLICABLE, 1 on error.
"""

from __future__ import annotations

import argparse
import sys

from .harness import (
    EXIT_ERROR,
    EXPERIMENT_KINDS,
    ExperimentConfig,
    run_experiment,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleycodec",
        description="Tree free-energy numerics and random tree-code experiments",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.from_file(args.config)
        if cfg.kind != args.kind:
            print(f"config kind {cfg.kind!r} does not match subcommand {args.kind!r}",
                  file=sys.stderr)
            return EXIT_ERROR
        if args.seed is not None:
            cfg.master_seed = args.seed
        return run_experiment(cfg, args.out)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
