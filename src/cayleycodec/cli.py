"""Command-line entry point.

The first argument names the experiment kind; every run is driven by a JSON
config plus a few overriding flags.  Exit codes: 0 on pass/completion and
after --help, 2 when a theorem check is NOT-APPLICABLE, 1 on any error,
usage errors included.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import EXIT_ERROR, EXIT_OK, EXPERIMENT_KINDS, ExperimentConfig, run_experiment


_PARSER = argparse.ArgumentParser(
    prog="cayleycodec",
    description="Tree free-energy numerics and random tree-code experiments",
)
_PARSER.add_argument("kind", choices=EXPERIMENT_KINDS, help="experiment kind; must match the config's")
_PARSER.add_argument("--config", required=True, help="JSON experiment config")
_PARSER.add_argument("--seed", type=int, default=None, help="override master seed")
_PARSER.add_argument("--out", default=None, help="output directory")


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, which is EXIT_NOT_APPLICABLE's code
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
        if args.seed is not None:
            # overridden before validation, so --seed meets the config seed's checks
            raw["master_seed"] = args.seed
        cfg = ExperimentConfig.from_dict(raw)
        if cfg.kind != args.kind:
            raise ValueError(f"config kind {cfg.kind!r} does not match the kind argument {args.kind!r}")
        return run_experiment(cfg, args.out)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
