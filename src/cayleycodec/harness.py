"""Experiment orchestration: validated configs, reproducible campaigns,
CSV/JSON outputs.

All randomness flows from the config's single master seed through named
substreams, so identical config + seed reproduces byte-identical outputs.
Each run writes a CSV table (where tabular) plus a JSON summary echoing the
config, seeds and verdicts.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import rd, theory, treecode
from .dprm import TreeShape, monte_carlo_free_energy
from .model import (
    CodingDistribution,
    DistortionMatrix,
    EnergyDistribution,
    SourceModel,
)
from .rng import SOURCE_STREAM, uniforms

EXPERIMENT_KINDS = (
    "dprm-converge",
    "phase-scan",
    "encode",
    "decode",
    "rd-curve",
    "verify-theorem",
    "ensemble",
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_APPLICABLE = 2


class ConfigError(ValueError):
    pass


def _energy_dist_from(spec: dict) -> EnergyDistribution:
    kind = spec.get("kind")
    if kind == "gaussian":
        return EnergyDistribution.gaussian(float(spec["mean"]), float(spec["std"]))
    if kind == "discrete":
        return EnergyDistribution.discrete(spec["values"], spec["probs"])
    raise ConfigError(f"energy distribution kind must be gaussian|discrete, got {kind!r}")


def _distortion_from(spec: dict) -> DistortionMatrix:
    if "hamming" in spec:
        return DistortionMatrix.hamming(int(spec["hamming"]))
    return DistortionMatrix(np.asarray(spec["rows"], dtype=np.float64))


@dataclass
class ExperimentConfig:
    """Fully validated experiment description; see README for the JSON schema."""

    kind: str
    master_seed: int
    source: SourceModel | None = None
    coding: CodingDistribution | None = None
    distortion: DistortionMatrix | None = None
    energy: EnergyDistribution | None = None
    d: int | None = None
    n: int | None = None
    n_list: list[int] = field(default_factory=list)
    betas: list[float] = field(default_factory=list)
    trials: int = 1
    beam_width: int | None = None
    fixed_sequence: bool = False
    x: list[int] | None = None
    bitstream: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        kind = raw.get("kind")
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"experiment kind must be one of {EXPERIMENT_KINDS}, got {kind!r}")
        if "master_seed" not in raw:
            raise ConfigError("master_seed is mandatory (no wall-clock seeding)")
        try:
            return cls._parse(kind, raw)
        except (TypeError, KeyError, AttributeError, OverflowError) as exc:
            raise ConfigError(f"malformed config: {type(exc).__name__}: {exc}") from exc

    @classmethod
    def _parse(cls, kind: str, raw: dict) -> "ExperimentConfig":
        seed = int(raw["master_seed"])
        if not (0 <= seed < 1 << 64):
            raise ConfigError("master_seed must be an unsigned 64-bit integer")

        models = raw.get("models", {})
        cfg = cls(kind=kind, master_seed=seed)
        if "source" in models:
            cfg.source = SourceModel(np.asarray(models["source"]["probs"], dtype=np.float64))
        if "coding" in models:
            cfg.coding = CodingDistribution(np.asarray(models["coding"]["probs"], dtype=np.float64))
        if "distortion" in models:
            cfg.distortion = _distortion_from(models["distortion"])
        if "energy" in models:
            cfg.energy = _energy_dist_from(models["energy"])

        shape = raw.get("shape", {})
        if "d" in shape:
            cfg.d = int(shape["d"])
        if "n" in shape:
            cfg.n = int(shape["n"])
        if "n_list" in shape:
            cfg.n_list = [int(v) for v in shape["n_list"]]

        if "beta" in raw:
            cfg.betas = [float(raw["beta"])]
        elif "beta_grid" in raw:
            g = raw["beta_grid"]
            if isinstance(g, list):
                cfg.betas = [float(v) for v in g]
            else:
                start, stop, step = float(g["start"]), float(g["stop"]), float(g["step"])
                if not (step > 0 and stop > start and math.isfinite(stop - start)):
                    raise ConfigError("beta_grid needs finite bounds, step > 0 and stop > start")
                count = int(round((stop - start) / step)) + 1
                cfg.betas = [start + k * step for k in range(count)]
        if not all(math.isfinite(b) for b in cfg.betas):
            raise ConfigError("beta values must be finite")
        if any(b <= 0 for b in cfg.betas) and kind != "rd-curve":
            raise ConfigError("beta values must be > 0")

        cfg.trials = int(raw.get("trials", 1))
        if cfg.trials < 1:
            raise ConfigError("trials must be >= 1")
        if "beam_width" in raw:
            cfg.beam_width = int(raw["beam_width"])
            if cfg.beam_width < 1:
                raise ConfigError("beam_width must be >= 1")
        cfg.fixed_sequence = bool(raw.get("fixed_sequence", False))
        if "x" in raw:
            cfg.x = [int(v) for v in raw["x"]]
        if "bitstream" in raw:
            cfg.bitstream = str(raw["bitstream"])
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def require(self, *names):
        for name in names:
            if getattr(self, name) in (None, [],):
                raise ConfigError(f"{self.kind}: config field {name!r} is required")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])


def _write_summary(out_dir, name, payload) -> None:
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _ensure_out(out_dir: str | None) -> str:
    out = out_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


def run_dprm_converge(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    """Monte-Carlo free energy vs the closed-form limit, over an n sweep."""
    cfg.require("energy", "d", "betas")
    ns = cfg.n_list or [cfg.n]
    if not ns or ns[0] is None:
        raise ConfigError("dprm-converge: need shape.n or shape.n_list")
    out = _ensure_out(out_dir)
    limit = theory.FreeEnergyLimit.for_distribution(cfg.energy, cfg.d)
    rows = []
    for n in ns:
        for beta in cfg.betas:
            stats = monte_carlo_free_energy(
                TreeShape(d=cfg.d, n=n), cfg.energy, beta, cfg.trials, cfg.master_seed
            )
            flim = limit.f(beta)
            rows.append((n, beta, stats.mean, stats.std, flim, stats.mean - flim))
    _write_csv(
        os.path.join(out, "dprm_converge.csv"),
        ["n", "beta", "mean_f_n", "std", "f_limit", "gap"],
        rows,
    )
    _write_summary(out, "dprm_converge_summary.json", {
        "kind": cfg.kind,
        "master_seed": cfg.master_seed,
        "d": cfg.d,
        "n_list": ns,
        "betas": cfg.betas,
        "trials": cfg.trials,
    })
    return EXIT_OK


def run_phase_scan(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    """f(beta) on a grid with finite-difference derivatives; locates the
    second-derivative discontinuity when a frozen phase exists."""
    cfg.require("energy", "d", "betas")
    if len(cfg.betas) < 3:
        raise ConfigError("phase-scan: beta grid too small")
    out = _ensure_out(out_dir)
    limit = theory.FreeEnergyLimit.for_distribution(cfg.energy, cfg.d)
    betas = np.asarray(cfg.betas)
    transition = limit.frozen_phase_exists and betas[0] < limit.beta_c < betas[-1]
    if limit.frozen_phase_exists and transition:
        n_lo = int((betas < limit.beta_c).sum())
        n_hi = int((betas > limit.beta_c).sum())
        if n_lo < 5 or n_hi < 5:
            raise ConfigError(
                f"phase-scan: need >= 5 grid points per side of beta_c={limit.beta_c:.6g}, "
                f"got {n_lo} below and {n_hi} above"
            )
    f = np.array([limit.f(b) for b in betas])
    d1 = np.gradient(f, betas)
    d2 = np.gradient(d1, betas)
    rows = [(float(b), float(fv), float(g1), float(g2)) for b, fv, g1, g2 in zip(betas, f, d1, d2)]
    _write_csv(os.path.join(out, "phase_scan.csv"), ["beta", "f", "df", "d2f"], rows)
    kink = float(betas[int(np.argmax(np.abs(np.diff(d2))))]) if transition else None
    _write_summary(out, "phase_scan_summary.json", {
        "kind": cfg.kind,
        "d": cfg.d,
        "beta_c": limit.beta_c if limit.frozen_phase_exists else "INFINITE",
        "phi_at_beta_c": limit.phi_at_beta_c,
        "transition": "DETECTED" if transition else "NO-TRANSITION",
        "kink_location": kink,
    })
    return EXIT_OK


def _source_tuple(cfg: ExperimentConfig, n: int) -> np.ndarray:
    if cfg.x is not None:
        x = np.asarray(cfg.x, dtype=np.int64)
        if x.size != n:
            raise ConfigError(f"x has length {x.size}, shape says n={n}")
        return x
    cfg.require("source")
    u = uniforms(cfg.master_seed, SOURCE_STREAM, 0, np.arange(n, dtype=np.uint64))
    return cfg.source.sample(u)


def run_encode(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    """Encode one source n-tuple and write the packed bitstream file."""
    cfg.require("coding", "distortion", "d", "n")
    out = _ensure_out(out_dir)
    shape = TreeShape(d=cfg.d, n=cfg.n)
    code = treecode.TreeCode(cfg.master_seed, cfg.coding, shape)
    x = _source_tuple(cfg, cfg.n)
    if cfg.beam_width is not None:
        result = treecode.encode_beam(code, x, cfg.distortion, cfg.beam_width)
    else:
        result = treecode.encode_exact(code, x, cfg.distortion)
    stream = treecode.pack(result.walk, cfg.d)
    stream_path = os.path.join(out, cfg.bitstream or "encoded.bin")
    treecode.write_bitstream(stream_path, code, stream)
    _write_summary(out, "encode_summary.json", {
        "kind": cfg.kind,
        "master_seed": cfg.master_seed,
        "d": cfg.d,
        "n": cfg.n,
        "encoder": "beam" if cfg.beam_width is not None else "exact",
        "beam_width": cfg.beam_width,
        "x": [int(v) for v in x],
        "walk": [int(v) for v in result.walk],
        "total_distortion": result.total_distortion,
        "per_symbol_mean": result.per_symbol_mean,
        "bits": stream.num_bits,
        "bitstream": stream_path,
    })
    return EXIT_OK


def run_decode(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    """Sequentially decode a bitstream file back into reproduction symbols."""
    cfg.require("coding", "bitstream")
    out = _ensure_out(out_dir)
    d, n, seed, stream = treecode.read_bitstream(cfg.bitstream)
    code = treecode.TreeCode(seed, cfg.coding, TreeShape(d=d, n=n))
    symbols = treecode.decode_sequential(code, stream)
    _write_csv(os.path.join(out, "decoded.csv"), ["t", "symbol"],
               [(t + 1, int(s)) for t, s in enumerate(symbols)])
    _write_summary(out, "decode_summary.json", {
        "kind": cfg.kind,
        "d": d,
        "n": n,
        "code_seed": seed,
        "symbols": [int(s) for s in symbols],
    })
    return EXIT_OK


def run_rd_curve(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    cfg.require("source", "distortion", "betas")
    out = _ensure_out(out_dir)
    points = [rd.blahut_arimoto(cfg.source, cfg.distortion, b) for b in cfg.betas]
    rd.export_curve(points, os.path.join(out, "rd_curve.csv"))
    _write_summary(out, "rd_curve_summary.json", {
        "kind": cfg.kind,
        "betas": cfg.betas,
        "points": len(points),
        "all_converged": all(p.converged for p in points),
    })
    return EXIT_OK


def run_ensemble(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    cfg.require("source", "coding", "distortion", "d", "n")
    out = _ensure_out(out_dir)
    stats = treecode.simulate_ensemble(
        cfg.source, cfg.coding, cfg.distortion,
        cfg.d, cfg.n, cfg.trials, cfg.master_seed,
        fixed_sequence=cfg.fixed_sequence,
    )
    _write_csv(os.path.join(out, "ensemble.csv"), ["trial", "mean_distortion"],
               [(t, float(v)) for t, v in enumerate(stats.per_trial_mean_distortion)])
    _write_summary(out, "ensemble_summary.json", {
        "kind": cfg.kind,
        "master_seed": cfg.master_seed,
        "d": cfg.d,
        "n": cfg.n,
        "trials": cfg.trials,
        "fixed_sequence": cfg.fixed_sequence,
        "mean": stats.mean,
        "std": stats.std,
        "d0": stats.d0,
        "d0_degenerate": stats.d0_degenerate,
        "gap": stats.gap,
    })
    return EXIT_OK


def run_verify_theorem(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    """Full pipeline: Q* via Blahut-Arimoto, symmetry gate, D0 vs D(R), and
    an ensemble gap trajectory over increasing n."""
    cfg.require("source", "distortion", "d")
    out = _ensure_out(out_dir)
    report = rd.verify_d0_equals_d(cfg.source, cfg.distortion, cfg.d)
    verdict = "PASS" if report.passed else "FAIL"
    rows = []
    if report.applicable:
        for n in (cfg.n_list or ([cfg.n] if cfg.n else [])):
            stats = treecode.simulate_ensemble(
                cfg.source, report.q_star, cfg.distortion,
                cfg.d, n, cfg.trials, cfg.master_seed,
                fixed_sequence=cfg.fixed_sequence,
            )
            rows.append((n, stats.mean, stats.std, report.d_of_r, stats.mean - report.d_of_r))
    else:
        verdict = "NOT-APPLICABLE"
    if rows:
        _write_csv(os.path.join(out, "verify_theorem.csv"),
                   ["n", "mean_distortion", "std", "d_of_r", "gap"], rows)
    _write_summary(out, "verify_theorem_summary.json", {
        "kind": cfg.kind,
        "master_seed": cfg.master_seed,
        "d": cfg.d,
        "trials": cfg.trials,
        "fixed_sequence": cfg.fixed_sequence,
        "verdict": verdict,
        "applicable": report.applicable,
        "degenerate": report.degenerate,
        "d0": None if math.isnan(report.d0) else report.d0,
        "d_of_r": report.d_of_r,
        "gap": None if (isinstance(report.gap, float) and math.isnan(report.gap)) else report.gap,
        "beta_star": report.beta_star,
        "q_star": [float(v) for v in report.q_star.probs],
        "detail": report.detail,
    })
    if not report.applicable:
        return EXIT_NOT_APPLICABLE
    return EXIT_OK


RUNNERS = {
    "dprm-converge": run_dprm_converge,
    "phase-scan": run_phase_scan,
    "encode": run_encode,
    "decode": run_decode,
    "rd-curve": run_rd_curve,
    "verify-theorem": run_verify_theorem,
    "ensemble": run_ensemble,
}


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    return RUNNERS[cfg.kind](cfg, out_dir)
