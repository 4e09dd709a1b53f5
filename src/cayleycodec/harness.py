"""Experiment orchestration in three steps: parse, run, write.

`ExperimentConfig.from_dict` validates a config, which may hold only the
fields its kind reads; each `run_<kind>(cfg)` computes and returns its `Outputs`
without touching the file system; `run_experiment` alone writes them, so a
failed run writes nothing.  All randomness flows from the master seed through
named substreams, so identical config + seed reproduces byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import rd, theory, treecode
from .dprm import TreeShape, monte_carlo_free_energy
from .model import (
    DistortionMatrix,
    EnergyDistribution,
    Pmf,
    symmetric_energy_law,
)
from .rng import SOURCE_STREAM, uniforms

# largest {start, stop, step} beta_grid, checked before it is expanded
MAX_GRID_POINTS = 100_000
# Largest |value| of an energy or distortion field: up to theory.BETA_MAX, (beta * value)^2 stays finite, as
# the Gaussian's phi and beta_c search need; a path sums n < 2^64 of them and stays finite, at any n
MAX_REAL = math.sqrt(sys.float_info.max) / theory.BETA_MAX

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_APPLICABLE = 2

_MODELS, _SHAPE = {"source", "coding", "distortion", "energy"}, {"d", "n", "n_list"}


class ConfigError(ValueError):
    pass


def _only(block: dict, allowed, where: str) -> dict:
    """block, refused if it holds a key outside allowed."""
    unknown = block.keys() - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown key {min(unknown)!r}; it takes {sorted(allowed)}")
    return block


def _int(value, what: str, lo: int = 0) -> int:
    """value as an int in [lo, 2^64); bools, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not lo <= int(value) < 1 << 64:
        raise ConfigError(f"{what} must be an integer in [{lo}, 2^64), got {value!r}")
    return int(value)


def _real(value, what: str, ndim: int = 0, limit: float = math.inf):
    """Finite numbers of magnitude at most limit as a float, or a float64 array of lists nested ndim deep;
    bools and strings are refused."""
    if ndim and isinstance(value, list):
        return np.array([_real(v, what, ndim - 1, limit) for v in value], dtype=np.float64)
    if ndim or isinstance(value, bool) or not isinstance(value, (int, float, np.number)) or not math.isfinite(value):
        raise ConfigError(f"{what}: expected {'a list of ' * ndim}finite numbers, got {value!r}")
    if abs(value) > limit:
        raise ConfigError(f"{what}: {value!r} is larger in magnitude than {limit:.6g}, past which the run overflows")
    return float(value)


@dataclass
class ExperimentConfig:
    """Fully validated experiment description; see README for the JSON schema."""

    kind: str
    master_seed: int
    source: Pmf | None = None
    coding: Pmf | None = None
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
        _, required, optional = _KINDS[kind]
        fields = set(required + optional)
        models = _only(raw.get("models", {}), fields & _MODELS, f"{kind} models")
        shape = _only(raw.get("shape", {}), fields & _SHAPE, f"{kind} shape")
        top = {"kind", "master_seed", "models", *fields - _MODELS - _SHAPE - {"betas"}}
        top |= ({"shape"} if fields & _SHAPE else set()) | ({"beta_grid"} if "betas" in fields else set())
        _only(raw, top, f"{kind} config")
        rho = _only(models.get("distortion", {}), ("hamming", "rows"), "models.distortion")
        for a, b in (("x", "source"), ("hamming", "rows")):
            if {a, b} <= {*raw, *models, *rho}:  # else one half would silently win
                raise ConfigError(f"give {a} or {b}, not both")
        cfg = cls(kind=kind, master_seed=_int(raw["master_seed"], "master_seed"))
        for name in ("source", "coding"):
            if name in models:
                probs = _only(models[name], ("probs",), f"models.{name}")["probs"]
                setattr(cfg, name, Pmf(_real(probs, f"{name}.probs", 1)))
        if "hamming" in rho:
            k = _int(rho["hamming"], "hamming")
            dims = (k, k)  # checked against a pmf before the k x k matrix is built
        elif "distortion" in models:
            cfg.distortion = DistortionMatrix(_real(rho["rows"], "distortion.rows", 2, MAX_REAL))
            dims = cfg.distortion.values.shape
        for size, axis, name in zip(dims if rho else (), ("rows", "columns"), ("source", "coding")):
            pmf = getattr(cfg, name)
            if pmf is not None and pmf.alphabet_size != size:
                raise ConfigError(f"distortion has {size} {axis} but {pmf.alphabet_size} {name} letters")
        if "hamming" in rho and (cfg.source or cfg.coding):  # else the required rule names the missing pmf
            cfg.distortion = DistortionMatrix.hamming(k)
        if "energy" in models:
            spec = models["energy"]
            law = spec.get("kind")
            if law not in ("gaussian", "discrete"):
                raise ConfigError(f"energy distribution kind must be gaussian|discrete, got {law!r}")
            keys, ndim = (("mean", "std"), 0) if law == "gaussian" else (("values", "probs"), 1)
            _only(spec, ("kind", *keys), f"models.energy ({law})")
            reals = (_real(spec[k], f"energy.{k}", ndim, MAX_REAL) for k in keys)
            cfg.energy = getattr(EnergyDistribution, law)(*reals)

        for name, lo in (("d", 2), ("n", 1)):
            if name in shape:
                setattr(cfg, name, _int(shape[name], f"shape.{name}", lo))
        cfg.n_list = [_int(v, "shape.n_list", 1) for v in shape.get("n_list", [])]

        if "beta_grid" in raw:
            g = raw["beta_grid"]
            # beta times a path energy overflows past BETA_MAX; rd-curve's beta scales only rho - min rho in exp(-.)
            beta_max = math.inf if kind == "rd-curve" else theory.BETA_MAX
            if isinstance(g, list):
                cfg.betas = _real(g, "beta_grid", 1, beta_max).tolist()
            else:
                _only(g, ("start", "stop", "step"), "beta_grid")
                start, stop, step = (_real(g[k], f"beta_grid.{k}") for k in ("start", "stop", "step"))
                if not (step > 0 and stop > start and math.isfinite(stop - start)):
                    raise ConfigError("beta_grid needs finite bounds, step > 0 and stop > start")
                count = int(round((stop - start) / step)) + 1
                if count > MAX_GRID_POINTS:
                    raise ConfigError(f"beta_grid has {count} points, more than {MAX_GRID_POINTS}")
                _real(start + (count - 1) * step, "beta_grid's last point", limit=beta_max)  # finite bounds can overflow
                cfg.betas = [start + k * step for k in range(count)]
        if any(b < 0 or (b == 0 and kind != "rd-curve") for b in cfg.betas):
            raise ConfigError("beta values must be > 0; rd-curve also takes 0, the rate-zero end of its curve")

        cfg.trials = _int(raw.get("trials", 1), "trials", 1)
        if "beam_width" in raw:
            cfg.beam_width = _int(raw["beam_width"], "beam_width", 1)
        cfg.fixed_sequence = raw.get("fixed_sequence", False)
        if not isinstance(cfg.fixed_sequence, bool):
            raise ConfigError(f"fixed_sequence must be true or false, got {cfg.fixed_sequence!r}")
        if "x" in raw:
            cfg.x = [_int(v, "x") for v in raw["x"]]
        if "bitstream" in raw and not (isinstance(raw["bitstream"], str) and raw["bitstream"]):
            raise ConfigError(f"bitstream must be a nonempty string, got {raw['bitstream']!r}")
        cfg.bitstream = raw.get("bitstream")

        for name in required + (("source",) if kind == "encode" and cfg.x is None else ()):
            if getattr(cfg, name) in (None, []):
                raise ConfigError(f"{kind}: config field {name!r} is required")
        # a full-tree sweep to level n peaks near 36 d^n bytes; n > 64 (d^n > 2^64) is refused before d^n is computed
        n = max(cfg.n_list, default=0)
        if kind == "dprm-converge" and (n > 64 or 36 * cfg.d**n > treecode.MEMORY_BUDGET):
            raise ConfigError(f"shape.n_list: a sweep to n = {n} at d = {cfg.d} needs about 36 d^n bytes, "
                              f"more than half of physical memory ({treecode.MEMORY_BUDGET} bytes)")
        # finite differences and the bracketing of beta_c both read the grid in order
        if kind == "phase-scan" and len(cfg.betas) < 3:
            raise ConfigError("phase-scan: beta grid too small")
        if kind == "phase-scan" and any(a >= b for a, b in zip(cfg.betas, cfg.betas[1:])):
            raise ConfigError("phase-scan: beta grid must be strictly increasing")
        return cfg


@dataclass(frozen=True)
class Outputs:
    """What a run produced, for run_experiment to write: the summary payload,
    CSV tables as {file name: (header, rows)}, encode's (path, code, stream)
    and the exit code."""

    summary: dict
    tables: dict = field(default_factory=dict)
    bitstream: tuple | None = None
    exit_code: int = EXIT_OK


def run_dprm_converge(cfg: ExperimentConfig) -> Outputs:
    """Monte-Carlo free energy vs the closed-form limit, over an n sweep."""
    limit = theory.FreeEnergyLimit.for_distribution(cfg.energy, cfg.d)
    stats = monte_carlo_free_energy(cfg.d, cfg.n_list, cfg.energy, cfg.betas, cfg.trials, cfg.master_seed)
    rows = []
    for r, n in enumerate(cfg.n_list):
        for c, beta in enumerate(cfg.betas):
            cell = stats.cell(r, c)
            flim = limit.f(beta)
            rows.append((n, beta, cell.mean, cell.std, flim, cell.mean - flim))
    return Outputs({
        "master_seed": cfg.master_seed,
        "d": cfg.d,
        "n_list": cfg.n_list,
        "betas": cfg.betas,
        "trials": cfg.trials,
    }, {"dprm_converge.csv": (["n", "beta", "mean_f_n", "std", "f_limit", "gap"], rows)})


def run_phase_scan(cfg: ExperimentConfig) -> Outputs:
    """f(beta) on a grid with finite-difference derivatives; locates the
    second-derivative discontinuity when a frozen phase exists."""
    betas = np.asarray(cfg.betas)
    limit = theory.FreeEnergyLimit.for_distribution(cfg.energy, cfg.d)
    transition = limit.frozen_phase_exists and betas[0] < limit.beta_c < betas[-1]
    if transition:
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
    kink = float(betas[int(np.argmax(np.abs(np.diff(d2))))]) if transition else None
    return Outputs({
        "d": cfg.d,
        "beta_c": limit.beta_c if limit.frozen_phase_exists else "INFINITE",
        "phi_at_beta_c": limit.phi_at_beta_c,
        "transition": "DETECTED" if transition else "NO-TRANSITION",
        "kink_location": kink,
    }, {"phase_scan.csv": (["beta", "f", "df", "d2f"], rows)})


def run_encode(cfg: ExperimentConfig) -> Outputs:
    """Encode one source n-tuple into a packed bitstream."""
    code = treecode.TreeCode(cfg.master_seed, cfg.coding, TreeShape(d=cfg.d, n=cfg.n))
    if cfg.x is not None:
        x = np.asarray(cfg.x, dtype=np.int64)
    else:
        x = cfg.source.sample(uniforms(cfg.master_seed, SOURCE_STREAM, 0,
                                       np.arange(cfg.n, dtype=np.uint64)))
    if cfg.beam_width is not None:
        result = treecode.encode_beam(code, x, cfg.distortion, cfg.beam_width)
    else:
        result = treecode.encode_exact(code, x, cfg.distortion)
    stream = treecode.pack(result.walk, cfg.d)
    return Outputs({
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
        "bitstream": cfg.bitstream,
    }, bitstream=(cfg.bitstream, code, stream))


def run_decode(cfg: ExperimentConfig) -> Outputs:
    """Sequentially decode a bitstream file back into reproduction symbols."""
    d, n, seed, stream = treecode.read_bitstream(cfg.bitstream)
    code = treecode.TreeCode(seed, cfg.coding, TreeShape(d=d, n=n))
    symbols = treecode.decode_sequential(code, stream)
    return Outputs({
        "d": d,
        "n": n,
        "code_seed": seed,
        "symbols": [int(s) for s in symbols],
    }, {"decoded.csv": (["t", "symbol"], [(t + 1, int(s)) for t, s in enumerate(symbols)])})


def run_rd_curve(cfg: ExperimentConfig) -> Outputs:
    points = rd.blahut_arimoto_curve(cfg.source, cfg.distortion, cfg.betas)
    return Outputs({
        "betas": cfg.betas,
        "points": len(points),
        "all_converged": all(p.converged for p in points),
    }, {"rd_curve.csv": (["beta", "R_nats", "R_bits", "D", "converged"],
                         [(p.beta, p.R, p.R / math.log(2), p.D, int(p.converged)) for p in points])})


def run_ensemble(cfg: ExperimentConfig) -> Outputs:
    # the bound D0 exists only under the symmetry hypothesis; SymmetryError otherwise
    limit = theory.FreeEnergyLimit.for_distribution(symmetric_energy_law(cfg.coding, cfg.distortion), cfg.d)
    stats = treecode.simulate_ensemble(
        cfg.source, cfg.coding, cfg.distortion,
        cfg.d, cfg.n, cfg.trials, cfg.master_seed,
        fixed_sequence=cfg.fixed_sequence,
    )
    return Outputs({
        "master_seed": cfg.master_seed,
        "d": cfg.d,
        "n": cfg.n,
        "trials": cfg.trials,
        "fixed_sequence": cfg.fixed_sequence,
        "mean": stats.mean,
        "std": stats.std,
        "d0": limit.d0,
        "d0_degenerate": not limit.frozen_phase_exists,
        "gap": stats.mean - limit.d0,
    }, {"ensemble.csv": (["trial", "mean_distortion"],
                         [(t, float(v)) for t, v in enumerate(stats.values)])})


def run_verify_theorem(cfg: ExperimentConfig) -> Outputs:
    """Full pipeline: Q* via Blahut-Arimoto, symmetry gate, D0 vs D(R), and
    an ensemble gap trajectory over increasing n."""
    report = rd.verify_d0_equals_d(cfg.source, cfg.distortion, cfg.d)
    rows = []
    if report.applicable:
        for n in cfg.n_list:
            stats = treecode.simulate_ensemble(
                cfg.source, report.point.Q_star, cfg.distortion,
                cfg.d, n, cfg.trials, cfg.master_seed,
                fixed_sequence=cfg.fixed_sequence,
            )
            rows.append((n, stats.mean, stats.std, report.d_of_r, stats.mean - report.d_of_r))
    header = ["n", "mean_distortion", "std", "d_of_r", "gap"]
    return Outputs({
        "master_seed": cfg.master_seed,
        "d": cfg.d,
        "trials": cfg.trials,
        "fixed_sequence": cfg.fixed_sequence,
        "verdict": ("PASS" if report.passed else "FAIL") if report.applicable else "NOT-APPLICABLE",
        "applicable": report.applicable,
        "degenerate": report.degenerate,
        "d0": report.d0,
        "d_of_r": report.d_of_r,
        "gap": report.gap,
        "beta_star": report.point.beta,
        "q_star": [float(v) for v in report.point.Q_star.probs],
        "detail": report.detail,
    }, {"verify_theorem.csv": (header, rows)} if rows else {},
        exit_code=EXIT_OK if report.applicable else EXIT_NOT_APPLICABLE)


# one row per kind: its runner, its required fields and its optional ones, besides kind and master_seed
_KINDS = {
    "dprm-converge": (run_dprm_converge, ("energy", "d", "n_list", "betas"), ("trials",)),
    "phase-scan": (run_phase_scan, ("energy", "d", "betas"), ()),
    "encode": (run_encode, ("coding", "distortion", "d", "n"), ("source", "x", "beam_width", "bitstream")),
    "decode": (run_decode, ("coding", "bitstream"), ()),
    "rd-curve": (run_rd_curve, ("source", "distortion", "betas"), ()),
    "verify-theorem": (run_verify_theorem, ("source", "distortion", "d"), ("n_list", "trials", "fixed_sequence")),
    "ensemble": (run_ensemble, ("source", "coding", "distortion", "d", "n"), ("trials", "fixed_sequence")),
}
EXPERIMENT_KINDS = tuple(_KINDS)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> int:
    """Runs cfg, then writes its outputs under out_dir (default "."): the CSV
    tables, encode's bitstream and <kind>_summary.json.  Only this function
    writes, and only after the run returns, so a failed run writes nothing."""
    out = out_dir or "."
    # a relative bitstream lives under out, so encode and decode name the same file; an absolute one is kept
    outputs = _KINDS[cfg.kind][0](replace(cfg, bitstream=os.path.join(out, cfg.bitstream or "encoded.bin")))
    os.makedirs(out, exist_ok=True)
    for name, (header, rows) in outputs.tables.items():
        _write_csv(os.path.join(out, name), header, rows)
    if outputs.bitstream is not None:
        treecode.write_bitstream(*outputs.bitstream)
    with open(os.path.join(out, cfg.kind.replace("-", "_") + "_summary.json"), "w") as fh:
        json.dump({"kind": cfg.kind, **outputs.summary}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return outputs.exit_code
