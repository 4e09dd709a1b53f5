"""Sources, distortion matrices, coding distributions, branch-energy laws.

Alphabets are index sets 0..|X|-1 and 0..|Y|-1; any labeling lives outside
the library.  All types are immutable after construction and all operations
are pure, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

PROB_TOL = 1e-12
# Distortion values closer than this are treated as a single atom when
# building induced energy distributions; avoids spurious symmetry failures
# from floating-point representations of equal rational entries.
VALUE_MERGE_TOL = 1e-9
# One gate for the symmetry hypothesis, shared by every caller.  A
# Blahut-Arimoto Q* is symmetric only to its convergence accuracy, and D0
# moves continuously with Q, so a near-symmetric Q* must pass here.
SYMMETRY_TOL = 1e-6
# Cells in one block of a batched engine's arrays (beam, Blahut-Arimoto); read at call time
BLOCK_CELLS = 1 << 20


class SymmetryError(ValueError):
    """The coding distribution / distortion pair violates the symmetry
    hypothesis required by the achievability theorem."""


def _validated_pmf(probs, what: str) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{what}: need a nonempty 1-d probability vector")
    if np.any(p < 0) or not np.all(np.isfinite(p)):
        raise ValueError(f"{what}: probabilities must be finite and >= 0")
    s = p.sum()
    if abs(s - 1.0) > PROB_TOL:
        raise ValueError(f"{what}: probabilities sum to {s!r}, not 1")
    p = p / s  # renormalize exactly once
    p.flags.writeable = False
    return p


# a law's cumsum and its last letter of positive mass, built on its first draw; Pmf and EnergyDistribution share it
_law_cdf = cached_property(lambda law: (np.cumsum(law.probs), int(np.flatnonzero(law.probs)[-1])))


def _inverse_transform(cdf: tuple[np.ndarray, int], u) -> np.ndarray:
    """Indices drawn by inverse transform from uniforms in (0,1).  The cumsum
    can end a rounding error below 1, so the index is clamped to the last
    letter of positive mass: a u past the cumsum never draws a zero-mass letter."""
    cum, top = cdf
    idx = np.searchsorted(cum, np.asarray(u), side="right")
    return np.minimum(idx, top, out=idx if isinstance(idx, np.ndarray) else None)


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over the index alphabet 0..|A|-1: a
    discrete memoryless source or a random-coding output distribution Q."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _validated_pmf(self.probs, "Pmf"))

    @property
    def alphabet_size(self) -> int:
        return self.probs.size

    _cdf = _law_cdf

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Inverse-transform letters from uniforms in (0,1)."""
        return _inverse_transform(self._cdf, u).astype(np.int64, copy=False)


# the source and coding laws are both a Pmf; perfbench/ and the tests still use these two names
SourceModel = CodingDistribution = Pmf


@dataclass(frozen=True)
class DistortionMatrix:
    """Per-letter distortions rho(x, y) >= 0, shape (|X|, |Y|)."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.size == 0:
            raise ValueError("DistortionMatrix: need a nonempty 2-d array")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("DistortionMatrix: entries must be finite and >= 0")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @classmethod
    def hamming(cls, k: int) -> "DistortionMatrix":
        return cls(1.0 - np.eye(k))


def _merge_atoms(values, probs, tol: float = VALUE_MERGE_TOL):
    """Sort atoms by value and merge those within tol; drop zero-mass atoms."""
    values = np.asarray(values, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    keep = probs > 0
    values, probs = values[keep], probs[keep]
    order = np.argsort(values, kind="stable")
    values, probs = values[order], probs[order]
    out_v, out_p = [], []
    for v, p in zip(values, probs):
        if out_v and v - out_v[-1] <= tol:
            # accumulate mass; keep the first representative value
            out_p[-1] += p
        else:
            out_v.append(v)
            out_p.append(p)
    return np.array(out_v), np.array(out_p)


@dataclass(frozen=True)
class EnergyDistribution:
    """Law of a single branch energy: finite discrete pmf or Gaussian.

    The log-MGF ln E{exp(-beta * eps)} is finite for all beta >= 0 in both
    variants, which is all the limit theory needs.
    """

    kind: str  # "discrete" | "gaussian"
    values: np.ndarray | None = None
    probs: np.ndarray | None = None
    mean_param: float = 0.0
    std_param: float = 0.0

    @classmethod
    def discrete(cls, values, probs) -> "EnergyDistribution":
        p = _validated_pmf(probs, "EnergyDistribution")
        v = np.asarray(values, dtype=np.float64)
        if v.shape != p.shape:
            raise ValueError("EnergyDistribution: values and probs must align")
        if not np.all(np.isfinite(v)):
            raise ValueError("EnergyDistribution: values must be finite")
        v, p = _merge_atoms(v, p)
        v.flags.writeable = False
        p.flags.writeable = False
        return cls(kind="discrete", values=v, probs=p)

    @classmethod
    def gaussian(cls, mean: float, std: float) -> "EnergyDistribution":
        if not (np.isfinite(mean) and 0 < std < np.inf):
            raise ValueError("EnergyDistribution: Gaussian mean and std must be finite, std > 0")
        return cls(kind="gaussian", mean_param=float(mean), std_param=float(std))

    _cdf = _law_cdf

    def sample(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Inverse-transform draws from uniforms in (0,1), into out if given (u itself may be out)."""
        if self.kind == "discrete":  # "clip" never clips here, but unlike "raise" writes out unbuffered
            return np.take(self.values, _inverse_transform(self._cdf, u), out=out, mode="clip")
        from scipy.special import ndtri  # imported here, so that a codec process never loads scipy

        # mean + std * ndtri(u), steps in out if given: IEEE + and * commute, so the bits are the same
        return np.add(np.multiply(ndtri(u, out=out), self.std_param, out=out), self.mean_param, out=out)

    def log_mgf(self, beta: float) -> float:
        """ln E{exp(-beta * eps)}, in closed form for the Gaussian variant."""
        if self.kind == "discrete":
            # scipy.special.logsumexp's own steps (scipy >= 1.15): its bits without its per-call dispatch
            a = -beta * self.values
            a_max = a.max()
            top = a == a_max
            m, s = (self.probs * top).sum(), (self.probs * np.exp(np.where(top, -np.inf, a - a_max))).sum()
            return float(np.log1p(s / m) + np.log(m) + a_max)  # m > 0: merged atoms have positive mass
        return -beta * self.mean_param + 0.5 * beta * beta * self.std_param**2

    def log_mgf_prime(self, beta: float) -> float:
        """d/dbeta of ln E{exp(-beta * eps)} = -E{eps e^{-beta eps}} / M."""
        if self.kind == "discrete":
            a = -beta * self.values + np.log(self.probs)
            w = np.exp(a - a.max())
            return float(-(self.values * w).sum() / w.sum())
        return -self.mean_param + beta * self.std_param**2


def symmetric_energy_law(Q: Pmf, rho: DistortionMatrix) -> EnergyDistribution:
    """Common law of the branch energy rho(x, Y), Y ~ Q, over every source
    letter x: the hypothesis under which the tree-code ensemble meets the
    distortion-rate function.  Each row's merged value->mass map must match
    row 0's, values and masses within SYMMETRY_TOL, or SymmetryError says
    where they differ.
    """
    if Q.alphabet_size != rho.cols:
        raise ValueError("coding distribution and distortion matrix disagree on |Y|")
    ref_v, ref_p = _merge_atoms(rho.values[0], Q.probs, SYMMETRY_TOL)
    for x in range(1, rho.rows):
        v, p = _merge_atoms(rho.values[x], Q.probs, SYMMETRY_TOL)
        if v.size != ref_v.size:
            raise SymmetryError(
                f"rows 0 and {x} induce {ref_v.size} vs {v.size} distinct distortion values"
            )
        dv = np.abs(v - ref_v)
        dp = np.abs(p - ref_p)
        if np.any(dv > SYMMETRY_TOL) or np.any(dp > SYMMETRY_TOL):
            k = int(np.argmax(np.maximum(dv / SYMMETRY_TOL, dp)))
            raise SymmetryError(
                f"rows 0 and {x} disagree at atom {k}: "
                f"value {ref_v[k]:.6g} mass {ref_p[k]:.6g} vs "
                f"value {v[k]:.6g} mass {p[k]:.6g}"
            )
    return EnergyDistribution.discrete(rho.values[0], Q.probs)
