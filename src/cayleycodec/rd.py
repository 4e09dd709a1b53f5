"""Rate-distortion numerics: Blahut-Arimoto, and the check that the
tree-code ensemble bound -phi(beta_c) lands exactly on the distortion-rate
function.

Rates are in nats throughout; bits appear only in CSV export columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import model
from .model import (
    CodingDistribution, DistortionMatrix, SourceModel, SymmetryError, symmetric_energy_law
)
from .theory import BETA_MAX, FreeEnergyLimit

# rate accuracy (nats) of the slope bisection in verify_d0_equals_d
R_TOL = 1e-8
# Blahut-Arimoto stops once successive output marginals are within BA_TOL in
# total variation, or after BA_MAX_ITER updates
BA_TOL = 1e-12
BA_MAX_ITER = 20000
# largest |D0(ln d) - D(ln d)| that verify_d0_equals_d calls a pass
D0_TOL = 1e-4


@dataclass(frozen=True)
class RDPoint:
    beta: float
    R: float  # nats/symbol
    D: float
    q: np.ndarray  # the final output marginal as the updates left it; Q_star validates it on first read
    iterations: int
    converged: bool

    @cached_property
    def Q_star(self) -> CodingDistribution:
        return CodingDistribution(self.q)


def _ba_updates(p: np.ndarray, expm: np.ndarray, grid: np.ndarray):
    """blahut_arimoto_curve's lock-step updates: per slope, its final marginal, updates and converged flag."""
    qs = np.full((grid.size, expm.shape[2]), 1.0 / expm.shape[2])
    its, converged = np.zeros(grid.size, dtype=np.int64), grid == 0  # a rate-zero slope needs no update
    live = np.flatnonzero(grid > 0)
    q, done = qs[live], 0
    while live.size and done < BA_MAX_ITER:
        # total variation is checked once per block of updates, from the kept
        # marginals; blocks start short so a slope that converges at once
        # pays for few extra updates
        block = min(32, max(done, 1), BA_MAX_ITER - done)
        hist = np.empty((block + 1,) + q.shape)
        hist[0] = q
        e, w = expm[live], np.empty((live.size,) + expm.shape[1:])
        s = np.empty(w.shape[:2] + (1,))
        for k in range(block):
            np.multiply(e, hist[k, :, None], out=w)  # unnormalized test channel
            np.add.reduce(w, axis=2, keepdims=True, out=s)
            np.divide(w, s, out=w)
            np.matmul(p, w, out=hist[k + 1])
        hit = 0.5 * np.abs(hist[1:] - hist[:-1]).sum(axis=2) < BA_TOL  # (block, live)
        met = hit.any(axis=0)
        first = np.where(met, hit.argmax(axis=0), block - 1)
        done += block
        stop = met | (done == BA_MAX_ITER)
        if stop.any():  # most blocks of a slow slope stop no row
            j = np.flatnonzero(stop)
            qs[live[j]], its[live[j]], converged[live[j]] = hist[first[j] + 1, j], done - block + first[j] + 1, met[j]
        live, q = live[~stop], hist[block, ~stop]
    return qs, its, converged


def blahut_arimoto_curve(P: SourceModel, rho: DistortionMatrix, betas) -> list[RDPoint]:
    """The rate-distortion curve at the Lagrangian slopes betas, one point
    per slope in the given order.

    Every positive slope alternates the test-channel and output-marginal
    updates from the uniform initial marginal; the slopes run in lock-step as
    the rows of (B, |X|, |Y|) arrays, in slices of at most model.BLOCK_CELLS
    cells, and each row stops at its own first update that moves the
    marginal by less than BA_TOL in total variation, or at BA_MAX_ITER.
    Non-convergence is reported via the flag, not an exception.  Source
    letters of probability 0 add exactly 0 to every sum, so they are left
    out; their rows would otherwise turn 0/0 at large beta.
    """
    betas = [float(b) for b in betas]
    if not all(0 <= b < math.inf for b in betas):
        raise ValueError("beta must be finite and >= 0")
    if P.alphabet_size != rho.rows:
        raise ValueError("source and distortion matrix disagree on |X|")
    step = max(1, model.BLOCK_CELLS // rho.values.size)
    if len(betas) > step:  # rows are independent, so slicing the grid changes no bit
        return [pt for lo in range(0, len(betas), step) for pt in blahut_arimoto_curve(P, rho, betas[lo:lo + step])]
    p, dist = P.probs[P.probs > 0], rho.values[P.probs > 0]
    # shifting each row by its minimum cancels in the row normalization and
    # keeps exp from underflowing to an all-zero row at large beta
    grid = np.array(betas)
    expm = np.exp(-grid[:, None, None] * (dist - dist.min(axis=1, keepdims=True)))  # (B, |X|, |Y|)
    qs, its, converged = _ba_updates(p, expm, grid)
    # R and D of all rows at once, each summed over its (|X|, |Y|) cells; D first in expm's buffer caps the peak
    w = np.multiply(expm, qs[:, None, :], out=expm)
    w /= w.sum(axis=2, keepdims=True)
    distortions = (p[:, None] * w * dist).sum(axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(w > 0, w / qs[:, None, :], 1.0)
        rates = np.multiply(p[:, None] * w, np.log(ratio, out=ratio), out=ratio).sum(axis=(1, 2))
    if 0.0 in betas:  # rate-zero endpoint: reproduce with the single best letter
        exp_d = p @ dist
        qs[grid == 0], rates[grid == 0], distortions[grid == 0] = np.eye(rho.cols)[np.argmin(exp_d)], 0.0, exp_d.min()
    qs.flags.writeable = False
    return [RDPoint(b, max(r, 0.0), dd, q, it, c) for b, r, dd, q, it, c in zip(
        betas, rates.tolist(), distortions.tolist(), qs, its.tolist(), converged.tolist())]


def blahut_arimoto(P: SourceModel, rho: DistortionMatrix, beta: float) -> RDPoint:
    """One point of the rate-distortion curve at Lagrangian slope beta."""
    return blahut_arimoto_curve(P, rho, [beta])[0]


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of checking D0(R) against the distortion-rate function; d0 is
    None when Q* fails the symmetry hypothesis."""

    point: RDPoint  # the curve point at rate ln d: slope beta, D(R) and Q*
    d0: float | None
    degenerate: bool  # rate hit the endpoint R -> ln|Y| (D -> 0)
    detail: str = ""

    @property
    def d_of_r(self) -> float:
        return self.point.D

    @property
    def applicable(self) -> bool:
        return self.d0 is not None

    @property
    def gap(self) -> float | None:
        return abs(self.d0 - self.point.D) if self.applicable else None

    @property
    def passed(self) -> bool:
        return self.applicable and self.gap <= D0_TOL


def _solve_beta_for_rate(P: SourceModel, rho: DistortionMatrix, r_target: float) -> tuple[RDPoint, bool]:
    """Bisect the slope so the Blahut-Arimoto rate hits r_target within R_TOL.

    R(beta) is nondecreasing, so plain bisection on an expandable bracket is
    safe.  If the rate still falls short at BETA_MAX the target sits at the
    curve's zero-distortion endpoint; the cap point is returned with a
    degenerate flag.
    """
    lo, hi = 1e-4, 50.0
    point_hi = blahut_arimoto(P, rho, hi)
    while point_hi.R < r_target - R_TOL:
        hi *= 4.0
        if hi > BETA_MAX:
            return blahut_arimoto(P, rho, BETA_MAX), True
        point_hi = blahut_arimoto(P, rho, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        point = blahut_arimoto(P, rho, mid)
        if abs(point.R - r_target) <= R_TOL:
            return point, False
        if point.R < r_target:
            lo = mid
        else:
            hi = mid
    return point, False


def verify_d0_equals_d(P: SourceModel, rho: DistortionMatrix, d: int) -> TheoremReport:
    """End-to-end theorem check at rate R = ln d.

    Finds the slope where the rate-distortion curve has rate ln d, takes the
    optimizing output distribution Q*, verifies the symmetry hypothesis, and
    compares the ensemble bound D0(ln d) of its branch-energy law against D(R).
    """
    if d < 2:
        raise ValueError(f"d={d}: a tree code needs d >= 2")
    point, degenerate = _solve_beta_for_rate(P, rho, math.log(d))
    try:
        law = symmetric_energy_law(point.Q_star, rho)
    except SymmetryError as exc:
        return TheoremReport(point, None, degenerate, f"theorem hypothesis fails: {exc}")
    limit = FreeEnergyLimit.for_distribution(law, d)
    degenerate = degenerate or not limit.frozen_phase_exists
    return TheoremReport(point, limit.d0, degenerate, "degenerate zero-distortion endpoint" if degenerate else "")
