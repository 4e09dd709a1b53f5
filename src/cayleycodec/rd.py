"""Rate-distortion numerics: Blahut-Arimoto, the slope-parametric curve
representation, and the check that the tree-code ensemble bound -phi(beta_c)
lands exactly on the distortion-rate function.

Rates are in nats throughout; bits appear only in CSV export columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    CodingDistribution, DistortionMatrix, SourceModel, SymmetryError, symmetric_energy_law
)
from .theory import BETA_MAX, d0_of_r

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
    Q_star: CodingDistribution
    iterations: int
    converged: bool


def blahut_arimoto(P: SourceModel, rho: DistortionMatrix, beta: float) -> RDPoint:
    """One point of the rate-distortion curve at Lagrangian slope beta.

    Alternates the test-channel and output-marginal updates from the uniform
    initial marginal until BA_TOL or BA_MAX_ITER stops it.  Non-convergence
    is reported via the flag, not an exception.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    if P.alphabet_size != rho.rows:
        raise ValueError("source and distortion matrix disagree on |X|")
    p = P.probs
    if beta == 0.0:
        # rate-zero endpoint: reproduce with the single best letter
        exp_d = p @ rho.values
        y = int(np.argmin(exp_d))
        q0 = np.zeros(rho.cols)
        q0[y] = 1.0
        return RDPoint(
            beta=0.0,
            R=0.0,
            D=float(exp_d[y]),
            Q_star=CodingDistribution(q0),
            iterations=0,
            converged=True,
        )
    # shifting each row by its minimum cancels in the row normalization and
    # keeps exp from underflowing to an all-zero row at large beta
    expm = np.exp(-beta * (rho.values - rho.values.min(axis=1, keepdims=True)))  # (|X|, |Y|)
    q = np.full(rho.cols, 1.0 / rho.cols)
    converged = False
    it = 0
    for it in range(1, BA_MAX_ITER + 1):
        w = expm * q  # unnormalized test channel
        w /= w.sum(axis=1, keepdims=True)
        q_new = p @ w
        tv = 0.5 * np.abs(q_new - q).sum()
        q = q_new
        if tv < BA_TOL:
            converged = True
            break
    w = expm * q
    w /= w.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(w > 0, w / q, 1.0)
        rate = float((p[:, None] * w * np.log(ratio)).sum())
    distortion = float((p[:, None] * w * rho.values).sum())
    return RDPoint(
        beta=float(beta),
        R=max(rate, 0.0),
        D=distortion,
        Q_star=CodingDistribution(q),
        iterations=it,
        converged=converged,
    )


def rd_point_parametric(
    Q_star: CodingDistribution, rho: DistortionMatrix, beta: float
) -> tuple[float, float]:
    """(R, D) at slope beta from the single-letter representation
    D = E{rho e^{-beta rho}} / E{e^{-beta rho}} under Y ~ Q*,
    R = -(beta D + ln E{e^{-beta rho}}), with x immaterial by symmetry."""
    law = symmetric_energy_law(Q_star, rho)
    if beta < 0:
        raise ValueError("beta must be >= 0")
    D = -law.log_mgf_prime(beta)
    R = -(beta * D + law.log_mgf(beta))
    return max(R, 0.0), D


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of checking D0(R) against the distortion-rate function."""

    d0: float
    d_of_r: float
    gap: float
    passed: bool
    applicable: bool  # False when Q* fails the symmetry hypothesis
    degenerate: bool  # rate hit the endpoint R -> ln|Y| (D -> 0)
    beta_star: float
    q_star: CodingDistribution
    detail: str = ""


def _solve_beta_for_rate(P: SourceModel, rho: DistortionMatrix, r_target: float) -> tuple[float, RDPoint, bool]:
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
            return BETA_MAX, blahut_arimoto(P, rho, BETA_MAX), True
        point_hi = blahut_arimoto(P, rho, hi)
    point = point_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        point = blahut_arimoto(P, rho, mid)
        if abs(point.R - r_target) <= R_TOL:
            return mid, point, False
        if point.R < r_target:
            lo = mid
        else:
            hi = mid
    return point.beta, point, False


def verify_d0_equals_d(P: SourceModel, rho: DistortionMatrix, d: int) -> TheoremReport:
    """End-to-end theorem check at rate R = ln d.

    Finds the slope where the rate-distortion curve has rate ln d, takes the
    optimizing output distribution Q*, verifies the symmetry hypothesis, and
    compares the ensemble bound D0(ln d) of its branch-energy law against D(R).
    """
    if d < 2:
        raise ValueError("need d >= 2")
    r_target = math.log(d)
    beta_star, point, degenerate = _solve_beta_for_rate(P, rho, r_target)
    q_star = point.Q_star
    try:
        law = symmetric_energy_law(q_star, rho)
    except SymmetryError as exc:
        return TheoremReport(
            d0=math.nan,
            d_of_r=point.D,
            gap=math.nan,
            passed=False,
            applicable=False,
            degenerate=degenerate,
            beta_star=beta_star,
            q_star=q_star,
            detail=f"theorem hypothesis fails: {exc}",
        )
    d0 = d0_of_r(law, r_target)
    gap = abs(d0.value - point.D)
    return TheoremReport(
        d0=d0.value,
        d_of_r=point.D,
        gap=gap,
        passed=gap <= D0_TOL,
        applicable=True,
        degenerate=degenerate or d0.degenerate,
        beta_star=beta_star,
        q_star=q_star,
        detail="degenerate zero-distortion endpoint" if (degenerate or d0.degenerate) else "",
    )

