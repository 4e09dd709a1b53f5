"""Closed-form limit objects for the tree free energy.

phi(beta) = (ln d + ln E{exp(-beta eps)}) / beta is the annealed curve;
its minimizer beta_c marks a second-order transition, and the limiting
per-step free energy is phi(beta) in the high-temperature phase and the
constant phi(beta_c) in the frozen phase.  The frozen value also gives the
distortion bound for the random tree-code ensemble at rate R = ln d:
D0 = -phi(beta_c) with branch energies rho(x, Y), Y ~ Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import EnergyDistribution

# Beyond this beta the search for a stationary point gives up and the phase
# is declared never-frozen (beta_c = inf).  For bounded energies -phi moves
# by < 1e-3 * ln d per decade out here, so reporting DEGENERATE is more
# honest than a pseudo-root.
BETA_MAX = 1e4


def phi(energy_dist: EnergyDistribution, d: int, beta: float) -> float:
    """Annealed free-energy curve (ln d + log-MGF) / beta."""
    if beta <= 0:
        raise ValueError("beta must be > 0 (phi diverges at 0 for d >= 2)")
    if d < 1:
        raise ValueError("d must be >= 1")
    return (math.log(d) + energy_dist.log_mgf(beta)) / beta


def beta_c(energy_dist: EnergyDistribution, d: int) -> float:
    """Minimizer of phi, i.e. the root of phi'(beta) = 0.

    Returns math.inf when phi is strictly decreasing on (0, BETA_MAX]: the
    frozen phase is never entered.  d = 1 is refused: a chain's limit is
    -E{eps} at every beta, which phi does not describe.
    """
    if d < 2:
        raise ValueError(f"d={d}: the Cayley-tree limit needs d >= 2")
    # g is shift-invariant; on the law moved to 0 a large offset does not cancel in b * M'(b) - M(b)
    law = (replace(energy_dist, mean_param=0.0) if energy_dist.kind == "gaussian"
           else replace(energy_dist, values=energy_dist.values - energy_dist.values[0]))
    # numerator of phi'(beta); its sign change from - to + locates the minimizer
    g = lambda b: b * law.log_mgf_prime(b) - math.log(d) - law.log_mgf(b)
    lo = 1e-8
    hi = 1.0
    while g(hi) <= 0.0:
        hi *= 2.0
        if hi > BETA_MAX:
            return math.inf
    while g(lo) > 0.0:  # beta_c < lo; g -> -ln d as beta -> 0, so halving ends
        lo, hi = lo / 2, lo
    # brentq's default xtol (2e-12) at lo = 1e-8, scaled with lo so that a tiny beta_c keeps its digits
    return _brentq(g, lo, hi, xtol=2e-12 * (lo / 1e-8), rtol=1e-12, maxiter=200)


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of f in the bracket [xa, xb] by Brent's method.

    Brent (1973), *Algorithms for Minimization Without Derivatives*, ch. 4,
    as scipy's ``optimize/Zeros/brentq.c`` implements it, step for step, so
    that it returns the float scipy's ``brentq`` returns and raises its
    exception types: ValueError on an f value of NaN or a bracket without a
    sign change, RuntimeError after maxiter steps.
    """
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect, unless a good short step is found
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:  # where C divides by zero it gets inf or nan, which the step test rejects alike
                if xpre == xblk:  # interpolate: secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate: inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry  # good short step
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:  # the minimum step
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is {xcur}")


@dataclass(frozen=True)
class FreeEnergyLimit:
    """Piecewise limit of the per-step free energy for one (law, d) pair."""

    energy_dist: EnergyDistribution
    d: int
    beta_c: float
    phi_at_beta_c: float  # phi evaluated at BETA_MAX when beta_c is inf

    @classmethod
    def for_distribution(cls, energy_dist: EnergyDistribution, d: int) -> "FreeEnergyLimit":
        bc = beta_c(energy_dist, d)
        at = phi(energy_dist, d, bc if math.isfinite(bc) else BETA_MAX)
        return cls(energy_dist=energy_dist, d=d, beta_c=bc, phi_at_beta_c=at)

    @property
    def frozen_phase_exists(self) -> bool:
        return math.isfinite(self.beta_c)

    @property
    def d0(self) -> float:
        """Ensemble distortion bound -phi(beta_c) when energy_dist comes from
        model.symmetric_energy_law; taken at BETA_MAX (degenerate) when
        frozen_phase_exists is False."""
        return -self.phi_at_beta_c + 0.0  # normalize -0.0

    def f(self, beta: float) -> float:
        if beta <= self.beta_c:
            return phi(self.energy_dist, self.d, beta)
        return self.phi_at_beta_c


def f_limit(energy_dist: EnergyDistribution, d: int, beta: float) -> float:
    """Limiting per-step free energy: phi(beta) up to beta_c, then flat."""
    return FreeEnergyLimit.for_distribution(energy_dist, d).f(beta)
