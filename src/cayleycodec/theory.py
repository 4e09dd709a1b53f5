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
from dataclasses import dataclass

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
    # numerator of phi'(beta); its sign change from - to + locates the minimizer
    g = lambda b: b * energy_dist.log_mgf_prime(b) - math.log(d) - energy_dist.log_mgf(b)
    lo = 1e-8
    hi = 1.0
    while g(hi) <= 0.0:
        hi *= 2.0
        if hi > BETA_MAX:
            return math.inf
    while g(lo) > 0.0:  # beta_c < lo; g -> -ln d as beta -> 0, so halving ends
        lo, hi = lo / 2, lo
    from scipy.optimize import brentq  # imported here, so that a codec process never loads scipy

    # brentq's default xtol (2e-12) at lo = 1e-8, scaled with lo so that a tiny beta_c keeps its digits
    return float(brentq(g, lo, hi, xtol=2e-12 * (lo / 1e-8), rtol=1e-12, maxiter=200))


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
