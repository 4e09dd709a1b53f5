"""Closed-form limit objects for the tree free energy.

phi(beta) = (ln d + ln E{exp(-beta eps)}) / beta is the annealed curve;
its minimizer beta_c marks a second-order transition, and the limiting
per-step free energy is phi(beta) in the high-temperature phase and the
constant phi(beta_c) in the frozen phase.  The frozen value also gives the
distortion bound for the random tree-code ensemble: D0(R) = -phi(beta_c)
with d = e^R and branch energies rho(x, Y), Y ~ Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

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
    frozen phase is never entered.  For d = 1 the curve has no ln d term and
    no interior minimum, so the answer is inf as well.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return math.inf
    # numerator of phi'(beta); its sign change from - to + locates the minimizer
    g = lambda b: b * energy_dist.log_mgf_prime(b) - math.log(d) - energy_dist.log_mgf(b)
    lo = 1e-8
    hi = 1.0
    while g(hi) <= 0.0:
        hi *= 2.0
        if hi > BETA_MAX:
            return math.inf
    return float(brentq(g, lo, hi, rtol=1e-12, maxiter=200))


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

    def f(self, beta: float) -> float:
        if beta <= 0:
            raise ValueError("beta must be > 0")
        if beta <= self.beta_c:
            return phi(self.energy_dist, self.d, beta)
        return self.phi_at_beta_c


def f_limit(energy_dist: EnergyDistribution, d: int, beta: float) -> float:
    """Limiting per-step free energy: phi(beta) up to beta_c, then flat."""
    return FreeEnergyLimit.for_distribution(energy_dist, d).f(beta)


@dataclass(frozen=True)
class D0Result:
    value: float
    degenerate: bool  # True when the maximizing beta runs off to infinity


def d0_of_r(law: EnergyDistribution, R: float) -> D0Result:
    """Almost-sure per-letter distortion of the random tree-code ensemble,
    max over beta > 0 of -(log-MGF of law + R) / beta = -phi(beta_c).

    law comes from model.symmetric_energy_law; R = ln d for an integer d >= 2.
    When phi has no interior minimum the supremum is a beta -> inf limit;
    we evaluate at BETA_MAX and flag the result DEGENERATE.
    """
    d_real = math.exp(R)
    d = round(d_real)
    if d < 2 or abs(d_real - d) > 1e-9 * max(1.0, d):
        raise ValueError(f"R={R!r} is not ln(d) for an integer d >= 2")
    limit = FreeEnergyLimit.for_distribution(law, d)
    value = -limit.phi_at_beta_c + 0.0  # normalize -0.0
    return D0Result(value=value, degenerate=not limit.frozen_phase_exists)
