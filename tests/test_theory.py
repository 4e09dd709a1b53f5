import math

import numpy as np
import pytest
from scipy.special import logsumexp

from cayleycodec import (
    DistortionMatrix,
    EnergyDistribution,
    FreeEnergyLimit,
    SymmetryError,
    beta_c,
    f_limit,
    phi,
    symmetric_energy_law,
    verify_d0_equals_d,
)
from cayleycodec.model import CodingDistribution, SourceModel
from cayleycodec.theory import BETA_MAX

GAUSS = EnergyDistribution.gaussian(0.0, 1.0)
BERN = EnergyDistribution.discrete([0.0, 1.0], [0.5, 0.5])
BETA_C_GAUSS = math.sqrt(2 * math.log(2))


def test_log_mgf_point_mass():
    pm = EnergyDistribution.discrete([1.3], [1.0])
    for beta in (0.0, 0.5, 3.0):
        assert pm.log_mgf(beta) == pytest.approx(-beta * 1.3, abs=1e-12)


def test_log_mgf_gaussian_closed_form():
    assert GAUSS.log_mgf(2.0) == pytest.approx(2.0, abs=1e-12)
    g = EnergyDistribution.gaussian(1.5, 2.0)
    assert g.log_mgf(0.7) == pytest.approx(-0.7 * 1.5 + 0.49 * 4.0 / 2, abs=1e-12)


def test_log_mgf_bernoulli():
    assert BERN.log_mgf(1.0) == pytest.approx(math.log((1 + math.exp(-1)) / 2), abs=1e-12)


def scipy_log_mgf(law, beta):
    return float(logsumexp(-beta * law.values, b=law.probs))


def random_law(rng):
    # one-decimal values, so several atoms tie after scaling by beta
    k = int(rng.integers(1, 9))
    return EnergyDistribution.discrete(np.round(rng.uniform(0.0, 3.0, k), 1), rng.dirichlet(np.ones(k)))


def test_log_mgf_keeps_scipy_logsumexp_bits():
    rng = np.random.default_rng(20)
    laws = [random_law(rng) for _ in range(20_000)]
    betas = np.exp(rng.uniform(math.log(1e-4), math.log(BETA_MAX), len(laws)))
    betas[::100] = 0.0
    # a single atom, and a gap whose exponent underflows the rest of the sum to 0
    laws += [EnergyDistribution.discrete([0.7], [1.0]), EnergyDistribution.discrete([0.0, 0.1, 2.0], [0.2, 0.3, 0.5])]
    betas = [*betas, 3.0, BETA_MAX]
    assert math.exp(-BETA_MAX * 0.1) == 0.0
    for law, beta in zip(laws, betas, strict=True):
        assert law.log_mgf(float(beta)) == scipy_log_mgf(law, float(beta))


def test_free_energy_limit_keeps_its_bits_under_scipy_log_mgf(monkeypatch):
    rng = np.random.default_rng(21)
    # the Hamming laws of the rd-theorem workload's applicable pairs, from the Q* verify finds, then random laws
    rhos = [DistortionMatrix.hamming(k) for k in (2, 3, 4)]
    laws = [symmetric_energy_law(verify_d0_equals_d(SourceModel([1 / r.rows] * r.rows), r, 2).point.Q_star, r)
            for r in rhos]
    cases = [(law, d) for law in laws for d in (2, 3, 4)]
    cases += [(random_law(rng), 2 + i % 3) for i in range(200)]
    got = [FreeEnergyLimit.for_distribution(law, d) for law, d in cases]
    monkeypatch.setattr(EnergyDistribution, "log_mgf", scipy_log_mgf)
    for limit, (law, d) in zip(got, cases, strict=True):
        want = FreeEnergyLimit.for_distribution(law, d)
        assert (limit.beta_c, limit.phi_at_beta_c) == (want.beta_c, want.phi_at_beta_c)


def test_phi_point_mass():
    pm = EnergyDistribution.discrete([0.4], [1.0])
    assert phi(pm, 2, math.log(2)) == pytest.approx(1.0 - 0.4, abs=1e-12)


def test_phi_gaussian_minimum():
    assert phi(GAUSS, 2, BETA_C_GAUSS) == pytest.approx(BETA_C_GAUSS, abs=1e-12)


def test_phi_bernoulli():
    assert phi(BERN, 2, 1.0) == pytest.approx(math.log(1 + math.exp(-1)), abs=1e-12)


def test_phi_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        phi(GAUSS, 2, 0.0)
    # beta_c > 0, so the limit sends every beta <= 0 to phi, frozen phase or not
    for dist in (GAUSS, BERN):
        limit = FreeEnergyLimit.for_distribution(dist, 2)
        for beta in (0.0, -1.0):
            with pytest.raises(ValueError, match="beta must be > 0"):
                limit.f(beta)


def test_beta_c_gaussian_analytic():
    # to 1e-12: pins the root search, since an ulp of beta_c moves the theorem check's gap by ~1e-7 relative
    assert beta_c(GAUSS, 2) == pytest.approx(BETA_C_GAUSS, rel=0, abs=1e-12)
    assert beta_c(EnergyDistribution.gaussian(3.0, 2.0), 5) == pytest.approx(
        math.sqrt(2 * math.log(5)) / 2.0, rel=1e-10
    )


@pytest.mark.parametrize("std", [1e9, 1e100])
def test_beta_c_below_the_bracket_start(std):
    # beta_c lies below the bracket's first low end, 1e-8, which halves until phi' changes sign
    expected = math.sqrt(2 * math.log(2)) / std
    assert beta_c(EnergyDistribution.gaussian(0.0, std), 2) == pytest.approx(expected, rel=1e-5)


def test_beta_c_bernoulli_half_is_infinite():
    # phi(beta) = ln(1 + e^{-beta}) / beta decreases to 0: never frozen.
    assert beta_c(BERN, 2) == math.inf
    # The same holds for any d when d * P(eps = min) >= 1: here the dense
    # grid oracle confirms phi is strictly decreasing for d = 4 as well.
    grid = np.geomspace(1e-3, 1e3, 4000)
    vals = np.array([phi(BERN, 4, b) for b in grid])
    assert np.all(np.diff(vals) < 0)
    assert beta_c(BERN, 4) == math.inf


def test_beta_c_discrete_with_rare_minimum():
    # d * P(min atom) < 1 puts the minimizer at a finite beta
    dist = EnergyDistribution.discrete([0.0, 1.0], [0.25, 0.75])
    bc = beta_c(dist, 2)
    assert math.isfinite(bc)
    # stationarity: the root minimizes phi on a surrounding grid
    val = phi(dist, 2, bc)
    for b in np.linspace(0.2 * bc, 5 * bc, 200):
        assert phi(dist, 2, b) >= val - 1e-12


@pytest.mark.parametrize("d", [0, 1])
def test_beta_c_rejects_d_below_2(d):
    # a d = 1 chain has limit -E{eps}, not phi; the tree limit refuses it
    with pytest.raises(ValueError):
        beta_c(GAUSS, d)
    with pytest.raises(ValueError):
        FreeEnergyLimit.for_distribution(GAUSS, d)


def test_f_limit_high_temperature():
    assert f_limit(GAUSS, 2, 0.5) == pytest.approx(math.log(2) / 0.5 + 0.25, abs=1e-12)


def test_f_limit_frozen():
    assert f_limit(GAUSS, 2, 3.0) == pytest.approx(BETA_C_GAUSS, rel=1e-10)


def test_f_limit_continuous_at_seam():
    limit = FreeEnergyLimit.for_distribution(GAUSS, 2)
    assert limit.f(limit.beta_c) == pytest.approx(limit.phi_at_beta_c, abs=1e-12)


def test_f_limit_derivative_continuity_and_second_derivative_jump():
    limit = FreeEnergyLimit.for_distribution(GAUSS, 2)
    bc, h = limit.beta_c, 1e-3
    left = np.array([limit.f(bc - k * h) for k in range(0, 4)])
    right = np.array([limit.f(bc + k * h) for k in range(0, 4)])
    assert abs(left[1] - right[1]) < 1e-6
    d1_left = (left[0] - left[1]) / h  # difference just below the seam
    d1_right = (right[1] - right[0]) / h  # just above
    assert abs(d1_left - d1_right) < 1e-3
    d2_left = (left[2] - 2 * left[1] + left[0]) / h**2
    d2_right = (right[2] - 2 * right[1] + right[0]) / h**2
    assert abs(d2_left - d2_right) > 0.1


def test_minus_f_limit_nondecreasing_and_saturating():
    limit = FreeEnergyLimit.for_distribution(GAUSS, 2)
    grid = np.linspace(0.1, 4.0, 400)
    vals = np.array([-limit.f(b) for b in grid])
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[-1] == pytest.approx(-limit.phi_at_beta_c, abs=1e-12)


def test_phi_bounded_below_by_minus_max_atom():
    dist = EnergyDistribution.discrete([0.0, 0.5, 2.0], [0.2, 0.5, 0.3])
    limit = FreeEnergyLimit.for_distribution(dist, 3)
    for b in np.geomspace(0.05, 50, 100):
        assert phi(dist, 3, b) >= -dist.values[-1]
    assert limit.phi_at_beta_c >= -dist.values[-1]


def test_d0_binary_uniform_hamming_degenerate():
    law = symmetric_energy_law(CodingDistribution([0.5, 0.5]), DistortionMatrix.hamming(2))
    res = FreeEnergyLimit.for_distribution(law, 2)
    assert not res.frozen_phase_exists
    assert res.d0 == pytest.approx(0.0, abs=1e-8)


def test_d0_quaternary_uniform_hamming():
    law = symmetric_energy_law(CodingDistribution([0.25] * 4), DistortionMatrix.hamming(4))
    res = FreeEnergyLimit.for_distribution(law, 2)
    assert res.frozen_phase_exists
    assert res.d0 == pytest.approx(0.1893, abs=5e-5)
    # ternary-search oracle on -(ln M + R)/beta agrees
    def objective(b):
        return -(math.log((1 + 3 * math.exp(-b)) / 4) + math.log(2)) / b

    lo, hi = 1e-3, 100.0
    for _ in range(300):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if objective(m1) < objective(m2):
            lo = m1
        else:
            hi = m2
    assert res.d0 == pytest.approx(objective(0.5 * (lo + hi)), abs=1e-9)


def test_d0_constant_distortion():
    c = 0.8
    rho = DistortionMatrix(np.full((2, 3), c))
    res = FreeEnergyLimit.for_distribution(symmetric_energy_law(CodingDistribution([0.2, 0.3, 0.5]), rho), 2)
    assert not res.frozen_phase_exists
    assert res.d0 == pytest.approx(c, abs=1e-3)


def test_d0_rejects_bad_rate_and_asymmetry():
    rho = DistortionMatrix.hamming(2)
    with pytest.raises(SymmetryError):
        FreeEnergyLimit.for_distribution(symmetric_energy_law(CodingDistribution([0.9, 0.1]), rho), 2)


def test_d0_consistent_with_induced_pipeline():
    # cross-module identity: d0 == -phi(beta_c) of the induced energy law
    Q = CodingDistribution([0.25] * 4)
    rho = DistortionMatrix.hamming(4)
    dist = symmetric_energy_law(Q, rho)
    limit = FreeEnergyLimit.for_distribution(dist, 2)
    assert limit.d0 == -limit.phi_at_beta_c
    assert limit.frozen_phase_exists


def test_degenerate_d0_evaluated_at_beta_cap():
    law = symmetric_energy_law(CodingDistribution([0.5, 0.5]), DistortionMatrix.hamming(2))
    res = FreeEnergyLimit.for_distribution(law, 2)
    assert not res.frozen_phase_exists
    assert res.d0 == -phi(law, 2, BETA_MAX)
