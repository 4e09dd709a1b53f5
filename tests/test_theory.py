import math

import numpy as np
import pytest

from cayleycodec import (
    CodingDistribution,
    DistortionMatrix,
    EnergyDistribution,
    FreeEnergyLimit,
    SymmetryError,
    beta_c,
    d0_of_r,
    f_limit,
    phi,
    symmetric_energy_law,
)
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


def test_beta_c_gaussian_analytic():
    assert beta_c(GAUSS, 2) == pytest.approx(BETA_C_GAUSS, rel=1e-10)
    assert beta_c(EnergyDistribution.gaussian(3.0, 2.0), 5) == pytest.approx(
        math.sqrt(2 * math.log(5)) / 2.0, rel=1e-10
    )


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


def test_beta_c_d1_infinite():
    assert beta_c(GAUSS, 1) == math.inf
    with pytest.raises(ValueError):
        beta_c(GAUSS, 0)


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
    res = d0_of_r(law, math.log(2))
    assert res.degenerate
    assert res.value == pytest.approx(0.0, abs=1e-8)


def test_d0_quaternary_uniform_hamming():
    law = symmetric_energy_law(CodingDistribution([0.25] * 4), DistortionMatrix.hamming(4))
    res = d0_of_r(law, math.log(2))
    assert not res.degenerate
    assert res.value == pytest.approx(0.1893, abs=5e-5)
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
    assert res.value == pytest.approx(objective(0.5 * (lo + hi)), abs=1e-9)


def test_d0_constant_distortion():
    c = 0.8
    rho = DistortionMatrix(np.full((2, 3), c))
    res = d0_of_r(symmetric_energy_law(CodingDistribution([0.2, 0.3, 0.5]), rho), math.log(2))
    assert res.degenerate
    assert res.value == pytest.approx(c, abs=1e-3)


def test_d0_rejects_bad_rate_and_asymmetry():
    Q = CodingDistribution([0.5, 0.5])
    rho = DistortionMatrix.hamming(2)
    with pytest.raises(ValueError):
        d0_of_r(symmetric_energy_law(Q, rho), 0.9)  # not ln(integer)
    with pytest.raises(SymmetryError):
        d0_of_r(symmetric_energy_law(CodingDistribution([0.9, 0.1]), rho), math.log(2))


def test_d0_consistent_with_induced_pipeline():
    # cross-module identity: d0 == -phi(beta_c) of the induced energy law
    Q = CodingDistribution([0.25] * 4)
    rho = DistortionMatrix.hamming(4)
    dist = symmetric_energy_law(Q, rho)
    res = d0_of_r(dist, math.log(2))
    limit = FreeEnergyLimit.for_distribution(dist, 2)
    assert res.value == -limit.phi_at_beta_c
    assert res.beta_star == limit.beta_c


def test_degenerate_d0_evaluated_at_beta_cap():
    law = symmetric_energy_law(CodingDistribution([0.5, 0.5]), DistortionMatrix.hamming(2))
    res = d0_of_r(law, math.log(2))
    assert res.beta_star == BETA_MAX
