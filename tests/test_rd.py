import math
import warnings

import numpy as np
import pytest

from cayleycodec import (
    CodingDistribution,
    DistortionMatrix,
    SourceModel,
    SymmetryError,
    blahut_arimoto,
    rd_point_parametric,
    verify_d0_equals_d,
)
from cayleycodec import rd
from cayleycodec.harness import ExperimentConfig, run_rd_curve


def h_nats(p):
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1 - p) * math.log(1 - p)


def exhaustive_binary_rate(D, grid=2000):
    """Min I(X;Y) over all 2x2 test channels with E[Hamming] <= D, for the
    uniform binary source; brute-force grid over the two crossover params."""
    best = math.inf
    eps = np.linspace(0.0, 1.0, grid + 1)
    for a in eps:
        for b in eps:
            dist = 0.5 * a + 0.5 * b
            if dist > D + 1e-12:
                continue
            qy1 = 0.5 * a + 0.5 * (1 - b)
            hy = h_nats(qy1)
            rate = hy - 0.5 * h_nats(a) - 0.5 * h_nats(b)
            best = min(best, rate)
    return best


def test_ba_rate_zero_endpoint():
    P = SourceModel([0.7, 0.3])
    rho = DistortionMatrix([[0.0, 1.0], [2.0, 0.5]])
    pt = blahut_arimoto(P, rho, 0.0)
    assert pt.R == 0.0
    assert pt.D == pytest.approx(min(P.probs @ rho.values), abs=1e-12)
    assert pt.converged


def test_ba_binary_uniform_closed_form():
    P = SourceModel([0.5, 0.5])
    rho = DistortionMatrix.hamming(2)
    for beta in (0.5, 1.0, 2.0, 4.0):
        pt = blahut_arimoto(P, rho, beta)
        assert pt.converged
        assert pt.R == pytest.approx(math.log(2) - h_nats(pt.D), abs=1e-6)


def test_ba_quaternary_uniform_closed_form():
    P = SourceModel([0.25] * 4)
    rho = DistortionMatrix.hamming(4)
    for beta in (0.5, 1.5, 3.0):
        pt = blahut_arimoto(P, rho, beta)
        assert pt.R == pytest.approx(
            math.log(4) - h_nats(pt.D) - pt.D * math.log(3), abs=1e-6
        )


def test_ba_against_exhaustive_channel_search():
    P = SourceModel([0.5, 0.5])
    rho = DistortionMatrix.hamming(2)
    pt = blahut_arimoto(P, rho, 2.0)
    # coarse oracle: grid resolution limits agreement
    assert pt.R == pytest.approx(exhaustive_binary_rate(pt.D), abs=2e-3)


def test_ba_validation_and_convergence_flag(monkeypatch):
    P = SourceModel([0.5, 0.5])
    rho = DistortionMatrix.hamming(2)
    with pytest.raises(ValueError):
        blahut_arimoto(P, rho, -1.0)
    # asymmetric instance: the marginal keeps moving, so one iteration
    # cannot satisfy an impossible tolerance
    monkeypatch.setattr(rd, "BA_MAX_ITER", 1)
    monkeypatch.setattr(rd, "BA_TOL", 1e-300)
    pt = blahut_arimoto(SourceModel([0.8, 0.2]), rho, 1.0)
    assert not pt.converged


def test_parametric_small_beta_limit():
    Q = CodingDistribution([0.5, 0.5])
    rho = DistortionMatrix.hamming(2)
    R, D = rd_point_parametric(Q, rho, 1e-9)
    assert D == pytest.approx(0.5, abs=1e-6)
    assert R == pytest.approx(0.0, abs=1e-9)


def test_parametric_binary_closed_form():
    D = 0.1
    beta = math.log((1 - D) / D)
    R, Dout = rd_point_parametric(
        CodingDistribution([0.5, 0.5]), DistortionMatrix.hamming(2), beta
    )
    assert Dout == pytest.approx(D, abs=1e-12)
    assert R == pytest.approx(math.log(2) - h_nats(0.1), abs=1e-9)


def test_parametric_constant_distortion():
    c = 1.7
    rho = DistortionMatrix(np.full((2, 2), c))
    for beta in (0.0, 1.0, 10.0):
        R, D = rd_point_parametric(CodingDistribution([0.5, 0.5]), rho, beta)
        assert D == pytest.approx(c, abs=1e-12)
        assert R == pytest.approx(0.0, abs=1e-9)


def test_parametric_finite_at_large_beta():
    # the log-MGF is max-shifted, so e^{-beta rho} underflowing cannot give NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R, D = rd_point_parametric(
            CodingDistribution([0.5, 0.5]), DistortionMatrix([[1, 2], [2, 1]]), 800.0
        )
    assert R == pytest.approx(math.log(2), abs=1e-9)
    assert D == pytest.approx(1.0, abs=1e-9)


def test_parametric_requires_symmetry():
    with pytest.raises(SymmetryError):
        rd_point_parametric(CodingDistribution([0.9, 0.1]), DistortionMatrix.hamming(2), 1.0)


def test_sweep_monotone_and_qstar_uniform():
    P = SourceModel([0.25] * 4)
    rho = DistortionMatrix.hamming(4)
    betas = np.linspace(0.2, 5.0, 30)
    points = [blahut_arimoto(P, rho, float(b)) for b in betas]
    Rs = np.array([p.R for p in points])
    Ds = np.array([p.D for p in points])
    assert np.all(np.diff(Rs) >= -1e-9)
    assert np.all(np.diff(Ds) <= 1e-9)
    for p in points:
        assert np.allclose(p.Q_star.probs, 0.25, atol=1e-6)


def test_parametric_agrees_with_ba():
    P = SourceModel([0.25] * 4)
    rho = DistortionMatrix.hamming(4)
    for beta in (0.8, 2.0, 3.5):
        pt = blahut_arimoto(P, rho, beta)
        R, D = rd_point_parametric(pt.Q_star, rho, beta)
        assert R == pytest.approx(pt.R, abs=1e-6)
        assert D == pytest.approx(pt.D, abs=1e-6)


def test_verify_theorem_quaternary():
    report = verify_d0_equals_d(SourceModel([0.25] * 4), DistortionMatrix.hamming(4), 2)
    assert report.applicable and report.passed
    assert report.gap <= 1e-4
    assert report.d_of_r == pytest.approx(0.1893, abs=5e-5)
    # independent oracle: root of ln4 - h(D) - D ln3 = ln2
    from scipy.optimize import brentq

    D_root = brentq(
        lambda D: math.log(4) - h_nats(D) - D * math.log(3) - math.log(2), 1e-9, 0.74
    )
    assert report.d_of_r == pytest.approx(D_root, abs=1e-8)


def test_verify_theorem_ternary():
    report = verify_d0_equals_d(SourceModel([1 / 3] * 3), DistortionMatrix.hamming(3), 2)
    assert report.applicable and report.passed and report.gap <= 1e-4
    from scipy.optimize import brentq

    D_root = brentq(
        lambda D: math.log(3) - h_nats(D) - D * math.log(2) - math.log(2), 1e-9, 0.66
    )
    assert report.d_of_r == pytest.approx(D_root, abs=1e-8)


def test_verify_theorem_binary_degenerate_endpoint():
    report = verify_d0_equals_d(SourceModel([0.5, 0.5]), DistortionMatrix.hamming(2), 2)
    assert report.applicable and report.passed
    assert report.degenerate
    assert report.d_of_r == pytest.approx(0.0, abs=1e-6)
    assert report.d0 == pytest.approx(0.0, abs=1e-6)


def test_verify_theorem_not_applicable_for_skewed_source():
    report = verify_d0_equals_d(SourceModel([0.85, 0.15]), DistortionMatrix.hamming(2), 2)
    assert not report.applicable
    assert not report.passed
    assert math.isnan(report.d0)
    assert "hypothesis" in report.detail


def test_d0_sandwiches_d_within_tolerance():
    # both inequality directions on every symmetric fixture
    fixtures = [
        (SourceModel([0.25] * 4), DistortionMatrix.hamming(4)),
        (SourceModel([1 / 3] * 3), DistortionMatrix.hamming(3)),
        (SourceModel([0.2] * 5), DistortionMatrix.hamming(5)),
    ]
    for P, rho in fixtures:
        report = verify_d0_equals_d(P, rho, 2)
        assert report.d0 <= report.d_of_r + 1e-4
        assert report.d0 >= report.d_of_r - 1e-4


def test_export_curve_csv(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "rd-curve",
        "master_seed": 1,
        "models": {"source": {"probs": [0.5, 0.5]}, "distortion": {"hamming": 2}},
        "beta_grid": [0.5, 1.0, 2.0],
    })
    run_rd_curve(cfg, str(tmp_path))
    lines = (tmp_path / "rd_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "beta,R_nats,R_bits,D,converged"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(float(first[1]) / math.log(2), rel=1e-9)
