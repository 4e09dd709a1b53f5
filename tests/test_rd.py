import math
import tracemalloc
import warnings

import numpy as np
import pytest
from bruteforce import blahut_arimoto_loop

from cayleycodec import (
    DistortionMatrix,
    SymmetryError,
    blahut_arimoto,
    blahut_arimoto_curve,
    symmetric_energy_law,
    verify_d0_equals_d,
)
from cayleycodec.model import CodingDistribution, SourceModel
from cayleycodec import model, rd
from cayleycodec.harness import ExperimentConfig, run_experiment, run_rd_curve
from cayleycodec.theory import BETA_MAX

# the rd-theorem workload's NOT-APPLICABLE pair; its curve does not converge at beta = 1.1
ASYMMETRIC = (SourceModel([0.5, 0.3, 0.2]), DistortionMatrix.hamming(3))


def rd_point_parametric(
    Q_star: CodingDistribution, rho: DistortionMatrix, beta: float
) -> tuple[float, float]:
    """(R, D) at slope beta from the single-letter representation
    D = E{rho e^{-beta rho}} / E{e^{-beta rho}} under Y ~ Q*,
    R = -(beta D + ln E{e^{-beta rho}}), with x immaterial by symmetry; an
    independent check of Blahut-Arimoto."""
    law = symmetric_energy_law(Q_star, rho)
    if beta < 0:
        raise ValueError("beta must be >= 0")
    D = -law.log_mgf_prime(beta)
    R = -(beta * D + law.log_mgf(beta))
    return max(R, 0.0), D


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


def assert_same_point(got, want):
    assert (got.beta, got.R, got.D, got.iterations, got.converged) == (
        want.beta, want.R, want.D, want.iterations, want.converged)
    assert np.array_equal(got.Q_star.probs, want.Q_star.probs)


@pytest.mark.parametrize("seed", range(3))
def test_ba_curve_matches_scalar_loop_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    for case in range(8):
        nx, ny = (int(k) for k in rng.integers(2, 6, size=2))
        P = SourceModel(rng.dirichlet(np.ones(nx)))
        # integer distortions tie letters, real ones do not
        rho = DistortionMatrix(rng.integers(0, 4, (nx, ny)) if case % 2 else 3 * rng.random((nx, ny)))
        betas = [0.0, BETA_MAX, *np.exp(rng.uniform(-3.0, 5.0, size=6))]
        rng.shuffle(betas)
        for got, beta in zip(blahut_arimoto_curve(P, rho, betas), betas, strict=True):
            assert_same_point(got, blahut_arimoto_loop(P, rho, beta))


def test_ba_curve_matches_scalar_loop_where_it_does_not_converge():
    P, rho = ASYMMETRIC
    betas = [1.2, 1.1, 0.1]
    points = blahut_arimoto_curve(P, rho, betas)
    assert not points[1].converged and points[1].iterations == rd.BA_MAX_ITER
    for got, beta in zip(points, betas, strict=True):
        assert_same_point(got, blahut_arimoto_loop(P, rho, beta))


@pytest.mark.parametrize("max_iter", [1, 45])  # 45 ends the blocks 1, 1, 2, 4, 8, 16 with a short one
def test_ba_curve_matches_scalar_loop_at_a_short_iteration_cap(monkeypatch, max_iter):
    monkeypatch.setattr(rd, "BA_MAX_ITER", max_iter)
    P, rho = ASYMMETRIC
    betas = [round(0.3 * k, 10) for k in range(11)] + [BETA_MAX]
    points = blahut_arimoto_curve(P, rho, betas)
    assert {p.converged for p in points} == {True, False}
    for got, beta in zip(points, betas, strict=True):
        assert_same_point(got, blahut_arimoto_loop(P, rho, beta))


@pytest.mark.parametrize("slopes", [1, 3, 7])
def test_ba_curve_slices_change_no_bit(monkeypatch, slopes):
    rng = np.random.default_rng(slopes)
    for case in range(4):
        nx, ny = (int(k) for k in rng.integers(2, 6, size=2))
        P = SourceModel(rng.dirichlet(np.ones(nx)))
        rho = DistortionMatrix(rng.integers(0, 4, (nx, ny)) if case % 2 else 3 * rng.random((nx, ny)))
        betas = [0.0, BETA_MAX, *np.exp(rng.uniform(-3.0, 5.0, size=37))]
        rng.shuffle(betas)
        whole = blahut_arimoto_curve(P, rho, betas)
        with monkeypatch.context() as m:
            m.setattr(model, "BLOCK_CELLS", slopes * nx * ny)
            for got, want in zip(blahut_arimoto_curve(P, rho, betas), whole, strict=True):
                assert_same_point(got, want)


def test_ba_curve_memory_follows_the_cell_cap(monkeypatch):
    P, rho = SourceModel([1 / 30] * 30), DistortionMatrix.hamming(30)
    peaks = []
    for slopes, cap in ((64, model.BLOCK_CELLS), (512, 8 * rho.values.size)):
        monkeypatch.setattr(model, "BLOCK_CELLS", cap)
        tracemalloc.start()
        blahut_arimoto_curve(P, rho, np.linspace(0.5, 20.0, slopes))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # 8-slope slices of a 512-slope grid peak below one 64-slope slice
    assert peaks[1] < peaks[0]


def test_ba_leaves_out_a_zero_probability_source_letter():
    # its row of the test channel would be 0/0 once its best letter's q underflows
    rho = DistortionMatrix.hamming(3)
    for beta in (0.0, 1.0, 800.0, BETA_MAX):
        got = blahut_arimoto(SourceModel([0.9, 0.1, 0.0]), rho, beta)
        assert_same_point(got, blahut_arimoto_loop(SourceModel([0.9, 0.1]), DistortionMatrix(rho.values[:2]), beta))


def rd_curve_config(probs, k, grid):
    return ExperimentConfig.from_dict({
        "kind": "rd-curve",
        "master_seed": 1,
        "models": {"source": {"probs": probs}, "distortion": {"hamming": k}},
        "beta_grid": grid,
    })


def test_ba_curve_validates_no_pmf_per_slope(monkeypatch):
    calls, real = [], model._validated_pmf
    monkeypatch.setattr(model, "_validated_pmf", lambda *a: calls.append(a) or real(*a))
    grid = [round(0.1 * k, 10) for k in range(1, 101)]
    points = blahut_arimoto_curve(*ASYMMETRIC, grid)
    assert calls == []
    cfg = rd_curve_config([0.5, 0.3, 0.2], 3, grid)
    assert len(calls) == 1  # the config's source
    run_rd_curve(cfg)
    rd._solve_beta_for_rate(*ASYMMETRIC, math.log(2))
    assert len(calls) == 1
    # Q* is validated on first read only, then kept
    point = points[10]
    assert point.Q_star is point.Q_star and len(calls) == 2
    assert np.array_equal(point.Q_star.probs, CodingDistribution(point.q).probs)


@pytest.mark.parametrize("probs, max_iter", [([0.5, 0.3, 0.2], 45), ([0.9, 0.1, 0.0], rd.BA_MAX_ITER)])
def test_rd_curve_table_matches_the_scalar_loop(monkeypatch, probs, max_iter):
    monkeypatch.setattr(rd, "BA_MAX_ITER", max_iter)
    rng = np.random.default_rng(9)
    grid = [0.0, BETA_MAX, *np.exp(rng.uniform(-3.0, 5.0, size=20)).tolist()]
    rng.shuffle(grid)
    rows = run_rd_curve(rd_curve_config(probs, 3, grid)).tables["rd_curve.csv"][1]
    # a zero-probability letter's oracle runs without that letter
    keep = np.array(probs) > 0
    P, rho = SourceModel(np.array(probs)[keep]), DistortionMatrix(DistortionMatrix.hamming(3).values[keep])
    want = [blahut_arimoto_loop(P, rho, b) for b in grid]
    assert rows == [(p.beta, p.R, p.R / math.log(2), p.D, int(p.converged)) for p in want]


@pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf])
def test_ba_rejects_negative_and_non_finite_beta(beta):
    P, rho = ASYMMETRIC
    with pytest.raises(ValueError, match="beta must be finite and >= 0"):
        blahut_arimoto(P, rho, beta)
    with pytest.raises(ValueError, match="beta must be finite and >= 0"):
        blahut_arimoto_curve(P, rho, [1.0, beta])


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
    assert report.d0 is None
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
    run_experiment(rd_curve_config([0.5, 0.5], 2, [0.5, 1.0, 2.0]), str(tmp_path))
    lines = (tmp_path / "rd_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "beta,R_nats,R_bits,D,converged"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[2]) == pytest.approx(float(first[1]) / math.log(2), rel=1e-9)


@pytest.mark.parametrize("grid", [
    [2.0, 0.5, 1.1, 0.1],  # unsorted, with the unconverged slope
    [1.0, 0.5, 1.0, 0.5],  # duplicates
    [0.5, 0.0, 2.0, 0.0, 0.1],  # the rate-zero end among positive slopes
])
def test_rd_curve_rows_follow_the_grid(tmp_path, grid):
    run_experiment(rd_curve_config([0.5, 0.3, 0.2], 3, grid), str(tmp_path))
    rows = (tmp_path / "rd_curve.csv").read_text().strip().splitlines()[1:]
    want = [blahut_arimoto(*ASYMMETRIC, b) for b in grid]
    assert rows == [f"{p.beta:.12g},{p.R:.12g},{p.R / math.log(2):.12g},{p.D:.12g},{int(p.converged)}" for p in want]
