import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from cayleycodec import (
    Pmf,
    DistortionMatrix,
    EnergyDistribution,
    SymmetryError,
    symmetric_energy_law,
)
from cayleycodec.model import CodingDistribution, SourceModel
from cayleycodec.rng import ENERGY_STREAM, uniforms


def test_source_model_validates_and_renormalizes():
    s = SourceModel([0.5, 0.5 + 5e-13])
    assert s.alphabet_size == 2
    assert s.probs.sum() == pytest.approx(1.0, abs=0)
    with pytest.raises(ValueError):
        SourceModel([0.5, 0.6])
    with pytest.raises(ValueError):
        SourceModel([-0.1, 1.1])


def test_pmf_sample_never_leaves_the_alphabet():
    assert SourceModel is CodingDistribution is Pmf
    p = Pmf([0.1] * 10)
    # the cumsum ends just below 1, so u in [cumsum[-1], 1) lies past it
    assert p.sample(np.cumsum(p.probs)[-1]) == 9
    assert list(p.sample([0.05, 0.9999999999999999])) == [0, 9]


def test_pmf_sample_past_the_cumsum_skips_trailing_zero_mass_letters():
    # 1 - 2^-53 is the top hashed uniform and lies past this cumsum: it draws letter 9, not the massless 10 or 11
    top = 1.0 - 2.0**-53
    p = Pmf([0.1] * 10 + [0.0, 0.0])
    assert np.cumsum(p.probs)[-1] <= top
    assert p.sample(top) == 9
    assert list(p.sample([top, 0.05])) == [9, 0]


def test_pmf_sample_keeps_every_other_draw():
    # against the rule that clamped to the last letter: the same letter wherever that one has mass
    rng = np.random.default_rng(21)
    clamped = 0
    for _ in range(2000):
        k = int(rng.integers(1, 8))
        probs = np.insert(rng.dirichlet(np.ones(k)), rng.integers(0, k + 1, int(rng.integers(0, 3))), 0.0)
        probs = np.append(probs, [0.0] * int(rng.integers(0, 2)))
        p = Pmf(probs)
        cum = np.cumsum(p.probs)
        u = np.concatenate([rng.random(32), cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0), [1.0 - 2.0**-53]])
        u = u[(u > 0.0) & (u < 1.0)]
        before = np.minimum(np.searchsorted(cum, u, side="right"), p.alphabet_size - 1)
        massless = p.probs[before] == 0.0
        clamped += int(massless.sum())
        assert np.array_equal(p.sample(u), np.where(massless, np.flatnonzero(p.probs)[-1], before))
    assert clamped > 0


def test_uniforms_stay_below_one(monkeypatch):
    from cayleycodec import rng

    top = np.uint64((1 << 64) - 1)
    monkeypatch.setattr(rng, "hash64", lambda *keys: np.full(3, top))
    u = rng.uniforms(1, 2, np.arange(3))
    assert np.all(u < 1.0)
    assert np.all(np.isfinite(EnergyDistribution.gaussian(0.0, 1.0).sample(u)))
    monkeypatch.setattr(rng, "hash64", lambda *keys: top)
    assert rng.uniforms(1, 2, 3) < 1.0


def test_gaussian_sample_is_scipy_ndtri_bit_for_bit():
    # sample imports ndtri on first use; its draws must stay scipy's, bit for bit
    u = uniforms(3, ENERGY_STREAM, 0, np.arange(100_000, dtype=np.uint64))
    assert np.array_equal(EnergyDistribution.gaussian(0.3, 1.7).sample(u), 0.3 + 1.7 * ndtri(u))


def test_distortion_matrix_rejects_bad_entries():
    with pytest.raises(ValueError):
        DistortionMatrix([[0.0, -1.0]])
    with pytest.raises(ValueError):
        DistortionMatrix([[0.0, np.inf]])
    m = DistortionMatrix.hamming(3)
    assert m.rows == m.cols == 3
    assert m.values[0, 0] == 0.0 and m.values[0, 1] == 1.0


def test_energy_distribution_variants():
    d = EnergyDistribution.discrete([1.0, 0.0], [0.25, 0.75])
    assert d.values[0] == 0.0 and d.values[-1] == 1.0
    assert d.values @ d.probs == pytest.approx(0.25)
    for mean, std in [(0.0, 0.0), (np.nan, 1.0), (np.inf, 1.0), (0.0, np.inf), (0.0, np.nan)]:
        with pytest.raises(ValueError):
            EnergyDistribution.gaussian(mean, std)
    with pytest.raises(ValueError):
        EnergyDistribution.discrete([0.0, 1.0], [0.7, 0.7])


def test_check_symmetry_hamming_uniform():
    # rows of the Hamming matrix are permutations of each other
    symmetric_energy_law(CodingDistribution([0.5, 0.5]), DistortionMatrix.hamming(2))


def test_check_symmetry_skewed_q_fails():
    with pytest.raises(SymmetryError, match="rows 0 and 1") as exc:
        symmetric_energy_law(CodingDistribution([0.9, 0.1]), DistortionMatrix.hamming(2))
    assert "0.9" in str(exc.value) or "0.1" in str(exc.value)


def test_check_symmetry_swap_allowed_only_for_equal_masses():
    rho = DistortionMatrix([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]])
    # swapping rho(x,a) with rho(x,b) is fine when q(a) == q(b)
    symmetric_energy_law(CodingDistribution([0.3, 0.3, 0.4]), rho)
    with pytest.raises(SymmetryError):
        symmetric_energy_law(CodingDistribution([0.5, 0.3, 0.2]), rho)


def test_check_symmetry_dimension_mismatch():
    with pytest.raises(ValueError):
        symmetric_energy_law(CodingDistribution([0.5, 0.5]), DistortionMatrix.hamming(3))


def test_induced_distribution_binary_uniform():
    dist = symmetric_energy_law(CodingDistribution([0.5, 0.5]), DistortionMatrix.hamming(2))
    assert np.allclose(dist.values, [0.0, 1.0])
    assert np.allclose(dist.probs, [0.5, 0.5])


def test_induced_distribution_degenerate_q():
    dist = symmetric_energy_law(CodingDistribution([1.0, 0.0]), DistortionMatrix([[0.0, 1.0]]))
    assert np.allclose(dist.values, [0.0])
    assert np.allclose(dist.probs, [1.0])


def test_induced_distribution_quaternary_hamming():
    Q = CodingDistribution([0.25] * 4)
    rho = DistortionMatrix.hamming(4)
    dist = symmetric_energy_law(Q, rho)
    assert np.allclose(dist.values, [0.0, 1.0])
    assert np.allclose(dist.probs, [0.25, 0.75])


@settings(max_examples=100, deadline=None)
@given(
    base=st.lists(st.integers(min_value=0, max_value=16), min_size=2, max_size=6),
    data=st.data(),
)
def test_uniform_q_with_permuted_rows_is_symmetric(base, data):
    k = len(base)
    rows = [base] + [
        data.draw(st.permutations(base)) for _ in range(data.draw(st.integers(1, 4)))
    ]
    rho = DistortionMatrix(np.asarray(rows, dtype=float) / 8.0)
    Q = CodingDistribution(np.full(k, 1.0 / k))
    ref = symmetric_energy_law(Q, rho)
    for x in range(rho.rows):
        other = EnergyDistribution.discrete(rho.values[x], Q.probs)
        assert np.allclose(ref.values, other.values, atol=1e-9)
        assert np.allclose(ref.probs, other.probs, atol=1e-9)
