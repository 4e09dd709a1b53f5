import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycodec import (
    CodingDistribution,
    Pmf,
    DistortionMatrix,
    EnergyDistribution,
    SourceModel,
    SymmetryError,
    symmetric_energy_law,
)


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


def test_uniforms_stay_below_one(monkeypatch):
    from cayleycodec import rng

    top = np.uint64((1 << 64) - 1)
    monkeypatch.setattr(rng, "hash64", lambda *keys: np.full(3, top))
    u = rng.uniforms(1, 2, np.arange(3))
    assert np.all(u < 1.0)
    assert np.all(np.isfinite(EnergyDistribution.gaussian(0.0, 1.0).sample(u)))
    monkeypatch.setattr(rng, "hash64", lambda *keys: top)
    assert rng.uniforms(1, 2, 3) < 1.0


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
    assert d.mean == pytest.approx(0.25)
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
