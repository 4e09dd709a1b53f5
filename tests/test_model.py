import tracemalloc

import numpy as np
import pytest
from bruteforce import inverse_transform_searchsorted
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from cayleycodec import (
    model,
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


def random_pmf(rng) -> np.ndarray:
    """Masses with zero-mass letters first, inside and last, trailing 1e-17 masses, or a wide alphabet."""
    k = int(rng.choice([1, 2, 3, 4, 7, 64, 300], p=[0.1, 0.2, 0.2, 0.2, 0.15, 0.1, 0.05]))
    probs = rng.dirichlet(np.full(k, float(rng.choice([0.3, 1.0, 5.0]))))
    zeros = int(rng.integers(0, 4))
    probs = np.insert(probs, rng.integers(0, k + 1, zeros), 0.0)  # first, inside or last
    if rng.random() < 0.25:
        probs = np.append(probs, [1e-17] * int(rng.integers(1, 3)))
    if rng.random() < 0.25:
        probs = np.append(probs, [0.0] * int(rng.integers(1, 3)))
    return probs


@pytest.mark.parametrize("slice_bytes, pmfs", [(None, 2000), (512, 250)], ids=["default", "small-slices"])
def test_draws_equal_the_binary_search_bit_for_bit(monkeypatch, slice_bytes, pmfs):
    if slice_bytes is not None:  # slices of one to a few dozen cells, so most draws cross slice edges
        monkeypatch.setattr(model, "DRAW_SLICE_BYTES", slice_bytes)
    rng = np.random.default_rng(31)
    ends = {"above": 0, "below": 0, "at": 0}
    for _ in range(pmfs):
        pmf = Pmf(random_pmf(rng))
        cum = np.cumsum(pmf.probs)
        ends["above" if cum[-1] > 1 else "below" if cum[-1] < 1 else "at"] += 1
        u = np.concatenate([rng.random(int(rng.integers(0, 40))), cum, np.nextafter(cum, 0.0), np.nextafter(cum, 2.0),
                            [2.0**-54, 1.0 - 2.0**-53]])
        u = rng.permutation(u)
        want = inverse_transform_searchsorted(pmf.probs, u)
        law = EnergyDistribution.discrete(rng.normal(size=pmf.alphabet_size), pmf.probs)
        want_e = law.values[inverse_transform_searchsorted(law.probs, u)]
        for shape in [(u.size,), (1, u.size), (u.size, 1)] + ([(2, u.size // 2)] if u.size % 2 == 0 else []):
            got = pmf.sample(u.reshape(shape))
            assert got.dtype == np.int64 and np.array_equal(got, want.reshape(shape))
            got_e = law.sample(u.reshape(shape))
            assert got_e.tobytes() == want_e.tobytes() and got_e.shape == shape
            out, same = np.empty(shape), u.reshape(shape).copy()
            assert law.sample(u.reshape(shape), out=out) is out and out.tobytes() == want_e.tobytes()
            assert law.sample(same, out=same) is same and same.tobytes() == want_e.tobytes()
        for x in (u[0], float(u[-1]), np.asarray(u[1])):  # numpy float, Python float and 0-d array
            want_x = inverse_transform_searchsorted(pmf.probs, x)
            got = pmf.sample(x)
            assert type(got) is type(want_x) is np.int64 and got == want_x
            got_e = law.sample(x)
            assert type(got_e) is np.float64 and got_e == law.values[inverse_transform_searchsorted(law.probs, x)]
    assert min(ends.values()) > 0  # cumsums that end above, below and at 1 all met
    with pytest.raises(ValueError, match="C-contiguous"):  # a strided out's flat view would be a copy
        law.sample(u, out=np.empty(2 * u.size)[::2])


def test_draw_temporaries_stay_bounded():
    # an unsliced draw from 256 letters would hold a 256 MB mask over 2^20 cells, and the energy draw
    # a 2^20-cell index array beside out; a slice's mask and indices take at most model.DRAW_SLICE_BYTES, 256 KiB,
    # and numpy's buffers for the count less than as much again
    cells, fixed = 1 << 20, 512 * 1024
    u = uniforms(5, ENERGY_STREAM, np.arange(cells, dtype=np.uint64))
    pmf = Pmf(np.full(256, 1 / 256))
    law = EnergyDistribution.discrete(np.arange(256.0), pmf.probs)
    pmf.sample(u[:10]), law.sample(u[:10])  # each law's cdf is built outside the count
    out = np.empty(cells)
    for draw, held in [(lambda: pmf.sample(u), 8 * cells), (lambda: law.sample(u, out=out), 0)]:
        tracemalloc.start()
        try:
            draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= held + fixed
    assert np.array_equal(out, pmf.sample(u))


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
