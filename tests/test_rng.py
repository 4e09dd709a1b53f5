import numpy as np
import pytest

from bruteforce import hash64_numpy
from cayleycodec import rng


@pytest.mark.parametrize("keys", [
    (),
    (5,),
    (1, 2, 3),
    (-1, -(2**63), 2**63, 2**64 - 1),  # Python ints, wrapped to 64 bits
    (7, rng.CODEBOOK_STREAM, 2**70),
    (np.int64(-5), np.uint64(2**63 + 3), np.int64(9)),
    (1, np.array(5)),  # a 0-d array key gives numpy scalars, whose wrap-around warning pytest makes an error
    (np.array(-3, dtype=np.int64), 2),
    (1, rng.ENERGY_STREAM, 4, np.arange(-3, 5, dtype=np.int64)),
    (3, np.arange(4, dtype=np.uint64) * np.uint64(2**62)),
    (9, rng.CODEBOOK_STREAM, np.arange(1, 6, dtype=np.int64), np.arange(5, dtype=np.uint64)),  # as reproduction
    (np.arange(3, dtype=np.uint64), 2**63, -1),
])
def test_hash64_matches_the_numpy_scalar_oracle(keys):
    got, want = rng.hash64(*keys), hash64_numpy(*keys)
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype == np.uint64
    assert np.array_equal(got, want)


def test_hash64_random_keys_match_the_oracle():
    gen = np.random.default_rng(5)
    for _ in range(200):
        scalars = [int(v) for v in gen.integers(-(2**63), 2**63, int(gen.integers(0, 4)), dtype=np.int64)]
        j = gen.integers(0, 2**64, int(gen.integers(1, 9)), dtype=np.uint64)
        assert rng.hash64(*scalars) == hash64_numpy(*scalars)
        assert np.array_equal(rng.hash64(*scalars, j), hash64_numpy(*scalars, j))
        assert rng.derive_seed(*scalars) == int(hash64_numpy(*scalars))


def test_a_seed_column_hashes_each_row_as_its_int_seed():
    # a block of codes: a (T, 1) uint64 column of child seeds, against each seed as a Python int
    gen = np.random.default_rng(11)
    seeds = [0, 1, 2**63 - 1, 2**63, 2**64 - 1] + [int(s) for s in gen.integers(0, 2**64, 20, dtype=np.uint64)]
    col = np.array(seeds, dtype=np.uint64)[:, None]
    j = np.arange(9, dtype=np.uint64)
    for t in (1, 7):
        h, u = rng.hash64(col, rng.CODEBOOK_STREAM, t, j), rng.uniforms(col, rng.CODEBOOK_STREAM, t, j)
        assert h.shape == u.shape == (len(seeds), 9)
        assert np.array_equal(h, hash64_numpy(col, rng.CODEBOOK_STREAM, t, j))
        for row, seed in enumerate(seeds):
            assert np.array_equal(h[row], rng.hash64(seed, rng.CODEBOOK_STREAM, t, j))
            assert u[row].tobytes() == rng.uniforms(seed, rng.CODEBOOK_STREAM, t, j).tobytes()


def test_a_trial_key_column_hashes_each_row_as_its_int_key():
    # the source tuples of a block: trial indices as an int64 column after two int keys
    keys, j = np.arange(9, dtype=np.int64)[:, None], np.arange(5, dtype=np.uint64)
    for master in (0, 2**63 + 7):
        h, u = rng.hash64(master, rng.SOURCE_STREAM, keys, j), rng.uniforms(master, rng.SOURCE_STREAM, keys, j)
        assert np.array_equal(h, hash64_numpy(master, rng.SOURCE_STREAM, keys, j))
        for t in range(9):
            assert np.array_equal(h[t], rng.hash64(master, rng.SOURCE_STREAM, t, j))
            assert u[t].tobytes() == rng.uniforms(master, rng.SOURCE_STREAM, t, j).tobytes()
