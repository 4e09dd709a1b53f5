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
