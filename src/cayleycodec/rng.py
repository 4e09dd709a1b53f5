"""Stateless, counter-style random substreams.

Every random quantity in this library (branch energies, codeword symbols,
source letters, per-trial seeds) is a pure function of a 64-bit master seed
and a handful of integer coordinates.  We get that by hashing the coordinates
through chained splitmix64 finalizers, which vectorizes over numpy uint64
arrays, so a whole tree generation of draws comes out of one array expression
while any single draw stays randomly accessible.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

# Domain-separation tags for the independent substreams hanging off one
# master seed.  Arbitrary distinct constants.
ENERGY_STREAM = 0x7E52B8A1C64D93F0
CODEBOOK_STREAM = 0x1F83D9ABFB41BD6B
SOURCE_STREAM = 0xA54FF53A5F1D36F1
TRIAL_STREAM = 0x510E527FADE682D1


def _finalize(x: np.ndarray) -> np.ndarray:
    """splitmix64 output function: a bijective avalanche on uint64."""
    with np.errstate(over="ignore"):  # modular wrap-around is the point
        z = x + _GAMMA
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def _as_u64(k) -> np.ndarray:
    if isinstance(k, (int, np.integer)):
        return np.uint64(int(k) & _MASK64)
    a = np.asarray(k)
    return a.astype(np.uint64)


def hash64(*keys) -> np.ndarray:
    """Collapse (seed, tag, index, ...) into one 64-bit hash.

    Scalar keys give a scalar hash; a single array key (conventionally the
    last) broadcasts, giving one hash per element.
    """
    h = np.uint64(0)
    for k in keys:
        h = _finalize(h ^ _as_u64(k))
    return h


def uniforms(*keys) -> np.ndarray:
    """Uniform(0,1) variates, strictly inside the open interval."""
    h = hash64(*keys)
    # the top hash would round up to exactly 1.0; clamp it to the largest double below 1
    return np.minimum(((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53, 1.0 - 2.0**-53)


def derive_seed(*keys) -> int:
    """A fresh 64-bit master seed for a named child stream."""
    return int(hash64(*keys))
