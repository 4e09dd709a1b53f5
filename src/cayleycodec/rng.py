"""Stateless, counter-style random substreams.

Every random quantity in this library (branch energies, codeword symbols,
source letters, per-trial seeds) is a pure function of a 64-bit master seed
and a handful of integer coordinates.  We get that by hashing the coordinates
through chained splitmix64 finalizers, which vectorizes over numpy uint64
arrays, so a whole tree generation of draws comes out of one array expression
while any single draw stays randomly accessible.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

_MASK64 = (1 << 64) - 1

_GAMMA, _M1, _M2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U64 = [np.uint64(c) for c in (_GAMMA, _M1, _M2, 30, 27, 31)]  # the same, as uint64 scalars

# Domain-separation tags for the independent substreams hanging off one
# master seed.  Arbitrary distinct constants.
ENERGY_STREAM = 0x7E52B8A1C64D93F0
CODEBOOK_STREAM = 0x1F83D9ABFB41BD6B
SOURCE_STREAM = 0xA54FF53A5F1D36F1
TRIAL_STREAM = 0x510E527FADE682D1
_NO_ERRSTATE = nullcontext()  # what hash64 enters for array keys, whose arithmetic never warns


def _finalize(z: np.ndarray) -> np.ndarray:
    """splitmix64 output function: a bijective avalanche on uint64 (wrap-around is the point), in place on an array."""
    gamma, m1, m2, s30, s27, s31 = _U64
    out = z if isinstance(z, np.ndarray) else None
    z = np.add(z, gamma, out=out)
    z = np.multiply(np.bitwise_xor(z, z >> s30, out=out), m1, out=out)
    z = np.multiply(np.bitwise_xor(z, z >> s27, out=out), m2, out=out)
    return np.bitwise_xor(z, z >> s31, out=out)


def _finalize_int(z: int) -> int:
    """_finalize on a Python int, masked to 64 bits after each step."""
    z = (z + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _M1) & _MASK64
    z = ((z ^ (z >> 27)) * _M2) & _MASK64
    return z ^ (z >> 31)


def hash64(*keys, out=None) -> np.ndarray:
    """Collapse (seed, tag, index, ...) into one 64-bit hash.

    Scalar keys give a np.uint64; a single array key (conventionally the
    last) broadcasts, giving one hash per element.  Leading int keys fold in
    Python ints, the rest in uint64 arrays from the first array key on, in out if given.
    Only a 0-d key there leaves numpy scalars, which warn on wrap-around, so only it pays for np.errstate.
    """
    h, i = 0, 0
    while i < len(keys) and isinstance(keys[i], (int, np.integer)):
        h, i = _finalize_int(h ^ (int(keys[i]) & _MASK64)), i + 1
    h = np.uint64(h)
    with np.errstate(over="ignore") if i < len(keys) and np.ndim(keys[i]) == 0 else _NO_ERRSTATE:
        for k in keys[i:]:
            h = _finalize(np.bitwise_xor(h, np.asarray(k).astype(np.uint64, copy=False), out=out))
    return h


def uniforms(*keys, out=None) -> np.ndarray:
    """Uniform(0,1) variates, strictly inside the open interval.  Given out (float64,
    the keys' broadcast shape), they are computed in its memory and out is returned."""
    if out is not None:  # numpy casts a 1-D assignment onto its own memory in place, with no copy
        out[...] = np.right_shift(hash64(*keys, out=out.view(np.uint64)), np.uint64(11), out=out.view(np.uint64))
    u = out if out is not None else (hash64(*keys) >> np.uint64(11)).astype(np.float64)
    out = u if isinstance(u, np.ndarray) else None  # out, or a fresh array: the steps below reuse it
    # the top hash would round up to exactly 1.0; clamp it to the largest double below 1
    return np.minimum(np.multiply(np.add(u, 0.5, out=out), 2.0**-53, out=out), 1.0 - 2.0**-53, out=out)
