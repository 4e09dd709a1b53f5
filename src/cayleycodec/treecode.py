"""Random tree-code ensemble: lazy codebooks, encoders, bit packing, decoder.

The codebook is a Cayley tree whose branch (t, j) carries an i.i.d.
reproduction letter drawn under Q; encoding a source n-tuple means finding
the walk minimizing the summed per-letter distortion, which is exactly the
ground state of a directed polymer whose branch energies are
rho(x_t, Y_branch).  The walk is shipped as its leaf index j_n, which fixes
the whole path, and the decoder reads every letter off that one index.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .dprm import MonteCarloStats, TreeShape, run_trials, tree_sweep, validate_walk, walk_from_leaf
from .model import CodingDistribution, DistortionMatrix, SourceModel
from .rng import CODEBOOK_STREAM, SOURCE_STREAM, uniforms

_MAGIC = b"CAYCODE1"
_HEADER = struct.Struct(">8sIIQ")  # magic, d, n, master_seed: 24 bytes
HEADER_SIZE = _HEADER.size


@dataclass(frozen=True)
class TreeCode:
    """Deterministic lazily-materialized random codebook tree.

    The symbol on branch (t, j_1..j_t) is a pure function of
    (master_seed, t, j_t); since the last absolute index encodes the whole
    path, it doubles as the branch key.
    """

    master_seed: int
    coding_dist: CodingDistribution
    shape: TreeShape

    def _symbols_at(self, t, j) -> np.ndarray:
        """Letters on branches (t, j); t and j broadcast against each other."""
        u = uniforms(self.master_seed, CODEBOOK_STREAM, t, j)
        return self.coding_dist.sample(u)

    def generation_symbols(self, t: int) -> np.ndarray:
        """All d^t reproduction letters of generation t, vectorized."""
        if not (1 <= t <= self.shape.n):
            raise ValueError(f"generation {t} out of range 1..{self.shape.n}")
        return self._symbols_at(t, np.arange(self.shape.d**t, dtype=np.uint64))


@dataclass(frozen=True)
class EncodingResult:
    walk: np.ndarray
    total_distortion: float
    per_symbol: np.ndarray

    @property
    def per_symbol_mean(self) -> float:
        return float(self.per_symbol.mean())


def _check_source_tuple(code: TreeCode, x, rho: DistortionMatrix) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (code.shape.n,):
        raise ValueError(f"source tuple must have length n={code.shape.n}")
    if np.any(x < 0) or np.any(x >= rho.rows):
        raise ValueError("source letter out of range for the distortion matrix")
    if code.coding_dist.alphabet_size != rho.cols:
        raise ValueError("code and distortion matrix disagree on |Y|")
    return x


def _result_from_walk(code: TreeCode, x: np.ndarray, rho: DistortionMatrix, walk: np.ndarray) -> EncodingResult:
    per = rho.values[x, code._symbols_at(np.arange(1, code.shape.n + 1), walk)]
    return EncodingResult(walk=walk, total_distortion=float(per.sum()), per_symbol=per)


def encode_exact(code: TreeCode, x, rho: DistortionMatrix) -> EncodingResult:
    """Globally minimum-distortion walk (ties: lexicographically smallest).

    This is the ground state of the induced directed-polymer instance; the
    identification is exact, including the tie-break rule.
    """
    x = _check_source_tuple(code, x, rho)
    walk = tree_sweep(lambda t: rho.values[x[t - 1]][code.generation_symbols(t)], code.shape).walk
    return _result_from_walk(code, x, rho, walk)


def _beam_pass(code: TreeCode, x: np.ndarray, rho: DistortionMatrix, M: int) -> tuple[int, float]:
    """One M-algorithm sweep; returns (best leaf index, its distortion)."""
    d, n = code.shape.d, code.shape.n
    surv_idx = np.zeros(1, dtype=np.int64)  # node indices at generation t-1
    surv_dist = np.zeros(1)
    for t in range(1, n + 1):
        cand = (d * surv_idx[:, None] + np.arange(d, dtype=np.int64)).ravel()
        e = rho.values[x[t - 1]][code._symbols_at(t, cand.astype(np.uint64))]
        dist = np.repeat(surv_dist, d) + e
        # absolute index order == lexicographic order on the full path
        order = np.lexsort((cand, dist))[:M]
        surv_idx, surv_dist = cand[order], dist[order]
    return int(surv_idx[0]), float(surv_dist[0])


def encode_beam(code: TreeCode, x, rho: DistortionMatrix, M: int) -> EncodingResult:
    """Beam-search encoder: keep the best M partial paths per generation,
    ranked by partial distortion, ties by lexicographic path.

    A single fixed-width sweep is not monotone in M (a wider beam can evict
    the narrow beam's eventual winner), so the result is the best leaf over
    sweeps of every width 1..M, which makes distortion nonincreasing in M by
    construction.  Distortion is >= the exact encoder's; equal once
    M >= d^(n-1), where the widest sweep is exhaustive.
    """
    if M < 1:
        raise ValueError("beam width M must be >= 1")
    x = _check_source_tuple(code, x, rho)
    max_useful = code.shape.d ** (code.shape.n - 1)
    best_leaf, best_dist = None, math.inf
    for width in range(1, min(M, max_useful) + 1):
        leaf, dist = _beam_pass(code, x, rho, width)
        if dist < best_dist - 1e-15 or (abs(dist - best_dist) <= 1e-15 and leaf < best_leaf):
            best_leaf, best_dist = leaf, dist
    walk = walk_from_leaf(best_leaf, code.shape)
    return _result_from_walk(code, x, rho, walk)


# ---------------------------------------------------------------------------
# fixed-rate bit packing


@dataclass(frozen=True)
class Bitstream:
    """A walk packed as its leaf index j_n: big-endian in ceil(n*log2(d))
    bits, left-aligned and zero-padded to whole bytes.  For power-of-two d
    these bits are the log2(d)-bit child indices j_t - d*j_(t-1) in order."""

    data: bytes
    n: int
    d: int

    @property
    def num_bits(self) -> int:
        # the shape check rejects a huge n in O(1) before d**n is computed
        return (TreeShape(d=self.d, n=self.n).num_walks - 1).bit_length()


def pack(walk, d: int) -> Bitstream:
    """Walk -> bits: its leaf index, left-aligned in num_bits bits."""
    walk = validate_walk(walk, TreeShape(d=d, n=np.size(walk)))
    nbits = Bitstream(data=b"", n=walk.size, d=d).num_bits
    nbytes = (nbits + 7) // 8
    value = int(walk[-1]) << (nbytes * 8 - nbits)
    return Bitstream(data=value.to_bytes(nbytes, "big"), n=walk.size, d=d)


def unpack(stream: Bitstream) -> np.ndarray:
    """Bits -> walk; the exact inverse of pack.  A wrong byte length, nonzero
    pad bits and a leaf index >= d^n are rejected, so every accepted payload
    is the pack of the walk returned."""
    nbits = stream.num_bits
    nbytes = (nbits + 7) // 8
    if len(stream.data) != nbytes:
        raise ValueError(
            f"bitstream has {len(stream.data)} bytes, expected {nbytes} for (d={stream.d}, n={stream.n})"
        )
    pad = nbytes * 8 - nbits
    value = int.from_bytes(stream.data, "big")
    if value & ((1 << pad) - 1):
        raise ValueError("bitstream: nonzero pad bits")
    return walk_from_leaf(value >> pad, TreeShape(d=stream.d, n=stream.n))


def decode_sequential(code: TreeCode, stream: Bitstream) -> np.ndarray:
    """The reproduction n-tuple of a bitstream.

    Decoding adds no delay: symbol t depends on j_t alone, and for
    power-of-two d the first t*log2(d) bits of the stream fix j_t.
    """
    if (stream.d, stream.n) != (code.shape.d, code.shape.n):
        raise ValueError("bitstream (d, n) does not match the code")
    return reproduction(code, unpack(stream))


def reproduction(code: TreeCode, walk) -> np.ndarray:
    """Reproduction symbols along a walk, recomputed straight from the tree."""
    walk = validate_walk(walk, code.shape)
    return code._symbols_at(np.arange(1, code.shape.n + 1), walk)


def write_bitstream(path, code: TreeCode, stream: Bitstream) -> None:
    """File layout: 24-byte header (magic, d, n, master_seed) then payload."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, stream.d, stream.n, code.master_seed & ((1 << 64) - 1)))
        fh.write(stream.data)


def read_bitstream(path) -> tuple[int, int, int, Bitstream]:
    """Returns (d, n, master_seed, bitstream).  Reads at most one byte past
    the payload the header implies: unpack rejects any other length, and an
    oversized file is never loaded."""
    with open(path, "rb") as fh:
        header = fh.read(HEADER_SIZE)
        if len(header) < HEADER_SIZE:
            raise ValueError("bitstream file truncated before header end")
        magic, d, n, seed = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError("not a tree-code bitstream file")
        if d < 2:
            raise ValueError(f"bitstream header has d={d}; a tree code needs d >= 2")
        nbytes = (Bitstream(data=b"", n=n, d=d).num_bits + 7) // 8
        return d, n, seed, Bitstream(data=fh.read(nbytes + 1), n=n, d=d)


# ---------------------------------------------------------------------------
# ensemble simulation


def simulate_ensemble(
    source: SourceModel,
    Q: CodingDistribution,
    rho: DistortionMatrix,
    d: int,
    n: int,
    trials: int,
    master_seed: int,
    fixed_sequence: bool = False,
) -> MonteCarloStats:
    """Monte-Carlo per-symbol distortion of the exact encoder over
    independent codes, one value per trial.

    Each trial draws a fresh code; the source n-tuple is redrawn per trial
    unless fixed_sequence is set, in which case one sequence is held across
    code redraws (the faithful test of the per-individual-sequence claim).
    """
    shape = TreeShape(d=d, n=n)

    def trial(t: int, seed: int) -> float:
        src_key = 0 if fixed_sequence else t
        x = source.sample(uniforms(master_seed, SOURCE_STREAM, src_key, np.arange(n, dtype=np.uint64)))
        return encode_exact(TreeCode(seed, Q, shape), x, rho).per_symbol_mean

    return run_trials(trial, trials, master_seed)
