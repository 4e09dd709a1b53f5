"""Random tree-code ensemble: lazy codebooks, encoders, bit packing, decoder.

The codebook is a Cayley tree whose branch (t, j) carries an i.i.d.
reproduction letter drawn under Q; encoding a source n-tuple means finding
the walk minimizing the summed per-letter distortion, which is exactly the
ground state of a directed polymer whose branch energies are
rho(x_t, Y_branch).  The walk is shipped as its leaf index j_n, which fixes
the whole path, and the decoder reads every letter off that one index.

The exact encoder is one top-down sweep that keeps, in leaf order, the
children whose partial sum is <= B.  From PRUNE_MIN_LEAVES leaves up, B is the
total of one width-min(8, d^(n-1)) beam sweep; below, B = inf and every child
is kept, so the sweep is the full tree's.  As rho >= 0 and adding a float >= 0
never lowers a float sum, every minimising leaf keeps its ancestors <= B, so
the first argmin left is the full sweep's walk and left-to-right total.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import model
from .dprm import MonteCarloStats, TreeShape, run_trials, validate_walk, walk_from_leaf
from .model import DistortionMatrix, Pmf
from .rng import CODEBOOK_STREAM, SOURCE_STREAM, uniforms

_MAGIC = b"CAYCODE1"
_HEADER = struct.Struct(">8sIIQ")  # magic, d, n, master_seed: 24 bytes
HEADER_SIZE = _HEADER.size
# encode_exact bounds no tree of fewer leaves: there the bound pass costs more than it prunes
PRUNE_MIN_LEAVES = 1 << 14
# bytes a tree search may ask for: half of physical memory
MEMORY_BUDGET = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2
# paths one pruned generation may grow, at 128 bytes each (about 44 measured)
MAX_CHILDREN = MEMORY_BUDGET // 128


@dataclass(frozen=True)
class TreeCode:
    """Deterministic lazily-materialized random codebook tree.

    The symbol on branch (t, j_1..j_t) is a pure function of
    (master_seed, t, j_t); since the last absolute index encodes the whole
    path, it doubles as the branch key.  A (T, 1) uint64 column of seeds
    makes a block of T codes, whose symbols come one code a row.
    """

    master_seed: int | np.ndarray
    coding_dist: Pmf
    shape: TreeShape

    def _symbols_at(self, t, j) -> np.ndarray:
        """Letters on branches (t, j); t and j broadcast against each other."""
        u = uniforms(self.master_seed, CODEBOOK_STREAM, t, j)
        return self.coding_dist.sample(u)


@dataclass(frozen=True)
class EncodingResult:
    """The winning walk and its distortion, the left-to-right sum
    (rho(x_1, y_1) + rho(x_2, y_2)) + ... that the encoder's sweep minimised,
    so totals rank walks exactly as the encoder did; a block's, one code a row."""

    walk: np.ndarray
    total_distortion: float | np.ndarray

    @property
    def per_symbol_mean(self) -> float | np.ndarray:
        return self.total_distortion / self.walk.shape[-1]


def _check_source_tuple(code: TreeCode, x, rho: DistortionMatrix, batch: tuple = ()) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    if x.shape != (*batch, code.shape.n):
        raise ValueError(f"source tuple must have length n={code.shape.n}")
    if np.any(x < 0) or np.any(x >= rho.rows):
        raise ValueError("source letter out of range for the distortion matrix")
    if code.coding_dist.alphabet_size != rho.cols:
        raise ValueError("code and distortion matrix disagree on |Y|")
    return x


def encode_exact(code: TreeCode, x, rho: DistortionMatrix) -> EncodingResult:
    """Globally minimum-distortion walk (ties: lexicographically smallest).

    This is the ground state of the induced directed-polymer instance; the
    identification is exact, including the tie-break rule.  Raises ValueError
    before a generation of the sweep (module docstring) grows past MAX_CHILDREN
    paths.  A block of T codes (a (T, 1) seed column), x of shape (T, n), runs
    as T rows on shared leaf indices; below PRUNE_MIN_LEAVES only, as B = inf.
    """
    d, n, batch = code.shape.d, code.shape.n, np.shape(code.master_seed)[:-1]
    x, bound = _check_source_tuple(code, x, rho, batch), np.inf
    if code.shape.num_walks >= PRUNE_MIN_LEAVES:
        if batch:
            raise ValueError(f"exact encoder: a block of codes needs fewer than {PRUNE_MIN_LEAVES} leaves")
        bound = _beam_sweep(code, x, rho, np.array([min(8, d ** (n - 1))]))[1][0]
    idx, dist = np.zeros(1, dtype=np.uint64), np.zeros((*batch, 1))  # survivors in leaf order, partial sums
    for t in range(1, n + 1):
        if dist.size * d > MAX_CHILDREN:
            raise ValueError(f"exact encoder: {dist.size * d} paths at generation {t} exceed the memory budget; "
                             "lower shape.n, or set beam_width to encode with the beam encoder")
        idx = (d * idx[:, None] + np.arange(d, dtype=np.uint64)).ravel()
        y = code._symbols_at(t, idx)
        dist = dist.repeat(d, -1) + (rho.values[x[:, t - 1, None], y] if batch else rho.values[x[t - 1]][y])
        if bound < np.inf:
            keep = dist <= bound
            idx, dist = idx[keep], dist[keep]
    total = dist.min(axis=-1)  # each row's walk: its first argmin
    return EncodingResult(walk_from_leaf(idx[dist.argmin(axis=-1)], code.shape), total if batch else float(total))


def _beam_sweep(code: TreeCode, x: np.ndarray, rho: DistortionMatrix, widths: np.ndarray) -> tuple[list, list]:
    """M-algorithm sweeps of ascending widths, one row each, on one pool of
    distinct nodes: a partial sum depends only on its path, so each generation
    draws the pool's children once, in leaf order, and one stable sort ranks
    them by (distortion, leaf).  Row w keeps the first w of its members in that
    ranking, as a lone width-w sweep does.  Returns (best leaves, distortions)."""
    d, n = code.shape.d, code.shape.n
    pool, dist = np.zeros(1, dtype=np.uint64), np.zeros(1)  # union of the rows' survivors in leaf order, partial sums
    member = np.ones((widths.size, 1), dtype=bool)  # member[r, k]: row r holds pool node k
    for t in range(1, n + 1):
        if pool.size * d > MAX_CHILDREN:
            raise ValueError(f"beam sweep: {pool.size * d} paths at generation {t} exceed the memory budget; "
                             "lower shape.d or beam_width")
        pool = (d * pool[:, None] + np.arange(d, dtype=np.uint64)).ravel()
        dist = np.repeat(dist, d) + rho.values[x[t - 1]][code._symbols_at(t, pool)]
        order = np.argsort(dist, kind="stable")
        ranked = member[:, order // d]  # child k of the pool is a child of pool node k // d
        if t == n:
            win = order[ranked.argmax(axis=1)]  # each row's first member in the ranking
            return pool[win].tolist(), dist[win].tolist()
        ranked &= np.cumsum(ranked, axis=1) <= widths[:, None]
        member = np.empty_like(ranked)
        member[:, order] = ranked
        keep = member.any(axis=0)
        pool, dist, member = pool[keep], dist[keep], member[:, keep]


def encode_beam(code: TreeCode, x, rho: DistortionMatrix, M: int) -> EncodingResult:
    """Beam-search encoder: keep the best M partial paths per generation,
    ranked by partial distortion, ties by lexicographic path.

    A single fixed-width sweep is not monotone in M (a wider beam can evict
    the narrow beam's eventual winner), so the result is the least
    (distortion, leaf) pair over sweeps of every width 1..M, compared exactly
    as the sweeps rank paths; total_distortion is that pair's left-to-right
    sum, nonincreasing in M by construction.  All widths share one node pool;
    blocks of isqrt(model.BLOCK_CELLS / (W d)) rows, at least one, keep its rows
    x children membership matrix (<= d * sum(widths) columns) within BLOCK_CELLS.
    Distortion is >= the exact encoder's; equal once M >= d^(n-1).
    """
    if M < 1:
        raise ValueError("beam width M must be >= 1")
    x = _check_source_tuple(code, x, rho)
    W = min(M, code.shape.d ** (code.shape.n - 1))
    rows = max(1, math.isqrt(model.BLOCK_CELLS // (W * code.shape.d)))
    dist, leaf = min((dist, leaf) for lo in range(1, W + 1, rows)
                     for leaf, dist in zip(*_beam_sweep(code, x, rho, np.arange(lo, min(lo + rows, W + 1)))))
    return EncodingResult(walk_from_leaf(leaf, code.shape), dist)


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

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"bitstream has d={self.d}; a tree code needs d >= 2")

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
        size = f"more than {nbytes}" if len(stream.data) > nbytes else len(stream.data)
        raise ValueError(f"bitstream has {size} bytes, expected {nbytes} for (d={stream.d}, n={stream.n})")
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
        nbytes = (Bitstream(data=b"", n=n, d=d).num_bits + 7) // 8
        return d, n, seed, Bitstream(data=fh.read(nbytes + 1), n=n, d=d)


# ---------------------------------------------------------------------------
# ensemble simulation


def simulate_ensemble(
    source: Pmf,
    Q: Pmf,
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
    Below PRUNE_MIN_LEAVES leaves each block of at most model.BLOCK_CELLS
    leaves is one encode_exact of a block of codes, one trial a row; larger
    trees are encoded one trial at a time.
    """
    shape = TreeShape(d=d, n=n)
    size = max(1, model.BLOCK_CELLS // shape.num_walks)  # trials a block encodes

    def block(ts: np.ndarray, seeds: np.ndarray):
        keys = (0 * ts if fixed_sequence else ts)[:, None]
        x = source.sample(uniforms(master_seed, SOURCE_STREAM, keys, np.arange(n, dtype=np.uint64)))
        if shape.num_walks >= PRUNE_MIN_LEAVES:
            return [encode_exact(TreeCode(seed, Q, shape), row, rho).per_symbol_mean for seed, row in zip(seeds, x)]
        return encode_exact(TreeCode(seeds[:, None], Q, shape), x, rho).per_symbol_mean

    return run_trials(lambda ts, seeds: np.concatenate([block(ts[k : k + size], seeds[k : k + size])
                                                        for k in range(0, trials, size)]), trials, master_seed)
