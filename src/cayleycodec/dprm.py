"""Exact computations on one realization of the random Cayley tree.

Branches are indexed (i, j): generation 1 <= i <= n, branch 0 <= j <= d^i - 1
left to right.  A walk is (j_1, ..., j_n) with d*j_i <= j_{i+1} <= d*j_i+d-1;
the leaf index j_n alone determines the whole walk.

Energies are never materialized as a tree: each branch energy is a pure hash
of (master_seed, i, j), so the sweep below regenerates whole generations as
vectorized batches.  It runs top-down on path energies in leaf order; one pass
reads ln Z at every requested level and beta (a log-sum-exp shifted by the
minimum path energy, so large beta does not underflow) and returns the last
level's path energies, off which <E> and the ground state are read.

A sweep works on one tree in one float64 block of two d^n-cell rows: generation
i draws e_i and sums P_i over them in row i mod 2, and the other row, P_{i-1}'s,
takes the log-sum-exp weights.  Its numpy out= steps keep the allocating order,
so the bits are those of fresh arrays.  Once the block is freed, glibc's mmap and
trim thresholds rise to its size and twice that, so later sweeps reuse heap pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import EnergyDistribution
from .rng import ENERGY_STREAM, TRIAL_STREAM, hash64, uniforms

@dataclass(frozen=True)
class TreeShape:
    """Full balanced tree: branching ratio d, depth n generations."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("TreeShape: need d >= 1 and n >= 1")
        # d^n >= 2^64 rejects in O(1) before the exact branch count d + ... + d^n; n may come from a file
        d, n = int(self.d), int(self.n)
        if (d.bit_length() - 1) * n >= 64 or (n if d == 1 else (d ** (n + 1) - d) // (d - 1)) >= 1 << 63:
            raise ValueError("TreeShape: branch count does not fit in 64 bits")

    @property
    def num_walks(self) -> int:
        return int(self.d) ** int(self.n)


def validate_walk(steps, shape: TreeShape) -> np.ndarray:
    """Check the parent-child index constraint and return the walk array: a
    walk is valid iff it is the walk of its own leaf index."""
    w = np.asarray(steps, dtype=np.int64)
    if w.shape != (shape.n,):
        raise ValueError(f"walk must have {shape.n} steps")
    wrong = np.flatnonzero(w != walk_from_leaf(int(w[-1]), shape))
    if wrong.size:
        raise ValueError(f"walk: step {wrong[0] + 1} is not an ancestor of the leaf")
    return w


def walk_from_leaf(leaf, shape: TreeShape) -> np.ndarray:
    """The unique walk ending at the given leaf index (steps on a new last axis): j_t = leaf // d^(n-t)."""
    if np.count_nonzero((leaf < 0) | (leaf >= shape.num_walks)):  # not np.any: cheap on a plain int
        raise ValueError("leaf index out of range")
    return np.asarray(leaf, dtype=np.int64)[..., None] // shape.d ** np.arange(shape.n - 1, -1, -1, dtype=np.int64)


@dataclass(frozen=True)
class BranchEnergyOracle:
    """Deterministic lazy branch energies: the energy of branch (i, j) is a
    pure function of (master_seed, i, j); distinct branches get independent
    draws from energy_dist via inverse-transform sampling of a hashed uniform."""

    master_seed: int
    energy_dist: EnergyDistribution
    shape: TreeShape

    def generation_energies(self, i: int, out: np.ndarray | None = None) -> np.ndarray:
        """All d^i branch energies of generation i, vectorized (in out's memory, if given)."""
        if not (1 <= i <= self.shape.n):
            raise ValueError(f"generation {i} out of range 1..{self.shape.n}")
        j = np.arange(self.shape.d**i, dtype=np.uint64)
        if out is not None:  # move the indices into out and hash them there: no second d^i array is held
            out.view(np.uint64)[...], j = j, out.view(np.uint64)
        return self.energy_dist.sample(uniforms(self.master_seed, ENERGY_STREAM, i, j, out=out), out=out)


# ---------------------------------------------------------------------------
# the top-down sweep


def tree_sweep(energy_fn: Callable[..., np.ndarray], shape: TreeShape, betas=(),
               levels=None) -> tuple[np.ndarray, np.ndarray]:
    """One top-down pass over the path energies P_i = repeat(P_{i-1}, d) + e_i
    in leaf order, where energy_fn(i, out) gives the d^i energies e_i of
    generation i in branch order, in the d^i cells out, where P_i is summed over
    them, or in an array of its own, left as it was.  P_0 = 0, so each walk sums
    left to right: (e_1 + e_2) + ...

    Returns ln Z_k(beta) = ln sum exp(-beta P_k), shifted by min P_k, indexed
    [level, beta] over each k in `levels` (default: n) and each finite beta > 0,
    and P_n, a view into the sweep's block.  Leaf order is lexicographic walk
    order, so the first argmin of P_n is the ground state with ties broken.
    """
    betas = np.asarray(betas, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(betas) & (betas > 0)):
        raise ValueError("beta must be finite and > 0")
    levels = [shape.n] if levels is None else [int(k) for k in levels]
    if not all(1 <= k <= shape.n for k in levels):
        raise ValueError(f"levels {levels} must lie in 1..n={shape.n}")
    d, n, path = shape.d, shape.n, np.zeros(1)
    block = np.empty((2, d**n))  # generation i works in row i % 2, P_{i-1} lies in the other
    log_z = np.empty((len(levels), betas.size))
    for i in range(1, n + 1):
        here, spent = block[i % 2, : d**i], block[1 - i % 2, : d**i]
        path = np.add(path[:, None], energy_fn(i, here).reshape(-1, d), out=here.reshape(-1, d)).reshape(d**i)
        rows = [r for r, k in enumerate(levels) if k == i]
        if not rows or not betas.size:
            continue
        p_min = path.min()
        for c, beta in enumerate(betas):  # P_{i-1} is spent: each beta's weights go in its row
            w = np.subtract(path, p_min, out=spent)
            log_z[rows, c] = np.log(np.exp(np.multiply(w, -beta, out=w), out=w).sum()) - beta * p_min
    return log_z, path


# ---------------------------------------------------------------------------
# oracle-facing operations


def log_partition_function(oracle: BranchEnergyOracle, beta: float) -> float:
    return float(tree_sweep(oracle.generation_energies, oracle.shape, [beta])[0][0, 0])


def internal_energy(oracle: BranchEnergyOracle, beta: float) -> float:
    """Boltzmann-averaged total path energy <E> = -d/dbeta ln Z."""
    _, path = tree_sweep(oracle.generation_energies, oracle.shape, [beta])  # [beta] checks beta
    w = np.subtract(path, path.min())
    s = np.exp(np.multiply(w, -beta, out=w), out=w).sum()
    return float(np.multiply(w, path, out=w).sum() / s)


def ground_state(oracle: BranchEnergyOracle) -> tuple[np.ndarray, float]:
    """Minimum-energy walk and its total energy."""
    _, path = tree_sweep(oracle.generation_energies, oracle.shape)
    leaf = int(path.argmin())
    return walk_from_leaf(leaf, oracle.shape), float(path[leaf])


@dataclass(frozen=True)
class MonteCarloStats:
    """Trial statistics.  For array-valued trials, mean and std have the
    trial's shape, values carries the trials along axis 0 (a view of their
    trials-last array), and cell(*index) gives the statistics of one entry."""

    mean: float | np.ndarray
    std: float | np.ndarray
    values: np.ndarray

    def cell(self, *index) -> "MonteCarloStats":
        return MonteCarloStats(float(self.mean[index]), float(self.std[index]), self.values[(slice(None), *index)])


def trial_bytes(cells: int) -> int:
    """run_trials' bytes a trial: 8 a cell held and 8 for std's temporary, 16 for a block's index and seed."""
    return 16 * cells + 16


def run_trials(trials_fn: Callable[[np.ndarray, np.ndarray], Sequence], trials: int,
               master_seed: int, block: int) -> MonteCarloStats:
    """Calls trials_fn(ts, seeds) on each block of at most `block` consecutive trials:
    their indices and child seeds hash64(master_seed, TRIAL_STREAM, t) as uint64 arrays,
    so trials may be batched.  It returns one value per trial, in order, held in one array."""
    if trials < 1 or block < 1:
        raise ValueError("trials must be >= 1, and block too")
    for k in range(0, trials, block):
        ts = np.arange(k, min(k + block, trials), dtype=np.uint64)
        got = np.asarray(trials_fn(ts, hash64(master_seed, TRIAL_STREAM, ts)), dtype=np.float64)
        if k == 0:  # trials last, so every cell reduces exactly as a 1-D run would
            by_cell = np.empty((*got.shape[1:], trials))
        if got.shape != (ts.size, *by_cell.shape[:-1]):
            raise ValueError(f"trials_fn returned shape {got.shape} for {ts.size} trials of shape {by_cell.shape[:-1]}")
        np.moveaxis(by_cell, -1, 0)[k : k + ts.size] = got
    del ts, got  # only the values are held while std takes its temporary
    mean = by_cell.mean(axis=-1)
    std = by_cell.std(axis=-1, ddof=1) if trials > 1 else np.zeros_like(mean)
    if by_cell.ndim == 1:
        mean, std = float(mean), float(std)
    return MonteCarloStats(mean=mean, std=std, values=np.moveaxis(by_cell, -1, 0))


def monte_carlo_free_energy(
    d: int, ns, energy_dist: EnergyDistribution, betas, trials: int, master_seed: int
) -> MonteCarloStats:
    """f_k(beta) = ln Z_k(beta) / (k beta) for every k in ns and beta in betas,
    one disorder realization per trial seed; mean and std are [k, beta].
    Branch energies depend on (seed, i, j) and not on the depth, so one sweep
    per trial reads every cell, each equal to a one-cell run bit for bit."""
    shape = TreeShape(d=d, n=max(ns))
    scale = np.outer(ns, betas)

    def sweep(seed: int) -> np.ndarray:
        oracle = BranchEnergyOracle(seed, energy_dist, shape)
        return tree_sweep(oracle.generation_energies, shape, betas, ns)[0] / scale

    return run_trials(lambda ts, seeds: [sweep(seed) for seed in seeds], trials, master_seed, 1)
