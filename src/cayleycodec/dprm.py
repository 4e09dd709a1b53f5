"""Exact computations on one realization of the random Cayley tree.

Branches are indexed (i, j): generation 1 <= i <= n, branch 0 <= j <= d^i - 1
left to right.  A walk is (j_1, ..., j_n) with d*j_i <= j_{i+1} <= d*j_i+d-1;
the leaf index j_n alone determines the whole walk.

Energies are never materialized as a tree: each branch energy is a pure hash
of (master_seed, i, j), so the sweep below regenerates whole generations as
vectorized batches.  It runs top-down on path energies in leaf order, and one
pass reads ln Z and <E> at every requested level and beta (a log-sum-exp
shifted by the minimum path energy, so large beta does not underflow) and the
ground state (the first argmin of the last level).

A sweep works on one tree, in one float64 block of (3 + 1/d) d^n cells (the
draws' scratch, P at even and odd distance from n, the log-sum-exp weights), by
numpy out= steps in the allocating order, so the bits are those of fresh arrays.
One block, not four arrays: once it is freed, glibc's mmap and trim thresholds
rise to its size and twice that, so later sweeps reuse heap pages, not fresh ones.
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


@dataclass(frozen=True)
class Sweep:
    """What one pass reads off a tree: ln Z and <E> indexed [level, beta],
    and the ground state (walk, total energy) at the last generation."""

    log_z: np.ndarray
    mean_energy: np.ndarray
    walk: np.ndarray
    min_energy: float


def tree_sweep(energy_fn: Callable[..., np.ndarray], shape: TreeShape, betas=(), levels=None) -> Sweep:
    """One top-down pass over the path energies P_i = repeat(P_{i-1}, d) + e_i
    in leaf order, where energy_fn(i, out) gives the d^i energies e_i of
    generation i in branch order, in the d^i-cell scratch array out or in an
    array of its own.  P_0 = 0, so each walk sums left to right: (e_1 + e_2) + ...

    At each level k in `levels` (default: n) and each finite beta > 0 it
    records ln Z_k(beta) = ln sum exp(-beta P_k), shifted by min P_k, and the
    Boltzmann mean <E>_k of P_k.  The ground state is the first argmin of
    P_n; leaf order is lexicographic walk order, so that breaks ties.
    """
    betas = np.asarray(betas, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(betas) & (betas > 0)):
        raise ValueError("beta must be finite and > 0")
    levels = [shape.n] if levels is None else [int(k) for k in levels]
    if not all(1 <= k <= shape.n for k in levels):
        raise ValueError(f"levels {levels} must lie in 1..n={shape.n}")
    d, n, path = shape.d, shape.n, np.zeros(1)
    sizes = np.array([d**n, d**n, d ** (n - 1), d**n])  # scratch, P at even and odd n - i, weights
    scratch, even, odd, weights = np.split(np.empty(sizes.sum()), np.cumsum(sizes[:-1]))
    log_z, mean_energy = np.empty((2, len(levels), betas.size))
    for i in range(1, n + 1):
        e = energy_fn(i, scratch[: d**i])
        out = (odd if (n - i) % 2 else even)[: d**i].reshape(-1, d)  # P_{i-1} lies in the other region
        path = np.add(path[:, None], e.reshape(-1, d), out=out).reshape(d**i)
        rows = [r for r, k in enumerate(levels) if k == i]
        if not rows or not betas.size:
            continue
        p_min = path.min()
        excess = np.subtract(path, p_min, out=scratch[: d**i])  # e_i is spent
        w = weights[: d**i]
        for c, beta in enumerate(betas):
            np.exp(np.multiply(excess, -beta, out=w), out=w)
            s = w.sum()
            log_z[rows, c] = np.log(s) - beta * p_min
            mean_energy[rows, c] = np.multiply(w, path, out=w).sum() / s
    leaf = int(path.argmin())
    return Sweep(log_z, mean_energy, walk_from_leaf(leaf, shape), float(path[leaf]))


# ---------------------------------------------------------------------------
# oracle-facing operations


def log_partition_function(oracle: BranchEnergyOracle, beta: float) -> float:
    return float(tree_sweep(oracle.generation_energies, oracle.shape, [beta]).log_z[0, 0])


def internal_energy(oracle: BranchEnergyOracle, beta: float) -> float:
    """Boltzmann-averaged total path energy <E> = -d/dbeta ln Z."""
    return float(tree_sweep(oracle.generation_energies, oracle.shape, [beta]).mean_energy[0, 0])


def ground_state(oracle: BranchEnergyOracle) -> tuple[np.ndarray, float]:
    """Minimum-energy walk and its total energy."""
    sweep = tree_sweep(oracle.generation_energies, oracle.shape)
    return sweep.walk, sweep.min_energy


@dataclass(frozen=True)
class MonteCarloStats:
    """Trial statistics.  For array-valued trials, mean and std have the
    trial's shape, values carries the trials along axis 0, and cell(*index)
    gives the statistics of one entry."""

    mean: float | np.ndarray
    std: float | np.ndarray
    values: np.ndarray

    def cell(self, *index) -> "MonteCarloStats":
        return MonteCarloStats(float(self.mean[index]), float(self.std[index]), self.values[(slice(None), *index)])


def run_trials(trials_fn: Callable[[np.ndarray, np.ndarray], Sequence], trials: int,
               master_seed: int) -> MonteCarloStats:
    """Calls trials_fn(ts, seeds) once, with ts = 0..trials-1 and their child
    seeds hash64(master_seed, TRIAL_STREAM, t), both as uint64 arrays, so trials
    are independent and may be batched; it returns one value per trial, in trial order."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    ts = np.arange(trials, dtype=np.uint64)
    values = np.array(trials_fn(ts, hash64(master_seed, TRIAL_STREAM, ts)))
    # trials last and contiguous, so every cell reduces exactly as a 1-D run would
    by_cell = np.ascontiguousarray(np.moveaxis(values, 0, -1))
    mean = by_cell.mean(axis=-1)
    std = by_cell.std(axis=-1, ddof=1) if trials > 1 else np.zeros_like(mean)
    if values.ndim == 1:
        mean, std = float(mean), float(std)
    return MonteCarloStats(mean=mean, std=std, values=values)


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
        return tree_sweep(oracle.generation_energies, shape, betas, ns).log_z / scale

    return run_trials(lambda ts, seeds: [sweep(seed) for seed in seeds], trials, master_seed)
