"""Exact computations on one realization of the random Cayley tree.

Branches are indexed (i, j): generation 1 <= i <= n, branch 0 <= j <= d^i - 1
left to right.  A walk is (j_1, ..., j_n) with d*j_i <= j_{i+1} <= d*j_i+d-1;
the leaf index j_n alone determines the whole walk.

Energies are never materialized as a tree: each branch energy is a pure hash
of (master_seed, i, j), so the sweeps below regenerate whole generations as
vectorized batches.  All combining is done in the log domain (a max-shifted
log-sum-exp over each node's d children), so large beta does not underflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import EnergyDistribution
from .rng import ENERGY_STREAM, TRIAL_STREAM, derive_seed, uniforms

# An energy function maps a generation index i to the d^i branch energies of
# that generation, in branch-index order.
EnergyFn = Callable[[int], np.ndarray]


@dataclass(frozen=True)
class TreeShape:
    """Full balanced tree: branching ratio d, depth n generations."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 1 or self.n < 1:
            raise ValueError("TreeShape: need d >= 1 and n >= 1")
        # d^n >= 2^64 rejects in O(1) before the exact count; n may come from a file
        if (int(self.d).bit_length() - 1) * self.n >= 64 or self.num_branches >= 1 << 63:
            raise ValueError("TreeShape: branch count does not fit in 64 bits")

    @property
    def num_branches(self) -> int:
        d, n = int(self.d), int(self.n)
        return n if d == 1 else (d ** (n + 1) - d) // (d - 1)

    @property
    def num_walks(self) -> int:
        return int(self.d) ** int(self.n)


def validate_walk(steps, shape: TreeShape) -> np.ndarray:
    """Check the parent-child index constraint and return the walk array: a
    walk is valid iff it is the walk of its own leaf index."""
    w = np.asarray(steps, dtype=np.int64)
    if w.shape != (shape.n,):
        raise ValueError(f"walk must have {shape.n} steps")
    if not (0 <= w[-1] < shape.num_walks):
        raise ValueError("walk: leaf index out of range")
    wrong = np.flatnonzero(w != walk_from_leaf(int(w[-1]), shape))
    if wrong.size:
        raise ValueError(f"walk: step {wrong[0] + 1} is not an ancestor of the leaf")
    return w


def walk_from_leaf(leaf: int, shape: TreeShape) -> np.ndarray:
    """The unique walk ending at the given leaf index: j_t = leaf // d^(n-t)."""
    if not (0 <= leaf < shape.num_walks):
        raise ValueError("leaf index out of range")
    return np.int64(leaf) // shape.d ** np.arange(shape.n - 1, -1, -1, dtype=np.int64)


@dataclass(frozen=True)
class BranchEnergyOracle:
    """Deterministic lazy branch energies: energy(i, j) is a pure function of
    (master_seed, i, j); distinct branches get independent draws from
    energy_dist via inverse-transform sampling of a hashed uniform."""

    master_seed: int
    energy_dist: EnergyDistribution
    shape: TreeShape

    def _check(self, i: int, j) -> None:
        if not (1 <= i <= self.shape.n):
            raise ValueError(f"generation {i} out of range 1..{self.shape.n}")
        j = np.asarray(j)
        if np.any(j < 0) or np.any(j >= self.shape.d**i):
            raise ValueError(f"branch index out of range for generation {i}")

    def energy(self, i: int, j: int) -> float:
        self._check(i, j)
        u = uniforms(self.master_seed, ENERGY_STREAM, i, j)
        return float(self.energy_dist.sample(u))

    def generation_energies(self, i: int) -> np.ndarray:
        """All d^i branch energies of generation i, vectorized."""
        if not (1 <= i <= self.shape.n):
            raise ValueError(f"generation {i} out of range 1..{self.shape.n}")
        j = np.arange(self.shape.d**i, dtype=np.uint64)
        return self.energy_dist.sample(uniforms(self.master_seed, ENERGY_STREAM, i, j))


# ---------------------------------------------------------------------------
# generic bottom-up sweeps over a full balanced tree


def tree_log_partition_and_mean_energy(
    energy_fn: EnergyFn, d: int, n: int, beta: float
) -> tuple[float, float]:
    """(ln Z, Boltzmann-averaged path energy), one pass; ln Z is the log of
    the sum over walks of exp(-beta * path energy).

    Propagates per-subtree (log partition, weighted mean energy) pairs up
    the tree; the mean combines children with their softmax weights.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    v = None
    m = None
    for i in range(n, 0, -1):
        e = energy_fn(i)
        a = -beta * e
        me = e
        if v is not None:
            a = a + v
            me = me + m
        a = a.reshape(-1, d)
        a_max = a.max(axis=1)
        w = np.exp(a - a_max[:, None])
        s = w.sum(axis=1)
        v = a_max + np.log(s)
        m = (w * me.reshape(-1, d)).sum(axis=1) / s
    return float(v[0]), float(m[0])


def tree_ground_state(energy_fn: EnergyFn, d: int, n: int) -> tuple[np.ndarray, float]:
    """(argmin walk, min total path energy); ties go to the lexicographically
    smallest index sequence (argmin takes the first minimum at every node,
    which composes to the lexicographic rule top-down)."""
    g = None
    choices = []
    for i in range(n, 0, -1):
        t = energy_fn(i)
        if g is not None:
            t = t + g
        t = t.reshape(-1, d)
        c = np.argmin(t, axis=1)
        g = t[np.arange(t.shape[0]), c]
        choices.append(c)
    choices.reverse()
    walk = np.empty(n, dtype=np.int64)
    j = 0
    for i in range(n):
        j = d * j + int(choices[i][j])
        walk[i] = j
    return walk, float(g[0])


# ---------------------------------------------------------------------------
# oracle-facing operations


def log_partition_function(oracle: BranchEnergyOracle, beta: float) -> float:
    return tree_log_partition_and_mean_energy(
        oracle.generation_energies, oracle.shape.d, oracle.shape.n, beta
    )[0]


def free_energy_per_step(oracle: BranchEnergyOracle, beta: float) -> float:
    """f_n(beta) = ln Z_n(beta) / (n beta); sign convention without the
    leading minus, so larger is `better' (lower distortion is -f)."""
    return log_partition_function(oracle, beta) / (oracle.shape.n * beta)


def internal_energy(oracle: BranchEnergyOracle, beta: float) -> float:
    """Boltzmann-averaged total path energy <E> = -d/dbeta ln Z."""
    _, mean_e = tree_log_partition_and_mean_energy(
        oracle.generation_energies, oracle.shape.d, oracle.shape.n, beta
    )
    return mean_e


def ground_state(oracle: BranchEnergyOracle) -> tuple[np.ndarray, float]:
    """Minimum-energy walk and its total energy."""
    return tree_ground_state(oracle.generation_energies, oracle.shape.d, oracle.shape.n)


@dataclass(frozen=True)
class MonteCarloStats:
    mean: float
    std: float
    values: np.ndarray


def run_trials(trial_fn: Callable[[int, int], float], trials: int, master_seed: int) -> MonteCarloStats:
    """Runs trial_fn(t, seed) for t = 0..trials-1, where seed is the child seed
    derived from (master_seed, t), so trials are independent and the
    aggregate is insensitive to execution order."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    values = np.array([trial_fn(t, derive_seed(master_seed, TRIAL_STREAM, t)) for t in range(trials)])
    std = float(values.std(ddof=1)) if trials > 1 else 0.0
    return MonteCarloStats(mean=float(values.mean()), std=std, values=values)


def monte_carlo_free_energy(
    shape: TreeShape,
    energy_dist: EnergyDistribution,
    beta: float,
    trials: int,
    master_seed: int,
) -> MonteCarloStats:
    """Independent disorder realizations of f_n(beta), one per trial seed."""
    return run_trials(
        lambda t, seed: free_energy_per_step(BranchEnergyOracle(seed, energy_dist, shape), beta),
        trials,
        master_seed,
    )
