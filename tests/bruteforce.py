"""Independent brute-force oracles used by the tests.

Everything here enumerates all d^n walks explicitly; nothing is shared with
the tree sweeps under test, not even the log-sum-exp primitive.
"""

import numpy as np


def logsumexp(a):
    m = a.max()
    return m + np.log(np.exp(a - m).sum())


def walk_of_leaf(leaf, d, n):
    w = []
    j = leaf
    for _ in range(n):
        w.append(j)
        j //= d
    return list(reversed(w))


def path_energies(energies_by_gen, d, n):
    """Total energy of every walk, ordered by leaf index."""
    tot = np.zeros(d**n)
    for leaf in range(d**n):
        w = walk_of_leaf(leaf, d, n)
        tot[leaf] = sum(energies_by_gen[i][w[i - 1]] for i in range(1, n + 1))
    return tot


def enumerate_log_partition(energies_by_gen, d, n, beta):
    return float(logsumexp(-beta * path_energies(energies_by_gen, d, n)))


def enumerate_internal_energy(energies_by_gen, d, n, beta):
    tot = path_energies(energies_by_gen, d, n)
    a = -beta * tot
    w = np.exp(a - logsumexp(a))
    return float((w * tot).sum())


def enumerate_ground_state(energies_by_gen, d, n):
    tot = path_energies(energies_by_gen, d, n)
    leaf = int(np.argmin(tot))  # first minimum == lexicographically smallest
    return np.array(walk_of_leaf(leaf, d, n)), float(tot[leaf])


def oracle_energies(oracle):
    """Materialize an oracle's branch energies for enumeration."""
    return {i: oracle.generation_energies(i) for i in range(1, oracle.shape.n + 1)}


def code_energies(code, x, rho):
    """Branch energies induced by a tree code on a fixed source tuple."""
    return {
        t: rho.values[x[t - 1]][code.generation_symbols(t)]
        for t in range(1, code.shape.n + 1)
    }


def beam_pass(code, x, rho, M):
    """One fixed-width M-algorithm sweep, one width at a time; returns
    (best leaf index, its distortion).  Reference for the batched sweep."""
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
