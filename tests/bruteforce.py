"""Independent brute-force oracles used by the tests.

The walk oracles enumerate all d^n walks explicitly; nothing is shared with
the tree sweeps under test, not even the log-sum-exp primitive.  The two
one-case-at-a-time loops, beam_pass, blahut_arimoto_loop and
simulate_ensemble_loop, are the references for the batched engines; the
last encodes one trial at a time.  hash64_numpy and beam_sweep_lexsort
are the library's earlier numpy-scalar hash and lexsort beam sweep, the
references for the ones that replaced them.
"""

import numpy as np

from cayleycodec import rd, treecode
from cayleycodec.dprm import TreeShape
from cayleycodec.rng import SOURCE_STREAM, TRIAL_STREAM, hash64


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


def generation_symbols(code, t):
    """All d^t reproduction letters of generation t of a tree code."""
    if not (1 <= t <= code.shape.n):
        raise ValueError(f"generation {t} out of range 1..{code.shape.n}")
    return code._symbols_at(t, np.arange(code.shape.d**t, dtype=np.uint64))


def code_energies(code, x, rho):
    """Branch energies induced by a tree code on a fixed source tuple."""
    return {
        t: rho.values[x[t - 1]][generation_symbols(code, t)]
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


def hash64_numpy(*keys):
    """splitmix64 chain with every key, scalar or not, folded in numpy uint64."""
    h = np.uint64(0)
    for k in keys:
        k = np.uint64(int(k) & (2**64 - 1)) if isinstance(k, (int, np.integer)) else np.asarray(k).astype(np.uint64)
        with np.errstate(over="ignore"):
            z = (h ^ k) + np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            h = z ^ (z >> np.uint64(31))
    return h


def beam_sweep_lexsort(code, x, rho, widths):
    """The batched beam sweep with survivors in rank order and one
    lexsort((leaf, distortion)) per generation; returns (best leaves,
    distortions) per width row."""
    d, n = code.shape.d, code.shape.n
    surv_idx = np.zeros((widths.size, 1), dtype=np.int64)
    surv_dist = np.zeros((widths.size, 1))
    for t in range(1, n + 1):
        cand = (d * surv_idx[:, :, None] + np.arange(d, dtype=np.int64)).reshape(widths.size, -1)
        dist = np.repeat(surv_dist, d, axis=1)
        live = dist < np.inf
        dist[live] += rho.values[x[t - 1]][code._symbols_at(t, cand[live].astype(np.uint64))]
        order = np.lexsort((cand, dist), axis=-1)[:, : widths[-1]]
        surv_idx, surv_dist = np.take_along_axis(cand, order, -1), np.take_along_axis(dist, order, -1)
        surv_dist[np.arange(order.shape[1]) >= widths[:, None]] = np.inf
    return surv_idx[:, 0].tolist(), surv_dist[:, 0].tolist()


def blahut_arimoto_loop(P, rho, beta):
    """One Blahut-Arimoto slope as a scalar loop that checks total variation
    after every update; the reference the lock-step curve engine must match
    bit for bit."""
    p = P.probs
    if beta == 0.0:
        exp_d = p @ rho.values
        y = int(np.argmin(exp_d))
        q0 = np.zeros(rho.cols)
        q0[y] = 1.0
        return rd.RDPoint(0.0, 0.0, float(exp_d[y]), q0, 0, True)
    expm = np.exp(-beta * (rho.values - rho.values.min(axis=1, keepdims=True)))
    q = np.full(rho.cols, 1.0 / rho.cols)
    converged = False
    it = 0
    for it in range(1, rd.BA_MAX_ITER + 1):
        w = expm * q
        w /= w.sum(axis=1, keepdims=True)
        q_new = p @ w
        tv = 0.5 * np.abs(q_new - q).sum()
        q = q_new
        if tv < rd.BA_TOL:
            converged = True
            break
    w = expm * q
    w /= w.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(w > 0, w / q, 1.0)
        rate = float((p[:, None] * w * np.log(ratio)).sum())
    distortion = float((p[:, None] * w * rho.values).sum())
    return rd.RDPoint(float(beta), max(rate, 0.0), distortion, q, it, converged)


def simulate_ensemble_loop(source, Q, rho, d, n, trials, master_seed, fixed_sequence=False):
    """The ensemble one trial at a time: per trial, its source tuple (key 0
    under fixed_sequence), a code on the child seed and one encode_exact.
    Draws go through treecode.uniforms.  Returns (values, mean, std)."""
    shape = TreeShape(d=d, n=n)
    values = []
    for t in range(trials):
        u = treecode.uniforms(master_seed, SOURCE_STREAM, 0 if fixed_sequence else t, np.arange(n, dtype=np.uint64))
        code = treecode.TreeCode(int(hash64(master_seed, TRIAL_STREAM, t)), Q, shape)
        values.append(treecode.encode_exact(code, source.sample(u), rho).per_symbol_mean)
    values = np.array(values)
    return values, float(values.mean()), float(values.std(ddof=1)) if trials > 1 else 0.0
