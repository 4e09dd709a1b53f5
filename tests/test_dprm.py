import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bruteforce import (
    enumerate_ground_state,
    enumerate_internal_energy,
    enumerate_log_partition,
    oracle_energies,
)
from exact_laws import tree_minimum_moments
from cayleycodec import (
    BranchEnergyOracle,
    DistortionMatrix,
    EnergyDistribution,
    Pmf,
    TreeShape,
    ground_state,
    internal_energy,
    log_partition_function,
    monte_carlo_free_energy,
    phi,
    run_trials,
    simulate_ensemble,
    validate_walk,
)
from cayleycodec import dprm
from cayleycodec.dprm import tree_sweep, walk_from_leaf
from cayleycodec.rng import CODEBOOK_STREAM, ENERGY_STREAM, TRIAL_STREAM, hash64, uniforms
from cayleycodec.theory import BETA_MAX

GAUSS = EnergyDistribution.gaussian(0.0, 1.0)
U4 = Pmf(np.full(4, 0.25))


def chain_oracle(energies):
    """d=1 chain with prescribed energies, via a materialized energy_fn."""
    return {i: np.array([e]) for i, e in enumerate(energies, start=1)}


def swept_ground_state(energies, shape):
    """The first argmin of a sweep's last path energies: (walk, energy)."""
    _, path = tree_sweep(lambda i, out: energies[i], shape)
    leaf = int(path.argmin())
    return list(walk_from_leaf(leaf, shape)), float(path[leaf])


def test_tree_shape_validation():
    with pytest.raises(ValueError):
        TreeShape(d=0, n=3)
    with pytest.raises(ValueError):
        TreeShape(d=2, n=0)
    with pytest.raises(ValueError):
        TreeShape(d=2, n=64)
    TreeShape(d=2, n=62)  # 2^63 - 2 branches
    with pytest.raises(ValueError):
        TreeShape(d=2, n=63)  # 2^64 - 2 branches
    assert TreeShape(d=2, n=3).num_walks == 8


def test_tree_shape_bound_matches_branch_sum():
    # the O(1) check must accept exactly the shapes whose summed branch count fits
    for d in range(1, 12):
        for n in range(1, 70):
            total = sum(d**i for i in range(1, n + 1))
            if total < 1 << 63:
                TreeShape(d=d, n=n)
            else:
                with pytest.raises(ValueError):
                    TreeShape(d=d, n=n)


def test_walk_validation():
    shape = TreeShape(d=2, n=3)
    validate_walk([1, 3, 6], shape)
    with pytest.raises(ValueError):
        validate_walk([1, 1, 2], shape)  # step 2 not a child of step 1
    with pytest.raises(ValueError):
        validate_walk([2, 4, 8], shape)


def test_branch_energy_deterministic():
    o = BranchEnergyOracle(4242, GAUSS, TreeShape(d=2, n=4))
    assert o.generation_energies(3)[5] == o.generation_energies(3)[5]
    with pytest.raises(ValueError):
        o.generation_energies(5)


def test_point_mass_energies_are_constant():
    o = BranchEnergyOracle(7, EnergyDistribution.discrete([2.5], [1.0]), TreeShape(d=3, n=3))
    for i in range(1, 4):
        assert np.all(o.generation_energies(i) == 2.5)


def test_branch_energy_batch_statistics():
    # 1e5 Bernoulli(1/2) draws: mean within the binomial confidence bound
    bern = EnergyDistribution.discrete([0.0, 1.0], [0.5, 0.5])
    o = BranchEnergyOracle(99, bern, TreeShape(d=2, n=17))
    draws = o.generation_energies(17)[:100_000]
    assert abs(draws.mean() - 0.5) < 0.01


def test_gaussian_batch_statistics():
    o = BranchEnergyOracle(3, GAUSS, TreeShape(d=2, n=17))
    draws = o.generation_energies(17)[:100_000]
    assert abs(draws.mean()) < 0.02
    assert abs(draws.std() - 1.0) < 0.02


def test_log_partition_single_chain():
    # d=1, energies (1,2,3), beta=1 -> ln Z = -6
    lz = tree_sweep(lambda i, out: chain_oracle([1.0, 2.0, 3.0])[i], TreeShape(1, 3), [1.0])[0][0, 0]
    assert lz == pytest.approx(-6.0, abs=1e-12)


def test_log_partition_zero_energies():
    o = BranchEnergyOracle(1, EnergyDistribution.discrete([0.0], [1.0]), TreeShape(d=2, n=3))
    for beta in (0.5, 1.0, 7.0):
        assert log_partition_function(o, beta) == pytest.approx(3 * math.log(2), abs=1e-12)


def test_log_partition_requires_positive_beta():
    o = BranchEnergyOracle(1, GAUSS, TreeShape(d=2, n=2))
    with pytest.raises(ValueError):
        log_partition_function(o, 0.0)
    with pytest.raises(ValueError):
        log_partition_function(o, -1.0)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_log_partition_matches_enumeration(seed):
    shape = TreeShape(d=2, n=2)
    o = BranchEnergyOracle(seed, GAUSS, shape)
    energies = oracle_energies(o)
    assert log_partition_function(o, 1.0) == pytest.approx(
        enumerate_log_partition(energies, 2, 2, 1.0), abs=1e-12
    )


def test_free_energy_per_step_sign_convention():
    o = BranchEnergyOracle(1, EnergyDistribution.discrete([0.0], [1.0]), TreeShape(d=2, n=3))
    assert log_partition_function(o, 1.0) / (3 * 1.0) == pytest.approx(math.log(2), abs=1e-12)
    # d=1 chain: f = -(mean energy), independent of beta
    f = tree_sweep(lambda i, out: chain_oracle([1.0, 2.0, 3.0])[i], TreeShape(1, 3), [2.0])[0][0, 0] / (3 * 2.0)
    assert f == pytest.approx(-2.0, abs=1e-12)


def test_internal_energy_constant_energies():
    o = BranchEnergyOracle(5, EnergyDistribution.discrete([1.5], [1.0]), TreeShape(d=2, n=4))
    for beta in (0.3, 1.0, 4.0):
        assert internal_energy(o, beta) == pytest.approx(4 * 1.5, abs=1e-10)


def test_internal_energy_chain_is_total():
    energies = [0.4, -1.2, 2.0]
    chain = SimpleNamespace(generation_energies=lambda i, out=None: chain_oracle(energies)[i], shape=TreeShape(1, 3))
    me = internal_energy(chain, 1.7)
    assert me == pytest.approx(sum(energies), abs=1e-12)


def test_internal_energy_matches_finite_difference():
    o = BranchEnergyOracle(21, GAUSS, TreeShape(d=2, n=5))
    beta, h = 1.3, 1e-4
    fd = (log_partition_function(o, beta + h) - log_partition_function(o, beta - h)) / (2 * h)
    assert -fd == pytest.approx(internal_energy(o, beta), abs=1e-5)


def test_internal_energy_within_path_energy_range():
    for seed in range(5):
        o = BranchEnergyOracle(seed, GAUSS, TreeShape(d=2, n=4))
        energies = oracle_energies(o)
        _, emin = enumerate_ground_state(energies, 2, 4)
        from bruteforce import path_energies

        emax = path_energies(energies, 2, 4).max()
        for beta in (0.2, 1.0, 5.0):
            assert emin - 1e-12 <= internal_energy(o, beta) <= emax + 1e-12


def test_ground_state_tie_break_is_lexicographic():
    o = BranchEnergyOracle(9, EnergyDistribution.discrete([1.0], [1.0]), TreeShape(d=3, n=3))
    walk, e = ground_state(o)
    assert list(walk) == [0, 0, 0]
    assert e == pytest.approx(3.0)


def test_ground_state_chain():
    energies = [0.3, -0.8, 1.1]
    walk, e = swept_ground_state(chain_oracle(energies), TreeShape(1, 3))
    assert list(walk) == [0, 0, 0]
    assert e == pytest.approx(sum(energies), abs=1e-12)


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_ground_state_matches_enumeration(seed):
    shape = TreeShape(d=2, n=3)
    o = BranchEnergyOracle(seed, GAUSS, shape)
    energies = oracle_energies(o)
    walk, e = ground_state(o)
    bwalk, be = enumerate_ground_state(energies, 2, 3)
    assert list(walk) == list(bwalk)
    assert e == pytest.approx(be, abs=1e-12)


def test_ground_state_tie_break_exact_on_float_sums():
    # leaves 0 and 6 tie in real arithmetic; summed left to right, as each
    # walk is, (.3 + .2) + .1 == .6 < (.1 + .2) + .3, so leaf 6 is the minimum
    energies = {1: np.array([0.1, 0.3]), 2: np.array([0.2] * 4),
                3: np.array([0.3, 0.9, 0.9, 0.9, 0.9, 0.9, 0.1, 0.9])}
    bwalk, be = enumerate_ground_state(energies, 2, 3)
    assert list(bwalk) == [1, 3, 6]
    assert swept_ground_state(energies, TreeShape(2, 3)) == (list(bwalk), be)


@pytest.mark.parametrize("d,n", [(2, 5), (3, 4)])
def test_ground_state_matches_enumeration_exactly_with_float_ties(d, n):
    # energies from a few decimal values: many walks tie in real arithmetic
    # and differ only in rounding, so walk and energy must match exactly
    rng = np.random.default_rng(d * 100 + n)
    for _ in range(20):
        energies = {i: rng.choice([0.1, 0.2, 0.3, 0.7], size=d**i) for i in range(1, n + 1)}
        bwalk, be = enumerate_ground_state(energies, d, n)
        assert swept_ground_state(energies, TreeShape(d, n)) == (list(bwalk), be)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sweep_every_level_and_beta_matches_enumeration(d):
    betas = [0.3, 1.0, 2.5, 7.0]
    for n in (1, 2, 3, 4):
        for seed in (0, 1):
            o = BranchEnergyOracle(seed, GAUSS, TreeShape(d=d, n=n))
            energies = oracle_energies(o)
            levels = list(range(1, n + 1))
            log_z, path = tree_sweep(o.generation_energies, o.shape, betas, levels)
            assert path.shape == (d**n,)
            for r, k in enumerate(levels):
                # a depth-k oracle of the same seed draws the same first k generations
                at_k = BranchEnergyOracle(seed, GAUSS, TreeShape(d=d, n=k))
                for c, beta in enumerate(betas):
                    assert log_z[r, c] == pytest.approx(
                        enumerate_log_partition(energies, d, k, beta), abs=1e-10)
                    assert internal_energy(at_k, beta) == pytest.approx(
                        enumerate_internal_energy(energies, d, k, beta), abs=1e-10)


def test_sweep_finite_at_beta_max():
    o = BranchEnergyOracle(3, GAUSS, TreeShape(d=2, n=8))
    log_z, _ = tree_sweep(o.generation_energies, o.shape, [BETA_MAX], [4, 8])
    mean_energy = [internal_energy(BranchEnergyOracle(3, GAUSS, TreeShape(d=2, n=k)), BETA_MAX) for k in (4, 8)]
    assert np.all(np.isfinite(log_z)) and np.all(np.isfinite(mean_energy))
    _, min_energy = ground_state(o)
    assert type(min_energy) is float
    # frozen: ln Z -> -beta E_min and <E> -> E_min
    assert mean_energy[1] == pytest.approx(min_energy, abs=1e-9)
    assert log_z[1, 0] == pytest.approx(-BETA_MAX * min_energy, rel=1e-12)


def test_sweep_rejects_bad_levels_and_beta():
    o = BranchEnergyOracle(3, GAUSS, TreeShape(d=2, n=3))
    for levels in ([0], [4]):
        with pytest.raises(ValueError):
            tree_sweep(o.generation_energies, o.shape, [1.0], levels)
    for beta in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            tree_sweep(o.generation_energies, o.shape, [1.0, beta])


def test_probe_values_keep_their_recorded_bits():
    # Gaussian(0, 1), seed 5, (2, 18), beta = 3: recorded when the sweep itself read <E> and the ground state
    o = BranchEnergyOracle(5, GAUSS, TreeShape(d=2, n=18))
    assert log_partition_function(o, 3.0).hex() == "0x1.85fecb4f8d8abp+5"
    assert internal_energy(o, 3.0).hex() == "-0x1.f337103025687p+3"
    walk, e_min = ground_state(o)
    assert e_min.hex() == "-0x1.ff9a8f0eef501p+3"
    assert walk.tolist() == [0, 0, 1, 2, 4, 8, 17, 35, 70, 141, 282, 565, 1131, 2263, 4526, 9052, 18105, 36210]
    for beta in (0.0, -1.0, math.inf, math.nan):  # <E> still sweeps with [beta], so beta is checked
        with pytest.raises(ValueError):
            internal_energy(o, beta)


DISCRETE = EnergyDistribution.discrete([0.0, 0.5, 2.0], [0.2, 0.5, 0.3])


@pytest.mark.parametrize("compute, digest", [
    (lambda: monte_carlo_free_energy(2, [8, 12, 16], GAUSS, [0.5, 1.2, 3.0], 4, 0),
     "cec97f0e795b91edf3fb5a63b96853d2a48fb93d80a5ef3ac0508209f5bae6bf"),
    (lambda: monte_carlo_free_energy(3, [5, 9], DISCRETE, [0.5, 1.2, 3.0], 4, 0),
     "7d24b50d18be1d7641a0741fa872da0caebb4fbad004e73394ec3bde88e024f0"),
    (lambda: simulate_ensemble(U4, U4, DistortionMatrix.hamming(4), 2, 12, 8, 0),
     "a5a23abfbacf41691571cfa2c940cc4e4d318f8e86f8f89ecbe25bf81906b13a"),
], ids=["gaussian", "discrete", "ensemble"])
def test_sweep_outputs_keep_their_recorded_bits(compute, digest):
    # SHA-256 of the values, recorded when every generation and log-sum-exp still allocated its own arrays
    assert hashlib.sha256(compute().values.tobytes()).hexdigest() == digest


def test_draws_into_out_equal_the_allocating_draws_bit_for_bit():
    j = np.arange(1000, dtype=np.uint64)
    column = np.array([5, 2**63 + 1, 77], dtype=np.uint64)[:, None]  # one seed a row
    for keys in [(3, ENERGY_STREAM, 7, j), (column, CODEBOOK_STREAM, 4, j), (3, 5, np.asarray(9)),
                 (np.asarray(2, dtype=np.uint64), 5, 6), (1, 2, 3)]:
        ref = np.asarray(uniforms(*keys))
        out = np.empty(ref.shape)
        assert uniforms(*keys, out=out) is out and out.tobytes() == ref.tobytes()
    u = np.append(uniforms(3, ENERGY_STREAM, 1, j), 1.0 - 2.0**-53)  # with the top clamped uniform
    kept = u.tobytes()
    for law in (EnergyDistribution.gaussian(0.3, 1.7), DISCRETE):
        ref = law.sample(u)
        assert u.tobytes() == kept  # no out: u is left as it was
        out, same = np.empty_like(u), u.copy()
        assert law.sample(u, out=out) is out and out.tobytes() == ref.tobytes()
        assert law.sample(same, out=same) is same and same.tobytes() == ref.tobytes()
        o = BranchEnergyOracle(11, law, TreeShape(3, 6))
        for i in (1, 4, 6):
            out = np.empty(3**i)
            assert o.generation_energies(i, out) is out and out.tobytes() == o.generation_energies(i).tobytes()


@pytest.mark.parametrize("law", [GAUSS, DISCRETE], ids=["gaussian", "discrete"])
@pytest.mark.parametrize("d, n", [(2, 16), (3, 10)])
def test_one_trial_peaks_within_24_bytes_a_leaf(law, d, n):
    # the sweep's block, two d^n-cell rows, and one d^n temporary, the last generation's indices before they are hashed;
    # harness refuses a dprm-converge past 36 d^n bytes, a deliberate margin over this
    monte_carlo_free_energy(d, [2], law, [1.0], 1, 0)  # imports scipy.special and builds the law's cdf outside the count
    tracemalloc.start()
    try:
        monte_carlo_free_energy(d, [n], law, [0.5, 1.2, 3.0], 1, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * d**n + 64 * 1024


@pytest.mark.parametrize("read_off", [lambda o: internal_energy(o, 3.0), ground_state],
                         ids=["internal_energy", "ground_state"])
def test_read_off_peaks_within_24_bytes_a_leaf(read_off):
    # path keeps the sweep's block alive, so <E> may take one d^n temporary beside it, as the draws' indices did
    d, n = 2, 16
    read_off(BranchEnergyOracle(5, GAUSS, TreeShape(d, 2)))  # scipy.special and the cdf outside the count
    tracemalloc.start()
    try:
        read_off(BranchEnergyOracle(5, GAUSS, TreeShape(d, n)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * d**n + 64 * 1024


def test_sandwich_inequality_per_realization():
    for seed in range(20):
        d, n = (2, 6) if seed % 2 else (3, 4)
        o = BranchEnergyOracle(seed, GAUSS, TreeShape(d=d, n=n))
        _, emin = ground_state(o)
        for beta in (0.5, 1.0, 2.0, 5.0):
            f = log_partition_function(o, beta) / (n * beta)
            assert f - math.log(d) / beta <= -emin / n + 1e-9
            assert -emin / n <= f + 1e-9


def test_log_partition_monotone_in_each_energy():
    rng = np.random.default_rng(0)
    d, n, beta = 2, 3, 1.2

    def log_z(energies):  # energy_fn hands over arrays of its own, which the sweep leaves as they were
        kept = {i: v.tobytes() for i, v in energies.items()}
        lz = tree_sweep(lambda i, out: energies[i], TreeShape(d, n), [beta])[0][0, 0]
        assert {i: v.tobytes() for i, v in energies.items()} == kept
        return lz

    base = {i: rng.normal(size=d**i) for i in range(1, n + 1)}
    lz0 = log_z(base)
    for i in range(1, n + 1):
        for j in range(d**i):
            bumped = {k: v.copy() for k, v in base.items()}
            bumped[i][j] += 0.5
            assert log_z(bumped) < lz0


def test_determinism_across_runs():
    shape = TreeShape(d=2, n=6)
    a = BranchEnergyOracle(777, GAUSS, shape)
    b = BranchEnergyOracle(777, GAUSS, shape)
    assert log_partition_function(a, 1.1) == log_partition_function(b, 1.1)
    wa, ea = ground_state(a)
    wb, eb = ground_state(b)
    assert list(wa) == list(wb) and ea == eb


def test_monte_carlo_point_mass():
    c = 0.7
    stats = monte_carlo_free_energy(2, [5], EnergyDistribution.discrete([c], [1.0]), [2.0], 4, 13).cell(0, 0)
    assert stats.mean == pytest.approx(math.log(2) / 2.0 - c, abs=1e-12)
    assert stats.std == 0.0


def test_monte_carlo_single_trial_equals_direct():
    shape = TreeShape(d=2, n=6)
    stats = monte_carlo_free_energy(2, [6], GAUSS, [0.8], 1, 555).cell(0, 0)
    o = BranchEnergyOracle(int(hash64(555, TRIAL_STREAM, 0)), GAUSS, shape)
    assert stats.values[0] == log_partition_function(o, 0.8) / (6 * 0.8)


def test_grid_cell_equals_single_cell():
    # repeated n included: each cell is the one-cell run on the same seed, bit for bit
    ns, betas = [7, 4, 7], [0.5, 3.0]
    grid = monte_carlo_free_energy(2, ns, GAUSS, betas, 5, 8080)
    assert grid.mean.shape == grid.std.shape == (3, 2) and grid.values.shape == (5, 3, 2)
    for r, n in enumerate(ns):
        for c, beta in enumerate(betas):
            one = monte_carlo_free_energy(2, [n], GAUSS, [beta], 5, 8080).cell(0, 0)
            cell = grid.cell(r, c)
            assert (cell.mean, cell.std) == (one.mean, one.std)
            assert np.array_equal(cell.values, one.values) and cell.values.size == 5


def test_run_trials_scalar_stats_are_plain_reductions():
    stats = run_trials(lambda ts, seeds: [math.sin(seed % 1000) for seed in seeds], 37, 5, 37)
    assert stats.values.shape == (37,)
    assert stats.mean == float(stats.values.mean())
    assert stats.std == float(stats.values.std(ddof=1))
    assert run_trials(lambda ts, seeds: [1.5], 1, 5, 1).std == 0.0


def test_run_trials_hands_over_every_trial_and_its_child_seed_at_once():
    calls = []

    def trials_fn(ts, seeds):
        calls.append((ts.tolist(), seeds.tolist()))
        return np.asarray(seeds, dtype=np.float64)

    stats = run_trials(trials_fn, 4, 99, 4)
    seeds = [int(hash64(99, TRIAL_STREAM, t)) for t in range(4)]
    assert calls == [([0, 1, 2, 3], seeds)]
    assert np.array_equal(stats.values, np.array(seeds, dtype=np.float64))
    with pytest.raises(ValueError, match="trials must be >= 1"):
        run_trials(trials_fn, 0, 99, 4)
    assert len(calls) == 1


def test_run_trials_derives_every_child_seed_in_one_hash64_call(monkeypatch):
    hashes, handed = [], []
    real = dprm.hash64
    monkeypatch.setattr(dprm, "hash64", lambda *keys: hashes.append(keys) or real(*keys))
    trials, master = 10**5, 2**63 + 5
    run_trials(lambda ts, seeds: handed.append(seeds) or np.zeros(trials), trials, master, trials)
    assert len(hashes) == 1 and handed[0].dtype == np.uint64
    assert handed[0].tolist() == [int(hash64(master, TRIAL_STREAM, t)) for t in range(trials)]


def test_run_trials_holds_a_few_words_a_trial():
    # the trial indices and seeds as uint64 arrays, not a Python int per trial
    trials = 10**6
    tracemalloc.start()
    try:
        run_trials(lambda ts, seeds: np.zeros(trials), trials, 7, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * trials


def test_run_trials_refuses_a_count_other_than_the_trials_handed_over():
    for block in (1, 5):
        with pytest.raises(ValueError, match=rf"shape \(2,\) for {block} trials"):
            run_trials(lambda ts, seeds: [1.0, 2.0], 5, 0, block)
    with pytest.raises(ValueError, match=r"shape \(1,\) for 5 trials"):  # not broadcast over the block
        run_trials(lambda ts, seeds: [1.0], 5, 0, 5)
    with pytest.raises(ValueError, match=r"shape \(3, 2\) for 5 trials"):
        run_trials(lambda ts, seeds: np.ones((3, 2)), 5, 0, 5)
    with pytest.raises(ValueError, match=r"shape \(2, 3\) for 2 trials of shape \(2,\)"):  # cells change
        run_trials(lambda ts, seeds: np.ones((2, 2 + int(ts[0] > 0))), 5, 0, 2)
    with pytest.raises(ValueError, match="block too"):
        run_trials(lambda ts, seeds: seeds, 5, 0, 0)


def test_run_trials_blocks_give_the_bytes_of_one_block(monkeypatch):
    hashes, calls = [], []
    real = dprm.hash64
    monkeypatch.setattr(dprm, "hash64", lambda *keys: hashes.append(keys) or real(*keys))

    def trials_fn(ts, seeds):  # two cells a trial
        calls.append(ts.tolist())
        return np.stack([np.sin(seeds % 1000.0), np.cos(ts * 0.7)], axis=1)

    trials, runs = 11, {}
    for block in (1, 3, trials):
        hashes.clear()
        calls.clear()
        runs[block] = run_trials(trials_fn, trials, 2024, block)
        starts = range(0, trials, block)
        assert calls == [list(range(k, min(k + block, trials))) for k in starts]
        assert len(hashes) == len(calls)
    one = runs[trials]
    assert one.values.shape == (trials, 2) and one.mean.shape == one.std.shape == (2,)
    for stats in runs.values():
        assert stats.values.tobytes() == one.values.tobytes()
        assert [v.hex() for v in [*stats.mean, *stats.std]] == [v.hex() for v in [*one.mean, *one.std]]


def test_monte_carlo_matches_annealed_curve():
    stats = monte_carlo_free_energy(2, [16], GAUSS, [0.5], 50, 2024).cell(0, 0)
    assert abs(stats.mean - phi(GAUSS, 2, 0.5)) < 0.05


def test_ground_state_mean_matches_exact_minimum_law():
    values, probs, d, n, trials = [0.0, 1.0, 2.0], [0.2, 0.5, 0.3], 2, 12, 200
    dist = EnergyDistribution.discrete(values, probs)
    stats = run_trials(
        lambda ts, seeds: [ground_state(BranchEnergyOracle(seed, dist, TreeShape(d=d, n=n)))[1] for seed in seeds],
        trials,
        31415,
        trials,
    )
    means, sds = tree_minimum_moments(values, probs, d, n)
    assert abs(stats.mean - means[n]) <= 3 * sds[n] / math.sqrt(trials)
