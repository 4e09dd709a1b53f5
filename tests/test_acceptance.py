"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
verdicts.  Expected values are either closed forms or come from the
independent enumeration oracles in bruteforce.py and the exact finite-n laws
in exact_laws.py.
"""

import math

import numpy as np

from bruteforce import (
    code_energies,
    enumerate_ground_state,
    enumerate_internal_energy,
    enumerate_log_partition,
    oracle_energies,
)
from exact_laws import gaussian_mean_free_energy, tree_minimum_moments
from cayleycodec import (
    BranchEnergyOracle,
    CodingDistribution,
    DistortionMatrix,
    EnergyDistribution,
    SourceModel,
    TreeCode,
    TreeShape,
    beta_c,
    decode_sequential,
    encode_exact,
    ground_state,
    internal_energy,
    log_partition_function,
    monte_carlo_free_energy,
    pack,
    reproduction,
    simulate_ensemble,
    symmetric_energy_law,
    unpack,
    verify_d0_equals_d,
)
from cayleycodec.harness import EXIT_OK, ExperimentConfig, run_experiment
from cayleycodec.theory import FreeEnergyLimit

GAUSS = EnergyDistribution.gaussian(0.0, 1.0)
BETA_C_GAUSS = math.sqrt(2 * math.log(2))
D_QUATERNARY = 0.1893


def report(k, name, ok, detail=""):
    print(f"ACCEPTANCE {k} ({name}): {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {k} ({name}) failed: {detail}"


def test_criterion_1_sandwich_invariant():
    betas = [0.5, 1.0, 2.0, 5.0]
    dists = [
        GAUSS,
        EnergyDistribution.discrete([0.0, 1.0], [0.25, 0.75]),
        EnergyDistribution.discrete([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2]),
    ]
    worst = 0.0
    for k in range(1000):
        d = 2 if k % 2 == 0 else 3
        n = 2 + (k % 9)  # 2..10
        beta = betas[k % 4]
        oracle = BranchEnergyOracle(k, dists[k % 3], TreeShape(d=d, n=n))
        f = log_partition_function(oracle, beta) / (n * beta)
        _, emin = ground_state(oracle)
        lower = f - math.log(d) / beta
        mid = -emin / n
        worst = max(worst, lower - mid, mid - f)
    report(1, "sandwich invariant", worst <= 1e-9, f"worst slack {worst:.2e}")


def test_criterion_2_brute_force_equivalence():
    Q4 = CodingDistribution([0.25] * 4)
    HAM4 = DistortionMatrix.hamming(4)
    worst = 0.0
    walks_agree = True
    for d in (1, 2, 3):
        for n in (1, 2, 3, 4):
            for seed in (0, 1, 2):
                shape = TreeShape(d=d, n=n)
                o = BranchEnergyOracle(seed, GAUSS, shape)
                energies = oracle_energies(o)
                for beta in (0.7, 2.0):
                    worst = max(worst, abs(
                        log_partition_function(o, beta)
                        - enumerate_log_partition(energies, d, n, beta)
                    ))
                    worst = max(worst, abs(
                        internal_energy(o, beta)
                        - enumerate_internal_energy(energies, d, n, beta)
                    ))
                walk, emin = ground_state(o)
                bwalk, bmin = enumerate_ground_state(energies, d, n)
                walks_agree &= list(walk) == list(bwalk)
                worst = max(worst, abs(emin - bmin))

                code = TreeCode(seed, Q4, shape)
                x = (np.arange(n) + seed) % 4
                res = encode_exact(code, x, HAM4)
                cwalk, cmin = enumerate_ground_state(code_energies(code, x, HAM4), d, n)
                walks_agree &= list(res.walk) == list(cwalk)
                worst = max(worst, abs(res.total_distortion - cmin))
    report(2, "brute-force oracle equivalence", walks_agree and worst <= 1e-10,
           f"worst abs error {worst:.2e}")


def test_criterion_3_dprm_convergence():
    bc_err = abs(beta_c(GAUSS, 2) - BETA_C_GAUSS)
    grid = monte_carlo_free_energy(2, [10, 20], GAUSS, [0.5, 3.0], 50, 90210)
    high, frozen20, frozen10 = grid.cell(1, 0), grid.cell(1, 1), grid.cell(0, 1)
    gap20 = abs(frozen20.mean - BETA_C_GAUSS)
    gap10 = abs(frozen10.mean - BETA_C_GAUSS)
    # NOTE: the paper's claim is asymptotic: f_n -> beta_c almost surely, with
    # no rate.  At finite n the frozen phase carries the slow
    # (3 / (2 beta_c)) ln(n) / n correction, and the exact level recursion
    # (exact_laws.py) gives E f_10(3) = 0.92102 and E f_20(3) = 1.00839, an
    # expected gap of 0.1690 > 0.15 at n = 20.  The tolerance is reached only
    # by n = 40 (gap 0.1050); at n = 100 the gap is 0.0527.  So the Monte Carlo
    # means are checked against the exact finite-n expectation (within 3
    # standard errors), and the 0.15 tolerance against the exact gap at
    # n = 100, which must also shrink strictly with n.
    exact = gaussian_mean_free_energy(3.0, 2, 100)
    exact_gaps = BETA_C_GAUSS - exact[9:]  # n = 10..100
    finite_ok = all(
        abs(mc.mean - exact[n - 1]) <= 3 * mc.std / math.sqrt(mc.values.size)
        for n, mc in ((10, frozen10), (20, frozen20))
    )
    limit_ok = bool(np.all(np.diff(exact_gaps) < 0)) and exact_gaps[-1] <= 0.15
    ok = (
        bc_err <= 1e-8
        and abs(high.mean - 1.63629) <= 0.05
        and finite_ok
        and limit_ok
        and gap20 < gap10
        and frozen20.std < frozen10.std
    )
    report(3, "DPRM convergence", ok,
           f"beta_c err {bc_err:.1e}; high-T mean {high.mean:.4f}; "
           f"frozen means n20={frozen20.mean:.4f} n10={frozen10.mean:.4f} "
           f"(exact {exact[19]:.4f}, {exact[9]:.4f}); "
           f"frozen gaps n20={gap20:.4f} n10={gap10:.4f}; "
           f"exact gap n100={exact_gaps[-1]:.4f}; "
           f"stds n20={frozen20.std:.4f} n10={frozen10.std:.4f}")


def test_criterion_4_theorem_identity():
    quat = verify_d0_equals_d(SourceModel([0.25] * 4), DistortionMatrix.hamming(4), 2)
    tern = verify_d0_equals_d(SourceModel([1 / 3] * 3), DistortionMatrix.hamming(3), 2)
    ok = (
        quat.applicable and quat.gap <= 1e-4
        and abs(quat.d_of_r - D_QUATERNARY) <= 5e-5
        and tern.applicable and tern.gap <= 1e-4
    )
    report(4, "D0(R) = D(R)", ok,
           f"quaternary D={quat.d_of_r:.6f} gap={quat.gap:.2e}; "
           f"ternary D={tern.d_of_r:.6f} gap={tern.gap:.2e}")


def test_criterion_5_ensemble_achievability():
    P = SourceModel([0.25] * 4)
    Q = CodingDistribution([0.25] * 4)
    rho = DistortionMatrix.hamming(4)
    target = verify_d0_equals_d(P, rho, 2).d_of_r
    gaps = []
    means = []
    for n in (10, 14, 18):
        stats = simulate_ensemble(P, Q, rho, 2, n, 30, 271828, fixed_sequence=True)
        means.append(stats.mean)
        gaps.append(stats.mean - target)
    converse_ok = all(m >= target - 0.01 for m in means)
    monotone_ok = gaps[0] > gaps[1] > gaps[2]
    # NOTE: the paper's claim is asymptotic: the distortion tends to D(R)
    # almost surely, with no rate.  Under the symmetry hypothesis every branch
    # distortion rho(x, Y), Y ~ Q, has the law of a row of rho under Q (here
    # Bernoulli(3/4)) whatever x is, so the exact law of the tree minimum
    # (exact_laws.py) gives E[gap] = 0.1389, 0.1131, 0.0961 at n = 10, 14, 18.
    # The 0.08 tolerance is reached in expectation only at n = 24; at n = 100
    # the gap is 0.0269.  So the Monte Carlo means are checked against the
    # exact finite-n expectation (within 3 exact standard errors), and the
    # 0.08 tolerance against the exact gap at n = 100, which must also shrink
    # strictly with n.
    exact_means, exact_sds = tree_minimum_moments(rho.values[0], Q.probs, 2, 100)
    exact_gaps = exact_means[10:] / np.arange(10, 101) - target  # n = 10..100
    finite_ok = all(
        abs(m - exact_means[n] / n) <= 3 * exact_sds[n] / n / math.sqrt(30)
        for n, m in zip((10, 14, 18), means)
    )
    limit_ok = bool(np.all(np.diff(exact_gaps) < 0)) and exact_gaps[-1] <= 0.08
    report(5, "ensemble achievability",
           converse_ok and monotone_ok and finite_ok and limit_ok,
           f"gaps at n=10,14,18: {gaps[0]:.4f}, {gaps[1]:.4f}, {gaps[2]:.4f} "
           f"(exact {exact_gaps[0]:.4f}, {exact_gaps[4]:.4f}, {exact_gaps[8]:.4f}; "
           f"n=100 {exact_gaps[-1]:.4f}) "
           f"(converse {'ok' if converse_ok else 'violated'}, "
           f"monotone {'ok' if monotone_ok else 'violated'}, "
           f"within 3 se of exact {'ok' if finite_ok else 'violated'}, "
           f"exact n=100<=0.08 {'ok' if limit_ok else 'violated'})")


def test_criterion_6_phase_transition_shape():
    limit = FreeEnergyLimit.for_distribution(GAUSS, 2)
    bc, h = limit.beta_c, 1e-3
    f_left = np.array([limit.f(bc - k * h) for k in range(0, 4)])
    f_right = np.array([limit.f(bc + k * h) for k in range(0, 4)])
    cont = abs(f_left[1] - f_right[1])
    d1_jump = abs((f_left[0] - f_left[1]) / h - (f_right[1] - f_right[0]) / h)
    d2_left = (f_left[2] - 2 * f_left[1] + f_left[0]) / h**2
    d2_right = (f_right[2] - 2 * f_right[1] + f_right[0]) / h**2
    d2_jump = abs(d2_left - d2_right)
    ok = cont <= 1e-6 and d1_jump <= 1e-3 and d2_jump >= 0.1
    report(6, "second-order transition shape", ok,
           f"|df|={cont:.1e} |d(f')|={d1_jump:.1e} |d(f'')|={d2_jump:.3f}")


def test_criterion_7_degenerate_case(tmp_path):
    bc = beta_c(EnergyDistribution.discrete([0.0, 1.0], [0.5, 0.5]), 2)
    law = symmetric_energy_law(CodingDistribution([0.5, 0.5]), DistortionMatrix.hamming(2))
    res = FreeEnergyLimit.for_distribution(law, 2)
    cfg = ExperimentConfig.from_dict({
        "kind": "verify-theorem",
        "master_seed": 17,
        "models": {"source": {"probs": [0.5, 0.5]}, "distortion": {"hamming": 2}},
        "shape": {"d": 2, "n_list": [6]},
        "trials": 3,
    })
    exit_code = run_experiment(cfg, str(tmp_path))
    import json

    summary = json.loads((tmp_path / "verify_theorem_summary.json").read_text())
    ok = (
        bc == math.inf
        and not res.frozen_phase_exists
        and abs(res.d0) <= 1e-9
        and exit_code == EXIT_OK
        and summary["verdict"] == "PASS"
        and summary["degenerate"]
    )
    report(7, "degenerate case", ok,
           f"beta_c={bc} d0={res.d0} verdict={summary['verdict']}")


def test_criterion_8_codec_round_trip():
    Q = CodingDistribution([0.4, 0.3, 0.2, 0.1])
    rho = DistortionMatrix.hamming(4)
    rng = np.random.default_rng(8)
    ok = True
    for k in range(200):
        d = int(rng.choice([2, 3, 4, 8]))
        # keep d**n small enough for the exact encoder's level sweeps
        n = int(rng.integers(1, {2: 17, 3: 11, 4: 9, 8: 6}[d] + 1))
        code = TreeCode(int(rng.integers(1 << 62)), Q, TreeShape(d=d, n=n))
        x = rng.integers(0, 4, size=n)
        res = encode_exact(code, x, rho)
        stream = pack(res.walk, d)
        expected_bits = math.ceil(n * math.log2(d) - 1e-9)
        ok &= stream.num_bits == expected_bits
        ok &= list(unpack(stream)) == list(res.walk)
        ok &= list(decode_sequential(code, stream)) == list(reproduction(code, res.walk))
        if not ok:
            break
    report(8, "codec round trip", ok)
