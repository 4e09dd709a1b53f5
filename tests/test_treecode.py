import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from bruteforce import (
    beam_pass, beam_sweep_lexsort, code_energies, enumerate_ground_state, generation_symbols, simulate_ensemble_loop
)
from exact_laws import tree_minimum_moments, tree_minimum_pmf
from cayleycodec import (
    Bitstream,
    FreeEnergyLimit,
    DistortionMatrix,
    SymmetryError,
    TreeCode,
    TreeShape,
    decode_sequential,
    encode_beam,
    encode_exact,
    pack,
    read_bitstream,
    reproduction,
    run_trials,
    simulate_ensemble,
    symmetric_energy_law,
    unpack,
    verify_d0_equals_d,
    walk_from_leaf,
    write_bitstream,
)
from cayleycodec.model import CodingDistribution, SourceModel
from cayleycodec import model, treecode
from cayleycodec.cli import main
from cayleycodec.dprm import tree_sweep
from cayleycodec.harness import ExperimentConfig, run_experiment
from cayleycodec.rng import CODEBOOK_STREAM, SOURCE_STREAM, uniforms

Q4 = CodingDistribution([0.25] * 4)
HAMMING4 = DistortionMatrix.hamming(4)


def make_code(seed, d, n, Q=Q4):
    return TreeCode(seed, Q, TreeShape(d=d, n=n))


def test_codeword_symbol_deterministic():
    code = make_code(5, 2, 6)
    assert generation_symbols(code, 4)[9] == generation_symbols(code, 4)[9]


def test_codeword_symbol_point_mass_q():
    code = make_code(5, 2, 4, CodingDistribution([0.0, 1.0, 0.0]))
    for t in range(1, 5):
        assert generation_symbols(code, t)[0] == 1


def test_codeword_symbol_frequencies():
    probs = [0.5, 0.3, 0.2]
    code = make_code(17, 2, 17, CodingDistribution(probs))
    sym = generation_symbols(code, 17)[:100_000]
    for letter, p in enumerate(probs):
        assert abs((sym == letter).mean() - p) < 0.01


def test_encode_exact_n1_is_argmin():
    code = make_code(3, 4, 1)
    x = [2]
    res = encode_exact(code, x, HAMMING4)
    dists = [HAMMING4.values[2, generation_symbols(code, 1)[j]] for j in range(4)]
    assert res.total_distortion == min(dists)
    assert res.walk[0] == int(np.argmin(dists))


def test_encode_exact_zero_distortion_tie_break():
    rho = DistortionMatrix(np.zeros((4, 4)))
    code = make_code(3, 2, 5)
    res = encode_exact(code, [0, 1, 2, 3, 0], rho)
    assert list(res.walk) == [0, 0, 0, 0, 0]  # all-relative-zero walk
    assert res.total_distortion == 0.0


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_encode_exact_matches_enumeration(seed):
    code = make_code(seed, 2, 3)
    x = [0, 1, 2]
    res = encode_exact(code, x, HAMMING4)
    energies = code_energies(code, x, HAMMING4)
    bwalk, bmin = enumerate_ground_state(energies, 2, 3)
    assert list(res.walk) == list(bwalk)
    assert res.total_distortion == pytest.approx(bmin, abs=1e-12)


def test_encode_exact_is_dprm_ground_state():
    # the central identification: encoding == ground state of the induced
    # directed polymer, walk and distortion both, including ties
    for seed in range(6):
        code = make_code(seed, 2, 6)
        x = (np.arange(6) * 7) % 4
        res = encode_exact(code, x, HAMMING4)

        def energy_fn(t, out):
            return HAMMING4.values[x[t - 1]][generation_symbols(code, t)]

        sweep = tree_sweep(energy_fn, TreeShape(2, 6))
        walk, emin = sweep.walk, sweep.min_energy
        assert list(res.walk) == list(walk)
        assert res.total_distortion == pytest.approx(emin, abs=1e-12)


def test_encode_exact_matches_enumeration_exactly_with_float_distortions():
    # non-integer distortions make ties that only rounding breaks; the walk
    # and total must still be the enumeration's, exactly
    rho = DistortionMatrix([[0.1, 0.2, 0.3], [0.3, 0.1, 0.2]])
    Q = CodingDistribution([1 / 3] * 3)
    for d, n in ((2, 5), (3, 4)):
        for seed in range(12):
            code = make_code(seed, d, n, Q)
            x = (np.arange(n) * seed) % 2
            res = encode_exact(code, x, rho)
            bwalk, bmin = enumerate_ground_state(code_energies(code, x, rho), d, n)
            assert list(res.walk) == list(bwalk) and res.total_distortion == bmin


def test_encode_exact_validates_input():
    code = make_code(1, 2, 3)
    with pytest.raises(ValueError):
        encode_exact(code, [0, 1], HAMMING4)
    with pytest.raises(ValueError):
        encode_exact(code, [0, 1, 9], HAMMING4)


def left_to_right_total(code, x, rho, walk):
    # np.sum adds pairwise and Python's sum() compensates; the sweeps add in order
    return np.add.accumulate(rho.values[np.asarray(x), reproduction(code, walk)])[-1]


def test_encode_result_total_is_sum_of_per_symbol():
    code = make_code(8, 2, 8)
    x = np.zeros(8, dtype=int)
    res = encode_exact(code, x, HAMMING4)
    assert res.total_distortion == left_to_right_total(code, x, HAMMING4, res.walk)


def test_encoders_report_the_sum_they_minimised():
    # pairwise, the exact winner here sums to 5.200000000000001, above beam M = 2's 5.2
    code = TreeCode(107, Q4, TreeShape(2, 12))
    x = [0, 0, 3, 1, 1, 0, 0, 2, 0, 1, 0, 1]
    rho = DistortionMatrix([[0.6, 0.7999999999999999, 0.7, 0.30000000000000004],
                            [1.1, 0.9, 0.7999999999999999, 0.4],
                            [0.30000000000000004, 0.2, 0.7, 0.30000000000000004],
                            [0.5, 0.9, 0.7, 0.4]])
    assert encode_exact(code, x, rho).total_distortion == 5.2
    assert encode_beam(code, x, rho, 2).total_distortion == 5.2


def test_wider_beam_does_not_report_more():
    # pairwise, the M = 5 winner sums to 4.400000000000001, above M = 4's 4.4
    code = TreeCode(231, Q4, TreeShape(2, 10))
    x = [3, 1, 1, 2, 2, 2, 1, 2, 2, 1]
    rho = DistortionMatrix([[1.0, 0.6, 0.5, 1.0], [0.7, 0.7, 0.4, 1.0], [1.1, 0.2, 0.4, 1.0],
                            [0.30000000000000004, 0.7999999999999999, 0.7999999999999999, 0.7]])
    assert [encode_beam(code, x, rho, M).total_distortion for M in (4, 5)] == [4.4, 4.4]


@pytest.mark.parametrize("d, n", [(2, 10), (3, 8)])
def test_totals_are_left_to_right_sums_on_decimal_distortions(d, n):
    rng = np.random.default_rng(100 * d + n)
    for seed in range(40):
        rho = DistortionMatrix(rng.integers(0, 12, (4, 4)) / 10)
        code = make_code(seed, d, n)
        x = rng.integers(0, 4, n)
        exact = encode_exact(code, x, rho)
        assert exact.total_distortion == left_to_right_total(code, x, rho, exact.walk)
        prev = math.inf
        for M in range(1, 9):
            beam = encode_beam(code, x, rho, M)
            assert beam.total_distortion == left_to_right_total(code, x, rho, beam.walk)
            assert exact.total_distortion <= beam.total_distortion <= prev
            prev = beam.total_distortion


def test_encode_exact_not_worse_than_fixed_walk():
    # any fixed walk is a witness upper bound
    for seed in range(5):
        code = make_code(seed, 2, 6)
        x = np.zeros(6, dtype=int)
        res = encode_exact(code, x, HAMMING4)
        zeros_walk = walk_from_leaf(0, code.shape)
        witness = sum(
            HAMMING4.values[x[t - 1], generation_symbols(code, t)[int(zeros_walk[t - 1])]]
            for t in range(1, 7)
        )
        assert res.total_distortion <= witness + 1e-12


def test_beam_m1_is_greedy():
    code = make_code(11, 2, 5)
    x = [0, 1, 2, 3, 0]
    res = encode_beam(code, x, HAMMING4, 1)
    j = 0
    walk = []
    for t in range(1, 6):
        kids = [2 * j + r for r in range(2)]
        costs = [HAMMING4.values[x[t - 1], generation_symbols(code, t)[k]] for k in kids]
        j = kids[int(np.argmin(costs))]
        walk.append(j)
    assert list(res.walk) == walk


@pytest.mark.parametrize("seed, x, rho", [
    *((s, (np.arange(5) * 3) % 4, HAMMING4) for s in (4, 5, 6)),
    # decimal distortions: leaf 3 sums to 0.3 and leaf 1 to 0.30000000000000004,
    # so the winner must be taken by exact comparison, as the sweeps rank paths
    (14, [0, 3], DistortionMatrix([[.1, .2, .3, 0], [.2, .1, 0, .3], [.3, 0, .1, .2], [0, .3, .2, .1]])),
], ids=["4", "5", "6", "decimal"])
def test_beam_full_width_equals_exact(seed, x, rho):
    code = make_code(seed, 2, len(x))
    exact = encode_exact(code, x, rho)
    beam = encode_beam(code, x, rho, 2 ** (len(x) - 1))
    assert list(beam.walk) == list(exact.walk)
    assert beam.total_distortion == exact.total_distortion


def test_beam_monotone_in_width_and_close_to_exact():
    gaps = []
    for seed in range(100):
        code = make_code(seed, 2, 10)
        x = np.asarray([seed % 4] * 10)
        exact = encode_exact(code, x, HAMMING4).total_distortion
        prev = math.inf
        for M in (1, 2, 4, 8):
            dist = encode_beam(code, x, HAMMING4, M).total_distortion
            assert dist >= exact - 1e-12
            assert dist <= prev + 1e-12
            prev = dist
        gaps.append((encode_beam(code, x, HAMMING4, 8).total_distortion, exact))
    mean_beam = np.mean([g[0] for g in gaps])
    mean_exact = np.mean([g[1] for g in gaps])
    assert mean_beam <= 1.1 * mean_exact


# widths: 1, d^(n-1) and beyond it, except where d^(n-1) is too wide for the oracle
@pytest.mark.parametrize(
    "d, n, widths", [(2, 7, (1, 64, 67)), (3, 5, (1, 81, 84)), (4, 4, (1, 64, 67)), (2, 20, (1, 24))]
)
@pytest.mark.parametrize("decimal", [False, True])
def test_beam_sweep_matches_per_width_oracle(d, n, widths, decimal):
    # Hamming-4 sums tie often; one-decimal letters sum inexactly in floats
    rng = np.random.default_rng(10 * d + n + decimal)
    for seed in range(3):
        rho = DistortionMatrix(rng.integers(1, 10, (4, 4)) / 10) if decimal else HAMMING4
        code = make_code(seed, d, n)
        x = rng.integers(0, 4, n)
        for W in widths:
            leaves, dists = treecode._beam_sweep(code, x, rho, np.arange(1, W + 1))
            assert list(zip(leaves, dists)) == [
                beam_pass(code, x, rho, w) for w in range(1, W + 1)
            ]


def random_rho(rng, k, case):
    """One of four k-column distortion matrices, by case mod 4."""
    return DistortionMatrix([
        1.0 - np.eye(k),  # Hamming: integer ties
        rng.integers(0, 12, (3, k)) / 10,  # decimals: ties that rounding breaks
        rng.random((3, k)) * (rng.random((3, 1)) < 0.5),  # zero rows: every child ties its parent
        rng.random((3, k)) * 10.0 ** rng.integers(-16, 3, (3, k)),  # wide range: sum orders disagree
    ][case % 4])


@pytest.mark.parametrize("cells", [None, 1, 37])
def test_beam_sweep_matches_the_lexsort_oracle(monkeypatch, cells):
    # survivors held in leaf order and one stable sort rank as lexsort((leaf, distortion)) does
    if cells is not None:  # blocks of one row, or of a few rows
        monkeypatch.setattr(model, "BLOCK_CELLS", cells)
    rng = np.random.default_rng(cells or 0)
    wider = 0
    for case in range(80):
        d, n, k = int(rng.integers(2, 5)), int(rng.integers(1, 9)), int(rng.integers(2, 6))
        rho = random_rho(rng, k, case)
        code = TreeCode(int(rng.integers(2**32)), CodingDistribution(rng.dirichlet(np.ones(k))), TreeShape(d, n))
        x = rng.integers(0, rho.rows, n)
        M = int(rng.integers(1, 41))
        wider += M > d ** (n - 1)
        widths = np.arange(1, M + 1)
        assert treecode._beam_sweep(code, x, rho, widths) == beam_sweep_lexsort(code, x, rho, widths)
        res = encode_beam(code, x, rho, M)
        with monkeypatch.context() as m:
            m.setattr(treecode, "_beam_sweep", beam_sweep_lexsort)
            ref = encode_beam(code, x, rho, M)
        assert (list(res.walk), res.total_distortion) == (list(ref.walk), ref.total_distortion)
    assert wider >= 10  # M > d^(n-1), where encode_beam caps the width


def test_beam_pool_matches_the_lexsort_oracle_at_wide_beams():
    # widths up to 160, where the rows of one block share the most pooled nodes
    rng = np.random.default_rng(160)
    wide = 0
    for case in range(24):
        d, n, k = int(rng.integers(2, 5)), int(rng.integers(6, 10)), int(rng.integers(2, 6))
        rho = random_rho(rng, k, case)
        code = TreeCode(int(rng.integers(2**32)), CodingDistribution(rng.dirichlet(np.ones(k))), TreeShape(d, n))
        x = rng.integers(0, rho.rows, n)
        widths = np.arange(1, min(int(rng.integers(41, 161)), d ** (n - 1)) + 1)
        wide += widths.size > 100
        assert treecode._beam_sweep(code, x, rho, widths) == beam_sweep_lexsort(code, x, rho, widths)
    assert wide >= 8


@pytest.mark.parametrize("d, n, M", [(2, 48, 32), (3, 8, 20)])
def test_beam_blocks_do_not_change_the_result(monkeypatch, d, n, M):
    code = make_code(3, d, n)
    x = (np.arange(n) * 7) % 4
    whole = encode_beam(code, x, HAMMING4, M)
    for cells in (1, 5 * M * d):  # one row per block; several rows per block
        monkeypatch.setattr(model, "BLOCK_CELLS", cells)
        split = encode_beam(code, x, HAMMING4, M)
        assert list(split.walk) == list(whole.walk)
        assert split.total_distortion == whole.total_distortion


def test_beam_draws_each_generation_once(monkeypatch):
    calls = []
    real = treecode.uniforms
    monkeypatch.setattr(treecode, "uniforms", lambda *keys: calls.append(keys) or real(*keys))
    encode_beam(make_code(8, 2, 48), np.arange(48) % 4, HAMMING4, 32)
    assert len(calls) == 48  # one per generation, and none to score the walk
    assert [keys[2] for keys in calls] == list(range(1, 49))
    assert all(np.unique(keys[3]).size == np.size(keys[3]) for keys in calls)  # each pooled child drawn once
    # 6,354 from the shared pool; one survivor row per width, each drawing its own children, drew 47,082
    assert sum(np.size(keys[3]) for keys in calls) < 8_000


@pytest.mark.parametrize("d, n, M, cells", [(2, 48, 32, 2048), (2, 20, 100, 200 * 9), (3, 9, 60, 180 * 4 + 5)])
def test_beam_blocks_keep_the_pool_within_block_cells(monkeypatch, d, n, M, cells):
    # rows x pooled children, the membership matrix, never exceeds BLOCK_CELLS once blocks of isqrt rows split
    code, x = make_code(4, d, n), (np.arange(n) * 5) % 4
    whole = encode_beam(code, x, HAMMING4, M)
    rows, cells_seen = [], []
    sweep, real = treecode._beam_sweep, treecode.uniforms
    monkeypatch.setattr(model, "BLOCK_CELLS", cells)
    monkeypatch.setattr(treecode, "_beam_sweep", lambda *args: rows.append(args[3].size) or sweep(*args))
    monkeypatch.setattr(treecode, "uniforms", lambda *keys: cells_seen.append(rows[-1] * keys[3].size) or real(*keys))
    split = encode_beam(code, x, HAMMING4, M)
    assert (list(split.walk), split.total_distortion) == (list(whole.walk), whole.total_distortion)
    assert len(rows) > 1 and sum(rows) == M and max(rows) == math.isqrt(cells // (M * d))
    assert max(cells_seen) <= cells


def test_exact_draws_each_generation_once(monkeypatch):
    calls = []
    real = treecode.uniforms
    monkeypatch.setattr(treecode, "uniforms", lambda *keys: calls.append(keys) or real(*keys))
    encode_exact(make_code(8, 2, 10), np.arange(10) % 4, HAMMING4)
    assert [keys[2] for keys in calls] == list(range(1, 11))  # generations 1..n, none after the sweep
    assert [np.size(keys[3]) for keys in calls] == [2**t for t in range(1, 11)]  # below the cutoff, no bound


def full_sweep(code, x, rho):
    """(walk, total) of one tree_sweep over all d^n leaves: the oracle for the pruned search."""
    sweep = tree_sweep(lambda t, out: rho.values[x[t - 1]][generation_symbols(code, t)], code.shape)
    return list(sweep.walk), sweep.min_energy


@pytest.mark.parametrize("d, n", [(2, 1), (5, 3), (2, 8), (2, 14), (2, 15), (3, 9), (4, 7), (2, 16)])
def test_pruned_exact_equals_full_sweep(monkeypatch, d, n):
    default = treecode.PRUNE_MIN_LEAVES
    rng = np.random.default_rng(100 * d + n)
    for case in range(24):
        k = int(rng.integers(2, 6))
        rho = random_rho(rng, k, case)
        code = TreeCode(int(rng.integers(2**32)), CodingDistribution(rng.dirichlet(np.ones(k))), TreeShape(d, n))
        x = rng.integers(0, rho.rows, n)
        # every tree bounded by the beam, then the default cutoff: below it the search keeps every child
        for cutoff in (1, default):
            monkeypatch.setattr(treecode, "PRUNE_MIN_LEAVES", cutoff)
            res = encode_exact(code, x, rho)
            assert (list(res.walk), res.total_distortion) == full_sweep(code, x, rho)


def test_pruned_exact_keeps_the_left_to_right_total_and_the_tie_break(monkeypatch):
    monkeypatch.setattr(treecode, "PRUNE_MIN_LEAVES", 1)
    code, x = make_code(0, 2, 14), np.zeros(14, dtype=int)
    rho = DistortionMatrix([[0.6, 0.7999999999999999, 0.7, 0.30000000000000004],
                            [1.1, 0.9, 0.7999999999999999, 0.4],
                            [0.30000000000000004, 0.2, 0.7, 0.30000000000000004],
                            [0.5, 0.9, 0.7, 0.4]])
    res = encode_exact(code, x, rho)
    assert (list(res.walk), res.total_distortion) == full_sweep(code, x, rho)
    # pairwise, the winner's letters sum to 5.699999999999999
    assert res.total_distortion == 5.699999999999998 != np.sum(rho.values[x, reproduction(code, res.walk)])
    zero = encode_exact(code, x, DistortionMatrix(np.zeros((4, 4))))
    assert list(zero.walk) == [0] * 14 and zero.total_distortion == 0.0


def test_pruned_exact_draws_a_sliver_of_the_tree(monkeypatch):
    calls = []
    real = treecode.uniforms
    monkeypatch.setattr(treecode, "uniforms", lambda *keys: calls.append(keys) or real(*keys))
    encode_exact(make_code(8, 2, 18), np.arange(18) % 4, HAMMING4)
    # the bound's beam sweep, then the pruned search: each draws every generation once
    assert [keys[2] for keys in calls] == list(range(1, 19)) * 2
    assert sum(np.size(keys[3]) for keys in calls) < 2**13  # the full sweep draws 2^19 - 2


def test_pruned_exact_refuses_past_the_path_budget(monkeypatch, tmp_path, capsys):
    # all-zero distortions prune nothing, so generation 14 grows 2^14 paths
    code, x, rho = make_code(1, 2, 14), np.zeros(14, dtype=int), DistortionMatrix(np.zeros((4, 4)))
    monkeypatch.setattr(treecode, "MAX_CHILDREN", 2**14)
    assert encode_exact(code, x, rho).total_distortion == 0.0
    monkeypatch.setattr(treecode, "MAX_CHILDREN", 2**14 - 1)
    with pytest.raises(ValueError, match="beam_width"):
        encode_exact(code, x, rho)
    raw = {"kind": "encode", "master_seed": 1, "shape": {"d": 2, "n": 14}, "x": [0] * 14,
           "models": {"coding": {"probs": [0.25] * 4}, "distortion": {"hamming": 4}}}
    cfg = tmp_path / "encode.json"
    cfg.write_text(json.dumps(raw))
    monkeypatch.setattr(treecode, "MAX_CHILDREN", 64)  # the width-8 beam needs 42 paths a generation, the search 136
    assert main(["encode", "--config", str(cfg), "--out", str(tmp_path / "exact")]) == 1
    err = capsys.readouterr().err
    assert "shape.n" in err and "beam_width" in err and not (tmp_path / "exact").exists()
    cfg.write_text(json.dumps({**raw, "beam_width": 8}))
    assert main(["encode", "--config", str(cfg), "--out", str(tmp_path / "beam")]) == 0


def test_both_encoders_refuse_past_the_path_budget_before_any_draw(monkeypatch, tmp_path, capsys):
    # generation 1 has 2^14 children: the exact encoder's bound pass and the beam must refuse them undrawn
    monkeypatch.setattr(treecode, "MAX_CHILDREN", 1000)
    calls = record_draws(monkeypatch)
    code, x = make_code(3, 2**14, 2), np.zeros(2, dtype=int)
    with pytest.raises(ValueError, match="16384 paths at generation 1 exceed the memory budget"):
        encode_exact(code, x, HAMMING4)
    with pytest.raises(ValueError, match="16384 paths at generation 1 exceed the memory budget"):
        encode_beam(code, x, HAMMING4, 1)
    assert calls == []
    raw = {"kind": "encode", "master_seed": 3, "shape": {"d": 2**14, "n": 2}, "x": [0, 0], "beam_width": 1,
           "models": {"coding": {"probs": [0.25] * 4}, "distortion": {"hamming": 4}}}
    cfg = tmp_path / "encode.json"
    cfg.write_text(json.dumps(raw))
    assert main(["encode", "--config", str(cfg), "--out", str(tmp_path / "beam")]) == 1
    assert "beam_width" in capsys.readouterr().err and not (tmp_path / "beam").exists() and calls == []


@pytest.mark.parametrize("d, ns", [(2, (1, 7, 13)), (3, (2, 8)), (4, (1, 6))])
def test_a_block_of_codes_encodes_as_its_lone_codes_bit_for_bit(d, ns):
    # T codes as rows of one search on shared leaf indices: walks, ties and totals as T lone encodes
    rng = np.random.default_rng(d)
    for n in ns:
        for case in range(5):
            rho = HAMMING4 if case == 4 else random_rho(rng, int(rng.integers(2, 6)), case)
            Q = Q4 if case == 4 else CodingDistribution(rng.dirichlet(np.ones(rho.cols)))
            for T in (1, 3, 9):
                seeds, x = rng.integers(0, 2**64, T, dtype=np.uint64), rng.integers(0, rho.rows, (T, n))
                block = encode_exact(TreeCode(seeds[:, None], Q, TreeShape(d, n)), x, rho)
                assert block.walk.shape == (T, n) and block.total_distortion.shape == (T,)
                for r in range(T):
                    lone = encode_exact(TreeCode(int(seeds[r]), Q, TreeShape(d, n)), x[r], rho)
                    assert block.walk[r].tolist() == lone.walk.tolist()
                    assert block.total_distortion[r].hex() == lone.total_distortion.hex()
                    assert block.per_symbol_mean[r] == lone.per_symbol_mean


def test_a_block_of_codes_at_the_pruning_size_is_refused_before_any_draw(monkeypatch):
    calls = record_draws(monkeypatch)
    shape = TreeShape(2, 14)
    assert shape.num_walks == treecode.PRUNE_MIN_LEAVES
    with pytest.raises(ValueError, match="a block of codes needs fewer than 16384 leaves"):
        encode_exact(TreeCode(np.arange(3, dtype=np.uint64)[:, None], Q4, shape), np.zeros((3, 14), dtype=int), HAMMING4)
    assert calls == []


def test_pack_binary_example():
    # relative indices (0,1,1) at d=2 -> bits 011
    walk = np.array([0, 1, 3])
    stream = pack(walk, 2)
    assert stream.num_bits == 3
    assert stream.data == bytes([0b01100000])
    assert list(unpack(stream)) == [0, 1, 3]


def test_pack_length_non_power_of_two():
    shape = TreeShape(d=3, n=4)
    stream = pack(walk_from_leaf(53, shape), 3)
    assert stream.num_bits == 7  # ceil(4 * log2(3))
    assert stream.data == bytes([0x6A])  # leaf 53 = 0b0110101, left-aligned


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_pack_unpack_round_trip(data):
    d = data.draw(st.sampled_from([2, 3, 4, 5, 8]))
    # walk indices must stay within int64: n capped per branching ratio
    n = data.draw(st.integers(min_value=1, max_value=60 if d == 2 else 20))
    shape = TreeShape(d=d, n=n)
    leaf = data.draw(st.integers(min_value=0, max_value=shape.num_walks - 1))
    walk = walk_from_leaf(leaf, shape)
    stream = pack(walk, d)
    assert list(unpack(stream)) == list(walk)
    expected_bits = n * (d.bit_length() - 1) if d & (d - 1) == 0 else (d**n - 1).bit_length()
    assert stream.num_bits == expected_bits
    pad = len(stream.data) * 8 - expected_bits
    assert int.from_bytes(stream.data, "big") >> pad == leaf


def test_unpack_rejects_malformed_length():
    stream = pack(np.array([0, 1, 3]), 2)
    bad = [
        Bitstream(data=stream.data + b"\x00", n=3, d=2),
        Bitstream(data=b"\xff", n=2, d=3),  # nonzero pad bits
        Bitstream(data=b"\xf0", n=2, d=3),  # leaf 15 >= 3^2
        Bitstream(data=b"\x61", n=3, d=2),  # nonzero pad bit
    ]
    for stream in bad:
        with pytest.raises(ValueError):
            unpack(stream)


def _draw_payload(data) -> tuple[int, int, bytes]:
    """A random (d, n) and random bytes of the payload length for it, +-1."""
    d = data.draw(st.sampled_from([2, 3, 4, 5, 8]))
    n = data.draw(st.integers(min_value=1, max_value=12))
    nbytes = ((d**n - 1).bit_length() + 7) // 8
    size = data.draw(st.integers(min_value=nbytes - 1, max_value=nbytes + 1))
    return d, n, data.draw(st.binary(min_size=size, max_size=size))


def _unpack_or_reject(stream: Bitstream) -> None:
    """unpack either raises ValueError or returns a walk that packs back to the same bytes."""
    try:
        walk = unpack(stream)
    except ValueError:
        return
    assert pack(walk, stream.d).data == stream.data


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_unpack_random_payloads_reject_or_round_trip(data):
    d, n, payload = _draw_payload(data)
    _unpack_or_reject(Bitstream(data=payload, n=n, d=d))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_read_bitstream_random_payloads_reject_or_round_trip(tmp_path_factory, data):
    d, n, payload = _draw_payload(data)
    path = tmp_path_factory.mktemp("fuzz") / "stream.bin"
    write_bitstream(path, make_code(1, d, n), Bitstream(data=payload, n=n, d=d))
    _, _, _, stream = read_bitstream(path)
    _unpack_or_reject(stream)


def test_decode_round_trip():
    code = make_code(21, 2, 7)
    x = (np.arange(7) * 5) % 4
    res = encode_exact(code, x, HAMMING4)
    symbols = decode_sequential(code, pack(res.walk, 2))
    assert list(symbols) == list(reproduction(code, res.walk))


def test_decode_single_step():
    code = make_code(2, 4, 1)
    res = encode_exact(code, [1], HAMMING4)
    out = decode_sequential(code, pack(res.walk, 4))
    assert out[0] == generation_symbols(code, 1)[int(res.walk[0])]


def test_decode_matches_independent_recomputation():
    code = make_code(31, 2, 5)
    res = encode_exact(code, [0, 1, 2, 3, 0], HAMMING4)
    stream = pack(res.walk, 2)
    recomputed = [generation_symbols(code, t)[int(res.walk[t - 1])] for t in range(1, 6)]
    assert list(decode_sequential(code, stream)) == recomputed


def test_decode_is_pure():
    code = make_code(9, 2, 6)
    stream = pack(walk_from_leaf(37, code.shape), 2)
    a = list(decode_sequential(code, stream))
    b = list(decode_sequential(code, stream))
    assert a == b


def test_decode_shape_mismatch():
    code = make_code(9, 2, 6)
    stream = pack(np.array([0, 1, 3]), 2)
    with pytest.raises(ValueError):
        decode_sequential(code, stream)


def test_bitstream_file_round_trip(tmp_path):
    code = make_code(12345, 3, 4)
    walk = walk_from_leaf(50, code.shape)
    stream = pack(walk, 3)
    path = tmp_path / "stream.bin"
    write_bitstream(path, code, stream)
    d, n, seed, loaded = read_bitstream(path)
    assert (d, n, seed) == (3, 4, 12345)
    assert loaded.data == stream.data
    assert list(unpack(loaded)) == list(walk)
    assert path.stat().st_size == 24 + len(stream.data)


def test_read_bitstream_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"short")
    with pytest.raises(ValueError):
        read_bitstream(path)
    path.write_bytes(b"X" * 40)
    with pytest.raises(ValueError):
        read_bitstream(path)


def test_read_bitstream_rejects_oversized_file_without_loading_it(tmp_path):
    path = tmp_path / "big.bin"
    with open(path, "wb") as fh:
        fh.write(struct.pack(">8sIIQ", b"CAYCODE1", 2, 8, 7))
        fh.truncate(24 + 64 * 2**20)  # sparse: a valid header, then 64 MiB of zeros
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="expected 1 for") as err:
            unpack(read_bitstream(path)[3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "has 2 bytes" not in str(err.value) and "has more than 1 bytes" in str(err.value)


def test_simulate_ensemble_constant_distortion():
    c = 0.3
    rho = DistortionMatrix(np.full((2, 2), c))
    Q = CodingDistribution([0.5, 0.5])
    stats = simulate_ensemble(SourceModel([0.5, 0.5]), Q, rho, d=2, n=5, trials=4, master_seed=7)
    assert np.all(stats.values == c)
    assert stats.std == 0.0
    assert FreeEnergyLimit.for_distribution(symmetric_energy_law(Q, rho), 2).d0 == pytest.approx(c, abs=1e-3)


def ensemble_bits(values, mean, std):
    return values.tobytes(), mean.hex(), std.hex()


@pytest.mark.parametrize("d, n", [(2, n) for n in range(1, 14)] + [(3, 8), (4, 6)])
def test_batched_ensemble_equals_the_per_trial_loop(monkeypatch, d, n):
    # the trials' trees as rows of one sweep: values, mean and std bit for bit, however blocks split them
    rng = np.random.default_rng(100 * d + n)
    for case in range(4):
        k = int(rng.integers(2, 5))
        rho = random_rho(rng, k, case)
        source, Q = SourceModel(rng.dirichlet(np.ones(rho.rows))), CodingDistribution(rng.dirichlet(np.ones(k)))
        for fixed in (False, True):
            for trials in (1, 2, 9):
                seed = int(rng.integers(2**64, dtype=np.uint64))
                want = ensemble_bits(*simulate_ensemble_loop(source, Q, rho, d, n, trials, seed, fixed))
                for cells in (None, d**n, 4 * d**n):  # unpatched; one trial a block; 9 trials as 4 + 4 + 1
                    with monkeypatch.context() as m:
                        if cells is not None:
                            m.setattr(model, "BLOCK_CELLS", cells)
                        got = simulate_ensemble(source, Q, rho, d, n, trials, seed, fixed)
                    assert ensemble_bits(got.values, got.mean, got.std) == want


def record_draws(monkeypatch):
    """Patch treecode.uniforms to log (stream, cells returned) per call."""
    calls, real = [], treecode.uniforms

    def recorder(*keys):
        out = real(*keys)
        calls.append((keys[1], out.size))
        return out

    monkeypatch.setattr(treecode, "uniforms", recorder)
    return calls


def draw_totals(calls):
    return {stream: sum(size for s, size in calls if s == stream) for stream in (CODEBOOK_STREAM, SOURCE_STREAM)}


@pytest.mark.parametrize("d, n", [(2, 10), (3, 6), (2, 14)])
def test_batched_ensemble_draws_what_the_loop_draws_in_capped_calls(monkeypatch, d, n):
    trials, cells = 9, 4 * d**n  # blocks of 4, 4 and 1 trials
    monkeypatch.setattr(model, "BLOCK_CELLS", cells)
    rng = np.random.default_rng(d * n)
    rho, Q = random_rho(rng, 3, 3), CodingDistribution(rng.dirichlet(np.ones(3)))
    source = SourceModel(rng.dirichlet(np.ones(rho.rows)))
    calls = record_draws(monkeypatch)
    for fixed in (False, True):
        calls.clear()
        simulate_ensemble(source, Q, rho, d, n, trials, 5, fixed)
        batched = list(calls)
        calls.clear()
        simulate_ensemble_loop(source, Q, rho, d, n, trials, 5, fixed)
        assert draw_totals(batched) == draw_totals(calls)
        assert sum(s == SOURCE_STREAM for s, _ in batched) == 3
        if d**n < treecode.PRUNE_MIN_LEAVES:  # one codebook call a generation a block, none past the cap
            assert sum(s == CODEBOOK_STREAM for s, _ in batched) == 3 * n
            assert max(size for _, size in batched) <= cells


@pytest.mark.parametrize("n", [6, 14])
def test_ensemble_refuses_what_encode_exact_refuses_before_any_sweep(monkeypatch, n):
    shape, H2 = TreeShape(2, n), DistortionMatrix.hamming(2)
    cases = [(SourceModel([0.5, 0.5]), CodingDistribution([0.5, 0.25, 0.25]), "disagree on"),  # |Y| 3, 2 columns
             (SourceModel([0.0, 0.0, 1.0]), CodingDistribution([0.5, 0.5]), "out of range")]  # letter 2, 2 rows
    calls = record_draws(monkeypatch)
    for source, Q, message in cases:
        with pytest.raises(ValueError, match=message) as want:
            encode_exact(TreeCode(1, Q, shape), source.sample(np.full(n, 0.5)), H2)
        calls.clear()
        with pytest.raises(ValueError) as got:
            simulate_ensemble(source, Q, H2, 2, n, 9, 1)
        assert str(got.value) == str(want.value)
        assert [s for s, _ in calls] == [SOURCE_STREAM]  # no codebook draw, so no sweep
    with pytest.raises(ValueError, match="trials must be >= 1"):
        simulate_ensemble(SourceModel([0.5, 0.5]), CodingDistribution([0.5, 0.5]), H2, 2, n, 0, 1)


def ensemble_config(source, coding, distortion, d, n, trials, master_seed, fixed_sequence=False):
    return ExperimentConfig.from_dict({
        "kind": "ensemble",
        "master_seed": master_seed,
        "models": {"source": {"probs": source}, "coding": {"probs": coding}, "distortion": distortion},
        "shape": {"d": d, "n": n},
        "trials": trials,
        "fixed_sequence": fixed_sequence,
    })


def test_simulate_ensemble_refuses_asymmetric(tmp_path):
    cfg = ensemble_config([0.5, 0.5], [0.9, 0.1], {"hamming": 2}, d=2, n=4, trials=1, master_seed=1)
    with pytest.raises(SymmetryError):
        run_experiment(cfg, str(tmp_path))


def test_simulate_ensemble_fixed_sequence_reuses_source(tmp_path):
    kw = dict(d=2, n=8, trials=3, master_seed=42, fixed_sequence=True)
    a = simulate_ensemble(SourceModel([0.25] * 4), Q4, HAMMING4, **kw)
    b = simulate_ensemble(SourceModel([0.25] * 4), Q4, HAMMING4, **kw)
    assert np.array_equal(a.values, b.values)
    run_experiment(ensemble_config([0.25] * 4, [0.25] * 4, {"hamming": 4}, **kw), str(tmp_path))
    summary = json.loads((tmp_path / "ensemble_summary.json").read_text())
    assert summary["mean"] == a.mean
    assert summary["gap"] == summary["mean"] - summary["d0"]


# Encoder Monte Carlo past criterion 5's n <= 18, where the bound prunes hardest.  Fixed-sequence
# trials with uniform P and Q and Hamming-4: every branch distortion is Bernoulli(3/4) whatever the
# source letter, so a trial's total has exactly the law of the tree minimum M_n (exact_laws).
# Seed, trial counts and levels were fixed before the first run.
MC_SEED = 271828
U4 = SourceModel([0.25] * 4)


def test_exact_encoder_mean_at_n32_meets_the_exact_law_and_the_tolerance():
    n, trials = 32, 30
    mc = simulate_ensemble(U4, Q4, HAMMING4, 2, n, trials, MC_SEED, fixed_sequence=True)
    means, sds = tree_minimum_moments(HAMMING4.values[0], Q4.probs, 2, n)
    assert abs(mc.mean - means[n] / n) <= 3 * sds[n] / n / math.sqrt(trials)
    assert mc.mean <= verify_d0_equals_d(U4, HAMMING4, 2).d_of_r + 0.08


def test_exact_totals_at_n24_follow_the_tree_minimum_law_and_bound_the_beam():
    n, trials, alpha = 24, 200, 0.01
    x = U4.sample(uniforms(MC_SEED, SOURCE_STREAM, 0, np.arange(n, dtype=np.uint64)))

    def trial(seed):
        code = TreeCode(seed, Q4, TreeShape(2, n))
        return [encode_exact(code, x, HAMMING4).total_distortion, encode_beam(code, x, HAMMING4, 8).total_distortion]

    exact, beam = run_trials(lambda ts, seeds: [trial(seed) for seed in seeds], trials, MC_SEED).values.T
    assert np.all(beam >= exact)
    law = tree_minimum_pmf(HAMMING4.values[0], Q4.probs, 2, n)[n]
    # chi-square over neighbouring totals merged until each bin expects at least 5 trials
    observed, expected = [0], [0.0]
    for count, p in zip(np.bincount(exact.astype(int), minlength=law.size), trials * law / law.sum()):
        if expected[-1] >= 5:
            observed.append(0)
            expected.append(0.0)
        observed[-1] += count
        expected[-1] += p
    if expected[-1] < 5:
        observed[-2:] = [sum(observed[-2:])]
        expected[-2:] = [sum(expected[-2:])]
    assert chisquare(observed, expected).pvalue >= alpha
