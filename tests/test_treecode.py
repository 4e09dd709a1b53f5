import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import code_energies, enumerate_ground_state
from cayleycodec import (
    Bitstream,
    CodingDistribution,
    DistortionMatrix,
    SourceModel,
    SymmetryError,
    TreeCode,
    TreeShape,
    d0_of_r,
    decode_sequential,
    encode_beam,
    encode_exact,
    pack,
    read_bitstream,
    reproduction,
    simulate_ensemble,
    symmetric_energy_law,
    unpack,
    walk_from_leaf,
    write_bitstream,
)
from cayleycodec.dprm import tree_sweep
from cayleycodec.harness import ExperimentConfig, run_ensemble

Q4 = CodingDistribution([0.25] * 4)
HAMMING4 = DistortionMatrix.hamming(4)


def make_code(seed, d, n, Q=Q4):
    return TreeCode(seed, Q, TreeShape(d=d, n=n))


def test_codeword_symbol_deterministic():
    code = make_code(5, 2, 6)
    assert code.generation_symbols(4)[9] == code.generation_symbols(4)[9]


def test_codeword_symbol_point_mass_q():
    code = make_code(5, 2, 4, CodingDistribution([0.0, 1.0, 0.0]))
    for t in range(1, 5):
        assert code.generation_symbols(t)[0] == 1


def test_codeword_symbol_range_checks():
    code = make_code(5, 2, 3)
    with pytest.raises(ValueError):
        code.generation_symbols(0)


def test_codeword_symbol_frequencies():
    probs = [0.5, 0.3, 0.2]
    code = make_code(17, 2, 17, CodingDistribution(probs))
    sym = code.generation_symbols(17)[:100_000]
    for letter, p in enumerate(probs):
        assert abs((sym == letter).mean() - p) < 0.01


def test_encode_exact_n1_is_argmin():
    code = make_code(3, 4, 1)
    x = [2]
    res = encode_exact(code, x, HAMMING4)
    dists = [HAMMING4.values[2, code.generation_symbols(1)[j]] for j in range(4)]
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

        def energy_fn(t):
            return HAMMING4.values[x[t - 1]][code.generation_symbols(t)]

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


def test_encode_result_total_is_sum_of_per_symbol():
    code = make_code(8, 2, 8)
    x = np.zeros(8, dtype=int)
    res = encode_exact(code, x, HAMMING4)
    assert res.total_distortion == res.per_symbol.sum()


def test_encode_exact_not_worse_than_fixed_walk():
    # any fixed walk is a witness upper bound
    for seed in range(5):
        code = make_code(seed, 2, 6)
        x = np.zeros(6, dtype=int)
        res = encode_exact(code, x, HAMMING4)
        zeros_walk = walk_from_leaf(0, code.shape)
        witness = sum(
            HAMMING4.values[x[t - 1], code.generation_symbols(t)[int(zeros_walk[t - 1])]]
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
        costs = [HAMMING4.values[x[t - 1], code.generation_symbols(t)[k]] for k in kids]
        j = kids[int(np.argmin(costs))]
        walk.append(j)
    assert list(res.walk) == walk


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_beam_full_width_equals_exact(seed):
    code = make_code(seed, 2, 5)
    x = (np.arange(5) * 3) % 4
    exact = encode_exact(code, x, HAMMING4)
    beam = encode_beam(code, x, HAMMING4, 2**4)
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
    assert out[0] == code.generation_symbols(1)[int(res.walk[0])]


def test_decode_matches_independent_recomputation():
    code = make_code(31, 2, 5)
    res = encode_exact(code, [0, 1, 2, 3, 0], HAMMING4)
    stream = pack(res.walk, 2)
    recomputed = [code.generation_symbols(t)[int(res.walk[t - 1])] for t in range(1, 6)]
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
        with pytest.raises(ValueError, match="expected 1 for"):
            unpack(read_bitstream(path)[3])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_simulate_ensemble_constant_distortion():
    c = 0.3
    rho = DistortionMatrix(np.full((2, 2), c))
    Q = CodingDistribution([0.5, 0.5])
    stats = simulate_ensemble(SourceModel([0.5, 0.5]), Q, rho, d=2, n=5, trials=4, master_seed=7)
    assert np.all(stats.values == c)
    assert stats.std == 0.0
    assert d0_of_r(symmetric_energy_law(Q, rho), math.log(2)).value == pytest.approx(c, abs=1e-3)


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
        run_ensemble(cfg, str(tmp_path))


def test_simulate_ensemble_fixed_sequence_reuses_source(tmp_path):
    kw = dict(d=2, n=8, trials=3, master_seed=42, fixed_sequence=True)
    a = simulate_ensemble(SourceModel([0.25] * 4), Q4, HAMMING4, **kw)
    b = simulate_ensemble(SourceModel([0.25] * 4), Q4, HAMMING4, **kw)
    assert np.array_equal(a.values, b.values)
    run_ensemble(ensemble_config([0.25] * 4, [0.25] * 4, {"hamming": 4}, **kw), str(tmp_path))
    summary = json.loads((tmp_path / "ensemble_summary.json").read_text())
    assert summary["mean"] == a.mean
    assert summary["gap"] == summary["mean"] - summary["d0"]
