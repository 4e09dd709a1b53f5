import json
import math
import os
import struct
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycodec import decode_sequential, read_bitstream, TreeCode, TreeShape, DistortionMatrix
from cayleycodec.model import CodingDistribution
from cayleycodec.cli import main
from cayleycodec.theory import BETA_MAX
from cayleycodec.harness import (
    EXIT_NOT_APPLICABLE,
    EXIT_OK,
    EXPERIMENT_KINDS,
    MAX_GRID_POINTS,
    MAX_REAL,
    ConfigError,
    ExperimentConfig,
    run_experiment,
)

GAUSS_ENERGY = {"kind": "gaussian", "mean": 0.0, "std": 1.0}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


ENCODE_X = {
    "kind": "encode",
    "master_seed": 99,
    "models": {"coding": {"probs": [0.25, 0.25, 0.25, 0.25]}, "distortion": {"hamming": 4}},
    "shape": {"d": 2, "n": 8},
    "x": [0, 1, 2, 3, 0, 1, 2, 3],
}


def converge_config(**overrides):
    cfg = {
        "kind": "dprm-converge",
        "master_seed": 77,
        "models": {"energy": GAUSS_ENERGY},
        "shape": {"d": 2, "n_list": [4, 6]},
        "beta_grid": [0.5],
        "trials": 3,
    }
    cfg.update(overrides)
    return cfg


# the messages of the boolean, string and real-valued type rules
TYPE_RULE = r"must be true or false|must be a nonempty string|: expected (a list of )*finite numbers"


def test_config_requires_seed_and_kind():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "dprm-converge"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": "nope", "master_seed": 1})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(converge_config(master_seed=-1))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(converge_config(trials=0))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(converge_config(beta_grid=[-1.0]))


@pytest.mark.parametrize("overrides", [
    {"beta_grid": [math.nan]},
    {"beta_grid": [math.inf]},
    {"models": 5},
    {"trials": None},
    {"models": {"energy": {"kind": "gaussian", "mean": 0}}},
    {"models": {"energy": [1]}},
    {"beta": 0.5},  # beta_grid is the one spelling of beta
    # integer and boolean fields are taken as given, never coerced
    {"master_seed": 1.5},
    {"master_seed": "42"},
    {"master_seed": True},
    {"trials": 2.9},
    {"shape": {"d": 2.9, "n_list": [4, 6]}},
    {"shape": {"d": 2, "n_list": [4, "6"]}},
    {"kind": "ensemble", "fixed_sequence": "false"},
    {"kind": "ensemble", "fixed_sequence": 0},
    # real-valued fields take only finite JSON numbers, and bitstream only a nonempty string
    {"beta_grid": [True]},
    {"beta_grid": ["0.5"]},
    {"models": {"energy": {"kind": "gaussian", "mean": 0.0, "std": True}}},
    {"models": {"energy": {"kind": "gaussian", "mean": "1", "std": 1.0}}},
    {"models": {"energy": {"kind": "discrete", "values": ["0", "1"], "probs": [0.5, 0.5]}}},
    {"kind": "rd-curve", "models": {"source": {"probs": [True, False]}, "distortion": {"hamming": 2}}},
    {"kind": "ensemble", "models": {"source": {"probs": [0.5, 0.5]}, "coding": {"probs": ["0.5", "0.5"]},
                                    "distortion": {"hamming": 2}}},
    {"kind": "rd-curve", "models": {"source": {"probs": [0.5, 0.5]},
                                    "distortion": {"rows": [["0", "1"], ["1", "0"]]}}},
    {"kind": "decode", "bitstream": None},
    {"kind": "decode", "bitstream": ["a"]},
    {"kind": "decode", "bitstream": ""},
])
def test_config_rejects_malformed_sections(overrides):
    # a case naming a kind breaks a field dprm-converge does not read, on that kind's full config, so
    # that the type rule refuses it and not the rule against keys a kind does not read
    if "kind" in overrides:
        with pytest.raises(ConfigError, match=TYPE_RULE):
            ExperimentConfig.from_dict(FULL_CONFIGS[overrides["kind"]] | overrides)
    else:
        with pytest.raises(ConfigError, match=TYPE_RULE if "beta_grid" in overrides else None):
            ExperimentConfig.from_dict(converge_config(**overrides))


@pytest.mark.parametrize("grid", [
    [0.5, math.nan],
    {"start": 1},
    {"start": 0.5, "stop": math.inf, "step": 0.1},
    {"start": 0.5, "stop": math.nan, "step": 0.1},
    {"start": 0.5, "stop": 1.0, "step": math.nan},
    ["0.5", True],
    {"start": "0.5", "stop": 1.0, "step": 0.25},
    {"start": 0.0, "stop": 1.7e308, "step": 1e308},  # finite bounds, but the last point overflows
])
def test_config_rejects_malformed_beta_grid(grid):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(converge_config(beta_grid=grid))


def test_config_rejects_huge_beta_grid_at_once():
    t0 = time.perf_counter()
    with pytest.raises(ConfigError, match="more than"):
        ExperimentConfig.from_dict(converge_config(beta_grid={"start": 0.1, "stop": 2000.1, "step": 1e-9}))
    assert time.perf_counter() - t0 < 1.0
    cfg = ExperimentConfig.from_dict(converge_config(beta_grid={"start": 1.0, "stop": 1.99999, "step": 1e-5}))
    assert len(cfg.betas) == MAX_GRID_POINTS


def test_cli_rejects_nan_beta(tmp_path):
    # json accepts NaN; the run must fail instead of writing nan rows
    cfg = write_config(tmp_path, converge_config(beta_grid=[math.nan]))
    assert main(["dprm-converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out" / "dprm_converge.csv").exists()


# JSON values kept small: a huge Hamming order or beta grid would allocate
# without bound rather than exercise the parser.
_JSON_LEAF = (
    st.none() | st.booleans() | st.integers(-3, 12) | st.text(max_size=4)
    | st.floats(-20, 20) | st.sampled_from([math.nan, math.inf, -math.inf, 2**70])
)
_JSON = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(alphabet="ab", max_size=2), inner, max_size=3),
    max_leaves=12,
)
# grid bounds and steps that expand to at most a few hundred points
_GRID_END = st.floats(-20, 20) | st.sampled_from([math.nan, math.inf, -math.inf, None, "x", [1]])
_PMF = st.fixed_dictionaries({}, optional={"probs": _JSON | st.just([0.5, 0.5])})
_CONFIG = st.fixed_dictionaries(
    {"kind": st.sampled_from(EXPERIMENT_KINDS) | _JSON},
    optional={
        "master_seed": _JSON,
        "models": _JSON | st.fixed_dictionaries({}, optional={
            "source": _JSON | _PMF,
            "coding": _JSON | _PMF,
            "distortion": _JSON | st.fixed_dictionaries(
                {}, optional={"hamming": _JSON, "rows": _JSON}),
            "energy": _JSON | st.fixed_dictionaries({}, optional={
                "kind": st.sampled_from(["gaussian", "discrete"]) | _JSON,
                "mean": _JSON, "std": _JSON, "values": _JSON, "probs": _JSON,
            }),
        }),
        "shape": _JSON | st.fixed_dictionaries({}, optional={
            "d": _JSON, "n": _JSON, "n_list": _JSON}),
        "beta": _JSON,
        "beta_grid": _JSON | st.fixed_dictionaries({}, optional={
            "start": _GRID_END, "stop": _GRID_END,
            "step": st.sampled_from([-1.0, 0.0, 0.25, 1.0, math.nan, math.inf, None, "x"]),
        }),
        "trials": _JSON,
        "beam_width": _JSON,
        "fixed_sequence": _JSON,
        "x": _JSON,
        "bitstream": _JSON,
    },
)
# a valid config of each kind with up to two fields set to valid values, so that some draws parse
_NEAR_VALID = st.deferred(lambda: st.builds(
    _with, st.sampled_from([*FULL_CONFIGS.values(), *OTHER_HALVES]),
    st.lists(st.sampled_from(sorted(FIELD_VALUES)), max_size=2)))


@settings(max_examples=300, deadline=None)
@given(raw=_CONFIG | _NEAR_VALID)
def test_config_from_dict_fails_only_with_value_errors(raw):
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ValueError:  # ConfigError and model validation errors
        return
    assert all(math.isfinite(b) for b in cfg.betas)
    # both strategies draw every field for every kind, so this checks the kind's table
    given = {(k,) for k in raw if k not in ("models", "shape")}
    given |= {(block, k) for block in ("models", "shape") for k in raw.get(block, {})}
    assert given <= {("kind",), ("master_seed",), *map(_json_path, FIELDS[cfg.kind])}


def test_beta_grid_expansion():
    cfg = ExperimentConfig.from_dict(converge_config(beta_grid={"start": 0.5, "stop": 1.0, "step": 0.25}))
    assert cfg.betas == pytest.approx([0.5, 0.75, 1.0])
    assert ExperimentConfig.from_dict(converge_config(beta_grid=[0.5, 1.5])).betas == [0.5, 1.5]


def test_dprm_converge_outputs(tmp_path):
    cfg = ExperimentConfig.from_dict(converge_config())
    assert run_experiment(cfg, str(tmp_path)) == EXIT_OK
    rows = (tmp_path / "dprm_converge.csv").read_text().strip().splitlines()
    assert rows[0] == "n,beta,mean_f_n,std,f_limit,gap"
    assert len(rows) == 3
    summary = json.loads((tmp_path / "dprm_converge_summary.json").read_text())
    assert summary["master_seed"] == 77


def test_dprm_converge_point_mass_zero_gap(tmp_path):
    cfg = ExperimentConfig.from_dict(converge_config(
        models={"energy": {"kind": "discrete", "values": [0.4], "probs": [1.0]}}
    ))
    run_experiment(cfg, str(tmp_path))
    for line in (tmp_path / "dprm_converge.csv").read_text().strip().splitlines()[1:]:
        assert abs(float(line.split(",")[5])) < 1e-12


def test_full_pipeline_determinism(tmp_path):
    cfg = ExperimentConfig.from_dict(converge_config())
    a, b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, str(a))
    run_experiment(ExperimentConfig.from_dict(converge_config()), str(b))
    assert (a / "dprm_converge.csv").read_bytes() == (b / "dprm_converge.csv").read_bytes()


def test_phase_scan_detects_gaussian_kink(tmp_path):
    bc = math.sqrt(2 * math.log(2))
    cfg = ExperimentConfig.from_dict({
        "kind": "phase-scan",
        "master_seed": 1,
        "models": {"energy": GAUSS_ENERGY},
        "shape": {"d": 2},
        "beta_grid": {"start": bc - 0.1, "stop": bc + 0.1, "step": 0.001},
    })
    assert run_experiment(cfg, str(tmp_path)) == EXIT_OK
    summary = json.loads((tmp_path / "phase_scan_summary.json").read_text())
    assert summary["transition"] == "DETECTED"
    assert abs(summary["kink_location"] - bc) < 0.005
    assert abs(summary["beta_c"] - bc) < 1e-10


def test_phase_scan_refuses_coarse_grid(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "phase-scan",
        "master_seed": 1,
        "models": {"energy": GAUSS_ENERGY},
        "shape": {"d": 2},
        "beta_grid": [1.0, 1.1, 1.2, 1.3],
    })
    with pytest.raises(ConfigError, match="need >= 5 grid points per side"):
        run_experiment(cfg, str(tmp_path))
    with pytest.raises(ConfigError, match="phase-scan: beta grid too small"):
        ExperimentConfig.from_dict(FULL_CONFIGS["phase-scan"] | {"beta_grid": [1.0, 1.1]})


def test_phase_scan_no_transition(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "phase-scan",
        "master_seed": 1,
        "models": {"energy": {"kind": "discrete", "values": [0.0, 1.0], "probs": [0.5, 0.5]}},
        "shape": {"d": 2},
        "beta_grid": {"start": 0.5, "stop": 3.0, "step": 0.1},
    })
    run_experiment(cfg, str(tmp_path))
    summary = json.loads((tmp_path / "phase_scan_summary.json").read_text())
    assert summary["transition"] == "NO-TRANSITION"
    assert summary["beta_c"] == "INFINITE"


def test_encode_decode_cli_round_trip(tmp_path):
    encode_cfg = write_config(tmp_path, {
        "kind": "encode",
        "master_seed": 99,
        "models": {
            "coding": {"probs": [0.25, 0.25, 0.25, 0.25]},
            "distortion": {"hamming": 4},
        },
        "shape": {"d": 2, "n": 8},
        "x": [0, 1, 2, 3, 0, 1, 2, 3],
        "bitstream": "walk.bin",
    }, "encode.json")
    out = str(tmp_path / "out")
    assert main(["encode", "--config", encode_cfg, "--out", out]) == 0
    summary = json.loads((tmp_path / "out" / "encode_summary.json").read_text())
    assert summary["bits"] == 8

    decode_cfg = write_config(tmp_path, {
        "kind": "decode",
        "master_seed": 99,
        "models": {"coding": {"probs": [0.25, 0.25, 0.25, 0.25]}},
        "bitstream": os.path.join(out, "walk.bin"),
    }, "decode.json")
    assert main(["decode", "--config", decode_cfg, "--out", out]) == 0
    decoded = json.loads((tmp_path / "out" / "decode_summary.json").read_text())

    d, n, seed, stream = read_bitstream(os.path.join(out, "walk.bin"))
    code = TreeCode(seed, CodingDistribution([0.25] * 4), TreeShape(d=d, n=n))
    assert decoded["symbols"] == [int(s) for s in decode_sequential(code, stream)]


def test_encode_decode_cli_relative_bitstream_under_out(tmp_path, monkeypatch):
    # both kinds resolve a relative bitstream name under --out, not the cwd
    monkeypatch.chdir(tmp_path)
    encode_cfg = write_config(tmp_path, ENCODE_X | {"bitstream": "walk.bin"}, "encode.json")
    decode_cfg = write_config(tmp_path, {
        "kind": "decode",
        "master_seed": 99,
        "models": {"coding": {"probs": [0.25, 0.25, 0.25, 0.25]}},
        "bitstream": "walk.bin",
    }, "decode.json")
    out = tmp_path / "out"
    assert main(["encode", "--config", encode_cfg, "--out", str(out)]) == 0
    assert main(["decode", "--config", decode_cfg, "--out", str(out)]) == 0
    assert not (tmp_path / "walk.bin").exists()
    enc = json.loads((out / "encode_summary.json").read_text())
    dec = json.loads((out / "decode_summary.json").read_text())
    assert enc["bitstream"] == str(out / "walk.bin")
    # Hamming distortion of the decoded symbols is the encoder's own
    assert sum(x != y for x, y in zip(enc["x"], dec["symbols"])) == enc["total_distortion"]


def test_rd_curve_cli(tmp_path):
    cfg = write_config(tmp_path, {
        "kind": "rd-curve",
        "master_seed": 1,
        "models": {"source": {"probs": [0.25] * 4}, "distortion": {"hamming": 4}},
        "beta_grid": [0.5, 1.0, 2.0],
    })
    out = str(tmp_path / "out")
    assert main(["rd-curve", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "out" / "rd_curve.csv").read_text().strip().splitlines()
    assert len(lines) == 4


def test_rd_curve_cli_large_beta_without_zero_distortion(tmp_path):
    # no row of rho has a zero entry, so exp(-beta * rho) underflows unshifted
    cfg = write_config(tmp_path, {
        "kind": "rd-curve",
        "master_seed": 1,
        "models": {"source": {"probs": [0.5, 0.5]}, "distortion": {"rows": [[1, 2], [2, 1]]}},
        "beta_grid": [1.0, 800.0],
    })
    out = str(tmp_path / "out")
    assert main(["rd-curve", "--config", cfg, "--out", out]) == 0
    row = (tmp_path / "out" / "rd_curve.csv").read_text().strip().splitlines()[-1].split(",")
    assert float(row[0]) == 800.0
    assert float(row[2]) == pytest.approx(1.0, abs=1e-9)  # R_bits
    assert float(row[3]) == pytest.approx(1.0, abs=1e-9)  # D


def test_verify_theorem_pass_and_exit_codes(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "verify-theorem",
        "master_seed": 5,
        "models": {"source": {"probs": [0.25] * 4}, "distortion": {"hamming": 4}},
        "shape": {"d": 2, "n_list": [6, 8]},
        "trials": 5,
        "fixed_sequence": True,
    })
    assert run_experiment(cfg, str(tmp_path)) == EXIT_OK
    summary = json.loads((tmp_path / "verify_theorem_summary.json").read_text())
    assert summary["verdict"] == "PASS"
    rows = (tmp_path / "verify_theorem.csv").read_text().strip().splitlines()
    assert len(rows) == 3


def test_verify_theorem_not_applicable(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "verify-theorem",
        "master_seed": 5,
        "models": {"source": {"probs": [0.85, 0.15]}, "distortion": {"hamming": 2}},
        "shape": {"d": 2, "n_list": [4]},
        "trials": 2,
    })
    assert run_experiment(cfg, str(tmp_path)) == EXIT_NOT_APPLICABLE
    summary = json.loads((tmp_path / "verify_theorem_summary.json").read_text())
    assert summary["verdict"] == "NOT-APPLICABLE"


def test_cli_zero_probability_source_letter_stays_finite(tmp_path):
    # the bisection climbs to BETA_MAX, where the absent letter's test-channel row used to turn 0/0
    models = {"source": {"probs": [1, 0]}, "distortion": {"hamming": 2}}
    curve = write_config(tmp_path, {"kind": "rd-curve", "master_seed": 1, "models": models,
                                    "beta_grid": [1, 1e4]}, "curve.json")
    assert main(["rd-curve", "--config", curve, "--out", str(tmp_path / "curve")]) == EXIT_OK
    rows = (tmp_path / "curve" / "rd_curve.csv").read_text().strip().splitlines()[1:]
    assert len(rows) == 2 and all(math.isfinite(float(c)) for row in rows for c in row.split(","))
    verify = write_config(tmp_path, {"kind": "verify-theorem", "master_seed": 1, "models": models,
                                     "shape": {"d": 2, "n_list": [4]}, "trials": 2}, "verify.json")
    assert main(["verify-theorem", "--config", verify, "--out", str(tmp_path / "verify")]) == EXIT_NOT_APPLICABLE
    summary = json.loads((tmp_path / "verify" / "verify_theorem_summary.json").read_text())
    assert summary["degenerate"] and summary["d_of_r"] == 0.0 and summary["q_star"] == [1.0, 0.0]


@pytest.mark.parametrize("delta, code, verdict", [
    (1e-9, EXIT_OK, "PASS"),
    (1e-8, EXIT_OK, "PASS"),
    (1e-7, EXIT_OK, "PASS"),
    (1e-6, EXIT_NOT_APPLICABLE, "NOT-APPLICABLE"),
])
def test_cli_verify_theorem_near_symmetric_source(tmp_path, delta, code, verdict):
    # one symmetry gate: a Q* that passes it is accepted by every later stage
    cfg = write_config(tmp_path, {
        "kind": "verify-theorem",
        "master_seed": 3,
        "models": {
            "source": {"probs": [1 / 3 + delta, 1 / 3 - delta, 1 / 3]},
            "distortion": {"hamming": 3},
        },
        "shape": {"d": 2, "n_list": [6]},
        "trials": 2,
    })
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", cfg, "--out", str(out)]) == code
    summary = json.loads((out / "verify_theorem_summary.json").read_text())
    assert summary["verdict"] == verdict


def test_ensemble_runner(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "ensemble",
        "master_seed": 31,
        "models": {
            "source": {"probs": [0.25] * 4},
            "coding": {"probs": [0.25] * 4},
            "distortion": {"hamming": 4},
        },
        "shape": {"d": 2, "n": 8},
        "trials": 4,
    })
    assert run_experiment(cfg, str(tmp_path)) == EXIT_OK
    summary = json.loads((tmp_path / "ensemble_summary.json").read_text())
    assert summary["trials"] == 4
    assert summary["gap"] == pytest.approx(summary["mean"] - summary["d0"], abs=1e-12)
    rows = (tmp_path / "ensemble.csv").read_text().strip().splitlines()
    # every CSV row is recomputable: trial index and mean distortion only
    assert len(rows) == 5


def test_cli_error_paths(tmp_path, capsys):
    assert main(["dprm-converge", "--config", str(tmp_path / "missing.json")]) == 1
    cfg = write_config(tmp_path, converge_config())
    # kind argument/config kind mismatch
    assert main(["phase-scan", "--config", cfg]) == 1


@pytest.mark.parametrize("argv", [["bogus", "--config", "x.json"], ["encode"], ["encode", "--config"]],
                         ids=["unknown kind", "missing --config", "--config without a path"])
def test_cli_usage_errors_exit_1_not_the_not_applicable_code(argv, capsys):
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err


def test_cli_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "experiment kind" in capsys.readouterr().out


@pytest.mark.parametrize("d", [1, 2])
def test_cli_decode_rejects_huge_header_n_fast(tmp_path, d):
    path = tmp_path / "huge.bin"
    path.write_bytes(struct.pack(">8sIIQ", b"CAYCODE1", d, (1 << 32) - 1, 7))
    cfg = write_config(tmp_path, {
        "kind": "decode",
        "master_seed": 7,
        "models": {"coding": {"probs": [0.5, 0.5]}},
        "bitstream": str(path),
    })
    start = time.perf_counter()
    assert main(["decode", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    assert time.perf_counter() - start < 5.0
    assert not (tmp_path / "out").exists()


def test_cli_seed_override(tmp_path):
    cfg = write_config(tmp_path, converge_config())
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["dprm-converge", "--config", cfg, "--out", out1, "--seed", "123"]) == 0
    assert main(["dprm-converge", "--config", cfg, "--out", out2, "--seed", "123"]) == 0
    a = (tmp_path / "s1" / "dprm_converge.csv").read_bytes()
    b = (tmp_path / "s2" / "dprm_converge.csv").read_bytes()
    assert a == b
    summary = json.loads((tmp_path / "s1" / "dprm_converge_summary.json").read_text())
    assert summary["master_seed"] == 123


def test_cli_repeated_in_process_calls_share_no_state(tmp_path, capsys):
    # one parser serves every call: a usage error, a run or --help leaves nothing for the next call
    cfg = write_config(tmp_path, converge_config())
    assert main(["bogus", "--config", cfg]) == 1
    assert main(["dprm-converge", "--config", cfg, "--out", str(tmp_path / "s1"), "--seed", "123"]) == 0
    assert main(["--help"]) == 0
    assert main(["--help"]) == 0
    assert main(["dprm-converge", "--config", cfg, "--out", str(tmp_path / "s2")]) == 0
    seeds = [json.loads((tmp_path / s / "dprm_converge_summary.json").read_text())["master_seed"] for s in ("s1", "s2")]
    assert seeds == [123, 77]
    assert capsys.readouterr().out.count("experiment kind") == 2


@pytest.mark.parametrize("seed, code", [(2**64, 1), (-1, 1), (2**64 - 1, 0)])
def test_cli_seed_override_is_validated(tmp_path, seed, code):
    cfg = write_config(tmp_path, {
        "kind": "encode",
        "master_seed": 0,
        "models": {"coding": {"probs": [0.5, 0.5]}, "distortion": {"hamming": 2}},
        "shape": {"d": 2, "n": 4},
        "x": [0, 1, 1, 0],
    })
    out = tmp_path / "out"
    assert main(["encode", "--config", cfg, "--out", str(out), "--seed", str(seed)]) == code
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("grid", [
    [0.5, 0.6, 0.6, 0.7, 0.8, 0.9, 1.0, 1.3, 1.4, 1.5, 1.6, 1.7],
    [round(2.0 - 0.05 * k, 2) for k in range(31)],  # 2.0 down to 0.5, across beta_c
])
def test_cli_phase_scan_rejects_unordered_grid(tmp_path, grid):
    raw = {
        "kind": "phase-scan",
        "master_seed": 1,
        "models": {"energy": GAUSS_ENERGY},
        "shape": {"d": 2},
        "beta_grid": grid,
    }
    with pytest.raises(ConfigError, match="phase-scan: beta grid must be strictly increasing"):
        ExperimentConfig.from_dict(raw)
    cfg = write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["phase-scan", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()


UNIFORM4 = {"probs": [0.25] * 4}
# one valid config per kind, holding every field the kind takes but those in OTHER_HALVES
FULL_CONFIGS = {
    "dprm-converge": converge_config(),
    "phase-scan": {"kind": "phase-scan", "master_seed": 1, "models": {"energy": GAUSS_ENERGY},
                   "shape": {"d": 2}, "beta_grid": [0.5, 0.6, 0.7]},
    "encode": ENCODE_X | {"beam_width": 2},
    "decode": {"kind": "decode", "master_seed": 1, "models": {"coding": UNIFORM4},
               "bitstream": "walk.bin"},
    "rd-curve": {"kind": "rd-curve", "master_seed": 1,
                 "models": {"source": UNIFORM4, "distortion": {"hamming": 4}},
                 "beta_grid": [0.5, 1.0]},
    "verify-theorem": {"kind": "verify-theorem", "master_seed": 1,
                       "models": {"source": UNIFORM4, "distortion": {"hamming": 4}},
                       "shape": {"d": 2, "n_list": [4]}, "trials": 2, "fixed_sequence": True},
    "ensemble": {"kind": "ensemble", "master_seed": 1,
                 "models": {"source": UNIFORM4, "coding": UNIFORM4, "distortion": {"hamming": 4}},
                 "shape": {"d": 2, "n": 4}, "trials": 2, "fixed_sequence": True},
}
# the fields FULL_CONFIGS leaves out: encode's source, the other half of its x/source pair, and encode's
# bitstream, which other tests expect to take its default name
OTHER_HALVES = [
    {"kind": "encode", "master_seed": 1,
     "models": {"source": UNIFORM4, "coding": UNIFORM4, "distortion": {"hamming": 4}},
     "shape": {"d": 2, "n": 4}, "bitstream": "walk.bin"},
]
REQUIRED_FIELDS = [
    ("dprm-converge", "energy"), ("dprm-converge", "d"), ("dprm-converge", "n_list"), ("dprm-converge", "betas"),
    ("phase-scan", "energy"), ("phase-scan", "d"), ("phase-scan", "betas"),
    ("encode", "coding"), ("encode", "distortion"), ("encode", "d"), ("encode", "n"),
    ("decode", "coding"), ("decode", "bitstream"),
    ("rd-curve", "source"), ("rd-curve", "distortion"), ("rd-curve", "betas"),
    ("verify-theorem", "source"), ("verify-theorem", "distortion"), ("verify-theorem", "d"),
    ("ensemble", "source"), ("ensemble", "coding"), ("ensemble", "distortion"),
    ("ensemble", "d"), ("ensemble", "n"),
]
OPTIONAL_FIELDS = [
    ("dprm-converge", "trials"),
    ("encode", "source"), ("encode", "x"), ("encode", "beam_width"), ("encode", "bitstream"),
    ("verify-theorem", "n_list"), ("verify-theorem", "trials"),
    ("verify-theorem", "fixed_sequence"),
    ("ensemble", "trials"), ("ensemble", "fixed_sequence"),
]
# every field a kind takes besides kind and master_seed; a config holding any other is refused
FIELDS = {kind: {name for k, name in REQUIRED_FIELDS + OPTIONAL_FIELDS if k == kind} for kind in EXPERIMENT_KINDS}
# a valid value for each config field
FIELD_VALUES = {
    "energy": GAUSS_ENERGY, "source": UNIFORM4, "coding": UNIFORM4, "distortion": {"hamming": 4},
    "d": 2, "n": 4, "n_list": [4], "betas": [0.5], "trials": 2, "beam_width": 2,
    "fixed_sequence": True, "x": [0, 1, 2, 3], "bitstream": "walk.bin",
}


def _json_path(name):
    """The JSON key path that gives the config field `name`."""
    if name in ("energy", "source", "coding", "distortion"):
        return ("models", name)
    if name in ("d", "n", "n_list"):
        return ("shape", name)
    return ("beta_grid",) if name == "betas" else (name,)


def _without(raw, name):
    """raw with the config field `name` removed from where the JSON holds it."""
    raw = json.loads(json.dumps(raw))
    *block, key = _json_path(name)
    (raw.get(block[0], {}) if block else raw).pop(key, None)
    return raw


def _with(raw, names):
    """raw with each config field in `names` set to a valid value."""
    raw = json.loads(json.dumps(raw))
    for name in names:
        *block, key = _json_path(name)
        (raw.setdefault(block[0], {}) if block else raw)[key] = FIELD_VALUES[name]
    return raw


def test_full_configs_parse():
    assert set(FULL_CONFIGS) == set(EXPERIMENT_KINDS)
    for raw in FULL_CONFIGS.values():
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_every_field_of_a_kind_parses(kind):
    configs = [FULL_CONFIGS[kind]] + [raw for raw in OTHER_HALVES if raw["kind"] == kind]
    given = set()
    for raw in configs:
        ExperimentConfig.from_dict(raw)
        given |= {name for name in FIELD_VALUES if _without(raw, name) != raw}
    assert given == FIELDS[kind]


@pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
def test_config_refuses_every_field_its_kind_does_not_read(tmp_path, kind):
    for name in set(FIELD_VALUES) - FIELDS[kind]:
        key = _json_path(name)[-1]
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            ExperimentConfig.from_dict(_with(FULL_CONFIGS[kind], [name]))
    # the CLI exits 1 and writes nothing for such a config
    out = tmp_path / "out"
    raw = _with(FULL_CONFIGS[kind], [min(set(FIELD_VALUES) - FIELDS[kind])])
    assert main([kind, "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("raw, key", [
    # a misspelled key would otherwise leave its field at the default
    (converge_config(trails=50), "trails"),
    (converge_config(models={"energy": GAUSS_ENERGY | {"sdt": 5}}), "sdt"),
    # one unknown key in each nested block
    (converge_config(models={"energy": GAUSS_ENERGY, "enrgy": GAUSS_ENERGY}), "enrgy"),
    (converge_config(models={"energy": {"kind": "discrete", "values": [0.0], "probs": [1.0], "std": 1.0}}), "std"),
    (converge_config(shape={"d": 2, "n_list": [4, 6], "m": 4}), "m"),
    (FULL_CONFIGS["rd-curve"] | {"beta_grid": {"start": 0.5, "stop": 1.0, "step": 0.25, "num": 3}}, "num"),
    (FULL_CONFIGS["ensemble"] | {"models": {"source": UNIFORM4 | {"p": 1}, "coding": UNIFORM4,
                                            "distortion": {"hamming": 4}}}, "p"),
    (FULL_CONFIGS["ensemble"] | {"models": {"source": UNIFORM4, "coding": {"probs": [0.25] * 4, "values": [1]},
                                            "distortion": {"hamming": 4}}}, "values"),
    (FULL_CONFIGS["encode"] | {"models": {"coding": UNIFORM4, "distortion": {"hamming": 4, "scale": 2}}}, "scale"),
])
def test_config_refuses_unknown_keys_at_every_level(tmp_path, raw, key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        ExperimentConfig.from_dict(raw)
    out = tmp_path / "out"
    assert main([raw["kind"], "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("raw, pair", [
    (converge_config(beta=0.5), "beta or beta_grid"),
    (converge_config(shape={"d": 2, "n": 4, "n_list": [4, 6]}), "n or n_list"),
    (FULL_CONFIGS["verify-theorem"] | {"shape": {"d": 2, "n": 4, "n_list": [4]}}, "n or n_list"),
    (FULL_CONFIGS["encode"] | {"models": {"source": UNIFORM4, "coding": UNIFORM4,
                                          "distortion": {"hamming": 4}}}, "x or source"),
    (FULL_CONFIGS["rd-curve"] | {"models": {"source": UNIFORM4,
                                            "distortion": {"hamming": 4, "rows": [[0, 1], [1, 0]]}}},
     "hamming or rows"),
])
def test_config_refuses_both_halves_of_a_pair(raw, pair):
    # else one half would silently win over the other; beta and a sweep kind's shape.n are no spelling
    # of beta_grid and shape.n_list, so those pairs fail on the unknown key
    half = pair.split()[0]
    match = f"give {pair}, not both" if half in ("x", "hamming") else f"unknown key '{half}'"
    with pytest.raises(ConfigError, match=match):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("raw, key", [
    (_without(converge_config(), "betas") | {"beta": 0.5}, "beta"),
    (_without(FULL_CONFIGS["rd-curve"], "betas") | {"beta": 0.5}, "beta"),
    (converge_config(shape={"d": 2, "n": 4}), "n"),
    (FULL_CONFIGS["verify-theorem"] | {"shape": {"d": 2, "n": 4}}, "n"),
])
def test_cli_refuses_the_removed_spellings(tmp_path, capsys, raw, key):
    # beta_grid is the one spelling of beta, and shape.n_list the one block length list of a sweep kind
    out = tmp_path / "out"
    assert main([raw["kind"], "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
    assert not out.exists()
    assert f"unknown key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("kind, models, sizes", [
    ("rd-curve", {"source": {"probs": [0.5, 0.5]}, "distortion": {"hamming": 4}}, (4, 2)),
    ("verify-theorem", {"source": UNIFORM4, "distortion": {"hamming": 3}}, (3, 4)),
    ("encode", {"coding": {"probs": [0.5, 0.5]}, "distortion": {"hamming": 4}}, (4, 2)),
    ("ensemble", {"source": UNIFORM4, "coding": {"probs": [0.5, 0.5]}, "distortion": {"hamming": 4}}, (4, 2)),
])
def test_config_refuses_hamming_order_unlike_the_alphabet(tmp_path, kind, models, sizes):
    # refused before the k x k matrix is built, so a stray order cannot exhaust memory first
    raw = FULL_CONFIGS[kind] | {"models": models}
    with pytest.raises(ConfigError, match=r"distortion has {} (rows|columns) but {} \w+ letters".format(*sizes)):
        ExperimentConfig.from_dict(raw)
    out = tmp_path / "out"
    assert main([kind, "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
    assert not out.exists()


def test_hamming_matrix_is_built_only_after_a_pmf_checked_its_order(monkeypatch):
    # with no pmf to check it against, a stray order must not allocate its k x k matrix
    monkeypatch.setattr(DistortionMatrix, "hamming", None)
    with pytest.raises(ConfigError, match="rd-curve: config field 'source' is required"):
        ExperimentConfig.from_dict(_without(FULL_CONFIGS["rd-curve"], "source"))


@pytest.mark.parametrize("raw, message", [
    (FULL_CONFIGS["rd-curve"] | {"models": {"source": UNIFORM4, "distortion": {"rows": [[0, 1, 1, 1]] * 2}}},
     "2 rows but 4 source letters"),
    (FULL_CONFIGS["verify-theorem"] | {"models": {"source": {"probs": [0.5, 0.5]},
                                                  "distortion": {"rows": [[0, 1], [1, 0], [1, 1]]}}},
     "3 rows but 2 source letters"),
    (FULL_CONFIGS["encode"] | {"models": {"coding": UNIFORM4, "distortion": {"rows": [[0, 1]] * 4}}},
     "2 columns but 4 coding letters"),
    (OTHER_HALVES[0] | {"models": {"source": {"probs": [0.5, 0.5]}, "coding": UNIFORM4,
                                   "distortion": {"rows": (1 - np.eye(4)).tolist()}}},
     "4 rows but 2 source letters"),
    (FULL_CONFIGS["ensemble"] | {"models": {"source": {"probs": [0.5, 0.5]}, "coding": UNIFORM4,
                                            "distortion": {"rows": (1 - np.eye(4)).tolist()}}},
     "4 rows but 2 source letters"),
    (FULL_CONFIGS["ensemble"] | {"models": {"source": UNIFORM4, "coding": UNIFORM4,
                                            "distortion": {"rows": [[0, 1, 1]] * 4}}},
     "3 columns but 4 coding letters"),
])
def test_config_refuses_distortion_rows_unlike_the_alphabets(tmp_path, raw, message):
    # rows must have the shape (|source|, |coding|), as a hamming order must
    with pytest.raises(ConfigError, match=f"distortion has {message}"):
        ExperimentConfig.from_dict(raw)
    out = tmp_path / "out"
    assert main([raw["kind"], "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
    assert not out.exists()


def test_rd_curve_refuses_negative_beta():
    base = _without(FULL_CONFIGS["rd-curve"], "betas")
    for betas in ({"beta_grid": [-1.0]}, {"beta_grid": [-0.5, 1.0]}):
        with pytest.raises(ConfigError, match="beta values must be > 0"):
            ExperimentConfig.from_dict(base | betas)
    # beta = 0 is the rate-zero end of the curve
    assert ExperimentConfig.from_dict(base | {"beta_grid": [0.0, 1.0]}).betas == [0.0, 1.0]


@pytest.mark.parametrize("kind, name", REQUIRED_FIELDS + [("encode", "source")])
def test_required_field_missing_fails_before_any_output(tmp_path, kind, name):
    # encode's full config has x and no source; it needs a source only without x
    raw = _without(FULL_CONFIGS[kind], "x" if (kind, name) == ("encode", "source") else name)
    with pytest.raises(ConfigError, match=f"{kind}: config field '{name}' is required"):
        ExperimentConfig.from_dict(raw)
    out = tmp_path / "out"
    assert main([kind, "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("kind", ["dprm-converge", "phase-scan", "encode", "verify-theorem", "ensemble"])
def test_cli_rejects_d1_before_any_output(tmp_path, kind):
    # a d = 1 chain is no tree code and has no frozen-phase limit; d < 2 is refused at parse
    for d in (0, 1):
        raw = json.loads(json.dumps(FULL_CONFIGS[kind]))
        raw["shape"]["d"] = d
        with pytest.raises(ConfigError, match="shape.d"):
            ExperimentConfig.from_dict(raw)
        out = tmp_path / "out"
        assert main([kind, "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
        assert not out.exists()


def test_cli_refuses_d1_encode_before_drawing_the_source(tmp_path):
    # at d = 1 nothing else bounds n, so the refusal must come before the encode
    raw = _without(OTHER_HALVES[0], "bitstream")
    raw["shape"] = {"d": 1, "n": 200_000}
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["encode", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1.0
    assert not out.exists()


@pytest.mark.parametrize("shape", [{"d": 2, "n_list": [0]}, {"d": 2, "n_list": [4, 0]}])
def test_cli_verify_theorem_rejects_zero_block_length(tmp_path, shape):
    # n = 0 is no block length; it must not silently drop the ensemble trajectory
    raw = FULL_CONFIGS["verify-theorem"] | {"shape": shape}
    out = tmp_path / "out"
    assert main(["verify-theorem", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("kind, extra, files, code", [
    ("dprm-converge", {}, {"dprm_converge.csv", "dprm_converge_summary.json"}, EXIT_OK),
    ("phase-scan",
     {"models": {"energy": {"kind": "discrete", "values": [0.0, 1.0], "probs": [0.5, 0.5]}}},
     {"phase_scan.csv", "phase_scan_summary.json"}, EXIT_OK),
    ("encode", {}, {"encoded.bin", "encode_summary.json"}, EXIT_OK),
    ("encode", {"bitstream": "walk.bin"}, {"walk.bin", "encode_summary.json"}, EXIT_OK),
    ("decode", {}, {"decoded.csv", "decode_summary.json"}, EXIT_OK),
    ("rd-curve", {}, {"rd_curve.csv", "rd_curve_summary.json"}, EXIT_OK),
    ("verify-theorem", {"shape": {"d": 2, "n_list": [4]}},
     {"verify_theorem.csv", "verify_theorem_summary.json"}, EXIT_OK),
    ("verify-theorem", {"models": {"source": {"probs": [0.85, 0.15]}, "distortion": {"hamming": 2}},
                        "shape": {"d": 2, "n_list": [4]}},
     {"verify_theorem_summary.json"}, EXIT_NOT_APPLICABLE),
    ("ensemble", {}, {"ensemble.csv", "ensemble_summary.json"}, EXIT_OK),
])
def test_run_experiment_writes_exactly_its_files(tmp_path, kind, extra, files, code):
    raw = FULL_CONFIGS[kind] | extra
    if kind == "decode":
        # the bitstream comes from an encode run into another directory
        assert run_experiment(ExperimentConfig.from_dict(ENCODE_X), str(tmp_path / "enc")) == EXIT_OK
        raw = raw | {"bitstream": str(tmp_path / "enc" / "encoded.bin")}
    out = tmp_path / "out"
    assert run_experiment(ExperimentConfig.from_dict(raw), str(out)) == code
    assert {p.name for p in out.iterdir()} == files


def test_dprm_converge_refuses_a_sweep_past_half_of_physical_memory():
    # parsed only, never run: 36 * 2^40 bytes is about 40 TB, 36 * 2^16 about 2.4 MB
    with pytest.raises(ConfigError, match="shape.n_list"):
        ExperimentConfig.from_dict(converge_config(shape={"d": 2, "n_list": [8, 40]}))
    with pytest.raises(ConfigError, match="shape.n_list"):
        ExperimentConfig.from_dict(converge_config(shape={"d": 2, "n_list": [2**63]}))
    assert ExperimentConfig.from_dict(converge_config(shape={"d": 2, "n_list": [16]})).n_list == [16]


def test_readme_configs_parse():
    # every JSON config the README shows is one the parser takes
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
        blocks = fh.read().split("```json\n")[1:]
    assert blocks
    for block in blocks:
        ExperimentConfig.from_dict(json.loads(block.split("```")[0]))


def _energy_config(kind, energy):
    return FULL_CONFIGS[kind] | {"models": {"energy": energy}}


def _rows_config(rows):
    return ENCODE_X | {"models": {"coding": {"probs": [0.5, 0.5]}, "distortion": {"rows": rows}},
                       "x": [0, 1, 0, 1, 0, 1, 0, 1]}


@pytest.mark.parametrize("kind, raw, field", [
    ("phase-scan", _energy_config("phase-scan", {"kind": "gaussian", "mean": 0.0, "std": 1e200}), "energy.std"),
    ("dprm-converge", _energy_config("dprm-converge", {"kind": "gaussian", "mean": 0.0, "std": 1e300}),
     "energy.std"),
    ("phase-scan", _energy_config("phase-scan", {"kind": "gaussian", "mean": 1e308, "std": 1.0}), "energy.mean"),
    ("phase-scan", _energy_config("phase-scan", {"kind": "discrete", "values": [1e305, 2e305], "probs": [0.5, 0.5]}),
     "energy.values"),
    ("encode", _rows_config([[0, 1e308], [1e308, 0]]), "distortion.rows"),
    ("dprm-converge", _energy_config("dprm-converge", {"kind": "discrete", "values": [-1e150, 1e150],
                                                       "probs": [0.5, 0.5]}) | {"beta_grid": [1e300]}, "beta_grid"),
    ("phase-scan", _energy_config("phase-scan", {"kind": "discrete", "values": [1e150, 1.3e150], "probs": [0.5, 0.5]})
     | {"beta_grid": [1e300, 2e300, 3e300]}, "beta_grid"),
    ("dprm-converge", converge_config(beta_grid={"start": 1e3, "stop": 2e4, "step": 1e3}), "beta_grid's last point"),
])
def test_cli_refuses_overflowing_reals_before_any_output(tmp_path, capsys, kind, raw, field):
    # each once died in the math library or the root search, summed a path to inf, or wrote inf and nan rows
    # with exit 0, naming no field
    out = tmp_path / "out"
    assert main([kind, "--config", write_config(tmp_path, raw), "--out", str(out)]) == 1
    assert f"error: {field}: " in capsys.readouterr().err
    assert not out.exists()


def test_real_fields_take_values_up_to_max_real():
    top = np.nextafter(MAX_REAL, math.inf)
    for value, ok in ((-MAX_REAL, True), (MAX_REAL, True), (top, False), (-top, False)):
        raws = [_energy_config("phase-scan", {"kind": "gaussian", "mean": value, "std": abs(value)}),
                _energy_config("phase-scan", {"kind": "discrete", "values": [0.0, value], "probs": [0.5, 0.5]}),
                _rows_config([[0, abs(value)], [1, 0]])]
        for raw in raws:
            if ok:
                ExperimentConfig.from_dict(raw)
            else:
                with pytest.raises(ConfigError, match="past which the run overflows"):
                    ExperimentConfig.from_dict(raw)


def test_beta_grid_takes_values_up_to_beta_max():
    # beta times an energy overflows past BETA_MAX; rd-curve's beta scales only rho - min rho inside exp(-.)
    for kind in ("dprm-converge", "phase-scan"):
        assert ExperimentConfig.from_dict(FULL_CONFIGS[kind] | {"beta_grid": [1.0, 2.0, BETA_MAX]}).betas[-1] == BETA_MAX
        with pytest.raises(ConfigError, match="beta_grid: "):
            ExperimentConfig.from_dict(FULL_CONFIGS[kind] | {"beta_grid": [1.0, 2.0, np.nextafter(BETA_MAX, 1e5)]})
    assert ExperimentConfig.from_dict(FULL_CONFIGS["rd-curve"] | {"beta_grid": [0.0, 1e300]}).betas == [0.0, 1e300]


def test_cli_phase_scan_finds_a_beta_c_below_1e_8(tmp_path):
    # Gaussian std 1e9 puts beta_c near 1.18e-9, below where the root search's bracket starts
    raw = _energy_config("phase-scan", {"kind": "gaussian", "mean": 0.0, "std": 1e9})
    raw |= {"beta_grid": [k * 1e-10 for k in range(1, 25)]}
    out = tmp_path / "out"
    assert main(["phase-scan", "--config", write_config(tmp_path, raw), "--out", str(out)]) == 0
    summary = json.loads((out / "phase_scan_summary.json").read_text())
    assert summary["transition"] == "DETECTED"
    assert summary["beta_c"] == pytest.approx(math.sqrt(2 * math.log(2)) / 1e9, rel=1e-5)


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def _scipy_modules_after(tmp_path, runs):
    """The scipy modules a fresh interpreter holds after cli.main ran each (kind, config, exit code) of runs."""
    script = (
        "import json, sys\n"
        "from cayleycodec.cli import main\n"
        "for kind, config, code in json.loads(sys.argv[1]):\n"
        "    assert main([kind, '--config', config, '--out', sys.argv[2]]) == code, kind\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    runs = [(kind, write_config(tmp_path, raw, f"{k}.json"), code) for k, (kind, raw, code) in enumerate(runs)]
    done = subprocess.run([sys.executable, "-c", script, json.dumps(runs), str(tmp_path / "out")],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_codec_process_never_loads_scipy(tmp_path):
    # scipy about triples a cold codec process's time and peak RSS; only kinds that call ndtri or brentq load it
    not_applicable = {"models": {"source": {"probs": [0.85, 0.15]}, "distortion": {"hamming": 2}}}
    assert _scipy_modules_after(tmp_path, [
        ("encode", ENCODE_X, EXIT_OK),
        ("encode", ENCODE_X | {"beam_width": 4, "bitstream": "beam.bin"}, EXIT_OK),
        ("decode", FULL_CONFIGS["decode"] | {"bitstream": "encoded.bin"}, EXIT_OK),
        ("rd-curve", FULL_CONFIGS["rd-curve"], EXIT_OK),
        ("verify-theorem", FULL_CONFIGS["verify-theorem"] | not_applicable, EXIT_NOT_APPLICABLE),
    ]) == []
    loaded = _scipy_modules_after(tmp_path, [
        ("dprm-converge", converge_config(), EXIT_OK),
        ("ensemble", FULL_CONFIGS["ensemble"], EXIT_OK),
    ])
    assert {"scipy.special", "scipy.optimize"} <= set(loaded)
