import json
import math
import os
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayleycodec import decode_sequential, read_bitstream, TreeCode, TreeShape, CodingDistribution
from cayleycodec.cli import main
from cayleycodec.harness import (
    EXIT_NOT_APPLICABLE,
    EXIT_OK,
    EXPERIMENT_KINDS,
    MAX_GRID_POINTS,
    ConfigError,
    ExperimentConfig,
    run_dprm_converge,
    run_ensemble,
    run_phase_scan,
    run_verify_theorem,
)

GAUSS_ENERGY = {"kind": "gaussian", "mean": 0.0, "std": 1.0}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def converge_config(**overrides):
    cfg = {
        "kind": "dprm-converge",
        "master_seed": 77,
        "models": {"energy": GAUSS_ENERGY},
        "shape": {"d": 2, "n_list": [4, 6]},
        "beta": 0.5,
        "trials": 3,
    }
    cfg.update(overrides)
    return cfg


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
        ExperimentConfig.from_dict(converge_config(beta=-1.0))


@pytest.mark.parametrize("overrides", [
    {"beta": math.nan},
    {"beta": math.inf},
    {"models": 5},
    {"trials": None},
    {"models": {"energy": {"kind": "gaussian", "mean": 0}}},
    {"models": {"energy": [1]}},
])
def test_config_rejects_malformed_sections(overrides):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(converge_config(**overrides))


@pytest.mark.parametrize("grid", [
    [0.5, math.nan],
    {"start": 1},
    {"start": 0.5, "stop": math.inf, "step": 0.1},
    {"start": 0.5, "stop": math.nan, "step": 0.1},
    {"start": 0.5, "stop": 1.0, "step": math.nan},
])
def test_config_rejects_malformed_beta_grid(grid):
    base = {k: v for k, v in converge_config().items() if k != "beta"}
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(base | {"beta_grid": grid})


def test_config_rejects_huge_beta_grid_at_once():
    base = {k: v for k, v in converge_config().items() if k != "beta"}
    t0 = time.perf_counter()
    with pytest.raises(ConfigError, match="more than"):
        ExperimentConfig.from_dict(base | {"beta_grid": {"start": 0.1, "stop": 2000.1, "step": 1e-9}})
    assert time.perf_counter() - t0 < 1.0
    cfg = ExperimentConfig.from_dict(base | {"beta_grid": {"start": 1.0, "stop": 1.99999, "step": 1e-5}})
    assert len(cfg.betas) == MAX_GRID_POINTS


def test_cli_rejects_nan_beta(tmp_path):
    # json accepts NaN; the run must fail instead of writing nan rows
    cfg = write_config(tmp_path, converge_config(beta=math.nan))
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


@settings(max_examples=300, deadline=None)
@given(raw=_CONFIG)
def test_config_from_dict_fails_only_with_value_errors(raw):
    try:
        cfg = ExperimentConfig.from_dict(raw)
    except ValueError:  # ConfigError and model validation errors
        return
    assert all(math.isfinite(b) for b in cfg.betas)


def test_beta_grid_expansion():
    base = {k: v for k, v in converge_config().items() if k != "beta"}
    cfg = ExperimentConfig.from_dict(
        base | {"beta_grid": {"start": 0.5, "stop": 1.0, "step": 0.25}}
    )
    assert cfg.betas == pytest.approx([0.5, 0.75, 1.0])
    cfg2 = ExperimentConfig.from_dict(
        {k: v for k, v in converge_config().items() if k != "beta"}
        | {"beta_grid": [0.5, 1.5]}
    )
    assert cfg2.betas == [0.5, 1.5]


def test_dprm_converge_outputs(tmp_path):
    cfg = ExperimentConfig.from_dict(converge_config())
    assert run_dprm_converge(cfg, str(tmp_path)) == EXIT_OK
    rows = (tmp_path / "dprm_converge.csv").read_text().strip().splitlines()
    assert rows[0] == "n,beta,mean_f_n,std,f_limit,gap"
    assert len(rows) == 3
    summary = json.loads((tmp_path / "dprm_converge_summary.json").read_text())
    assert summary["master_seed"] == 77


def test_dprm_converge_point_mass_zero_gap(tmp_path):
    cfg = ExperimentConfig.from_dict(converge_config(
        models={"energy": {"kind": "discrete", "values": [0.4], "probs": [1.0]}}
    ))
    run_dprm_converge(cfg, str(tmp_path))
    for line in (tmp_path / "dprm_converge.csv").read_text().strip().splitlines()[1:]:
        assert abs(float(line.split(",")[5])) < 1e-12


def test_full_pipeline_determinism(tmp_path):
    cfg = ExperimentConfig.from_dict(converge_config())
    a, b = tmp_path / "a", tmp_path / "b"
    run_dprm_converge(cfg, str(a))
    run_dprm_converge(ExperimentConfig.from_dict(converge_config()), str(b))
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
    assert run_phase_scan(cfg, str(tmp_path)) == EXIT_OK
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
    with pytest.raises(ConfigError):
        run_phase_scan(cfg, str(tmp_path))


def test_phase_scan_no_transition(tmp_path):
    cfg = ExperimentConfig.from_dict({
        "kind": "phase-scan",
        "master_seed": 1,
        "models": {"energy": {"kind": "discrete", "values": [0.0, 1.0], "probs": [0.5, 0.5]}},
        "shape": {"d": 2},
        "beta_grid": {"start": 0.5, "stop": 3.0, "step": 0.1},
    })
    run_phase_scan(cfg, str(tmp_path))
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
    assert run_verify_theorem(cfg, str(tmp_path)) == EXIT_OK
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
    assert run_verify_theorem(cfg, str(tmp_path)) == EXIT_NOT_APPLICABLE
    summary = json.loads((tmp_path / "verify_theorem_summary.json").read_text())
    assert summary["verdict"] == "NOT-APPLICABLE"


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
    assert run_ensemble(cfg, str(tmp_path)) == EXIT_OK
    summary = json.loads((tmp_path / "ensemble_summary.json").read_text())
    assert summary["trials"] == 4
    assert summary["gap"] == pytest.approx(summary["mean"] - summary["d0"], abs=1e-12)
    rows = (tmp_path / "ensemble.csv").read_text().strip().splitlines()
    # every CSV row is recomputable: trial index and mean distortion only
    assert len(rows) == 5


def test_cli_error_paths(tmp_path, capsys):
    assert main(["dprm-converge", "--config", str(tmp_path / "missing.json")]) == 1
    cfg = write_config(tmp_path, converge_config())
    # subcommand/config kind mismatch
    assert main(["phase-scan", "--config", cfg]) == 1


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
    cfg = write_config(tmp_path, {
        "kind": "phase-scan",
        "master_seed": 1,
        "models": {"energy": GAUSS_ENERGY},
        "shape": {"d": 2},
        "beta_grid": grid,
    })
    out = tmp_path / "out"
    assert main(["phase-scan", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()
