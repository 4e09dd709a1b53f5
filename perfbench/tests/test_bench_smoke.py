"""A few ops of every workload, untraced and traced, on the default seed
(so the reference outputs are checked too)."""

import json
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def result(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(name, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    rec, res = result(capsys, "--workload", name, "--seconds", "0.5", "--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert rec["fail_ratio"] == {"value": 0, "unit": "ratio"}
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    recorded = {k: v["unit"] for k, v in rec["metrics"].items()}
    assert recorded.items() >= {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                                "setup_s": "s", "peak_rss_mb": "MB"}.items()

    monkeypatch.setattr(workloads.WORKLOADS[name], "trace_ops", 4)
    rec, res = result(capsys, "--workload", name, "--seconds", "0.5", "--trace", "1")
    assert res["correct"] and res["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert rec["fail_ratio"]["value"] == 0


def test_missing_sources_fail_without_a_result(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "codec-stream"]) != 0
    assert capsys.readouterr().out == ""


def test_reference_mismatch_is_reported():
    ref = workloads.load_reference("codec-stream")["ops"][0]
    bad = json.loads(json.dumps(ref))
    bad["decode_summary.json"]["symbols"][0] += 1
    assert workloads.compare(ref, bad)
    close = json.loads(json.dumps(ref))
    close["encode_summary.json"]["per_symbol_mean"] *= 1 + 1e-12
    assert workloads.compare(ref, close) == []
