"""Smoke runs of the companion scripts, so an API change that breaks one
fails the suite.  Without matplotlib both skip their figure."""

import csv
import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_achievability_script(tmp_path):
    out = tmp_path / "achievability"
    script = load_script("run_achievability")
    assert script.main(["--out", str(out), "--n", "4", "6", "--trials", "3"]) == 0
    with open(out / "verify_theorem.csv") as fh:
        assert [int(row["n"]) for row in csv.DictReader(fh)] == [4, 6]


def test_run_phase_diagram_script(tmp_path):
    out = tmp_path / "phase_diagram"
    script = load_script("run_phase_diagram")
    assert script.main(["--out", str(out), "--step", "0.01", "--halfwidth", "0.1"]) == 0
    summary = json.loads((out / "phase_scan_summary.json").read_text())
    assert summary["transition"] == "DETECTED"
