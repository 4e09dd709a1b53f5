"""Smoke runs of the companion scripts, so an API change that breaks one
fails the suite.  Without matplotlib both skip their figure."""

import csv
import importlib.util
import json
import subprocess
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


def canned(value_a, value_b, correct=True):
    """A perfbench run record holding two metrics and its result line."""
    metrics = {"cycle_best_ms": {"value": value_a, "unit": "ms"}, "peak_rss_mb": {"value": value_b, "unit": "MB"}}
    return {"workload": "w", "result": {"correct": correct, "failed": 0 if correct else 2, "metrics": metrics}}


def test_bench_summary_of_canned_runs():
    bench = load_script("bench")
    metrics = [{"name": "cycle_best_ms", "unit": "ms", "better": "lower", "bound": 0.25},
               {"name": "peak_rss_mb", "unit": "MB", "better": "higher", "bound": 0.1}]
    base = [canned(a, b) for a, b in [(10.0, 5.0), (12.0, 5.0), (11.0, 5.0), (14.0, 5.0), (13.0, 5.0)]]
    change = [canned(a, b, correct=k != 2) for k, (a, b) in enumerate([(9.0, 6.0), (12.0, 4.0), (10.0, 5.0),
                                                                       (15.0, 7.0), (8.0, 5.0)])]
    out = bench.summarize({"w": {"base": base, "change": change}}, metrics)["w"]
    assert out["correct"] == {"base": True, "change": False}
    assert out["failed_ops"] == {"base": [0] * 5, "change": [0, 0, 2, 0, 0]}
    cycle = out["metrics"]["cycle_best_ms"]
    assert cycle["base"] == [10.0, 12.0, 11.0, 14.0, 13.0] and cycle["change"] == [9.0, 12.0, 10.0, 15.0, 8.0]
    assert (cycle["base_median"], cycle["change_median"]) == (12.0, 10.0)
    assert cycle["base_iqr"] == 13.0 - 11.0  # inclusive quartiles of the base runs
    assert (cycle["pairs_won"], cycle["pairs"]) == (3, 5)  # lower wins; the tie in pair 2 is not a win
    assert cycle["worse_by"] == (10.0 - 12.0) / 12.0  # negative: the change's median is better
    rss = out["metrics"]["peak_rss_mb"]
    assert (rss["base_iqr"], rss["pairs_won"], rss["better"]) == (0.0, 2, "higher")
    assert rss["worse_by"] == 0.0
    worse = bench.summarize({"w": {"base": base, "change": [canned(12.0, 4.0)] * 5}}, metrics)["w"]["metrics"]
    assert worse["peak_rss_mb"]["worse_by"] == 0.2  # higher is better, so 4 against 5 is a fifth worse
    assert worse["cycle_best_ms"]["worse_by"] == 0.0


def test_bench_reads_tier1_counts_off_the_pytest_summary():
    bench = load_script("bench")
    passed = "....  [100%]\n== slowest 10 durations ==\n3.47s call tests/test_a.py::test_b\n467 passed in 28.13s\n"
    assert bench.tier1_counts(passed) == {"passed": 467}
    mixed = ("FAILED tests/test_a.py::test_c - 2 passed in a message\n"
             "2 failed, 465 passed, 1 skipped, 1 error in 30.50s\n")
    assert bench.tier1_counts(mixed) == {"failed": 2, "passed": 465, "skipped": 1, "error": 1}
    assert bench.tier1_counts("3 errors in 0.40s") == {"error": 3}
    assert bench.tier1_counts("") == {}


def test_bench_extracts_the_working_tree_files_git_lists(tmp_path):
    bench = load_script("bench")
    repo = tmp_path / "repo"
    (repo / "src" / "pkg").mkdir(parents=True)
    git = lambda *a: subprocess.run(["git", *a], cwd=repo, capture_output=True, check=True)
    git("init", "-q")
    files = {"kept.py": "tracked, edited", "src/pkg/mod.py": "tracked", "gone.py": "tracked, then deleted",
             "new.py": "untracked", "out.log": "ignored", "build/obj.o": "ignored directory",
             ".gitignore": "*.log\nbuild/\n"}
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    git("add", "kept.py", "src/pkg/mod.py", "gone.py", ".gitignore")
    (repo / "kept.py").write_text("edited after git add")
    (repo / "gone.py").unlink()
    want = [".gitignore", "kept.py", "new.py", "src/pkg/mod.py"]
    assert bench.tree_files(repo) == want
    bench.extract(repo, None, tmp_path / "work")
    got = sorted(str(f.relative_to(tmp_path / "work")) for f in (tmp_path / "work").rglob("*") if f.is_file())
    assert got == want
    assert (tmp_path / "work" / "kept.py").read_text() == "edited after git add"  # the tree's bytes, not the index's
    assert len(set(bench.SIDES.values())) == 2 and len({len(name) for name in bench.SIDES.values()}) == 1
