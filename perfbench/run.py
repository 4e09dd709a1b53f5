"""cayleycodec benchmark: one closed-loop client issuing in-process CLI runs.

    python3 perfbench/run.py --workload codec-stream --seed 0 --seconds 40 --trace 0

Run it from the repository root; it imports the package from ``src/``.  One
process runs one workload (see workloads.py) with a single client that waits
for each op before issuing the next, as a campaign script or codec caller
does.  It starts no threads or processes of its own.

--trace 0 runs ops until their summed latency reaches --seconds and reports
the end-to-end metrics.  --trace 1 runs each op of the workload's fixed op list
once untraced and once traced, then the reference-size probe, and reports
the per-layer metrics.  The last line of standard output is the result object;
the line before it is the run record (revision, machine, versions, all
end-to-end metrics including fail_ratio).  Scratch outputs and the span dump
go to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import os
import time


def _process_age() -> float:
    """Seconds since this process started, from the kernel's start time;
    0 where the kernel does not expose it."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


_AGE_AT_LOAD = _process_age()
_LOADED = time.perf_counter()

import argparse  # noqa: E402 - the process clock above must be read first
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MODULES = ("rng", "model", "dprm", "theory", "treecode", "rd", "harness", "cli")
CONFIG_ROUNDS = 5
# The end-to-end metrics of the result line, as BENCHMARK.json lists them.
# The pooled ops_per_s, op_p50_ms and op_p90_ms go to the run record only:
# on a shared 2-vCPU host they moved 15-35% between runs of the same code,
# while each op template's best latency moved 3-5% (see RATIONALE.md).
GATED = ("cycle_best_ms", "fast_op_best_ms", "slow_op_best_ms", "setup_s", "peak_rss_mb")
PROBE_REPEATS = 3


def elapsed_since_start() -> float:
    return _AGE_AT_LOAD + (time.perf_counter() - _LOADED)


def import_package(src: Path):
    """Import cayleycodec from ``src`` and return its layer modules."""
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("cayleycodec")
    if Path(pkg.__file__).resolve().parent != (src / "cayleycodec").resolve():
        raise ImportError(f"cayleycodec imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"cayleycodec.{m}") for m in MODULES})


def git_revision(root: Path) -> str | None:
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = root / ".git" / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (root / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "cayleycodec").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args, src: Path) -> dict:
    import numpy
    import scipy

    return {
        "git_revision": git_revision(ROOT),
        "source_sha256": source_digest(src),
        "workload": args.workload,
        "workload_seed": args.seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Runner:
    """Issues a workload's ops one at a time, checks each, counts failures."""

    def __init__(self, cc, wl, templates, expected, seed, out_dir: Path):
        self.cc, self.wl, self.templates = cc, wl, templates
        self.expected, self.seed, self.out_dir = expected, seed, out_dir
        self.reference = workloads.load_reference(wl.name) if seed == workloads.DEFAULT_SEED else None
        self.attempted = 0
        self.failures: list[str] = []

    def op(self, k: int, tracer=None) -> float:
        """Run op k, traced when a tracer is given; returns its latency in
        seconds."""
        template = self.templates[k % len(self.templates)]
        seed = workloads.op_seed(self.seed, k)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        if tracer is not None:
            tracer.op, tracer.active = k, True
        t0 = time.perf_counter()
        exits, error = workloads.run_op(self.cc.cli.main, template, seed, str(self.out_dir))
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
            tracer.counts["harness.bytes_written"] += sum(
                p.stat().st_size for p in self.out_dir.iterdir())
        self.attempted += 1
        errors = [error] if error else self.check(template, seed, exits, k)
        if errors:
            self.failures.append(f"op {k}: " + "; ".join(errors[:3]))
        return latency

    def check(self, template, seed, exits, k) -> list[str]:
        try:
            errors = self.wl.check(self.cc, template, self.expected, seed, exits, self.out_dir)
            if self.reference is not None and k < len(self.reference["ops"]):
                errors += workloads.compare(
                    self.reference["ops"][k], workloads.snapshot(self.out_dir), "reference")
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            errors = [f"output check: {type(exc).__name__}: {exc}"]
        return errors


def percentile(samples, q: int) -> float:
    """The q-th percentile, by statistics.quantiles' inclusive method."""
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(args, runner: Runner) -> dict:
    """Ops until their summed latency reaches --seconds.  Besides the pooled
    rate and percentiles, keeps each op template's best latency: the cycle
    of all templates, the quickest and the slowest template."""
    latencies, busy = [], 0.0
    best = [math.inf] * len(runner.templates)
    wall = time.perf_counter()
    while busy < args.seconds and time.perf_counter() - wall < 2 * args.seconds:
        k = len(latencies)
        latencies.append(runner.op(k))
        busy += latencies[-1]
        best[k % len(best)] = min(best[k % len(best)], latencies[-1])
    best = [b * 1e3 for b in best if b < math.inf]
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "ops_per_s": {"value": len(latencies) / busy, "unit": "1/s"},
        "op_p50_ms": {"value": percentile(latencies, 50) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": percentile(latencies, 90) * 1e3, "unit": "ms"},
        "cycle_best_ms": {"value": sum(best), "unit": "ms"},
        "fast_op_best_ms": {"value": min(best), "unit": "ms"},
        "slow_op_best_ms": {"value": max(best), "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def per_layer(cc, runner: Runner, tracer, work: Path) -> dict:
    """Runs each op of the fixed list untraced and traced, back to back and
    alternating which goes first, so a slow spell of a shared host hits both
    sides of trace.overhead alike; then the probe."""
    untraced = traced = 0.0
    for k in range(runner.wl.trace_ops):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if not with_trace:
                untraced += runner.op(k)
                continue
            tracing.install(tracer, cc)
            try:
                traced += runner.op(k, tracer)
            finally:
                tracer.uninstall()
    probe_inputs = probes.build(cc)
    probe_ms = probes.time_calls(cc, probe_inputs, PROBE_REPEATS)
    tracing.install(tracer, cc)
    try:
        tracer.op, tracer.active = "probe", True
        probe_errors = probes.run_checked(cc, probe_inputs)
    finally:
        tracer.active = False
        tracer.uninstall()
    runner.attempted += 1
    if probe_errors:
        runner.failures.append("; ".join(probe_errors))
    with open(work / "spans.json", "w") as fh:
        json.dump([[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans], fh)
    return tracer.metrics({**probe_ms, "trace.overhead": untraced / traced})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cayleycodec" / "__init__.py").is_file():
        print(f"error: no cayleycodec sources under {src}", file=sys.stderr)
        return 2
    cc = import_package(src)
    imported = elapsed_since_start()

    wl = workloads.WORKLOADS[args.workload]
    work = OUT / wl.name
    config_dir, out_dir = work / "configs", work / "out"
    rounds = []
    for _ in range(CONFIG_ROUNDS):
        t0 = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        config_dir.mkdir(parents=True)
        templates = wl.templates(config_dir, out_dir)
        rounds.append(time.perf_counter() - t0)
    setup_s = imported + statistics.median(rounds)

    runner = Runner(cc, wl, templates, wl.prepare(cc, templates), args.seed, out_dir)
    tracer = tracing.Tracer()
    if args.trace:
        metrics = result = per_layer(cc, runner, tracer, work)
    else:
        metrics = end_to_end(args, runner)
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        result = {name: metrics[name] for name in GATED}
    shutil.rmtree(out_dir, ignore_errors=True)

    record = run_record(args, src)
    record["trace"] = args.trace
    record["samples"] = runner.attempted
    record["fail_ratio"] = {"value": len(runner.failures) / runner.attempted, "unit": "ratio"}
    record["metrics"] = metrics
    if args.trace:
        record["trace_unwrapped"] = sorted(set(tracer.missing))
    record["failures"] = runner.failures[:20]
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
