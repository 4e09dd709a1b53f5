"""Spans around cayleycodec's layer boundaries, for the benchmark's traced run.

The tracer replaces the module attributes that the package's callers look up
(``dprm.uniforms``, ``cli.run_experiment``, ``BranchEnergyOracle.sample`` ...)
with wrappers that record one span per call: name, start, end, parent span
and op id.  Nothing inside the package changes.  Spans stay in memory until
the run ends; per-layer metrics are computed from them and from a few counts
taken at the same boundaries.

A span's self time is its duration minus the union of its children's
intervals, so nested and overlapping children are never counted twice.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

# (metric, unit, better) for every per-layer metric the traced run reports.
# "<span>.calls" counts spans and "<span>.self_s" sums their self time; the
# other names are counts taken by the wrappers or ratios derived from them.
PER_LAYER_METRICS = [
    ("rng.uniforms.calls", "count", "lower"),
    ("rng.uniforms.self_s", "s", "lower"),
    ("rng.draws.energy", "count", "lower"),
    ("rng.draws.codebook", "count", "lower"),
    ("rng.draws.source", "count", "lower"),
    ("model.sample.calls", "count", "lower"),
    ("model.sample.self_s", "s", "lower"),
    ("dprm.generation_energies.calls", "count", "lower"),
    ("dprm.branches_generated", "count", "lower"),
    ("dprm.distinct_ratio", "ratio", "higher"),
    ("dprm.sweep.calls", "count", "lower"),
    ("dprm.sweep.self_s", "s", "lower"),
    ("theory.calls", "count", "lower"),
    ("theory.self_s", "s", "lower"),
    ("treecode.encode_exact.calls", "count", "lower"),
    ("treecode.encode_exact.self_s", "s", "lower"),
    ("treecode.encode_beam.calls", "count", "lower"),
    ("treecode.encode_beam.self_s", "s", "lower"),
    ("treecode.encode_beam.draws_per_symbol", "draws/symbol", "lower"),
    ("treecode.codeword_symbol.calls", "count", "lower"),
    ("treecode.decode.self_s", "s", "lower"),
    ("treecode.bitstream_bytes", "bytes", "lower"),
    ("treecode.simulate_ensemble.self_s", "s", "lower"),
    ("rd.blahut_arimoto.calls", "count", "lower"),
    ("rd.ba_iterations", "count", "lower"),
    ("rd.ba_unconverged", "count", "lower"),
    ("rd.blahut_arimoto.self_s", "s", "lower"),
    ("rd.bisection.self_s", "s", "lower"),
    ("harness.run.self_s", "s", "lower"),
    ("harness.bytes_written", "bytes", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("dprm.probe.log_partition_n20_ms", "ms", "lower"),
    ("dprm.probe.internal_energy_n20_ms", "ms", "lower"),
    ("dprm.probe.ground_state_n20_ms", "ms", "lower"),
    ("treecode.probe.encode_exact_n18_ms", "ms", "lower"),
    ("treecode.probe.encode_beam_m64_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "higher"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name, start, end, parent, op):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op


def self_times(spans) -> list[float]:
    """Self time of every span: its duration minus the union of its direct
    children's intervals, each clipped to the parent's interval."""
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = []
    for idx, sp in enumerate(spans):
        covered = 0.0
        reach = sp.start
        for ch in sorted(children.get(idx, ()), key=lambda c: c.start):
            lo, hi = max(ch.start, reach), min(ch.end, sp.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((sp.end - sp.start) - covered)
    return out


class Tracer:
    """Span recorder.  Wrappers record only while ``active`` is set, so the
    benchmark's own output checks, which call into the package, stay out of
    the trace."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.generations: set = set()
        self.active = False
        self.op = None
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._restore: list = []
        self.missing: list[str] = []

    def wrap(self, name, fn, count=None, prepare=None):
        """A callable that runs ``fn`` inside a span called ``name``.

        ``prepare(args)`` may replace the positional arguments before the
        call; ``count(tracer, args, result)`` records counts after it.
        """
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if prepare is not None:
                args = prepare(args)
            sp = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(sp)
            self._open[name] += 1
            sp.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def patch(self, owner, attr, name, count=None, prepare=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.  An attribute the
        package no longer has is listed in ``missing`` instead."""
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count, prepare))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def is_open(self, name) -> bool:
        return self._open[name] > 0

    def metrics(self, extra: dict) -> dict:
        """Every per-layer metric; ``extra`` supplies the values measured
        outside the spans (probe times, trace overhead)."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for sp, own in zip(self.spans, self_times(self.spans)):
            calls[sp.name] += 1
            self_s[sp.name] += own
        c = self.counts
        derived = {
            "dprm.distinct_ratio": len(self.generations) / max(calls["dprm.generation_energies"], 1),
            "treecode.encode_beam.draws_per_symbol":
                c["beam.codebook_draws"] / max(c["beam.symbols"], 1),
        }
        out = {}
        for metric, unit, _ in PER_LAYER_METRICS:
            if metric in extra:
                value = extra[metric]
            elif metric in derived:
                value = derived[metric]
            elif metric.endswith(".calls"):
                value = calls[metric[: -len(".calls")]]
            elif metric.endswith(".self_s"):
                value = self_s[metric[: -len(".self_s")]]
            else:
                value = c[metric]
            out[metric] = {"value": value, "unit": unit}
        return out


# ---------------------------------------------------------------------------
# the layer boundaries of cayleycodec


def install(tracer: Tracer, cc) -> None:
    """Wrap the layer boundaries of the imported package ``cc`` (a namespace
    holding its modules: rng, model, dprm, theory, treecode, rd, harness,
    cli)."""
    stream_names = {
        cc.rng.ENERGY_STREAM: "rng.draws.energy",
        cc.rng.CODEBOOK_STREAM: "rng.draws.codebook",
        cc.rng.SOURCE_STREAM: "rng.draws.source",
    }

    def count_draws(t, args, result):
        n = int(np.size(result))
        key = stream_names.get(int(args[1])) if len(args) > 1 else None
        if key is not None:
            t.counts[key] += n
            if key == "rng.draws.codebook" and t.is_open("treecode.encode_beam"):
                t.counts["beam.codebook_draws"] += n

    def count_generation(t, args, result):
        oracle, i = args[0], args[1]
        t.counts["dprm.branches_generated"] += int(np.size(result))
        t.generations.add((oracle.master_seed, oracle.shape, int(i)))

    def energy_fn_span(name):
        def prepare(args):
            return (tracer.wrap(name, args[0]),) + tuple(args[1:]) if args else args
        return prepare

    def count_beam(t, args, result):
        t.counts["beam.symbols"] += args[0].shape.n

    def count_bitstream(t, args, result):
        t.counts["treecode.bitstream_bytes"] += cc.treecode.HEADER_SIZE + len(args[2].data)

    def count_ba(t, args, result):
        t.counts["rd.ba_iterations"] += result.iterations
        t.counts["rd.ba_unconverged"] += int(not result.converged)

    p = tracer.patch
    for mod in (cc.dprm, cc.treecode, cc.harness):
        p(mod, "uniforms", "rng.uniforms", count=count_draws)
    for cls in (cc.model.EnergyDistribution, cc.model.SourceModel, cc.model.CodingDistribution):
        p(cls, "sample", "model.sample")
    p(cc.dprm.BranchEnergyOracle, "generation_energies", "dprm.generation_energies",
      count=count_generation)
    for attr in ("tree_log_partition", "tree_log_partition_and_mean_energy", "tree_ground_state"):
        p(cc.dprm, attr, "dprm.sweep", prepare=energy_fn_span("dprm.energy_fn"))
    p(cc.treecode, "tree_ground_state", "dprm.sweep", prepare=energy_fn_span("treecode.energy_fn"))
    p(cc.harness, "monte_carlo_free_energy", "dprm.monte_carlo")
    for attr in ("beta_c", "f_limit", "d0_of_r"):
        p(cc.theory, attr, "theory")
    p(cc.rd, "d0_of_r", "theory")
    p(cc.treecode, "encode_exact", "treecode.encode_exact")
    p(cc.treecode, "encode_beam", "treecode.encode_beam", count=count_beam)
    p(cc.treecode, "codeword_symbol", "treecode.codeword_symbol")
    p(cc.treecode, "decode_sequential", "treecode.decode")
    p(cc.treecode, "simulate_ensemble", "treecode.simulate_ensemble")
    p(cc.treecode, "pack", "treecode.pack")
    p(cc.treecode, "write_bitstream", "treecode.io", count=count_bitstream)
    p(cc.treecode, "read_bitstream", "treecode.io")
    p(cc.rd, "blahut_arimoto", "rd.blahut_arimoto", count=count_ba)
    p(cc.rd, "_solve_beta_for_rate", "rd.bisection")
    p(cc.rd, "sweep_curve", "rd.sweep_curve")
    p(cc.rd, "verify_d0_equals_d", "rd.verify")
    p(cc.rd, "export_curve", "rd.io")
    p(cc.cli, "run_experiment", "harness.run")
    p(cc.cli, "main", "cli.main")
