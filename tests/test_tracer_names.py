"""Every name the benchmark's tracer wraps must still exist in the package.

`perfbench/tracing.py` patches module attributes by name and lists any it
cannot find in `Tracer.missing`, so a deleted or renamed function silently
zeroes its per-layer counter.  This ratchet fails instead when a name beyond
the known stale set goes missing; shrink the set as the tracer is mended.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = ("rng", "model", "dprm", "theory", "treecode", "rd", "harness", "cli")
# wrapped by the tracer, deleted from the package since
STALE = {
    "cayleycodec.dprm.tree_ground_state",
    "cayleycodec.dprm.tree_log_partition",
    "cayleycodec.dprm.tree_log_partition_and_mean_energy",
    "cayleycodec.rd.d0_of_r",
    "cayleycodec.rd.export_curve",
    "cayleycodec.rd.sweep_curve",
    "cayleycodec.theory.d0_of_r",
    "cayleycodec.treecode.codeword_symbol",
    "cayleycodec.treecode.tree_ground_state",
}


def test_tracer_finds_every_live_name():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    cc = SimpleNamespace(**{m: importlib.import_module(f"cayleycodec.{m}") for m in MODULES})
    before = {m: dict(vars(getattr(cc, m))) for m in MODULES}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, cc)
    finally:
        tracer.uninstall()
    assert set(tracer.missing) <= STALE
    assert {m: dict(vars(getattr(cc, m))) for m in MODULES} == before
