"""The benchmark's probe calls must keep working against the package.

`perfbench/probes.py` calls the public encoders, pack/decode, the ensemble
and the theorem check, and reads `EncodingResult` fields; its checks run
inside the benchmark only, so an API change would first show there.  This
runs them once in the suite.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"
MODULES = ("model", "dprm", "treecode", "rd")  # the ones the probes read


def test_benchmark_probe_checks_pass():
    spec = importlib.util.spec_from_file_location("perfbench_probes", PROBES)
    probes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probes)
    cc = SimpleNamespace(**{m: importlib.import_module(f"cayleycodec.{m}") for m in MODULES})
    assert probes.run_checked(cc, probes.build(cc)) == []
