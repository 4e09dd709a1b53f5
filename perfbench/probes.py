"""Reference-size probe of the traced run.

Times the public calls of the ROADMAP baseline table at sizes beyond the
campaign ops: ln Z (beta = 3), <E> and the ground state at d=2, n=20, whose
8 MB generations exceed a 2 MB L2, and encode_exact / encode_beam (M=64) at
Hamming-4, d=2, n=18.  The probe then decodes, runs a small ensemble and a
theorem check, so that every layer's time is measured on every workload.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from types import SimpleNamespace

PROBE_SEED = 20081
BETA = 3.0


def build(cc):
    """Probe inputs, made by the benchmark before timing."""
    m = cc.model
    rng = random.Random(PROBE_SEED)
    uniform4 = [0.25] * 4
    return SimpleNamespace(
        oracle=cc.dprm.BranchEnergyOracle(
            PROBE_SEED, m.EnergyDistribution.gaussian(0.0, 1.0), cc.dprm.TreeShape(d=2, n=20)),
        code=cc.treecode.TreeCode(PROBE_SEED, m.CodingDistribution(uniform4), cc.dprm.TreeShape(d=2, n=18)),
        source=m.SourceModel(uniform4),
        rho=m.DistortionMatrix.hamming(4),
        x=[rng.randrange(4) for _ in range(18)],
    )


def _calls(cc, p):
    dprm, tc = cc.dprm, cc.treecode
    return {
        "dprm.probe.log_partition_n20_ms": lambda: dprm.log_partition_function(p.oracle, BETA),
        "dprm.probe.internal_energy_n20_ms": lambda: dprm.internal_energy(p.oracle, BETA),
        "dprm.probe.ground_state_n20_ms": lambda: dprm.ground_state(p.oracle),
        "treecode.probe.encode_exact_n18_ms": lambda: tc.encode_exact(p.code, p.x, p.rho),
        "treecode.probe.encode_beam_m64_ms": lambda: tc.encode_beam(p.code, p.x, p.rho, 64),
    }


def time_calls(cc, p, repeats: int) -> dict:
    """Median wall time of each probe call in ms, over ``repeats`` calls."""
    out = {}
    for metric, call in _calls(cc, p).items():
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            call()
            samples.append((time.perf_counter() - t0) * 1e3)
        out[metric] = statistics.median(samples)
    return out


def run_checked(cc, p) -> list[str]:
    """Every probe call once, plus decode, ensemble and theorem calls;
    returns the failed checks."""
    results = {metric: call() for metric, call in _calls(cc, p).items()}
    errors = []
    ln_z = results["dprm.probe.log_partition_n20_ms"]
    mean_e = results["dprm.probe.internal_energy_n20_ms"]
    _, e_min = results["dprm.probe.ground_state_n20_ms"]
    # ln Z >= -beta * E_min, and the Boltzmann mean energy is >= E_min
    if not (math.isfinite(ln_z) and ln_z >= -BETA * e_min - 1e-9 and mean_e >= e_min - 1e-9):
        errors.append(f"probe: ln Z {ln_z}, <E> {mean_e}, E_min {e_min} inconsistent")
    exact = results["treecode.probe.encode_exact_n18_ms"]
    beam = results["treecode.probe.encode_beam_m64_ms"]
    if exact.total_distortion > beam.total_distortion:
        errors.append("probe: beam encoder beat the exact encoder")
    tc = cc.treecode
    decoded = tc.decode_sequential(p.code, tc.pack(exact.walk, 2))
    if list(decoded) != list(tc.reproduction(p.code, exact.walk)):
        errors.append("probe: decode(pack(walk)) != reproduction(walk)")
    uniform = p.code.coding_dist
    stats = tc.simulate_ensemble(p.source, uniform, p.rho, 2, 8, 2, PROBE_SEED)
    if not (0.0 <= stats.mean <= 1.0):
        errors.append(f"probe: ensemble mean distortion {stats.mean}")
    if not cc.rd.verify_d0_equals_d(p.source, p.rho, 2).passed:
        errors.append("probe: theorem check failed for uniform-4 / Hamming-4")
    return errors
