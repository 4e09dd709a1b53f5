"""The benchmark's three campaign workloads: configs, ops and output checks.

An op is one or two in-process ``cli.main`` calls on JSON configs written
before timing starts.  Ops cycle through a workload's templates; op k of a
run with workload seed s passes ``--seed op_seed(s, k)``, so the package only
ever sees generated configs and seeds.  Checks run after each op, outside
its timed span; any failed check, unexpected exit code or exception fails the
op.  On ``DEFAULT_SEED`` the first ``REFERENCE_OPS`` ops are also compared
file by file against outputs recorded at the seed commit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE_OPS = 8
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FLOAT_RTOL = 1e-9


def op_seed(seed: int, k: int) -> int:
    """The master seed of op k, a 64-bit hash of (workload seed, k)."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{k}".encode()).digest()[:8], "big")


@dataclass(frozen=True)
class Step:
    """One ``cayleycodec <kind> --config <config>`` call and its exit code."""

    kind: str
    config: str
    expected_exit: int


@dataclass(frozen=True)
class Template:
    steps: tuple
    params: dict


def _write_config(config_dir: Path, name: str, payload: dict) -> str:
    path = config_dir / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return str(path)


def run_op(cli_main, template: Template, seed: int, out_dir: str):
    """Run the op's steps in order; returns (exit codes, error or None).

    The caller times this call and nothing else."""
    exits = []
    for step in template.steps:
        try:
            exits.append(cli_main([step.kind, "--config", step.config,
                                   "--seed", str(seed), "--out", out_dir]))
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - a failed op, not a crash
            return exits, f"{step.kind}: {type(exc).__name__}: {exc}"
    return exits, None


# ---------------------------------------------------------------------------
# reading outputs


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _close(a: float, b: float, rtol: float = FLOAT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300) or a == b


def snapshot(out_dir: Path) -> dict:
    """Every output file of an op, in the form references are stored in:
    CSV as rows of strings, JSON parsed, anything else as hex bytes.  The
    output directory's path is replaced by ``<out>``."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.suffix == ".csv":
            files[path.name] = _read_csv(path)
        elif path.suffix == ".json":
            files[path.name] = _relocate(_read_json(path), str(out_dir))
        else:
            files[path.name] = path.read_bytes().hex()
    return files


def _relocate(value, out_dir: str):
    if isinstance(value, str):
        return value.replace(out_dir, "<out>")
    if isinstance(value, list):
        return [_relocate(v, out_dir) for v in value]
    if isinstance(value, dict):
        return {k: _relocate(v, out_dir) for k, v in value.items()}
    return value


def _as_number(cell: str):
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return None


def compare(expected, actual, where: str = "") -> list[str]:
    """Differences between a reference and an output snapshot.  Integers,
    strings and bytes must match exactly, floats to FLOAT_RTOL relative."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return [] if expected == actual else [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, int) and isinstance(actual, int):
        return [] if expected == actual else [f"{where}: {actual} != {expected}"]
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        ok = (math.isnan(expected) and math.isnan(actual)) or _close(float(expected), float(actual))
        return [] if ok else [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, str) and isinstance(actual, str):
        if expected == actual:
            return []
        a, b = _as_number(expected), _as_number(actual)
        if isinstance(a, float) or isinstance(b, float):
            if a is not None and b is not None:
                return compare(float(a), float(b), where)
        return [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        errors = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            errors += compare(e, a, f"{where}[{i}]")
        return errors
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        errors = []
        for k in expected:
            errors += compare(expected[k], actual[k], f"{where}.{k}")
        return errors
    if expected is None and actual is None:
        return []
    return [f"{where}: {actual!r} != {expected!r}"]


def load_reference(workload: str):
    path = REFERENCE_DIR / f"{workload}.json"
    return _read_json(path) if path.is_file() else None


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A name, the templates its ops cycle through, and the op checks."""

    name: str
    trace_ops: int  # fixed op count of the traced pass, so counts repeat

    def templates(self, config_dir: Path, out_dir: Path) -> list[Template]:
        raise NotImplementedError

    def prepare(self, cc, templates) -> dict:
        """Expected values the checks need, computed before timing."""
        return {}

    def check(self, cc, template: Template, expected: dict, seed: int,
              exits: list, out_dir: Path) -> list[str]:
        raise NotImplementedError


def _expect_exits(template: Template, exits: list) -> list[str]:
    want = [s.expected_exit for s in template.steps]
    return [] if exits == want else [f"exit codes {exits} != {want}"]


def _finite_row(row, where) -> list[str]:
    bad = [c for c in row if not math.isfinite(float(c))]
    return [f"{where}: non-finite {bad}"] if bad else []


GAUSSIAN = {"kind": "gaussian", "mean": 0.0, "std": 1.0}


class PolymerCampaign(Workload):
    """dprm-converge over n in [8, 12, 16] and beta in [0.5, 1.2, 3.0]
    around beta_c ~ 1.177, four disorder trials per op."""

    name = "polymer-campaign"
    trace_ops = 16
    N_LIST = [8, 12, 16]
    BETAS = [0.5, 1.2, 3.0]
    TRIALS = 4
    D = 2

    def templates(self, config_dir, out_dir):
        cfg = {
            "kind": "dprm-converge",
            "master_seed": 0,
            "models": {"energy": GAUSSIAN},
            "shape": {"d": self.D, "n_list": self.N_LIST},
            "beta_grid": self.BETAS,
            "trials": self.TRIALS,
        }
        path = _write_config(config_dir, "dprm-converge", cfg)
        return [Template((Step("dprm-converge", path, 0),), {})]

    def prepare(self, cc, templates):
        dist = cc.model.EnergyDistribution.gaussian(GAUSSIAN["mean"], GAUSSIAN["std"])
        return {"f_limit": {b: cc.theory.f_limit(dist, self.D, b) for b in self.BETAS}}

    def check(self, cc, template, expected, seed, exits, out_dir):
        errors = _expect_exits(template, exits)
        rows = _read_csv(out_dir / "dprm_converge.csv")
        if rows[0] != ["n", "beta", "mean_f_n", "std", "f_limit", "gap"]:
            errors.append(f"dprm_converge.csv header {rows[0]}")
        grid = [(n, b) for n in self.N_LIST for b in self.BETAS]
        if len(rows) - 1 != len(grid):
            return errors + [f"dprm_converge.csv has {len(rows) - 1} rows, want {len(grid)}"]
        for (n, beta), row in zip(grid, rows[1:]):
            where = f"dprm_converge.csv n={n} beta={beta}"
            errors += _finite_row(row, where)
            if errors:
                continue
            got_n, got_beta, mean, std, flim, gap = (float(c) for c in row)
            if got_n != n or not _close(got_beta, beta):
                errors.append(f"{where}: row is (n={got_n}, beta={got_beta})")
            if not _close(flim, expected["f_limit"][beta]):
                errors.append(f"{where}: f_limit {flim} != theory {expected['f_limit'][beta]}")
            if std < 0 or abs(gap - (mean - flim)) > 1e-10 * max(1.0, abs(mean)):
                errors.append(f"{where}: std {std} or gap {gap} inconsistent")
        summary = _read_json(out_dir / "dprm_converge_summary.json")
        if summary.get("master_seed") != seed or summary.get("trials") != self.TRIALS:
            errors.append("dprm_converge_summary.json: seed or trials differ from the op")
        return errors


UNIFORM4 = [0.25, 0.25, 0.25, 0.25]


class CodecStream(Workload):
    """CLI encode then CLI decode of the written bitstream, Hamming-4 with
    uniform source and coding distributions; shapes cycle through three
    exact encodes and one beam encode."""

    name = "codec-stream"
    trace_ops = 96
    SHAPES = [  # (d, n, beam width or None)
        (2, 18, None),
        (3, 11, None),
        (4, 9, None),
        (2, 48, 32),
    ]

    def templates(self, config_dir, out_dir):
        out = []
        decode_cfg = {
            "kind": "decode",
            "master_seed": 0,
            "models": {"coding": {"probs": UNIFORM4}},
            "bitstream": str(out_dir / "stream.bin"),
        }
        decode = Step("decode", _write_config(config_dir, "decode", decode_cfg), 0)
        for d, n, width in self.SHAPES:
            cfg = {
                "kind": "encode",
                "master_seed": 0,
                "models": {
                    "source": {"probs": UNIFORM4},
                    "coding": {"probs": UNIFORM4},
                    "distortion": {"hamming": 4},
                },
                "shape": {"d": d, "n": n},
                "bitstream": "stream.bin",
            }
            name = f"encode-d{d}-n{n}"
            if width is not None:
                cfg["beam_width"] = width
                name += f"-beam{width}"
            encode = Step("encode", _write_config(config_dir, name, cfg), 0)
            out.append(Template((encode, decode), {"d": d, "n": n, "beam_width": width}))
        return out

    def check(self, cc, template, expected, seed, exits, out_dir):
        errors = _expect_exits(template, exits)
        d, n, width = template.params["d"], template.params["n"], template.params["beam_width"]
        enc = _read_json(out_dir / "encode_summary.json")
        dec = _read_json(out_dir / "decode_summary.json")
        if (enc["master_seed"], enc["d"], enc["n"]) != (seed, d, n):
            errors.append(f"encode_summary: (seed, d, n) = {(enc['master_seed'], enc['d'], enc['n'])}")
        if enc["encoder"] != ("exact" if width is None else "beam"):
            errors.append(f"encode_summary: encoder {enc['encoder']}")
        bits = (d**n - 1).bit_length()  # ceil(n log2 d), exactly
        if enc["bits"] != bits:
            errors.append(f"encode_summary: {enc['bits']} bits, want ceil(n log2 d) = {bits}")
        size = (out_dir / "stream.bin").stat().st_size
        if size != cc.treecode.HEADER_SIZE + (bits + 7) // 8:
            errors.append(f"stream.bin has {size} bytes for {bits} bits")
        shape = cc.dprm.TreeShape(d=d, n=n)
        code = cc.treecode.TreeCode(seed, cc.model.CodingDistribution(UNIFORM4), shape)
        want = [int(s) for s in cc.treecode.reproduction(code, enc["walk"])]
        if dec["symbols"] != want or dec["code_seed"] != seed:
            errors.append("decoded symbols differ from reproduction(code, walk)")
        rows = _read_csv(out_dir / "decoded.csv")
        if [int(r[1]) for r in rows[1:]] != dec["symbols"]:
            errors.append("decoded.csv differs from decode_summary symbols")
        x = enc["x"]
        total = sum(x_t != y_t for x_t, y_t in zip(x, dec["symbols"]))  # Hamming distortion
        if len(x) != n or total != enc["total_distortion"] or not _close(total / n, enc["per_symbol_mean"]):
            errors.append(f"encode_summary: distortion {enc['total_distortion']} != {total} recomputed")
        return errors


class RDTheorem(Workload):
    """rd-curve over beta 0.1..10 step 0.1, then verify-theorem at d=2 with
    n in [8, 12] and 8 trials, on the same (source, distortion) pair."""

    name = "rd-theorem"
    trace_ops = 32
    # (source pmf, Hamming size, verdict, exit code, degenerate)
    PAIRS = [
        (UNIFORM4, 4, "PASS", 0, False),
        ([1 / 3, 1 / 3, 1 / 3], 3, "PASS", 0, False),
        ([0.5, 0.5], 2, "PASS", 0, True),  # beta_c = inf: zero-distortion endpoint
        ([0.5, 0.3, 0.2], 3, "NOT-APPLICABLE", 2, False),
    ]
    N_LIST = [8, 12]
    BETAS = [round(0.1 * k, 10) for k in range(1, 101)]

    def templates(self, config_dir, out_dir):
        out = []
        for i, (probs, k, verdict, exit_code, degenerate) in enumerate(self.PAIRS):
            models = {"source": {"probs": probs}, "distortion": {"hamming": k}}
            curve = {"kind": "rd-curve", "master_seed": 0, "models": models,
                     "beta_grid": {"start": 0.1, "stop": 10.0, "step": 0.1}}
            verify = {"kind": "verify-theorem", "master_seed": 0, "models": models,
                      "shape": {"d": 2, "n_list": self.N_LIST}, "trials": 8}
            steps = (
                Step("rd-curve", _write_config(config_dir, f"rd-curve-{i}", curve), 0),
                Step("verify-theorem", _write_config(config_dir, f"verify-{i}", verify), exit_code),
            )
            out.append(Template(steps, {"verdict": verdict, "degenerate": degenerate}))
        return out

    def check(self, cc, template, expected, seed, exits, out_dir):
        errors = _expect_exits(template, exits)
        rows = _read_csv(out_dir / "rd_curve.csv")
        if rows[0] != ["beta", "R_nats", "R_bits", "D", "converged"]:
            errors.append(f"rd_curve.csv header {rows[0]}")
        if len(rows) - 1 != len(self.BETAS):
            return errors + [f"rd_curve.csv has {len(rows) - 1} rows, want {len(self.BETAS)}"]
        for beta, row in zip(self.BETAS, rows[1:]):
            errors += _finite_row(row, f"rd_curve.csv beta={beta}")
            if errors:
                break
            b, r_nats, r_bits, dist, conv = (float(c) for c in row)
            if (not _close(b, beta) or r_nats < 0 or dist < 0 or conv not in (0, 1)
                    or not _close(r_bits, r_nats / math.log(2))):
                errors.append(f"rd_curve.csv beta={beta}: row {row}")
        curve = _read_json(out_dir / "rd_curve_summary.json")
        if curve["points"] != len(self.BETAS) or curve["all_converged"] != all(r[4] == "1" for r in rows[1:]):
            errors.append("rd_curve_summary.json disagrees with rd_curve.csv")
        summary = _read_json(out_dir / "verify_theorem_summary.json")
        p = template.params
        if (summary["verdict"], summary["degenerate"], summary["master_seed"]) != (p["verdict"], p["degenerate"], seed):
            errors.append(f"verify_theorem: verdict {summary['verdict']} degenerate {summary['degenerate']}")
        table = out_dir / "verify_theorem.csv"
        if summary["applicable"]:
            vrows = _read_csv(table)
            if [int(r[0]) for r in vrows[1:]] != self.N_LIST:
                errors.append("verify_theorem.csv: n column differs from n_list")
            for r in vrows[1:]:
                errors += _finite_row(r, "verify_theorem.csv")
                if not errors and abs(float(r[4]) - (float(r[1]) - float(r[3]))) > 1e-10:
                    errors.append(f"verify_theorem.csv: gap inconsistent in {r}")
        elif table.exists():
            errors.append("verify_theorem.csv written for a NOT-APPLICABLE pair")
        return errors


WORKLOADS = {w.name: w for w in (PolymerCampaign(), CodecStream(), RDTheorem())}
