"""Record the reference outputs that run.py checks on the default seed.

    python3 perfbench/make_reference.py

Run it from the repository root at the commit whose outputs are the
reference.  For each workload it runs the first REFERENCE_OPS ops on
DEFAULT_SEED and stores every output file in reference/<workload>.json.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    cc = run.import_package(run.ROOT / "src")
    for wl in workloads.WORKLOADS.values():
        work = run.OUT / wl.name
        shutil.rmtree(work, ignore_errors=True)
        (work / "configs").mkdir(parents=True)
        templates = wl.templates(work / "configs", work / "out")
        runner = run.Runner(cc, wl, templates, wl.prepare(cc, templates),
                            workloads.DEFAULT_SEED, work / "out")
        runner.reference = None
        ops = []
        for k in range(workloads.REFERENCE_OPS):
            runner.op(k)
            ops.append(workloads.snapshot(work / "out"))
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        workloads.REFERENCE_DIR.mkdir(exist_ok=True)
        path = workloads.REFERENCE_DIR / f"{wl.name}.json"
        body = ",\n".join(json.dumps(op, sort_keys=True) for op in ops)  # one op a line
        path.write_text(f'{{"workload": "{wl.name}", "seed": {workloads.DEFAULT_SEED}, '
                        f'"ops": [\n{body}\n]}}\n')
        shutil.rmtree(work)
        print(f"{path}: {len(ops)} ops")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
