"""Record the outputs the benchmark's correctness gates compare against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json: per twin workload and config seed
0..worker.REFERENCE_SEEDS-1 (every seed a benchmark run can use), each
variant's relative error at every step (12 significant digits, far
inside the 10*solver_tol gate), and the condlab sweep's k*chi values and
condition numbers.  Condlab does not depend on the seed.  Re-record only
when the program's numbers are meant to change, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil

import worker
from gates import REFERENCE_PATH, read_conds, read_twin_errors


def _round(x: float) -> float:
    return float(f"{x:.12g}")


def record(workload: str, seed: int, outdir):
    pairs = worker.config_pairs(workload, seed, tiny=False)
    _, cfg = worker.setup(workload, pairs)
    runner = worker.Runner(workload, cfg, pairs, outdir, reference=None)
    run = runner.run()
    if run["failed"]:
        raise SystemExit(f"{workload} seed {seed} failed its gates: {run['messages']}")
    if runner.kind == "twin":
        return {name: [_round(x) for x in errs] for name, errs in read_twin_errors(outdir).items()}
    rows = read_conds(outdir)
    return {"k_chi": [r[0] for r in rows], "cond": [r[1] for r in rows]}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    outdir = worker.ROOT / ".perfbench_out" / "record"
    outdir.mkdir(parents=True, exist_ok=True)
    lines = ["{"]
    try:
        for workload, spec in worker.WORKLOADS.items():
            if spec["command"] == "condlab":
                lines.append(f'"{workload}": {json.dumps(record(workload, 0, outdir))},')
                continue
            lines.append(f'"{workload}": {{"overrides": {json.dumps(spec["overrides"])}, "seeds": {{')
            for seed in range(worker.REFERENCE_SEEDS):
                sep = "," if seed < worker.REFERENCE_SEEDS - 1 else ""
                lines.append(f'"{seed}": {json.dumps(record(workload, seed, outdir))}{sep}')
            lines.append("}},")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    lines[-1] = lines[-1].rstrip(",")
    lines.append("}")
    text = "\n".join(lines) + "\n"
    json.loads(text)
    REFERENCE_PATH.write_text(text)
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
