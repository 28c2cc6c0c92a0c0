"""Record reference outputs for the output check.

    python3 perfbench/record_refs.py SEED [SEED ...]

Runs every workload once per program seed with the sources in src/ and
stores the canonical outputs under perfbench/refs/<workload>/seed<SEED>/.
Also prints each run's solver iteration counts, which decide whether a seed
may join run.PROGRAM_SEEDS. Run it only at a commit whose outputs are known
good; the references are what later commits are checked against.
"""
from __future__ import annotations

import json
import shutil
import sys
import time

import outputs
import run


def iteration_counts(workload: str, out_dir) -> list:
    if workload == "study":
        rows = json.loads((out_dir / "report.json").read_text())["rows"]
        return [(r["iterations_graph"], r["iterations_field"]) for r in rows]
    return []


def main(argv) -> int:
    seeds = [int(s) for s in argv]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 1
    scratch = run.RUNS / "record"
    for seed in seeds:
        for name, workload in run.WORKLOADS.items():
            shutil.rmtree(scratch, ignore_errors=True)
            scratch.mkdir(parents=True)
            child = run.workload_child(
                "run", workload, seed, scratch / "out", time.monotonic() + 600.0)
            if child.code != 0:
                print(f"{name} seed={seed}: exit {child.code}; see {child.out_dir}")
                return 1
            texts = outputs.collect(child.out_dir, workload.outputs)
            outputs.save_reference(run.REFS / name / f"seed{seed}", texts)
            print(f"{name} seed={seed} wall_s={child.wall_s:.2f} "
                  f"iterations={iteration_counts(name, child.out_dir)}", flush=True)
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
