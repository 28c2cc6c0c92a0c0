"""Summarize benchmark run records into one BENCH file.

    python3 perfbench/summarize.py OUT.json RECORD.json [RECORD.json ...]

RECORD files are the perfbench/runs/<run>/record.json files that run.py
writes. For each workload and end-to-end metric the summary gives every
run's value, the median and quartiles across runs (statistics.quantiles,
n=4), and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. Traced runs contribute the median of each per-layer metric.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import ROOT, quartiles


def summarize(records: list) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(lambda: defaultdict(list))
    attempted = defaultdict(int)
    failed = defaultdict(int)
    for rec in records:
        w = rec["workload"]
        attempted[w] += len(rec["children"])
        failed[w] += sum(1 for c in rec["children"]
                         if c["code"] != 0 or c["mismatched"])
        for name, st in rec["stats"].items():
            values[w][name].append(st["median"])
            seeds[w][name].append(rec["seed"])
    workloads = {}
    for w, metrics in values.items():
        rows = {}
        for name, vals in metrics.items():
            q1, med, q3 = quartiles(vals)
            row = {"median": med, "q1": q1, "q3": q3, "n": len(vals),
                   "seeds": seeds[w][name], "values": vals}
            if name in bounds:
                row["spread"] = (q3 - q1) / med
                row["bound"] = bounds[name]
            rows[name] = row
        workloads[w] = {"attempted": attempted[w], "failed": failed[w],
                        "fail_ratio": failed[w] / attempted[w], "metrics": rows}
    return {"machine": records[0]["machine"] if records else None,
            "run_seconds": bench["run_seconds"], "workloads": workloads}


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 1
    records = [json.loads(Path(p).read_text()) for p in argv[1:]]
    summary = summarize(records)
    Path(argv[0]).write_text(json.dumps(summary, indent=2) + "\n")
    for w, body in summary["workloads"].items():
        print(f"{w}: fail_ratio {body['failed']}/{body['attempted']}")
        for name, row in body["metrics"].items():
            if "spread" in row:
                flag = "ok" if row["spread"] < row["bound"] / 3 else "WIDE"
                print(f"  {name:<14} median={row['median']:.4f} q1={row['q1']:.4f} "
                      f"q3={row['q3']:.4f} n={row['n']} spread={row['spread']:.4f} "
                      f"bound={row['bound']} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
