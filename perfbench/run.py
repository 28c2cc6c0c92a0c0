"""imlab benchmark: one workload per invocation, serial closed loop, one client.

    python3 perfbench/run.py --workload study --seed 0 --seconds 60 --trace 0

Every measured run is a fresh `python -m imlab.cli ...` child with
PYTHONPATH=src, exactly as tier-1 runs the package. The next child starts
only after the previous one has exited.

--trace 0 (end to end). First SETUP_PROBES set-up probes run the same
command but stop once the lab is built and certified (child.py setup); then
workload children run while the next one, judged by the last one's wall
time, can end within --seconds of the first probe, and at least
MIN_CHILDREN run. Reports the median of wall_s (launch to exit), setup_s
(launch to certified), cpu_s (user plus system time of the child) and
peak_rss_mb (its maximum RSS).

--trace 1 (per layer). One untraced child, then one traced child
(child.py trace) that wraps imlab's public functions from outside. Reports
the per-layer metrics, and the tracing overhead as the ratio of the two
wall times. The traced outputs must equal the untraced ones.

Every child's outputs are checked against references recorded at the
baseline commit (perfbench/refs); a child fails if it exits non-zero, times
out or disagrees. The last stdout line is the JSON result; a run record
with the machine, versions, seeds and every sample goes to
perfbench/runs/<run>/record.json.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import outputs
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFS = BENCH_DIR / "refs"
RUNS = BENCH_DIR / "runs"

#: A run must end within 180 s; children are killed past this budget.
RUN_BUDGET_S = 165.0
SETUP_PROBES = 5
#: A study child takes about 30 s; one sample per run is too few on a shared
#: host, where a child's wall time drifts by 15-20% from minute to minute.
MIN_CHILDREN = 2

#: Program seeds the benchmark seed selects from, `seed % len(...)`. Each has
#: recorded references, and each takes 3 graph and 3 field iterations in every
#: member solve of study, so the work per run does not depend on
#: the seed. Seeds 0, 6 and 9 take a fourth iteration somewhere and are left
#: out: mixing them in would make wall_s spread by the seed, not by the code.
PROGRAM_SEEDS = (1, 2, 3, 4, 5, 7, 8)


@dataclass(frozen=True)
class Workload:
    argv: tuple
    outputs: tuple


WORKLOADS = {
    # The paper's experiment: the whole eps family (7 eps, 8 member solves).
    # The only workload where eps batching of the derivative solve shows.
    "study": Workload(("distance-study",), ("report.csv", "report.json", "plot_report.py")),
    # All five suites: two member solves, one standalone apply_D, trajectory
    # marches in collect mode and certificate sampling; no eps batching.
    "selftest": Workload(("self-test",), ("suites.txt",)),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = (
    "config.build_lab.s", "config.certify.s", "nonlinearity.certify_constants.calls",
    "lyapunov_perron.solve_manifold.s", "lyapunov_perron.solve_manifold.iterations",
    "lyapunov_perron.apply_T.calls", "lyapunov_perron.apply_T.s",
    "lyapunov_perron.apply_T.self_s", "lyapunov_perron.apply_T.rows",
    "lyapunov_perron.apply_T.steps",
    "lyapunov_perron.solve_derivative.s", "lyapunov_perron.solve_derivative.iterations",
    "lyapunov_perron.apply_D.calls", "lyapunov_perron.apply_D.s",
    "lyapunov_perron.apply_D.self_s", "lyapunov_perron.apply_D.rows",
    "lyapunov_perron.apply_D.steps",
    "nonlinearity.eval_batch.calls", "nonlinearity.eval_batch.rows",
    "nonlinearity.eval_batch.s",
    "nonlinearity.jacobian_batch.calls", "nonlinearity.jacobian_batch.rows",
    "nonlinearity.jacobian_batch.s", "nonlinearity.jacobian_batch.bytes",
    "lyapunov_perron.integrate_Theta.calls", "lyapunov_perron.integrate_Theta.s",
    "lyapunov_perron.integrate_Theta.rows", "lyapunov_perron.integrate_p_backward.s",
    "lyapunov_perron.holder_certificate.calls", "lyapunov_perron.holder_certificate.s",
    "lyapunov_perron.weighted_map_norms.calls", "lyapunov_perron.weighted_map_norms.s",
    "nonlinearity.holder_quotient_of_derivative.calls",
    "nonlinearity.holder_quotient_of_derivative.s",
    "perturbation_harness.solve_member.calls", "perturbation_harness.solve_member.s",
    "perturbation_harness.rate_study.s", "perturbation_harness.theta_comparison.s",
    "perturbation_harness.holder_seminorm_of_difference.s",
    "perturbation_harness.beta_eps.s", "perturbation_harness.estimators.s",
    "suites.distp.s", "suites.Jnorm.s", "suites.distThetaEpsilon.s",
    "suites.PsiUniform.s", "suites.Jdistance.s",
    "cli.write.s",
    "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_ratio",
)

_UNITS = {"calls": "count", "iterations": "count", "s": "s", "self_s": "s",
          "wall_s": "s", "untraced_wall_s": "s", "rows": "rows", "steps": "steps",
          "bytes": "B", "overhead_ratio": "ratio"}


def unit_of(metric: str) -> str:
    return END_TO_END.get(metric) or _UNITS[metric.rsplit(".", 1)[1]]


# ---------------------------------------------------------------------------
# Children


@dataclass
class Child:
    kind: str
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    launched_at: float
    out_dir: Path
    mismatched: tuple = ()

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.mismatched


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(kind, cmd, out_dir: Path, deadline: float) -> Child:
    """Run one child to completion; kill it if it outlives the deadline."""
    out_dir.mkdir(parents=True)
    with open(out_dir / "stdout.txt", "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=out_dir, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - launched, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - launched
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(kind, proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, launched, out_dir)


def imlab_args(workload: Workload, program_seed: int, out_dir: Path) -> list:
    return [*workload.argv, "--seed", str(program_seed), "--out", str(out_dir)]


def workload_child(kind, workload, program_seed, out_dir, deadline) -> Child:
    cmd = [sys.executable, "-m", "imlab.cli", *imlab_args(workload, program_seed, out_dir)]
    return run_child(kind, cmd, out_dir, deadline)


def helper_child(mode, workload, program_seed, out_dir, deadline) -> Child:
    result = out_dir / ("setup.json" if mode == "setup" else "trace.json.gz")
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), mode, str(result), "--",
           *imlab_args(workload, program_seed, out_dir)]
    return run_child(mode, cmd, out_dir, deadline)


def check_outputs(child: Child, workload: Workload, reference: dict) -> dict:
    """Canonical outputs of a child; records which ones disagree."""
    try:
        texts = outputs.collect(child.out_dir, workload.outputs)
    except (OSError, ValueError):
        texts = {}
    child.mismatched = tuple(outputs.mismatches(reference, texts))
    return texts


# ---------------------------------------------------------------------------
# Runs


def quartiles(values) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them; one sample repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def end_to_end_run(workload, program_seed, seconds, run_dir, deadline, reference):
    start = time.monotonic()
    children = []
    setup = []
    for i in range(SETUP_PROBES):
        probe = helper_child("setup", workload, program_seed, run_dir / f"setup{i}", deadline)
        children.append(probe)
        if probe.code == 0:
            certified = json.loads((probe.out_dir / "setup.json").read_text())["certified_at"]
            setup.append(certified - probe.launched_at)
    runs = []
    while True:
        child = workload_child("run", workload, program_seed, run_dir / f"run{len(runs)}", deadline)
        check_outputs(child, workload, reference)
        children.append(child)
        runs.append(child)
        # start another child only if it can end within --seconds
        now = time.monotonic()
        if now + child.wall_s > deadline or (
                len(runs) >= MIN_CHILDREN and now + child.wall_s > start + seconds):
            break
    samples = {
        "wall_s": [c.wall_s for c in runs],
        "setup_s": setup,
        "cpu_s": [c.cpu_s for c in runs],
        "peak_rss_mb": [c.peak_rss_mb for c in runs],
    }
    return children, samples


def trace_run(workload, program_seed, run_dir, deadline, reference):
    plain = workload_child("run", workload, program_seed, run_dir / "untraced", deadline)
    plain_texts = check_outputs(plain, workload, reference)
    traced = helper_child("trace", workload, program_seed, run_dir / "traced", deadline)
    traced_texts = check_outputs(traced, workload, reference)
    if traced.ok and traced_texts != plain_texts:
        traced.mismatched = tuple(n for n in traced_texts if traced_texts[n] != plain_texts.get(n))
    if traced.code != 0:
        return [plain, traced], {name: [] for name in PER_LAYER}, None
    with gzip.open(traced.out_dir / "trace.json.gz", "rt") as fh:
        layers = spans.layer_metrics(json.load(fh))
    layers["trace.wall_s"] = traced.wall_s
    layers["trace.untraced_wall_s"] = plain.wall_s
    layers["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    samples = {name: [layers[name]] for name in PER_LAYER}
    return [plain, traced], samples, layers


# ---------------------------------------------------------------------------
# Run record


def _git_commit():
    if not (ROOT / ".git").exists():  # the checkout may not be a git repository
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {k: os.environ.get(k) for k in threads},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    began = time.monotonic()
    deadline = began + RUN_BUDGET_S
    if not (ROOT / "src" / "imlab" / "cli.py").is_file():
        print(f"error: no imlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    program_seed = PROGRAM_SEEDS[args.seed % len(PROGRAM_SEEDS)]
    reference = outputs.load_reference(
        REFS / args.workload / f"seed{program_seed}", workload.outputs)
    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    if args.trace:
        children, samples, layers = trace_run(
            workload, program_seed, run_dir, deadline, reference)
        names = PER_LAYER
    else:
        children, samples = end_to_end_run(
            workload, program_seed, args.seconds, run_dir, deadline, reference)
        layers = None
        names = tuple(END_TO_END)

    failed = [c for c in children if not c.ok]
    print(f"workload={args.workload} seed={args.seed} program_seed={program_seed} "
          f"trace={args.trace} children={len(children)}")
    stats = {}
    for name in names:
        values = samples[name]
        if not values:
            print(f"error: no samples of {name}", file=sys.stderr)
            return 1
        q1, med, q3 = quartiles(values)
        stats[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
        print(f"  {name:<54} {med:>14.6g} {unit_of(name):<6} "
              f"q1={q1:.6g} q3={q3:.6g} n={len(values)}")
    print(f"  {'fail_ratio':<54} {len(failed) / len(children):>14.6g} "
          f"{'ratio':<6} ({len(failed)} of {len(children)} children)")
    for c in failed:
        print(f"  failed: {c.out_dir.name} exit={c.code} mismatched={list(c.mismatched)}")

    record = {
        "workload": args.workload, "seed": args.seed, "program_seed": program_seed,
        "trace": args.trace, "seconds": args.seconds, "machine": machine_record(),
        "children": [{"kind": c.kind, "code": c.code, "wall_s": c.wall_s, "cpu_s": c.cpu_s,
                      "peak_rss_mb": c.peak_rss_mb, "mismatched": list(c.mismatched)}
                     for c in children],
        "samples": samples, "stats": stats, "layers": layers,
        "computed_counts": [n for n in PER_LAYER if n.rsplit(".", 1)[1] in spans.COMPUTED],
        "elapsed_s": time.monotonic() - began,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")
    for c in children:
        if c.ok and c.kind != "trace":
            shutil.rmtree(c.out_dir)

    result = {
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": {n: {"value": stats[n]["median"], "unit": unit_of(n)} for n in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
