"""Command line front end.

Exit codes: 0 success, 1 configuration or usage problems (including a
configuration too large to allocate and an output directory that cannot be
created or written), 2 admissibility or certification
failures, 3 numerical failures (an iteration stops contracting, fails to
converge, or trips the overflow guard).
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from pathlib import Path

from . import perturbation_harness, suites
from .config import build_lab, default_config, load_config
from .errors import (
    AdmissibilityError,
    CertificationError,
    ConfigError,
    ConvergenceError,
    GapViolationError,
    ImlabError,
    OverflowGuardError,
)
from .lyapunov_perron import dump_csv, holder_certificate, lipschitz_certificate

_EXIT_CONFIG = 1
_EXIT_ADMISSIBILITY = 2
_EXIT_NUMERICAL = 3


def _load(args) -> "ExperimentConfig":
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "theta", None) is not None:
        cfg = replace(cfg, theta=args.theta)
    if getattr(args, "theta_star", None) is not None:
        cfg = replace(cfg, theta_star=args.theta_star)
    if getattr(args, "eps_grid", None) is not None:
        try:
            grid = tuple(float(x) for x in args.eps_grid.split(",") if x.strip())
        except ValueError as exc:
            raise ConfigError(f"--eps-grid must be comma-separated numbers: {exc}") from exc
        cfg = replace(cfg, family=replace(cfg.family, eps_grid=grid))
    return cfg


def _out_dir(args, cfg) -> Path:
    """The output directory, created before any solve so a bad path fails
    fast."""
    out = Path(args.out if getattr(args, "out", None) else cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


@contextmanager
def _writing(out):
    """Report writes into out; one the directory refuses ends in one error
    line."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output in {out}: {exc}") from exc


def _fmt(x) -> str:
    return f"{x:.12g}"


def _print_runtime(seconds):
    """Elapsed time goes to stderr, so the written reports stay
    byte-reproducible."""
    print(f"runtime: {seconds:.2f} s", file=sys.stderr)


def cmd_check_gap(args) -> int:
    cfg = _load(args)
    lab = build_lab(cfg)
    print(lab.gap.to_json())
    if not lab.gap.passed:
        return _EXIT_ADMISSIBILITY
    return 0


def _require_admissible(lab):
    """Gap margins and exponent windows must pass before any solve starts."""
    if not lab.gap.passed:
        mg, ms = lab.gap.margins["spectral_gap"], lab.gap.margins["eigenvalue_strength"]
        raise AdmissibilityError(
            f"gap conditions fail (margins {mg:.4g}, {ms:.4g})"
        )
    if lab.theta > lab.gap.theta_tilde:
        raise AdmissibilityError(
            f"theta {lab.theta:.4g} exceeds theta_tilde {lab.gap.theta_tilde:.4g}"
        )


def cmd_build(args) -> int:
    start = time.perf_counter()
    cfg = _load(args)
    lab = build_lab(cfg)
    _require_admissible(lab)
    out = _out_dir(args, cfg)
    sampled = lab.certify()
    member = perturbation_harness.solve_member(lab, 0.0)
    with _writing(out):
        dump_csv(member.graph, out / "manifold.csv")
        dump_csv(member.field, out / "derivative.csv")
    lip = lipschitz_certificate(member.graph)
    holder = holder_certificate(member.field, lab.theta)
    payload = {
        "theta": lab.theta,
        "theta_star": lab.theta_star,
        "kappa": lab.kappa,
        "constants": lab.constants,
        "amplitude": lab.amplitude,
        "certified_samples": {str(k): v for k, v in sampled.items()},
        "gap_report": json.loads(lab.gap.to_json()),
        "lipschitz_hat": lip,
        "holder_hat": holder,
        "M0": lab.gap.M0,
        "graph_iterations": member.manifold.iterations,
        "graph_diffs": member.manifold.diffs,
        "graph_ratios": member.manifold.ratios,
        "field_iterations": member.derivative.iterations,
        "field_diffs": member.derivative.diffs,
        "field_ratios": member.derivative.ratios,
    }
    with _writing(out), open(out / "certificates.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    print(f"manifold: {out / 'manifold.csv'}")
    print(f"derivative: {out / 'derivative.csv'}")
    print(f"certificates: {out / 'certificates.json'}")
    print(f"graph iterations = {member.manifold.iterations}  "
          f"field iterations = {member.derivative.iterations}")
    print(f"L_hat = {_fmt(lip)}  M_hat = {_fmt(holder)}")
    _print_runtime(time.perf_counter() - start)
    return 0


def cmd_distance_study(args) -> int:
    cfg = _load(args)
    lab = build_lab(cfg)
    _require_admissible(lab)
    out = _out_dir(args, cfg)
    lab.certify()
    report = perturbation_harness.rate_study(lab)
    with _writing(out):
        report.write_csv(out / "report.csv")
        report.write_json(out / "report.json")
        perturbation_harness.write_plot_script(out / "plot_report.py")
    for row, ps, pc in zip(report.rows, report.passes_sup, report.passes_c1theta):
        print(
            f"eps={row.eps:.3g}  d_sup={row.d_sup:.6g}  bound={row.bound_sup:.6g}  "
            f"d_c1theta={row.d_c1theta:.6g}  bound={row.bound_c1theta:.6g}  "
            f"[{'ok' if ps else 'FAIL'}/{'ok' if pc else 'FAIL'}]"
        )
    print(f"fitted_C_sup = {_fmt(report.fitted_C_sup)}  "
          f"fitted_C_c1theta = {_fmt(report.fitted_C_c1theta)}")
    print(f"report: {out / 'report.csv'}")
    _print_runtime(report.runtime_seconds)
    if not report.all_pass:
        return _EXIT_ADMISSIBILITY
    return 0


def cmd_self_test(args) -> int:
    cfg = _load(args)
    names = None
    if args.suites is not None:
        names = tuple(s.strip() for s in args.suites.split(",") if s.strip())
        if not names:
            raise ConfigError("--suites must list at least one suite")
        suites.check_names(names)
    lab = build_lab(cfg)
    _require_admissible(lab)
    out = _out_dir(args, cfg) if args.out else None
    lab.certify()
    print("constants certified against fresh samples")
    results = suites.run_suites(lab, names)
    if out is not None:
        payload = {name: asdict(res) for name, res in results.items()}
        with _writing(out), open(out / "suites.json", "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    failed = False
    for name, res in results.items():
        line = (f"{name:<14} samples={res.samples:<6} violations={res.violations:<3} "
                f"worst={res.worst_ratio:.6g}")
        print(line + ("  ok" if res.passed else "  FAIL"))
        failed = failed or not res.passed
    return _EXIT_ADMISSIBILITY if failed else 0


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they end in one `error:` line and
    exit 1 like any other configuration problem; --help still exits 0."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="imlab",
        description="Spectral laboratory for invariant graphs of parabolic "
        "problems: solver, certificates, and perturbation distance studies.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, exponents=True):
        sp.add_argument("--config", help="JSON experiment configuration")
        sp.add_argument("--seed", type=int, help="override the config seed")
        if exponents:
            sp.add_argument("--theta", type=float, help="override theta")
            sp.add_argument("--theta-star", dest="theta_star", type=float,
                            help="override theta_star")

    sp = sub.add_parser("check-gap", help="evaluate the spectral gap conditions")
    common(sp)
    sp.set_defaults(fn=cmd_check_gap)

    sp = sub.add_parser("build", help="solve the limit manifold and certify it")
    common(sp)
    sp.add_argument("--out", help="output directory (default from config)")
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("distance-study", help="run the perturbation rate study")
    common(sp)
    sp.add_argument("--out", help="output directory (default from config)")
    sp.add_argument("--eps-grid", help="comma-separated epsilon values")
    sp.set_defaults(fn=cmd_distance_study)

    sp = sub.add_parser("self-test", help="run the inequality verification suites")
    common(sp)
    sp.add_argument("--out", help="write every suite result at full precision to "
                    "suites.json in this directory (default: write no files)")
    sp.add_argument("--suites", help="comma-separated suite names "
                    f"(default all: {','.join(suites.ALL_SUITES)})")
    sp.set_defaults(fn=cmd_self_test)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ConfigError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except (AdmissibilityError, CertificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ADMISSIBILITY
    except (ConvergenceError, GapViolationError, OverflowGuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except ImlabError as exc:
        # remaining taxonomy members are configuration-shaped
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except MemoryError as exc:
        # sizes numpy refuses to allocate, such as an enormous spectral N
        print(f"error: the configuration needs more memory than is available ({exc})",
              file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
