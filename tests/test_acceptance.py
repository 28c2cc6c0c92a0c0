"""Acceptance gate: the eight headline checks, one verdict line each.

Run with -s to see the verdict lines; each test also asserts, so the gate
shows up in a plain pytest run as eight passes or failures. Numbered labels
match the order below:

  1. closed-form fixtures          5. derivative vs finite differences
  2. formula goldens               6. distance rate shapes
  3. trajectory inequality suites  7. interpolation split
  4. contraction and certificates  8. byte-identical reports
"""

import csv
import json
import time

import numpy as np
import pytest

from imlab.cli import main
from imlab.gap_analysis import check_gap, exponents, m0_bound, theta0, theta1
from imlab.lyapunov_perron import (
    SolveSettings,
    lipschitz_certificate,
    solve_derivative,
    solve_manifold,
)
from imlab.nonlinearity import constant_map, zero_map
from imlab.perturbation_harness import rate_study, solve_member
from imlab.spectral_core import SpectralProblem
from imlab.suites import run_suites, suite_psi_uniform


def verdict(num, label, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{tag}] criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


@pytest.fixture(scope="module")
def study(lab):
    return rate_study(lab)


def test_criterion_1_closed_form_fixtures():
    t0 = time.perf_counter()
    problem = SpectralProblem(eigenvalues=np.array([1.0, 4.0]), m=1, alpha=0.0)
    settings = SolveSettings(box_half_widths=(1.5,))

    zres = solve_manifold(problem, zero_map(problem), settings)
    zder = solve_derivative(problem, zero_map(problem), zres.graph, 0.5, settings)
    zero_defect = max(np.abs(zres.graph.values).max(), np.abs(zder.field.values).max())

    cres = solve_manifold(problem, constant_map(problem, [0.0, 1.0]), settings)
    const_defect = np.abs(cres.graph.values - 0.25).max()

    elapsed = time.perf_counter() - t0
    ok = zero_defect <= 1e-14 and const_defect <= 1e-10 and elapsed < 1.0
    verdict(1, "closed-form fixtures", ok,
            f"zero defect {zero_defect:.1e}, constant defect {const_defect:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_2_formula_goldens():
    t0 = time.perf_counter()
    lm, lm1, lf, kappa, alpha, theta = 10.0, 100.0, 0.5, 1.0, 0.0, 0.5
    errs = [
        abs(theta0(lm, lm1, lf, alpha) - 87.0 / 11.0),
        abs(theta1(lm, lm1, lf, kappa, alpha) - 88.0 / 14.5),
        abs(m0_bound(lm1, lf, 1.0, alpha, 82.5) - 8.0 / 81.5),
    ]
    lams = exponents(lm, lm1, lf, kappa, alpha, theta)
    errs += [abs(a - b) for a, b in zip(lams, (11.0, 83.5, 82.5, 81.75, 80.75))]
    ok_flag, margins = check_gap(lm, lm1, lf, kappa, alpha)
    errs += [abs(margins[0] - 81.0), abs(margins[1] - 1.0)]
    elapsed = time.perf_counter() - t0
    worst = max(errs)
    ok = ok_flag and worst <= 1e-12 and elapsed < 0.1
    verdict(2, "formula goldens", ok, f"worst error {worst:.1e}, {elapsed:.3f}s")


def test_criterion_3_trajectory_suites(lab, limit):
    t0 = time.perf_counter()
    results = run_suites(lab, ("distp", "Jnorm", "distThetaEpsilon"), limit=limit)
    elapsed = time.perf_counter() - t0
    violations = sum(r.violations for r in results.values())
    ok = violations == 0 and elapsed < 30.0
    detail = ", ".join(f"{k} worst={r.worst_ratio:.3g}" for k, r in results.items())
    verdict(3, "trajectory inequality suites", ok,
            f"{violations} violations, {detail}, {elapsed:.1f}s")


def test_criterion_4_contraction_and_certificates(lab):
    t0 = time.perf_counter()
    member = solve_member(lab, 0.0)
    ratios = np.concatenate([member.manifold.ratios, member.derivative.ratios])
    lip = lipschitz_certificate(member.graph)
    res = suite_psi_uniform(lab, member, lab.rng("suites"),
                            theta=0.5 * lab.gap.theta_tilde)
    cert_out, m_bound = res.details["output_certificate"], res.details["M"]
    elapsed = time.perf_counter() - t0
    ok = (np.all(ratios < 1.0) and lip < 1.0
          and cert_out <= 1.1 * m_bound * (1 + 1e-8) and elapsed < 60.0)
    verdict(4, "contraction and certificates", ok,
            f"max ratio {ratios.max():.3g}, L_hat {lip:.3g}, "
            f"cert {cert_out:.3g} vs 1.1*M {1.1 * m_bound:.3g}, {elapsed:.1f}s")


def test_criterion_5_derivative_vs_finite_differences(limit):
    graph, field = limit.graph, limit.field
    vals = graph.node_values().reshape(graph.values.shape)
    h = graph.axes[0][1] - graph.axes[0][0]
    fd = (vals[2:] - vals[:-2]) / (2.0 * h)
    solved = field.values[1:-1, :, 0]
    err = np.abs(solved - fd).max()
    ok = err <= 1e-4
    verdict(5, "derivative field vs finite differences", ok, f"max error {err:.2e}")


def test_criterion_6_rate_shapes(lab, study):
    ok_sup = all(study.passes_sup)
    ok_c1t = all(study.passes_c1theta)
    d = [r.d_sup for r in sorted(study.rows, key=lambda r: r.eps)]
    monotone = all(a <= b * (1 + 1e-9) for a, b in zip(d, d[1:]))
    ok = (ok_sup and ok_c1t and monotone
          and study.fitted_C_sup > 0 and study.fitted_C_c1theta > 0
          and study.runtime_seconds < 300.0)
    verdict(6, "distance rate shapes", ok,
            f"C_sup {study.fitted_C_sup:.3g}, C_c1theta {study.fitted_C_c1theta:.3g}, "
            f"sup rows {sum(study.passes_sup)}/{len(study.rows)}, "
            f"c1theta rows {sum(study.passes_c1theta)}/{len(study.rows)}, "
            f"monotone={monotone}, {study.runtime_seconds:.0f}s")


def test_criterion_7_interpolation_split(lab, study):
    ratio = lab.theta / lab.theta_star
    slack = 1 + 1e-9
    tight = loose = 0
    for r in study.rows:
        if r.holder_diff > r.interpolation_bound * slack:
            tight += 1
        bound_c1 = r.seminorm_star**ratio * (2.0 * r.d_c1) ** (1 - ratio)
        if r.d_c1 > 0 and r.holder_diff > bound_c1 * slack:
            loose += 1
    ok = tight == 0 and loose == 0 and study.interpolation_ok
    verdict(7, "interpolation split", ok,
            f"{tight} violations against the derivative-part bound, "
            f"{loose} against the full-C1 bound, {len(study.rows)} rows")


def test_criterion_8_deterministic_reports(tmp_path, capsys):
    t0 = time.perf_counter()
    a, b = tmp_path / "a", tmp_path / "b"
    rc1 = main(["distance-study", "--out", str(a)])
    rc2 = main(["distance-study", "--out", str(b)])
    capsys.readouterr()
    same = all((a / name).read_bytes() == (b / name).read_bytes()
               for name in ("report.csv", "report.json"))
    elapsed = time.perf_counter() - t0
    with open(a / "report.csv", newline="") as fh:
        n_rows = sum(1 for _ in csv.DictReader(fh))
    ok = rc1 == 0 and rc2 == 0 and same
    verdict(8, "byte-identical reports", ok,
            f"{n_rows} rows, identical={same}, {elapsed:.0f}s for two runs")
