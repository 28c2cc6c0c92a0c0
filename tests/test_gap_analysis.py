"""Admissibility arithmetic.

The golden inputs lambda_m = 10, lambda_{m+1} = 100, L_F = 1/2, kappa = 1,
alpha = 0, theta = 1/2 make every formula evaluate to a small rational, so
the expected values below are exact fractions.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imlab.errors import AdmissibilityError, DomainError
from imlab.gap_analysis import (
    GapReport,
    check_gap,
    exponents,
    find_admissible_m,
    gap_report,
    m0_bound,
    margin_erosion,
    theta0,
    theta1,
    theta_tilde,
)

ROOT = Path(__file__).resolve().parents[1]

GOLD = dict(lambda_m=10.0, lambda_m1=100.0, L_F=0.5, kappa=1.0, alpha=0.0)


def test_theta_goldens():
    t0 = theta0(GOLD["lambda_m"], GOLD["lambda_m1"], GOLD["L_F"], GOLD["alpha"])
    t1 = theta1(GOLD["lambda_m"], GOLD["lambda_m1"], GOLD["L_F"], GOLD["kappa"], GOLD["alpha"])
    assert t0 == pytest.approx(87.0 / 11.0, abs=1e-12)
    assert t1 == pytest.approx(88.0 / 14.5, abs=1e-12)
    assert theta_tilde(1.0, t0, t1) == 1.0
    assert theta_tilde(9.0, t0, t1) == t1


def test_exponent_goldens():
    lams = exponents(
        GOLD["lambda_m"], GOLD["lambda_m1"], GOLD["L_F"], GOLD["kappa"], GOLD["alpha"], 0.5
    )
    want = (11.0, 83.5, 82.5, 81.75, 80.75)
    assert len(lams) == 5
    for got, expect in zip(lams, want):
        assert got == pytest.approx(expect, abs=1e-12)


def test_margin_goldens():
    ok, (gap_margin, strength_margin) = check_gap(
        GOLD["lambda_m"], GOLD["lambda_m1"], GOLD["L_F"], GOLD["kappa"], GOLD["alpha"]
    )
    assert ok
    assert gap_margin == pytest.approx(81.0, abs=1e-12)
    assert strength_margin == pytest.approx(1.0, abs=1e-12)


def test_m0_golden():
    m0 = m0_bound(GOLD["lambda_m1"], GOLD["L_F"], 1.0, GOLD["alpha"], 82.5)
    assert m0 == pytest.approx(8.0 / 81.5, abs=1e-12)


def test_m0_fixed_point_identity():
    # M0 solves M0 = 8 L lam^a / Lam2 + eta M0 with eta = 2 L_F lam^a / Lam2
    lam2, lf, holder = 82.5, 0.5, 0.7
    m0 = m0_bound(100.0, lf, holder, 0.0, lam2)
    eta = 2 * lf / lam2
    assert m0 == pytest.approx(8 * holder / lam2 + eta * m0, rel=1e-14)


def test_m0_requires_contraction():
    with pytest.raises(AdmissibilityError, match="eta"):
        m0_bound(100.0, 50.0, 1.0, 0.0, 82.5)


def test_zero_lipschitz_limits():
    assert theta0(10.0, 100.0, 0.0, 0.0) == pytest.approx(9.0, abs=1e-14)
    assert theta1(10.0, 100.0, 0.0, 1.0, 0.0) == pytest.approx(90.0 / 13.0, abs=1e-14)


@given(
    st.floats(1.0, 50.0),
    st.floats(100.0, 500.0),
    st.floats(0.0, 1.0),
    st.floats(1.0, 4.0),
    st.floats(0.0, 0.9),
    st.floats(0.01, 2.0),
)
@settings(max_examples=300, deadline=None)
def test_exponent_orderings(lm, lm1, lf, kappa, alpha, theta):
    _, lam1, lam2, lam3, lam4 = exponents(lm, lm1, lf, kappa, alpha, theta)
    tol = 1e-9 * (1 + abs(lam1))
    assert lam2 <= lam1 + tol
    assert lam4 <= lam3 + tol
    assert lam3 <= lam1 + tol
    assert lam4 <= lam2 + tol


@given(st.floats(0.01, 1.0), st.floats(1.01, 3.0))
@settings(max_examples=100, deadline=None)
def test_thetas_shrink_with_stronger_nonlinearity(lf, factor):
    args = (10.0, 100.0)
    assert theta0(*args, lf * factor, 0.0) < theta0(*args, lf, 0.0)
    assert theta1(*args, lf * factor, 1.0, 0.0) < theta1(*args, lf, 1.0, 0.0)


def test_domain_validation():
    with pytest.raises(DomainError):
        check_gap(100.0, 10.0, 0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        check_gap(10.0, 100.0, 0.5, 0.5, 0.0)
    with pytest.raises(DomainError):
        check_gap(10.0, 100.0, 0.5, 1.0, 1.0)
    with pytest.raises(DomainError):
        check_gap(10.0, 100.0, -0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        exponents(10.0, 100.0, 0.5, 1.0, 0.0, -0.1)


def test_gap_report_roundtrip():
    rep = gap_report(**GOLD, theta_F=1.0, theta=0.5, L=1.0)
    assert isinstance(rep, GapReport)
    assert rep.passed
    assert rep.theta_tilde == 1.0
    assert rep.eta < 1.0
    assert rep.M0 == pytest.approx(8.0 / 81.5, abs=1e-12)
    blob = json.loads(rep.to_json())
    assert blob["passed"] is True
    assert blob["margins"]["spectral_gap"] == pytest.approx(81.0)
    assert blob["margins"]["eigenvalue_strength"] == pytest.approx(1.0)


def test_gap_report_failing_spectrum():
    rep = gap_report(2.0, 2.4, 0.1, 1.0, 0.0, theta_F=1.0, theta=0.5, L=1.0)
    assert not rep.passed
    assert rep.margins["spectral_gap"] < 0


def test_find_admissible_m():
    ev = 2.0 * np.arange(1, 21) ** 2
    assert find_admissible_m(ev, 0.1, 1.0, 0.0) == 1
    # gap margin needs 2(2m+1) >= 18 and strength 2 m^2 >= 18 at L_F = 1
    assert find_admissible_m(ev, 1.0, 1.0, 0.0) == 4
    assert find_admissible_m(np.array([1.0, 1.1, 1.2]), 5.0, 1.0, 0.0) is None


def test_margin_erosion_rows():
    spectra = [("limit", 10.0, 100.0), ("worse", 10.0, 15.0)]
    rows = margin_erosion(spectra, 0.5, 1.0, 0.0)
    assert len(rows) == 2
    label, gap_margin, strength_margin, ok = rows[0]
    assert label == "limit" and ok
    assert gap_margin == pytest.approx(81.0)
    assert not rows[1][3]


def test_gap_margin_scan_runs_with_defaults(capsys):
    # the README documents this script; it is the one caller of
    # find_admissible_m and margin_erosion outside the tests
    path = ROOT / "scripts" / "gap_margin_scan.py"
    spec = importlib.util.spec_from_file_location("gap_margin_scan", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main([]) == 0
    scan, erosion = capsys.readouterr().out.split("\n\n")
    assert len(scan.splitlines()[2:]) == 7  # one row per L_F after two header lines
    assert len(erosion.strip().splitlines()[1:]) == 4  # one row per eps


_LOADED_MODULES = """
import sys
import imlab.gap_analysis
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "imlab"))))
"""


def test_gap_analysis_imports_without_numpy_or_the_solvers():
    # `import imlab` binds no submodule, so the admissibility formulas load
    # alone: a fresh interpreter holds only the package, errors and them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _LOADED_MODULES], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == ["imlab", "imlab.errors", "imlab.gap_analysis"]
