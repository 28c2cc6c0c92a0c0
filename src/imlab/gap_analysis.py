"""Closed-form spectral gap conditions, exponent windows, decay rates.

Everything in this module is exact scalar arithmetic on (lambda_m,
lambda_{m+1}, L_F, kappa, alpha, theta); no sampling and no iteration.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .errors import AdmissibilityError, DomainError


def _validate(lambda_m, lambda_m1, L_F, kappa, alpha):
    if lambda_m <= 0 or lambda_m1 <= lambda_m:
        raise DomainError("need 0 < lambda_m < lambda_{m+1}")
    if L_F < 0:
        raise DomainError("L_F must be nonnegative")
    if kappa < 1:
        raise DomainError("kappa must be at least 1")
    if not 0.0 <= alpha < 1.0:
        raise DomainError("alpha must lie in [0, 1)")


def check_gap(lambda_m, lambda_m1, L_F, kappa=1.0, alpha=0.0):
    """Both admissibility margins; the gap passes iff both are nonnegative.

    First margin: the spectral gap must dominate
    3 (kappa + 2) L_F (lambda_m^alpha + lambda_{m+1}^alpha).
    Second margin: lambda_m^(1 - alpha) must dominate
    6 (kappa + 2) L_F / (1 - alpha).
    """
    _validate(lambda_m, lambda_m1, L_F, kappa, alpha)
    need_gap = 3.0 * (kappa + 2.0) * L_F * (lambda_m**alpha + lambda_m1**alpha)
    margin_gap = (lambda_m1 - lambda_m) - need_gap
    margin_strength = lambda_m ** (1.0 - alpha) - 6.0 * (kappa + 2.0) * L_F / (1.0 - alpha)
    return margin_gap >= 0.0 and margin_strength >= 0.0, (margin_gap, margin_strength)


def theta0(lambda_m, lambda_m1, L_F, alpha=0.0):
    """Upper exponent window from the graph-regularity estimate."""
    _validate(lambda_m, lambda_m1, L_F, 1.0, alpha)
    num = lambda_m1 - lambda_m - 4.0 * L_F * lambda_m**alpha - 2.0 * L_F * lambda_m1**alpha
    return num / (2.0 * L_F * lambda_m**alpha + lambda_m)


def theta1(lambda_m, lambda_m1, L_F, kappa=1.0, alpha=0.0):
    """Upper exponent window from the derivative-comparison estimate."""
    _validate(lambda_m, lambda_m1, L_F, kappa, alpha)
    num = lambda_m1 - lambda_m - 4.0 * L_F * lambda_m**alpha
    return num / ((kappa + 2.0) * L_F * lambda_m**alpha + lambda_m + 3.0)


def theta_tilde(theta_F, theta0, theta1):
    """Admissible Hoelder ceiling: min of theta_F and both windows."""
    return min(theta_F, theta0, theta1)


def exponents(lambda_m, lambda_m1, L_F, kappa=1.0, alpha=0.0, theta=0.5):
    """The five decay rates entering the trajectory and fiber estimates.

    Returned in order: slow-flow separation rate, then the four mixed rates
    used by the derivative transform and the fiber comparison, all evaluated
    at the given Hoelder exponent theta.
    """
    _validate(lambda_m, lambda_m1, L_F, kappa, alpha)
    if theta < 0:
        raise DomainError("theta must be nonnegative")
    la, lb = lambda_m**alpha, lambda_m1**alpha
    lam0 = 2.0 * L_F * la + lambda_m
    lam1 = lambda_m1 - (theta + 1.0) * lambda_m - 2.0 * (theta + 1.0) * L_F * la
    lam2 = lambda_m1 - (theta + 1.0) * lambda_m - 2.0 * (theta + 2.0) * L_F * la
    lam3 = (
        -(2.0 + (kappa + 2.0) * theta) * L_F * la
        + lambda_m1
        - (theta + 1.0) * lambda_m
        - 3.0 * theta
    )
    lam4 = (
        -(4.0 + (kappa + 2.0) * theta) * L_F * la
        + lambda_m1
        - (theta + 1.0) * lambda_m
        - 3.0 * theta
    )
    return lam0, lam1, lam2, lam3, lam4


def m0_bound(lambda_m1, L_F, L, alpha, lambda2):
    """Fixed point of the Hoelder-seminorm recursion for derivative fields.

    lambda2 is the second mixed rate from exponents(); L is the certified
    Hoelder constant of the nonlinearity's derivative. The recursion
    M -> 8 L lambda_{m+1}^alpha / lambda2 + M * eta contracts only when
    eta = 2 L_F lambda_{m+1}^alpha / lambda2 < 1.
    """
    if lambda_m1 <= 0 or L_F < 0 or L < 0:
        raise DomainError("need lambda_{m+1} > 0 and nonnegative constants")
    lb = lambda_m1**alpha
    denom = lambda2 - 2.0 * L_F * lb
    if lambda2 <= 0 or denom <= 0:
        raise AdmissibilityError(
            "Hoelder recursion is not a contraction at this theta "
            f"(eta = {2.0 * L_F * lb / lambda2 if lambda2 > 0 else float('inf'):.4g})"
        )
    return 8.0 * L * lb / denom


@dataclass(frozen=True)
class GapReport:
    """Admissibility summary for one spectrum and one constant set."""

    passed: bool
    margins: dict
    theta0: float
    theta1: float
    theta_F: float
    theta_tilde: float
    theta: float
    lambdas: tuple
    eta: float | None
    M0: float | None
    inputs: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, allow_nan=False)


def gap_report(
    lambda_m,
    lambda_m1,
    L_F,
    kappa=1.0,
    alpha=0.0,
    theta=0.5,
    theta_F=1.0,
    L=1.0,
) -> GapReport:
    """Full formula-engine pass at one theta.

    L defaults to the conservative value 1 when no certified derivative
    Hoelder constant is available. M0 is reported as None when the Hoelder
    recursion does not contract at this theta, and eta as None when its
    denominator lambda2 is not positive.
    """
    passed, (mg, ms) = check_gap(lambda_m, lambda_m1, L_F, kappa, alpha)
    t0 = theta0(lambda_m, lambda_m1, L_F, alpha)
    t1 = theta1(lambda_m, lambda_m1, L_F, kappa, alpha)
    lams = exponents(lambda_m, lambda_m1, L_F, kappa, alpha, theta)
    eta = 2.0 * L_F * lambda_m1**alpha / lams[2] if lams[2] > 0 else None
    try:
        m0 = m0_bound(lambda_m1, L_F, L, alpha, lams[2])
    except AdmissibilityError:
        m0 = None
    return GapReport(
        passed=passed,
        margins={"spectral_gap": mg, "eigenvalue_strength": ms},
        theta0=t0,
        theta1=t1,
        theta_F=theta_F,
        theta_tilde=theta_tilde(theta_F, t0, t1),
        theta=theta,
        lambdas=lams,
        eta=eta,
        M0=m0,
        inputs={
            "lambda_m": lambda_m,
            "lambda_m1": lambda_m1,
            "L_F": L_F,
            "kappa": kappa,
            "alpha": alpha,
            "L": L,
        },
    )


def find_admissible_m(eigenvalues, L_F, kappa=1.0, alpha=0.0):
    """Convenience scan: smallest m whose gap margins are both nonnegative.

    Returns None when no cut in the given spectrum passes. No new math,
    just check_gap in a loop.
    """
    for m in range(1, len(eigenvalues)):
        lm, lm1 = float(eigenvalues[m - 1]), float(eigenvalues[m])
        if lm1 <= lm:
            continue
        ok, _ = check_gap(lm, lm1, L_F, kappa, alpha)
        if ok:
            return m
    return None


def margin_erosion(spectra, L_F, kappa=1.0, alpha=0.0):
    """Margins across a family of spectra, e.g. perturbed eigenvalue sets.

    spectra: iterable of (label, lambda_m, lambda_m1). Returns a list of
    (label, margin_gap, margin_strength, passed) rows.
    """
    rows = []
    for label, lm, lm1 in spectra:
        ok, (mg, ms) = check_gap(lm, lm1, L_F, kappa, alpha)
        rows.append((label, mg, ms, ok))
    return rows
