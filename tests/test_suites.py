"""Inequality verification suites.

Each suite is a sampled Gronwall or regularity estimate; green means zero
violations beyond the relative budget. The acceptance module re-runs the
three trajectory suites at full size, so these stay at default counts.
"""

from dataclasses import asdict

import numpy as np
import pytest

from imlab.config import build_lab, config_from_dict
from imlab.errors import ConfigError
from imlab.gap_analysis import exponents, m0_bound
from imlab.nonlinearity import holder_quotient_of_derivative
from imlab.perturbation_harness import solve_member
from imlab.suites import (
    ALL_SUITES,
    check_names,
    suite_dist_theta_eps,
    suite_distp,
    suite_jdistance,
    suite_jnorm,
    suite_psi_uniform,
    run_suites,
)


def test_registry():
    assert ALL_SUITES == ("distp", "Jnorm", "distThetaEpsilon", "PsiUniform",
                          "Jdistance")
    with pytest.raises(ConfigError, match="unknown suites"):
        run_suites(None, names=("distp", "bogus"))
    # a repeat would draw from the shared stream again and shift later suites
    with pytest.raises(ConfigError, match=r"repeated suites: \['distp'\]"):
        run_suites(None, names=("distp", "distp", "Jnorm"))
    assert check_names(["Jnorm", "distp"]) == ("Jnorm", "distp")


def test_distp_suite(lab, limit):
    res = suite_distp(lab, limit, lab.rng("suites"), count=40)
    assert res.name == "distp"
    assert res.samples > 0
    assert res.violations == 0 and res.passed
    # the bound is tight at t = 0 where both sides equal the separation
    assert res.worst_ratio <= 1.0 + 1e-8


def test_jnorm_suite(lab, limit):
    res = suite_jnorm(lab, limit, lab.rng("suites"), count=40)
    assert res.violations == 0 and res.passed
    assert res.worst_ratio <= 1.0 + 1e-8


def test_dist_theta_eps_suite(lab, limit):
    res = suite_dist_theta_eps(lab, limit, lab.rng("suites"), count=40)
    assert res.violations == 0 and res.passed
    assert 0 < res.worst_ratio < 1.0


def test_psi_uniform_suite(lab, limit):
    res = suite_psi_uniform(lab, limit, np.random.default_rng(42))
    assert res.violations == 0 and res.passed
    d = res.details
    # M comes from the fixed-point bound at the theta-sampled quotient; the
    # suite draws that quotient first, so replaying the stream recovers it
    l_theta = holder_quotient_of_derivative(limit.F, d["theta"],
                                            rng=np.random.default_rng(42))
    lam = exponents(lab.limit_problem.lambda_m, lab.limit_problem.lambda_m1,
                    lab.constants["L_F"], lab.kappa, lab.limit_problem.alpha,
                    d["theta"])
    want = m0_bound(lab.limit_problem.lambda_m1, lab.constants["L_F"],
                    l_theta, lab.limit_problem.alpha, lam[2])
    assert d["M"] == pytest.approx(want, rel=1e-12)
    assert d["input_certificate"] <= d["M"] * (1 + 1e-8)
    assert d["output_certificate"] <= 1.1 * d["M"] * (1 + 1e-8)
    assert d["output_norm_sup"] <= 1.0 + 1e-8


def test_psi_uniform_at_half_window(lab, limit):
    theta = 0.5 * lab.gap.theta_tilde
    res = suite_psi_uniform(lab, limit, lab.rng("suites"), theta=theta)
    assert res.passed
    assert res.details["theta"] == pytest.approx(theta)


def test_jdistance_suite(lab, limit):
    member = solve_member(lab, max(lab.eps_grid))
    res = suite_jdistance(lab, limit, lab.rng("suites"), member)
    assert res.violations == 0 and res.passed
    assert res.worst_ratio <= 1.0 + 1e-8


def test_run_suites_subset(lab, limit):
    results = run_suites(lab, names=("distp", "Jnorm"), limit=limit)
    assert list(results) == ["distp", "Jnorm"]
    assert all(r.passed for r in results.values())


@pytest.mark.parametrize("overrides, names", [
    (None, ALL_SUITES),
    # alpha > 0: the eps_max member's grid differs from the limit's
    ({"spectral": {"alpha": 0.25}, "nonlinearity": {"LF": 0.05}}, ALL_SUITES),
    # the Jnorm and distThetaEpsilon draws stay in suite order around the
    # other suites' draws, and their one march comes after all of them
    (None, ALL_SUITES[::-1]),
    (None, ("distThetaEpsilon", "PsiUniform", "Jnorm")),
], ids=["None", "overrides1", "reversed", "subset"])
def test_stacked_self_test_equals_separate_solves(lab, limit, overrides, names):
    # run_suites solves the limit and the eps_max member in one stack,
    # marches Jnorm's and distThetaEpsilon's start points as one and
    # theta_comparison's two members as one; the suites run in order on one
    # stream over two separate solves must agree bit for bit
    if overrides is not None:
        lab = build_lab(config_from_dict(overrides))
        limit = solve_member(lab, 0.0)
    stacked = run_suites(lab, names)
    rng = lab.rng("suites")
    run = {
        "distp": lambda: suite_distp(lab, limit, rng),
        "Jnorm": lambda: suite_jnorm(lab, limit, rng),
        "distThetaEpsilon": lambda: suite_dist_theta_eps(lab, limit, rng),
        "PsiUniform": lambda: suite_psi_uniform(lab, limit, rng),
        "Jdistance": lambda: suite_jdistance(lab, limit, rng,
                                             solve_member(lab, max(lab.eps_grid))),
    }
    separate = [run[name]() for name in names]
    assert list(stacked) == list(names)
    for got, want in zip(stacked.values(), separate):
        assert repr(asdict(got)) == repr(asdict(want))


@pytest.mark.parametrize("suite", [suite_distp, suite_jnorm, suite_dist_theta_eps])
def test_trajectory_suites_take_no_samples(lab, limit, suite):
    res = suite(lab, limit, lab.rng("suites"), count=0)
    assert (res.samples, res.violations, res.worst_ratio) == (0, 0, 0.0)
