"""Empirical verification suites for the theoretical inequalities.

Each suite samples trajectories or fields, evaluates the corresponding bound
with its theory-given prefactor and rate, and counts violations against a
tight relative budget. The budget only absorbs floating-point noise: the
backward RK4 march under-approximates pure exponential growth, so genuine
bound failures are not masked by discretization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gap_analysis
from .config import Laboratory
from .errors import ConfigError
from .lyapunov_perron import (
    GridField,
    apply_D,
    holder_certificate,
    integrate_Theta,
    integrate_p_backward,
    slow_flow_rate,
    weighted_map_norms,
)
from .nonlinearity import holder_quotient_of_derivative
from .perturbation_harness import (
    SolvedMember,
    _tau_log,
    beta_eps,
    c1_distance,
    rho_of,
    solve_members,
    tau_eps,
    theta_comparison,
)
from .spectral_core import coord_norm_batch, weighted_opnorms

#: Relative slack absorbed before a sample counts as a violation.
BUDGET = 1e-8

ALL_SUITES = ("distp", "Jnorm", "distThetaEpsilon", "PsiUniform", "Jdistance")


@dataclass(eq=False)
class SuiteResult:
    name: str
    samples: int
    violations: int
    worst_ratio: float
    details: dict

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _ratio_result(name, ratio, details) -> SuiteResult:
    """A suite's result from its measured-to-bound ratios: each one is a
    sample, and each past 1 + BUDGET a violation. The ratios are not
    negative, so no samples give a worst ratio of 0.0."""
    return SuiteResult(name=name, samples=int(ratio.size),
                       violations=int((ratio > 1.0 + BUDGET).sum()),
                       worst_ratio=float(ratio.max(initial=0.0)), details=details)


def _sample_pairs(lab: Laboratory, graph, count, rng):
    """Seeded start pairs inside the grid box with separated endpoints."""
    m = lab.limit_problem.m
    half = np.array([ax[-1] for ax in graph.axes])
    xi1 = rng.uniform(-0.5 * half, 0.5 * half, size=(count, m))
    dirs = rng.standard_normal((count, m))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    scale = rng.uniform(0.02, 0.4, size=(count, 1)) * half.min()
    return xi1, xi1 + scale * dirs


def suite_distp(lab: Laboratory, limit: SolvedMember, rng, count=100) -> SuiteResult:
    """Backward separation of slow trajectories against the Gronwall bound."""
    problem, F, graph = limit.problem, limit.F, limit.graph
    rate = slow_flow_rate(problem, F)
    xi1, xi2 = _sample_pairs(lab, graph, count, rng)
    s, traj = integrate_p_backward(
        problem, F, graph, np.concatenate([xi1, xi2]), lab.solve_settings
    )
    p1, p2 = traj[:count], traj[count:]
    sep = coord_norm_batch(problem, xi1 - xi2)
    measured = coord_norm_batch(problem, p1 - p2)
    bound = sep[:, None] * np.exp(rate * (-s))[None, :]
    return _ratio_result("distp", measured / bound, {"rate": rate, "horizon": float(-s[-1])})


def _theta_map_norms(problem, mats):
    """Norms of slow-block linear maps in the alpha-weighted coordinates."""
    w = problem.alpha_weights[: problem.m]
    return weighted_opnorms(mats, row_weights=w, col_weights=w)


def _theta_march(lab: Laboratory, limit: SolvedMember, xi):
    """Sample times and the limit's fiber linearizations from the start
    points xi."""
    return integrate_Theta(limit.problem, limit.F, limit.graph, limit.field, xi,
                           lab.solve_settings)


def _draw_jnorm(lab: Laboratory, limit: SolvedMember, rng, count=100):
    """Jnorm's start points and its measure step, which reads no rng:
    (s, Theta) -> SuiteResult."""
    problem, F = limit.problem, limit.F
    rate = slow_flow_rate(problem, F)
    half = np.array([ax[-1] for ax in limit.graph.axes])
    xi = rng.uniform(-0.5 * half, 0.5 * half, size=(count, problem.m))

    def measure(s, theta):
        measured = _theta_map_norms(problem, theta)
        bound = np.exp(rate * (-s))[None, :]
        return _ratio_result("Jnorm", measured / bound,
                             {"rate": rate, "horizon": float(-s[-1])})

    return xi, measure


def suite_jnorm(lab: Laboratory, limit: SolvedMember, rng, count=100) -> SuiteResult:
    """Backward growth of the fiber linearization against e^(rate |t|)."""
    xi, measure = _draw_jnorm(lab, limit, rng, count)
    return measure(*_theta_march(lab, limit, xi))


def _draw_dist_theta_eps(lab: Laboratory, limit: SolvedMember, rng, count=100):
    """distThetaEpsilon's start pairs, stacked, and its measure step, which
    reads no rng: (s, Theta) -> SuiteResult."""
    problem, F = limit.problem, limit.F
    if F.L_F <= 0:
        raise ConfigError("the distThetaEpsilon suite needs L_F > 0")
    theta = lab.theta
    lam_m, lam_m1, a = problem.lambda_m, problem.lambda_m1, problem.alpha
    l_theta = holder_quotient_of_derivative(F, theta, rng=rng)
    lam2 = gap_analysis.exponents(lam_m, lam_m1, F.L_F, lab.kappa, a, theta)[2]
    m_bound = gap_analysis.m0_bound(lam_m1, F.L_F, l_theta, a, lam2)
    prefactor = 2.0 * l_theta / ((theta + 1.0) * F.L_F) \
        + m_bound / (2.0 * (theta + 1.0))
    rate = 2.0 * (theta + 2.0) * F.L_F * lam_m**a + (theta + 1.0) * lam_m

    xi1, xi2 = _sample_pairs(lab, limit.graph, count, rng)

    def measure(s, th):
        measured = _theta_map_norms(problem, th[:count] - th[count:])
        sep = coord_norm_batch(problem, xi1 - xi2) ** theta
        if prefactor > 0:
            bound = prefactor * sep[:, None] * np.exp(rate * (-s))[None, :]
            ratio = measured / bound
        else:
            # linear map: the mismatch must vanish outright
            ratio = measured / 1e-12
        return _ratio_result("distThetaEpsilon", ratio, {
            "rate": rate,
            "prefactor": prefactor,
            "L_theta": l_theta,
            "M_theta": m_bound,
        })

    return np.concatenate([xi1, xi2]), measure


def suite_dist_theta_eps(
    lab: Laboratory, limit: SolvedMember, rng, count=100
) -> SuiteResult:
    """Hoelder continuity of the fiber linearization in its start point.

    The prefactor uses the derivative Hoelder constant certified directly at
    the suite exponent and the fixed-point norm bound at that exponent.
    """
    xi, measure = _draw_dist_theta_eps(lab, limit, rng, count)
    return measure(*_theta_march(lab, limit, xi))


#: Suites whose draw and measure steps `run_suites` runs apart, marching
#: their start points as one stack.
_THETA_DRAWS = {"Jnorm": _draw_jnorm, "distThetaEpsilon": _draw_dist_theta_eps}


def suite_psi_uniform(
    lab: Laboratory, limit: SolvedMember, rng, theta=None
) -> SuiteResult:
    """One derivative transform preserves the Hoelder certificate.

    The input field is radially capped so its certificate at the test
    exponent sits at the fixed-point bound M and its node norms stay inside
    the unit ball; the transform must return a field whose re-measured
    certificate is within the 1.1 slack of M and whose norms stay bounded
    by one.
    """
    problem, F, graph = limit.problem, limit.F, limit.graph
    theta = lab.theta if theta is None else float(theta)
    lam2 = gap_analysis.exponents(
        problem.lambda_m, problem.lambda_m1, F.L_F, lab.kappa, problem.alpha, theta
    )[2]
    l_theta = holder_quotient_of_derivative(F, theta, rng=rng)
    m_bound = gap_analysis.m0_bound(problem.lambda_m1, F.L_F, l_theta,
                                    problem.alpha, lam2)

    nq, m = problem.n_modes - problem.m, problem.m
    d0 = rng.standard_normal((nq, m))
    d0 /= weighted_map_norms(problem, d0[None])[0]
    nodes_flat = graph.nodes()
    radial = coord_norm_batch(problem, nodes_flat)
    # tent profile: a minimum of M-Hoelder functions is M-Hoelder, and the
    # descending leg reaches zero at the support radius so the evaluation
    # mask introduces no jump
    cap = np.minimum(1.0, m_bound * radial**theta)
    if F.cutoff_radius is not None:
        fall = m_bound * np.maximum(F.cutoff_radius - radial, 0.0) ** theta
        cap = np.minimum(cap, fall)
    values = (cap[:, None, None] * d0).reshape(graph.values.shape[:-1] + (nq, m))
    ups = GridField(problem, graph.axes, values, F.cutoff_radius)
    cert_in = holder_certificate(ups, theta, rng=rng)

    out = apply_D(problem, F, graph, ups, lab.solve_settings)
    cert_out = holder_certificate(out, theta, rng=rng)
    norms = weighted_map_norms(problem, out.node_values())
    violations = int(cert_out > 1.1 * m_bound * (1.0 + BUDGET))
    violations += int((norms > 1.0 + BUDGET).sum())
    return SuiteResult(
        name="PsiUniform",
        samples=int(norms.size),
        violations=violations,
        worst_ratio=float(cert_out / m_bound) if m_bound > 0 else 0.0,
        details={
            "theta": theta,
            "M": m_bound,
            "input_certificate": cert_in,
            "output_certificate": cert_out,
            "output_norm_sup": float(norms.max()),
        },
    )


def suite_jdistance(
    lab: Laboratory, limit: SolvedMember, rng, member: SolvedMember
) -> SuiteResult:
    """Linearization mismatch across the family against its envelope.

    member is the solved eps_max member (the largest eps of the grid; the
    limit itself when that eps is 0).
    """
    eps = max(lab.eps_grid)
    tau = tau_eps(lab, eps)
    rho = rho_of(lab, eps, rng=rng)
    beta = beta_eps(lab, eps, limit.graph)
    d_deriv = c1_distance(member.field, limit.field)
    sizes = {
        "beta": beta, "rho": rho, "tau_log": _tau_log(tau), "d_c1_deriv": d_deriv,
    }
    cmp = theta_comparison(lab, limit, member, sizes, xi_samples=50, rng=rng)
    return SuiteResult(
        name="Jdistance",
        samples=int(cmp.measured.size),
        violations=cmp.violations,
        worst_ratio=cmp.fitted_C,
        details={"eps": eps, "fitted_C": cmp.fitted_C, **sizes},
    )


def check_names(names) -> tuple:
    """The suite names as a tuple; ConfigError for an unknown or repeated
    one. A name may appear once: a repeat would draw from the shared stream
    again and shift every later suite."""
    names = tuple(names)
    unknown = set(names) - set(ALL_SUITES)
    if unknown:
        raise ConfigError(f"unknown suites: {sorted(unknown)}")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"repeated suites: {repeated}")
    return names


def run_suites(lab: Laboratory, names=None, limit: SolvedMember | None = None) -> dict:
    """Run the named suites (all by default, each at most once, `check_names`),
    in order, on one shared `lab.rng("suites")` stream.

    The limit, unless the caller passes it, and the eps_max member that
    Jdistance compares against it are solved in one stacked call
    (`solve_members`), which equals their separate solves bit for bit.

    Jnorm and distThetaEpsilon march the limit's fiber linearization over
    one time grid, so their start points run as one stack. Each suite
    takes its draws in its turn: those two draw their start points (and
    every other rng read), the rest run whole. Then one `integrate_Theta`
    call marches every drawn start point, whose rows do not depend on the
    rows stacked with them, and the two measure steps, which read no rng,
    take their rows. The stream and every result are those of the suites
    run one by one.
    """
    names = check_names(ALL_SUITES if names is None else names)
    if not names:
        return {}
    rng = lab.rng("suites")
    eps = max(lab.eps_grid)
    distinct = [0.0] if limit is None else []
    if "Jdistance" in names and eps != 0.0:
        distinct.append(eps)
    solved = dict(zip(distinct, solve_members(lab, distinct)))
    limit = solved.get(0.0, limit)
    member = solved.get(eps, limit)
    results, drawn = {}, []
    for name in names:
        if name in _THETA_DRAWS:
            drawn.append((name,) + _THETA_DRAWS[name](lab, limit, rng))
        elif name == "distp":
            results[name] = suite_distp(lab, limit, rng)
        elif name == "PsiUniform":
            results[name] = suite_psi_uniform(lab, limit, rng)
        elif name == "Jdistance":
            results[name] = suite_jdistance(lab, limit, rng, member)
    if drawn:
        s, theta = _theta_march(lab, limit, np.concatenate([xi for _, xi, _ in drawn]))
        ends = np.cumsum([len(xi) for _, xi, _ in drawn])
        for (name, _, measure), block in zip(drawn, np.split(theta, ends[:-1])):
            results[name] = measure(s, block)
    return {name: results[name] for name in names}
