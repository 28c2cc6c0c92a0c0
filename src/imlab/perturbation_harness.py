"""Distances between the limit manifold and perturbed manifolds.

Every family member keeps the limit's N modes with its spectrum scaled by
1 + eps, so the limit and a member live in one coefficient space: the
extension between them is the identity (config `family.extension`
"identity"). Every comparison measures in the perturbed norms at the same
coefficients. Point distances match the two graphs at the same slow
coordinates, node by node; derivative distances compare the two fields at
the same slow coordinates.
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .config import Laboratory
from .errors import ConfigError
from .lyapunov_perron import (
    DerivativeResult,
    ManifoldResult,
    _lane,
    _march,
    dyadic_scan,
    mesh,
    resolve_step,
    solve_stack,
)
from .nonlinearity import pad_rows, rho_eps
from .spectral_core import (
    alpha_norm_batch,
    near_max_opnorms,
    norm_equivalence_delta,
    resolvent_deficiency,
    weighted_opnorms,
)

_PASS_SLACK = 1.0 + 1e-9


def instantiate(lab: Laboratory, eps: float):
    """The problem and the nonlinearity of one family member."""
    return lab.problem_at(eps), lab.nonlinearity_at(eps)


@dataclass(eq=False)
class SolvedMember:
    """One family member solved to its graph and derivative field."""

    eps: float
    problem: object
    F: object
    manifold: ManifoldResult
    derivative: DerivativeResult

    @property
    def graph(self):
        return self.manifold.graph

    @property
    def field(self):
        return self.derivative.field


def solve_members(lab: Laboratory, eps_values, settings=None) -> list:
    """Solve several members at once, marching them as one stack
    (`solve_stack`); each equals its solve alone bit for bit, up to the sign
    of a zero. The members of one family share their base-map terms by
    position, as the stack requires (`NonlinearityStack`)."""
    settings = settings or lab.solve_settings
    built = [instantiate(lab, eps) for eps in eps_values]
    solved = solve_stack(built, lab.theta, settings)
    return [
        SolvedMember(eps=eps, problem=problem, F=F, manifold=man, derivative=der)
        for eps, (problem, F), (man, der) in zip(eps_values, built, solved)
    ]


def solve_member(lab: Laboratory, eps: float, settings=None) -> SolvedMember:
    """One member's graph and derivative field: a one-member `solve_members`."""
    return solve_members(lab, (eps,), settings)[0]


# ---------------------------------------------------------------------------
# Perturbation sizes


def tau_eps(lab: Laboratory, eps: float) -> float:
    """Resolvent deficiency of the member against the limit problem."""
    return resolvent_deficiency(lab.limit_problem, lab.problem_at(eps))


def rho_of(lab: Laboratory, eps: float, rng=None) -> float:
    rng = lab.rng("study") if rng is None else rng
    return rho_eps(lab.nonlinearity_at(eps), lab.limit_F, rng=rng)


def beta_eps(lab: Laboratory, eps: float, graph) -> float:
    """Sampled sup over the solved limit graph of the derivative mismatch
    DF_eps(u) - DF_0(u), measured alpha-weighted to plain.

    F along the graph is not piecewise linear, so no node set makes this
    exact: it is the maximum over the midpoint-refined limit grid, a lower
    bound of the true sup.

    Both Jacobians are their K leading rows, so the mismatch is its K
    leading rows; the rows past K are exact zeros of both.
    """
    F_eps, F_0 = lab.nonlinearity_at(eps), lab.limit_F
    k = max(F_eps.base.rows, F_0.base.rows)
    u0 = _lift_full(graph, _refined_grid(graph, 2))
    mism = pad_rows(F_eps.jacobian_batch(u0), k) - pad_rows(F_0.jacobian_batch(u0), k)
    return float(near_max_opnorms(mism, col_weights=lab.limit_problem.alpha_weights)[1].max())


# ---------------------------------------------------------------------------
# Sample sets over the limit graph


def _refined_grid(obj, refine: int) -> np.ndarray:
    """Limit grid refined by an integer factor, as slow-coordinate samples."""
    return mesh([np.linspace(ax[0], ax[-1], refine * (ax.size - 1) + 1) for ax in obj.axes])


def _node_set(field_eps, field0) -> np.ndarray:
    """Per axis, the union of both fields' nodes inside the limit's box, meshed.

    Both fields are multilinear interpolants, so on each cell of this grid
    their difference is affine along every coordinate line. Its alpha-norm,
    and the weighted operator norm of a field difference, are then convex
    along those lines, and their maximum over a cell sits at a vertex. The
    one caveat is where the two support balls differ (alpha > 0):
    `GridField.eval` zeroes values past a support radius inside the cell
    that straddles it, so there the sup can exceed the node maximum by at
    most that cell's node values, about 1e-22. (Python sets, because
    `np.unique` imports `numpy.ma`, about 0.8 MB of peak RSS.)
    """
    return mesh([np.array(sorted({*a.tolist(), *b[(b >= a[0]) & (b <= a[-1])].tolist()}))
                 for a, b in zip(field0.axes, field_eps.axes)])


def _lift_full(graph, z) -> np.ndarray:
    m = graph.problem.m
    u = np.zeros((z.shape[0], graph.problem.n_modes))
    u[:, :m] = z
    u[:, m:] = graph.eval(z)
    return u


# ---------------------------------------------------------------------------
# Distance estimators


def sup_distance(phi_eps, phi0) -> float:
    """Largest perturbed-space alpha-norm gap between corresponding graph
    points over the limit's box: an exact maximum, read at the nodes of
    both graphs' grids (`_node_set`).

    The perturbed point sits at the limit point's slow coordinates, so the
    slow blocks cancel exactly and only the fast graphs are compared.
    """
    z = _node_set(phi_eps, phi0)
    point0 = _lift_full(phi0, z)
    point_eps = np.concatenate([z, phi_eps.eval(z)], axis=1)
    return float(alpha_norm_batch(phi_eps.problem, point0 - point_eps).max())


def derivative_mismatch(field_eps, field0, z) -> np.ndarray:
    """DPsi_0(z) - DPsi_eps(z) at each slow sample, shape (B, N, m).

    Both graph derivatives enter as maps from the slow space into the full
    space, whose slow rows, the identity, cancel; they stay in the result
    as exact zeros.
    """
    m = field0.problem.m
    fast = field0.eval(z)
    delta = np.zeros((fast.shape[0], field0.problem.n_modes, m))
    delta[:, m:, :] = fast
    delta[:, m:, :] -= field_eps.eval(z)
    return delta


def _mismatch_weights(problem0, problem_eps):
    """`weighted_opnorms` weights of tangent mismatches: limit slow alpha-norm
    to perturbed alpha-norm."""
    return problem_eps.alpha_weights, problem0.alpha_weights[: problem0.m]


def c1_distance(field_eps, field0) -> float:
    """Largest derivative mismatch norm over the limit's box: an exact
    maximum, read at the nodes of both fields' grids (`_node_set`).

    This is the derivative part only; the full C1 distance adds the sup
    distance of the graphs.
    """
    z = _node_set(field_eps, field0)
    delta = derivative_mismatch(field_eps, field0, z)
    weights = _mismatch_weights(field0.problem, field_eps.problem)
    return float(near_max_opnorms(delta, *weights)[1].max())


def holder_seminorm_of_difference(field_eps, field0, thetas, rng=None):
    """Hoelder seminorms of the derivative mismatch at several exponents over
    one shared set of `dyadic_pairs` (`dyadic_scan`).

    Returns (seminorms keyed by exponent, sup of mismatch norms over all
    sampled points).
    """
    return dyadic_scan(field0.problem, field0.axes,
                       lambda z: derivative_mismatch(field_eps, field0, z),
                       _mismatch_weights(field0.problem, field_eps.problem), thetas, rng)


def c1theta_distance(
    phi_eps,
    phi0,
    field_eps,
    field0,
    theta: float,
    theta_star: float,
    rng=None,
) -> dict:
    """Full C1,theta distance between corresponding graphs, as the
    `DistanceRow` fields it measures: d_c1 = d_sup + the derivative part,
    and d_c1theta = d_c1 + holder_diff, the seminorm at theta.

    The seminorm at theta_star and the pair point sup are measured on the
    same dyadic pair set as the seminorm at theta, so the interpolation
    bound dominates the seminorm whenever theta < theta_star: every sampled
    quotient factors through the theta_star quotient and the pair sup. A
    violation (`DistanceReport.interpolation_ok`) therefore indicates a
    broken estimator, not a tight constant.
    """
    if not 0.0 < theta < theta_star:
        raise ConfigError("need 0 < theta < theta_star")
    d_sup = sup_distance(phi_eps, phi0)
    grid_deriv = c1_distance(field_eps, field0)
    seminorms, pair_sup = holder_seminorm_of_difference(
        field_eps, field0, (theta, theta_star), rng=rng
    )
    deriv = max(grid_deriv, pair_sup)
    d_c1 = d_sup + deriv
    ratio = theta / theta_star
    return {
        "d_sup": d_sup,
        "d_c1": d_c1,
        "holder_diff": seminorms[theta],
        "d_c1theta": d_c1 + seminorms[theta],
        "seminorm_at_theta_star": seminorms[theta_star],
        "pair_point_sup": pair_sup,
        "interpolation_bound": seminorms[theta_star]**ratio * (2.0 * deriv) ** (1.0 - ratio),
    }


# ---------------------------------------------------------------------------
# Linearization comparison along backward trajectories


@dataclass(eq=False)
class ThetaComparison:
    times: np.ndarray
    measured: np.ndarray  # (samples, times)
    envelope: np.ndarray  # (times,)
    fitted_C: float
    violations: int


def theta_comparison(
    lab: Laboratory,
    limit: SolvedMember,
    member: SolvedMember,
    sizes: dict,
    xi_samples: int = 50,
    rng=None,
) -> ThetaComparison:
    """Backward growth of the linearization mismatch against its envelope,
    over the backward horizon 2 / lambda_m.

    Both linearizations start at the same slow points and share one step,
    so their trajectories run as the two lanes of one collecting fiber
    march, which equals each lane's own `integrate_Theta` bit for bit.
    The envelope combines the perturbation sizes at exponent theta with the
    composite backward rate and the derivative-field mismatch at the slower
    rate; the prefactor is fitted as the largest measured ratio where the
    envelope is positive (0.0 if nowhere). Where it is zero (the limit
    against itself) a sample fails only past `rate_study`'s 10 tol_fp floor.
    """
    rng = lab.rng("study") if rng is None else rng
    theta = lab.theta
    kappa = lab.kappa
    lf = lab.constants["L_F"]
    lam_m = lab.limit_problem.lambda_m
    a = lab.limit_problem.alpha

    rate_fast = (4.0 + (kappa + 2.0) * theta) * lf * lam_m**a + (theta + 1.0) * lam_m \
        + 3.0 * theta
    rate_slow = 4.0 * lf * lam_m**a + lam_m

    t_final = 2.0 / lam_m
    h = min(resolve_step(mem.problem, mem.F, lab.solve_settings) for mem in (limit, member))
    settings = replace(lab.solve_settings, t_horizon=t_final, h=h)

    graph = limit.graph
    half = np.array([ax[-1] for ax in graph.axes])
    m = lab.limit_problem.m
    z = rng.uniform(-0.5 * half, 0.5 * half, size=(xi_samples, m))

    lanes = [_lane(mem.problem, mem.F, mem.graph, mem.field, settings)
             for mem in (limit, member)]
    s0, th = _march([(lane, z) for lane in lanes], fiber=True, collect=True)

    mism = th[:xi_samples] - th[xi_samples:]
    measured = weighted_opnorms(mism, row_weights=member.problem.alpha_weights[:m],
                                col_weights=lab.limit_problem.alpha_weights[:m])

    t = -s0
    w_theta = sizes["beta"] + (sizes["tau_log"] + sizes["rho"]) ** theta
    envelope = w_theta * np.exp(rate_fast * t) \
        + 0.5 * sizes["d_c1_deriv"] * np.exp(rate_slow * t)
    positive = envelope > 0
    ratios = measured[:, positive] / envelope[positive]
    fitted = float(ratios.max()) if ratios.size else 0.0
    violations = int((measured[:, positive] > fitted * envelope[positive] * _PASS_SLACK).sum())
    violations += int((measured[:, ~positive] > 10.0 * lab.solve_settings.tol_fp).sum())
    return ThetaComparison(
        times=t, measured=measured, envelope=envelope, fitted_C=fitted,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Rate study


@dataclass(eq=False)
class DistanceRow:
    eps: float
    tau: float
    rho: float
    beta: float
    d_sup: float
    d_c1: float
    holder_diff: float
    d_c1theta: float
    bound_sup: float
    bound_c1theta: float
    seminorm_at_theta_star: float
    pair_point_sup: float
    interpolation_bound: float
    iterations_graph: int
    iterations_field: int


_CSV_COLUMNS = (
    "eps", "tau", "rho", "beta", "d_sup", "d_c1", "holder_diff", "d_c1theta",
    "bound_sup", "bound_c1theta", "fitted_C_sup", "fitted_C_c1theta",
    "pass_sup", "pass_c1theta",
)


@dataclass(eq=False)
class DistanceReport:
    lab: Laboratory
    rows: list
    fitted_C_sup: float
    fitted_C_c1theta: float
    passes_sup: list
    passes_c1theta: list
    fits: dict
    delta_norm_equiv: float
    runtime_seconds: float

    @property
    def all_pass(self) -> bool:
        return all(self.passes_sup) and all(self.passes_c1theta)

    @property
    def interpolation_ok(self) -> bool:
        return all(
            r.holder_diff <= r.interpolation_bound * _PASS_SLACK for r in self.rows
        )

    def write_csv(self, path):
        lines = [",".join(_CSV_COLUMNS)]
        for row, ps, pc in zip(self.rows, self.passes_sup, self.passes_c1theta):
            cells = {**asdict(row), "fitted_C_sup": self.fitted_C_sup,
                     "fitted_C_c1theta": self.fitted_C_c1theta,
                     "pass_sup": int(ps), "pass_c1theta": int(pc)}
            lines.append(",".join(f"{cells[col]:.17g}" for col in _CSV_COLUMNS))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def write_json(self, path):
        lab = self.lab
        payload = {
            "theta": lab.theta,
            "theta_star": lab.theta_star,
            "theta_tilde": lab.gap.theta_tilde,
            "kappa": lab.kappa,
            "constants": lab.constants,
            "amplitude": lab.amplitude,
            "delta_norm_equivalence": self.delta_norm_equiv,
            "gap_report": asdict(lab.gap),
            "fitted_C_sup": self.fitted_C_sup,
            "fitted_C_c1theta": self.fitted_C_c1theta,
            "least_squares_fits": self.fits,
            "all_pass": self.all_pass,
            "interpolation_ok": self.interpolation_ok,
            "rows": [asdict(r) for r in self.rows],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")


def _log_fit(x, y):
    """Least-squares fit log y = log C + s log x over the points where both
    are positive; returns (C, slope), or (None, None) unless those points
    hold at least two distinct x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    keep = (x > 0) & (y > 0)
    if len(set(x[keep].tolist())) < 2:  # not np.unique, which imports numpy.ma
        return None, None
    lx, ly = np.log(x[keep]), np.log(y[keep])
    slope, logc = np.polyfit(lx, ly, 1)
    return float(np.exp(logc)), float(slope)


def _tau_log(tau: float) -> float:
    return tau * abs(np.log(tau)) if tau > 0 else 0.0


def _fitted(rows) -> float:
    """Largest measured-to-envelope ratio over the (eps, measured, envelope)
    rows with a positive envelope; 0.0 when there is none."""
    ratios = [d / b for _, d, b in rows if b > 0]
    return max(ratios) if ratios else 0.0


def _pass_flags(rows, floor) -> list:
    """Per (eps, measured, envelope) row, whether the constant `_fitted` on
    the coarse rows (eps at least the median distinct positive eps) covers
    it: a distance that decays slower than its envelope fails on the finer
    rows. A row whose envelope is zero passes only at the floor."""
    positive = sorted({eps for eps, _, _ in rows if eps > 0}) or [0.0]
    cut = 0.5 * (positive[(len(positive) - 1) // 2] + positive[len(positive) // 2])  # median
    c = _fitted([row for row in rows if row[0] >= cut])
    return [d <= c * b * _PASS_SLACK if b > 0 else d <= floor for _, d, b in rows]


def rate_study(lab: Laboratory, eps_grid=None, rng=None) -> DistanceReport:
    """Full distance study across the epsilon grid.

    The limit and every distinct epsilon are solved in one stacked call
    (`solve_members`); each row then gets the distance estimators and the
    two theoretical envelopes. The reported envelope constants are the
    largest measured ratios over all rows. The pass flags are out of sample
    (`_pass_flags`): a constant fitted on the coarse rows must cover the
    finer ones. Rows whose envelope is exactly zero (epsilon zero) pass only
    if the measured distance sits at the fixed-point tolerance floor.
    """
    start = time.perf_counter()
    eps_grid = lab.eps_grid if eps_grid is None else tuple(eps_grid)
    if any(e < 0 for e in eps_grid):
        raise ConfigError("rate study needs nonnegative eps values")
    rng = lab.rng("study") if rng is None else rng

    distinct = [0.0] + [eps for eps in dict.fromkeys(eps_grid) if eps != 0.0]
    solved = dict(zip(distinct, solve_members(lab, distinct)))
    limit = solved[0.0]
    theta, theta_star = lab.theta, lab.theta_star
    rows = []
    floor = 10.0 * lab.solve_settings.tol_fp
    for eps in eps_grid:
        member = solved[eps]
        tau = tau_eps(lab, eps)
        rho = rho_of(lab, eps, rng=rng)
        beta = beta_eps(lab, eps, limit.graph)
        dist = c1theta_distance(
            member.graph, limit.graph, member.field, limit.field,
            theta, theta_star, rng=rng,
        )
        tl = _tau_log(tau)
        rows.append(
            DistanceRow(
                eps=eps, tau=tau, rho=rho, beta=beta, **dist, bound_sup=tl + rho,
                bound_c1theta=(beta + (tl + rho) ** theta_star) ** (1.0 - theta / theta_star),
                iterations_graph=member.manifold.iterations,
                iterations_field=member.derivative.iterations,
            )
        )

    pairs_sup = [(r.eps, r.d_sup, r.bound_sup) for r in rows]
    pairs_c1t = [(r.eps, r.d_c1theta, r.bound_c1theta) for r in rows]
    c_sup, c_c1t = _fitted(pairs_sup), _fitted(pairs_c1t)
    passes_sup = _pass_flags(pairs_sup, floor)
    passes_c1t = _pass_flags(pairs_c1t, floor)

    fits = {
        "sup_vs_bound": dict(zip(("C", "slope"), _log_fit(
            [r.bound_sup for r in rows], [r.d_sup for r in rows]))),
        "sup_vs_eps": dict(zip(("C", "slope"), _log_fit(
            [r.eps for r in rows], [r.d_sup for r in rows]))),
        "sup_vs_tau_rho_nolog": dict(zip(("C", "slope"), _log_fit(
            [r.tau + r.rho for r in rows], [r.d_sup for r in rows]))),
        "c1theta_vs_bound": dict(zip(("C", "slope"), _log_fit(
            [r.bound_c1theta for r in rows], [r.d_c1theta for r in rows]))),
    }

    return DistanceReport(
        lab=lab,
        rows=rows,
        fitted_C_sup=c_sup,
        fitted_C_c1theta=c_c1t,
        passes_sup=passes_sup,
        passes_c1theta=passes_c1t,
        fits=fits,
        delta_norm_equiv=norm_equivalence_delta(
            lab.limit_problem, lab.problem_at(max(eps_grid))
        ),
        runtime_seconds=time.perf_counter() - start,
    )


PLOT_SCRIPT = '''\
"""Plot the distance study: measured distances against their envelopes."""
import csv
import sys

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

path = sys.argv[1] if len(sys.argv) > 1 else "report.csv"
rows = list(csv.DictReader(open(path)))
eps = [float(r["eps"]) for r in rows]
d_sup = [float(r["d_sup"]) for r in rows]
d_c1t = [float(r["d_c1theta"]) for r in rows]
b_sup = [float(r["fitted_C_sup"]) * float(r["bound_sup"]) for r in rows]
b_c1t = [float(r["fitted_C_c1theta"]) * float(r["bound_c1theta"]) for r in rows]

fig, (ax1, ax2) = plt.subplots(1, 2, figsize=(10, 4))
ax1.loglog(eps, d_sup, "o-", label="sup distance")
ax1.loglog(eps, b_sup, "k--", label="C (tau |log tau| + rho)")
ax1.set_xlabel("eps")
ax1.legend()
ax2.loglog(eps, d_c1t, "s-", label="C1,theta distance")
ax2.loglog(eps, b_c1t, "k--", label="envelope")
ax2.set_xlabel("eps")
ax2.legend()
fig.tight_layout()
fig.savefig("report.png", dpi=150)
print("wrote report.png")
'''


def write_plot_script(path):
    with open(path, "w") as fh:
        fh.write(PLOT_SCRIPT)
