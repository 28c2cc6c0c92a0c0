"""Shared fixtures.

The default laboratory and its solved limit manifold are expensive enough
(a second or two each) that every module reuses one session-scoped copy.
Tests that mutate nothing may share them freely; anything that needs a
different configuration builds its own lab locally. The plain helpers
below are imported by the test modules (`from conftest import ...`).
"""

from dataclasses import replace

import numpy as np
import pytest

from imlab.config import build_lab, default_config
from imlab.lyapunov_perron import dyadic_scan, integrate_Theta, slow_flow_rate
from imlab.nonlinearity import _ball_samples, chunked_phase, cutoff_and_slope, pad_rows
from imlab.perturbation_harness import _lift_full, _node_set, _refined_grid, solve_member
from imlab.spectral_core import alpha_norm_batch, weighted_opnorms


@pytest.fixture(scope="session")
def lab():
    return build_lab(default_config())


@pytest.fixture(scope="session")
def limit(lab):
    return solve_member(lab, 0.0)


def eval_one(F, u):
    """F at a single point u (N,)."""
    return F.eval_batch(np.asarray(u, dtype=float)[None, :])[0]


def alpha_norm(problem, v):
    """Fractional-power norm (sum v_i^2 lambda_i^(2 alpha))^(1/2) of one
    vector, by `np.linalg.norm`."""
    v = problem.check_vector(v)
    return float(np.linalg.norm(v * problem.alpha_weights))


def cutoff_derivative(r, radius):
    """Derivative of the bump with respect to r, at radii of any shape;
    zero off the annulus."""
    r = np.asarray(r, dtype=float)
    _, at, dzeta = cutoff_and_slope(r.reshape(-1), radius)
    out = np.zeros(r.size)
    out[at] = dzeta
    return out.reshape(r.shape)


def atom_phase(atom, u):
    """An atom's phase `u @ W.T` at the points u, in the package's
    `chunked_phase` calls."""
    return chunked_phase([atom.phase], u)[0]


def base_value(base, u):
    """A base map's values at the points u, zero-extended to all N
    coefficients: each term's values from its own phase `u @ W.T`, summed
    in `SumBase` order."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    (atom, _), *rest = base.terms()
    vals = pad_rows(atom.value_at(atom_phase(atom, u)), base.n)
    for atom, scale in rest:
        vals = vals + scale * pad_rows(atom.value_at(atom_phase(atom, u)), base.n)
    return vals


def interp_multilinear(frame, values, z, lane=None):
    """Multilinear interpolation on uniform grids with exact zeros outside
    the grid box, by the one-cell formula the package's grid sampler must
    reproduce bit for bit.

    values is one grid, or with lane (one index per point) grids stacked on
    a leading axis; frame is a (3, m) first node, spacing and last node per
    axis, or one per point (B, 3, m).
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    m = frame.shape[-1]
    lo, step, hi = frame[..., 0, :], frame[..., 1, :], frame[..., 2, :]
    lead = 0 if lane is None else 1
    trail = values.shape[lead + m :]
    bshape = (z.shape[0],) + (1,) * len(trail)
    inside = np.ones(z.shape[0], dtype=bool)
    for d in range(m):
        inside &= (z[:, d] >= lo[..., d]) & (z[:, d] <= hi[..., d])
    idx, frac = [], []
    for d in range(m):
        t = (z[:, d] - lo[..., d]) / step[..., d]
        i = np.minimum(np.maximum(np.floor(t).astype(int), 0), values.shape[lead + d] - 2)
        idx.append(i)
        frac.append((t - i).reshape(bshape))
    if lane is not None:
        # fold the lane axis into the first grid axis
        idx[0] = idx[0] + lane * values.shape[1]
        values = values.reshape((values.shape[0] * values.shape[1],) + values.shape[2:])
    if m == 1:
        i = idx[0]
        f = frac[0]
        out = (1.0 - f) * values[i] + f * values[i + 1]
    else:
        i, j = idx
        f, g = frac
        out = (1.0 - f) * (1.0 - g) * values[i, j]
        out += f * (1.0 - g) * values[i + 1, j]
        out += (1.0 - f) * g * values[i, j + 1]
        out += f * g * values[i + 1, j + 1]
    out[~inside] = 0.0
    return out


def with_constants(F, C_F, L_F, theta_F, L):
    """F with its configured constants replaced."""
    return replace(F, C_F=C_F, L_F=L_F, theta_F=theta_F, L=L)


def direction_sup(family):
    """Sup norm of a family's direction; exact for zero-phase cosine
    directions, whose norm peaks at u = 0."""
    return float(np.linalg.norm(family.direction.amplitudes))


def atom_rows(atom, u):
    """An atom's leading Jacobian rows (B, rows, N) at the points u, written
    into a fresh buffer."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    out = np.empty((u.shape[0], atom.rows, u.shape[1]))
    return atom.rows_at(atom_phase(atom, u), out=out)


# ---------------------------------------------------------------------------
# General-extension oracle. The paper compares a limit space and a perturbed
# space through an extension E and a restriction M; imlab's family keeps one
# coefficient space, so the package compares members directly. These are the
# general-E formulas, to be run at E = M = I, where they must give the
# package's numbers bit for bit.


def lift_by(u, E):
    """u @ E.T, the rows u lifted by an extension E; exact at E = I."""
    return u @ np.asarray(E, dtype=float).T


def oracle_tau(limit, perturbed, E):
    """Operator norm of inv(A_eps) E - E inv(A_0), plain to alpha-weighted."""
    diff = E / perturbed.eigenvalues[:, None] - E / limit.eigenvalues[None, :]
    return float(weighted_opnorms(diff, row_weights=perturbed.alpha_weights))


def oracle_kappa(E, M, limit, perturbed):
    """Common bound of the norms of E and M, plain and weighted, at least 1."""
    w0, we = limit.alpha_weights, perturbed.alpha_weights
    norms = (
        weighted_opnorms(E),
        weighted_opnorms(M),
        weighted_opnorms(E, row_weights=we, col_weights=w0),
        weighted_opnorms(M, row_weights=w0, col_weights=we),
    )
    return max(1.0, float(max(norms)))


def oracle_rho(F_eps, F_limit, E, rng, sample_count=2000):
    """Sampled sup of |F_eps(E u) - E F_limit(u)| over the support ball."""
    pts = _ball_samples(F_limit.problem, F_limit.cutoff_radius or 1.0, sample_count, rng)
    diff = F_eps.eval_batch(lift_by(pts, E)) - lift_by(F_limit.eval_batch(pts), E)
    return float(np.linalg.norm(diff, axis=1).max())


def oracle_beta(F_eps, F_0, graph, E, refine=2):
    """Sup over the limit graph of DF_eps(E u) E - E DF_0(u), K leading rows."""
    k = max(F_eps.base.rows, F_0.base.rows)
    u0 = _lift_full(graph, _refined_grid(graph, refine))
    mism = pad_rows(F_eps.jacobian_batch(lift_by(u0, E)), k) @ E \
        - E[:k, :k] @ pad_rows(F_0.jacobian_batch(u0), k)
    return float(weighted_opnorms(mism, col_weights=graph.problem.alpha_weights).max())


def oracle_sup_distance(phi_eps, phi0, E):
    """Largest alpha-norm gap between E phi0-points and phi_eps-points at the
    lifted slow coordinates, over both graphs' nodes in the limit's box."""
    lifted = lift_by(_lift_full(phi0, _node_set(phi_eps, phi0)), E)
    w = lifted[:, : phi0.problem.m]
    point_eps = np.concatenate([w, phi_eps.eval(w)], axis=1)
    return float(alpha_norm_batch(phi_eps.problem, lifted - point_eps).max())


def oracle_mismatch(field_eps, field0, E, z):
    """E DPsi_0(z) - DPsi_eps(B z) B, B the slow-slow block of E."""
    m = field0.problem.m
    b_mat = E[:m, :m]
    delta = np.asarray(E[None, :, m:] @ field0.eval(z))
    delta[:, m:, :] -= field_eps.eval(z @ b_mat.T) @ b_mat[None]
    return delta


def _tangent_weights(field_eps, field0):
    """Weights of a tangent mismatch: limit slow to perturbed alpha-norm."""
    return field_eps.problem.alpha_weights, field0.problem.alpha_weights[: field0.problem.m]


def oracle_c1_distance(field_eps, field0, E):
    """Sup of the general-E mismatch norm over both fields' nodes in the
    limit's box."""
    delta = oracle_mismatch(field_eps, field0, E, _node_set(field_eps, field0))
    return float(weighted_opnorms(delta, *_tangent_weights(field_eps, field0)).max())


def oracle_holder(field_eps, field0, E, thetas, rng):
    """Dyadic Hoelder seminorms of the general-E mismatch and its pair sup."""
    return dyadic_scan(field0.problem, field0.axes,
                       lambda z: oracle_mismatch(field_eps, field0, E, z),
                       _tangent_weights(field_eps, field0), thetas, rng)


def oracle_theta_measured(lab, limit, member, E, xi_samples, rng):
    """theta_comparison's measured mismatch B Theta_0 - Theta_eps B along the
    backward trajectories from E-lifted starts."""
    lam_m = lab.limit_problem.lambda_m
    h = 0.05 / max(slow_flow_rate(limit.problem, limit.F),
                   slow_flow_rate(member.problem, member.F))
    settings = replace(lab.solve_settings, t_horizon=2.0 / lam_m, h=h)
    graph, m = limit.graph, lab.limit_problem.m
    half = np.array([ax[-1] for ax in graph.axes])
    z = rng.uniform(-0.5 * half, 0.5 * half, size=(xi_samples, m))
    _, th0 = integrate_Theta(limit.problem, limit.F, graph, limit.field, z, settings)
    w = lift_by(_lift_full(graph, z), E)[:, :m]
    _, the = integrate_Theta(member.problem, member.F, member.graph, member.field, w, settings)
    b_mat = E[:m, :m]
    mism = b_mat[None, None] @ th0 - the @ b_mat[None, None]
    return weighted_opnorms(mism, row_weights=member.problem.alpha_weights[:m],
                            col_weights=lab.limit_problem.alpha_weights[:m])
