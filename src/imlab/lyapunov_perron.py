"""Backward-integral construction of invariant graphs and their derivatives.

The slow-coordinate flow is integrated backward with classical RK4 and the
fast-block Duhamel integral is accumulated mode by mode with an exponential
trapezoid rule: the nonlinearity samples are interpolated piecewise linearly
in time and each integral of e^(lambda s) times a linear segment is taken in
closed form. Stiff fast modes therefore never enter a time-stepper.

Graphs live on uniform tensor grids over the slow coordinates (one or two
slow modes) with multilinear interpolation, zero values at nodes outside the
cutoff support, and zero evaluation outside the grid box.

The fiber march samples the graph and its derivative field in one
interpolation call and advances the tangent with the nonlinearity's
Jacobian-vector product, which forms only the base map's leading Jacobian
rows. Dense N x N Jacobians stay with certification and the regularity
estimates.
"""
from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass

import numpy as np

from . import gap_analysis
from .errors import (
    AdmissibilityError,
    ConfigError,
    ConvergenceError,
    DimensionError,
    GapViolationError,
    OverflowGuardError,
)
from .nonlinearity import CutoffNonlinearity
from .spectral_core import SpectralProblem, coord_norm_batch

_NODE_CHUNK = 8192


# ---------------------------------------------------------------------------
# Exponential trapezoid weights
#
# phi0(z) = (1 - e^-z) / z and phi1(z) = (1 - (1+z) e^-z) / z^2 so that the
# integral of e^(lambda s) g(s) over one backward step of width h, with g
# linear and endpoint values gR (later) and gL (earlier), equals
# e^(lambda sR) h (gR phi0 + (gL - gR) phi1) at z = lambda h.


def phi0_weight(z):
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.ones_like(z)
    nz = z > 1e-12
    out[nz] = -np.expm1(-z[nz]) / z[nz]
    return out


def phi1_weight(z):
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z)
    small = z < 0.15
    zs = z[small]
    # alternating series sum_j (-z)^j (j+1)/(j+2)!, truncated past 1e-14
    coeffs = [
        1.0 / 2.0,
        -1.0 / 3.0,
        1.0 / 8.0,
        -1.0 / 30.0,
        1.0 / 144.0,
        -1.0 / 840.0,
        1.0 / 5760.0,
        -1.0 / 45360.0,
        1.0 / 403200.0,
    ]
    acc = np.full_like(zs, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * zs + c
    out[small] = acc
    zl = z[~small]
    out[~small] = (1.0 - (1.0 + zl) * np.exp(-zl)) / zl**2
    return out


# ---------------------------------------------------------------------------
# Graphs over the slow coordinates


def _interp_multilinear(axes, values, z):
    """Multilinear interpolation; exact zero outside the grid box."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    m = len(axes)
    if z.shape[-1] != m:
        raise DimensionError(f"expected {m} slow coordinates")
    trail = values.shape[m:]
    bshape = (z.shape[0],) + (1,) * len(trail)
    inside = np.ones(z.shape[0], dtype=bool)
    for d in range(m):
        inside &= (z[:, d] >= axes[d][0]) & (z[:, d] <= axes[d][-1])
    idx, frac = [], []
    for d in range(m):
        ax = axes[d]
        step = ax[1] - ax[0]
        t = (z[:, d] - ax[0]) / step
        i = np.clip(np.floor(t).astype(int), 0, ax.size - 2)
        idx.append(i)
        frac.append((t - i).reshape(bshape))
    if m == 1:
        i = idx[0]
        f = frac[0]
        out = (1.0 - f) * values[i] + f * values[i + 1]
    elif m == 2:
        i, j = idx
        f, g = frac
        out = (1.0 - f) * (1.0 - g) * values[i, j]
        out += f * (1.0 - g) * values[i + 1, j]
        out += (1.0 - f) * g * values[i, j + 1]
        out += f * g * values[i + 1, j + 1]
    else:
        raise ConfigError("grids support one or two slow modes only")
    out[~inside] = 0.0
    return out


def grid_axes(problem: SpectralProblem, settings, support_radius):
    """Uniform symmetric axes; half widths scale the support radius into raw
    coordinates through the slow eigenvalue weights."""
    if settings.box_half_widths is not None:
        widths = tuple(float(w) for w in settings.box_half_widths)
        if len(widths) != problem.m:
            raise ConfigError("box_half_widths must give one width per slow mode")
    elif support_radius is not None:
        w = problem.alpha_weights[: problem.m]
        widths = tuple(settings.box_factor * support_radius / w)
    else:
        raise ConfigError("fixtures without a cutoff need explicit box_half_widths")
    if problem.m > 2:
        raise ConfigError("grids support one or two slow modes only")
    g = settings.grid_nodes
    if g < 3:
        raise ConfigError("need at least 3 grid nodes per axis")
    return tuple(np.linspace(-a, a, g) for a in widths)


@dataclass(eq=False)
class GraphFunction:
    """Fast-block values on a slow-coordinate tensor grid.

    Values at nodes on or outside the support radius are exactly zero, and
    evaluation returns exact zero outside the grid box and outside the
    support ball.
    """

    problem: SpectralProblem
    axes: tuple
    values: np.ndarray
    support_radius: float | None = None

    def __post_init__(self):
        expect = tuple(ax.size for ax in self.axes) + (
            self.problem.n_modes - self.problem.m,
        )
        if self.values.shape != expect:
            raise DimensionError(f"value grid must have shape {expect}")

    @classmethod
    def zeros(cls, problem, axes, support_radius=None):
        shape = tuple(ax.size for ax in axes) + (problem.n_modes - problem.m,)
        return cls(problem, tuple(axes), np.zeros(shape), support_radius)

    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.reshape(-1) for g in mesh], axis=-1)

    def node_values(self) -> np.ndarray:
        return self.values.reshape(-1, self.values.shape[-1])

    def eval(self, z) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        out = _interp_multilinear(self.axes, self.values, z)
        if self.support_radius is not None:
            out[coord_norm_batch(self.problem, z) >= self.support_radius] = 0.0
        return out

    def with_values(self, values) -> "GraphFunction":
        return GraphFunction(self.problem, self.axes, values, self.support_radius)


@dataclass(eq=False)
class DerivativeField:
    """Node-wise linear maps from slow coordinates into the fast block."""

    problem: SpectralProblem
    axes: tuple
    values: np.ndarray  # grid shape + (fast modes, m)
    support_radius: float | None = None
    theta: float | None = None
    holder_bound: float | None = None

    def __post_init__(self):
        p = self.problem
        expect = tuple(ax.size for ax in self.axes) + (p.n_modes - p.m, p.m)
        if self.values.shape != expect:
            raise DimensionError(f"value grid must have shape {expect}")

    @classmethod
    def zeros(cls, problem, axes, support_radius=None):
        shape = tuple(ax.size for ax in axes) + (
            problem.n_modes - problem.m,
            problem.m,
        )
        return cls(problem, tuple(axes), np.zeros(shape), support_radius)

    def nodes(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([g.reshape(-1) for g in mesh], axis=-1)

    def node_values(self) -> np.ndarray:
        return self.values.reshape((-1,) + self.values.shape[-2:])

    def eval(self, z) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        out = _interp_multilinear(self.axes, self.values, z)
        if self.support_radius is not None:
            out[coord_norm_batch(self.problem, z) >= self.support_radius] = 0.0
        return out

    def with_values(self, values) -> "DerivativeField":
        return DerivativeField(
            self.problem, self.axes, values, self.support_radius, self.theta, self.holder_bound
        )


def weighted_map_norms(problem: SpectralProblem, mats) -> np.ndarray:
    """Operator norms of fast-block maps, weighted coordinate norm to
    alpha-norm; exact largest singular values, batched."""
    mats = np.asarray(mats, dtype=float)
    wq = problem.alpha_weights[problem.m :]
    wp = problem.alpha_weights[: problem.m]
    scaled = mats * wq[:, None] / wp[None, :]
    return np.linalg.svd(scaled, compute_uv=False)[..., 0]


# ---------------------------------------------------------------------------
# Settings


@dataclass(frozen=True)
class SolveSettings:
    """Horizon, step, tolerance, and grid controls for the solver."""

    t_horizon: float | str = "auto"
    h: float | str = "auto"
    tol_fp: float = 1e-10
    max_iter: int = 60
    grid_nodes: int = 201
    box_factor: float = 1.5
    box_half_widths: tuple | None = None
    overflow_guard: float = 1e12

    def __post_init__(self):
        for name in ("t_horizon", "h"):
            value = getattr(self, name)
            if not (value == "auto" or _is_positive(value)):
                raise ConfigError(f"{name} must be a positive number or 'auto', got {value!r}")
        if not _is_positive(self.tol_fp):
            raise ConfigError("tol_fp must be positive")
        for name in ("max_iter", "grid_nodes"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be at least 1")
        if not (_is_positive(self.box_factor) and self.box_factor > 1.0):
            raise ConfigError("box_factor must exceed 1 so the support is interior")


def _is_positive(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0.0 < value < np.inf)


def slow_flow_rate(problem: SpectralProblem, F: CutoffNonlinearity) -> float:
    """Backward growth rate of the slow flow, 2 L_F lambda_m^alpha + lambda_m."""
    return 2.0 * F.L_F * problem.lambda_m**problem.alpha + problem.lambda_m


def resolve_horizon(problem, F, settings, purpose="graph") -> float:
    """Concrete horizon; 'auto' truncates the Duhamel tail below 0.1 tol_fp.

    Derivative integrals decay only at the reduced rate lambda_{m+1} minus
    the slow-flow rate, so the fiber purpose lengthens the horizon.
    """
    lam1, a = problem.lambda_m1, problem.alpha
    floor = max(a / lam1, 2.0 / lam1)
    if settings.t_horizon != "auto":
        t = float(settings.t_horizon)
        if t < a / lam1:
            raise ConfigError("T_horizon below alpha / lambda_{m+1}")
        return t
    tol = 0.1 * settings.tol_fp
    amp = max(F.C_F, tol)
    t = np.log(amp * lam1**a / (lam1 * tol)) / lam1
    if purpose == "fiber":
        rate = lam1 - slow_flow_rate(problem, F)
        if rate <= 0:
            raise GapViolationError(
                "fast decay does not dominate the slow flow; derivative "
                "integrals diverge (spectral gap too small)"
            )
        amp2 = max(2.0 * F.L_F * lam1**a, tol)
        t = max(t, np.log(amp2 * lam1**a / (rate * tol)) / rate)
    return float(max(t, floor))


def resolve_step(problem, F, settings) -> float:
    """Concrete RK4 step; the invariant h <= 0.1 / slow-flow-rate is enforced."""
    rate = slow_flow_rate(problem, F)
    if settings.h == "auto":
        return 0.05 / rate
    h = float(settings.h)
    if h > 0.1 / rate * (1.0 + 1e-12):
        raise ConfigError(
            f"step {h:.4g} exceeds the stability budget 0.1/{rate:.4g}"
        )
    return h


def _steps_for(T, h):
    steps = max(1, int(np.ceil(T / h - 1e-12)))
    return steps, T / steps


# ---------------------------------------------------------------------------
# Backward marches


def _lift(problem, phi, p):
    """Ambient point over the graph: slow block p, fast block phi(p)."""
    u = np.zeros((p.shape[0], problem.n_modes))
    u[:, : problem.m] = p
    u[:, problem.m :] = phi.eval(p)
    return u


def _check_guard(p, guard):
    if not np.all(np.isfinite(p)) or np.abs(p).max(initial=0.0) > guard:
        raise OverflowGuardError(
            "backward slow flow exceeded the overflow guard; the horizon is "
            "too long for this spectrum"
        )


def _march_graph(problem, F, phi, p0, T, h, guard, collect=False):
    """Backward RK4 march of the slow flow with fused Duhamel accumulation.

    Returns the fast-block integral per start point, or the trajectory
    samples when collect is set.
    """
    m = problem.m
    lam_p = problem.eigenvalues[:m]
    lam_q = problem.eigenvalues[m:]
    steps, h = _steps_for(T, h)
    z = lam_q * h
    w0, w1 = phi0_weight(z), phi1_weight(z)
    decay_step = np.exp(-lam_q * h)

    p = np.array(np.atleast_2d(p0), dtype=float)

    def rhs(pv):
        fv = F.eval_batch(_lift(problem, phi, pv))
        return fv[:, :m] - pv * lam_p, fv[:, m:]

    fp, g_prev = rhs(p)
    acc = np.zeros((p.shape[0], lam_q.size))
    decay = np.ones_like(lam_q)
    traj = [p.copy()] if collect else None
    for _ in range(steps):
        k1 = fp
        k2, _ = rhs(p - 0.5 * h * k1)
        k3, _ = rhs(p - 0.5 * h * k2)
        k4, _ = rhs(p - h * k3)
        p = p - (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        _check_guard(p, guard)
        fp, g_new = rhs(p)
        acc += decay * h * (g_prev * w0 + (g_new - g_prev) * w1)
        decay = decay * decay_step
        g_prev = g_new
        if collect:
            traj.append(p.copy())
    if collect:
        s = -h * np.arange(steps + 1)
        return s, np.stack(traj, axis=1)  # (B, steps+1, m)
    return acc


def _stacked_graph_and_field(phi, upsilon):
    """Graph values and field maps stacked along the trailing axis, shape
    grid + (fast modes, 1 + m), so one interpolation samples both."""
    if upsilon.support_radius != phi.support_radius or not all(
        np.array_equal(a, b) for a, b in zip(upsilon.axes, phi.axes)
    ):
        raise DimensionError("graph and derivative field must share grid and support")
    return np.concatenate([phi.values[..., None], upsilon.values], axis=-1)


def _march_fiber(problem, F, phi, upsilon, p0, T, h, guard, collect=False):
    """Joint backward march of the slow flow and its fiber linearization."""
    m = problem.m
    lam_p = problem.eigenvalues[:m]
    lam_q = problem.eigenvalues[m:]
    steps, h = _steps_for(T, h)
    z = lam_q * h
    w0 = phi0_weight(z)[None, :, None]
    w1 = phi1_weight(z)[None, :, None]
    decay_step = np.exp(-lam_q * h)[None, :, None]

    p = np.array(np.atleast_2d(p0), dtype=float)
    b = p.shape[0]
    th = np.broadcast_to(np.eye(m), (b, m, m)).copy()
    stacked = _stacked_graph_and_field(phi, upsilon)
    u = np.zeros((b, problem.n_modes))
    # graph tangent map: identity over the slow block, the field below it
    tangent = np.zeros((b, problem.n_modes, m))
    tangent[:, :m, :] = np.eye(m)

    def rhs(pv, tv):
        sampled = _interp_multilinear(phi.axes, stacked, pv)
        if phi.support_radius is not None:
            sampled[coord_norm_batch(phi.problem, pv) >= phi.support_radius] = 0.0
        u[:, :m] = pv
        u[:, m:] = sampled[..., 0]
        tangent[:, m:, :] = sampled[..., 1:]
        fv, dfj = F.eval_and_jvp(u, tangent)
        fp = fv[:, :m] - pv * lam_p
        ft = dfj[:, :m, :] @ tv - lam_p[None, :, None] * tv
        g = dfj[:, m:, :] @ tv
        return fp, ft, g

    fp, ft, g_prev = rhs(p, th)
    acc = np.zeros((b, lam_q.size, m))
    decay = np.ones((1, lam_q.size, 1))
    traj = [th.copy()] if collect else None
    for _ in range(steps):
        k1p, k1t = fp, ft
        k2p, k2t, _ = rhs(p - 0.5 * h * k1p, th - 0.5 * h * k1t)
        k3p, k3t, _ = rhs(p - 0.5 * h * k2p, th - 0.5 * h * k2t)
        k4p, k4t, _ = rhs(p - h * k3p, th - h * k3t)
        p = p - (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        th = th - (h / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        _check_guard(p, guard)
        _check_guard(th, guard)
        fp, ft, g_new = rhs(p, th)
        acc += decay * h * (g_prev * w0 + (g_new - g_prev) * w1)
        decay = decay * decay_step
        g_prev = g_new
        if collect:
            traj.append(th.copy())
    if collect:
        s = -h * np.arange(steps + 1)
        return s, np.stack(traj, axis=1)  # (B, steps+1, m, m)
    return acc


# ---------------------------------------------------------------------------
# Public operations


def integrate_p_backward(problem, F, phi, xi, settings=None):
    """Backward trajectory of the slow flow from xi; returns (s, p(s)).

    Sample times run from 0 down to -T in march order. A single start point
    returns a (steps+1, m) array; a batch returns (batch, steps+1, m).
    """
    settings = settings or SolveSettings()
    T = resolve_horizon(problem, F, settings)
    h = resolve_step(problem, F, settings)
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim == 1
    s, traj = _march_graph(
        problem, F, phi, np.atleast_2d(xi), T, h, settings.overflow_guard, collect=True
    )
    return (s, traj[0]) if single else (s, traj)


def integrate_Theta(problem, F, phi, upsilon, xi, settings=None):
    """Fiber linearization along the backward trajectory; identity at s = 0."""
    settings = settings or SolveSettings()
    T = resolve_horizon(problem, F, settings, purpose="fiber")
    h = resolve_step(problem, F, settings)
    xi = np.asarray(xi, dtype=float)
    single = xi.ndim == 1
    s, traj = _march_fiber(
        problem, F, phi, upsilon, np.atleast_2d(xi), T, h, settings.overflow_guard,
        collect=True,
    )
    return (s, traj[0]) if single else (s, traj)


def _active_nodes(graph):
    """Nodes strictly inside the support ball; others are pinned to zero.

    Once the weighted coordinate norm reaches the support radius the
    backward linear flow only grows it, so the integrand vanishes along the
    whole trajectory and the node value is exactly zero.
    """
    nodes = graph.nodes()
    if graph.support_radius is None:
        return nodes, np.ones(nodes.shape[0], dtype=bool)
    r = coord_norm_batch(graph.problem, nodes)
    return nodes, r < graph.support_radius


def apply_T(problem, F, phi, settings=None) -> GraphFunction:
    """One graph transform: backward Duhamel integral at every grid node."""
    settings = settings or SolveSettings()
    T = resolve_horizon(problem, F, settings)
    h = resolve_step(problem, F, settings)
    nodes, active = _active_nodes(phi)
    flat = np.zeros((nodes.shape[0], problem.n_modes - problem.m))
    live = nodes[active]
    pieces = []
    for lo in range(0, live.shape[0], _NODE_CHUNK):
        chunk = live[lo : lo + _NODE_CHUNK]
        pieces.append(
            _march_graph(problem, F, phi, chunk, T, h, settings.overflow_guard)
        )
    if pieces:
        flat[active] = np.concatenate(pieces, axis=0)
    return phi.with_values(flat.reshape(phi.values.shape))


def apply_D(problem, F, phi, upsilon, settings=None) -> DerivativeField:
    """One derivative transform along the graph phi."""
    settings = settings or SolveSettings()
    T = resolve_horizon(problem, F, settings, purpose="fiber")
    h = resolve_step(problem, F, settings)
    nodes, active = _active_nodes(upsilon)
    m = problem.m
    flat = np.zeros((nodes.shape[0], problem.n_modes - m, m))
    live = nodes[active]
    pieces = []
    for lo in range(0, live.shape[0], _NODE_CHUNK):
        chunk = live[lo : lo + _NODE_CHUNK]
        pieces.append(
            _march_fiber(problem, F, phi, upsilon, chunk, T, h, settings.overflow_guard)
        )
    if pieces:
        flat[active] = np.concatenate(pieces, axis=0)
    return upsilon.with_values(flat.reshape(upsilon.values.shape))


def _require_gap(problem, F, kappa=1.0):
    ok, margins = gap_analysis.check_gap(
        problem.lambda_m, problem.lambda_m1, F.L_F, kappa, problem.alpha
    )
    if not ok:
        raise GapViolationError(
            f"spectral gap conditions fail (margins {margins[0]:.4g}, "
            f"{margins[1]:.4g})"
        )


@dataclass(eq=False)
class FixedPointResult:
    """Iteration log shared by the graph and derivative solves."""

    diffs: list
    ratios: list
    iterations: int


@dataclass(eq=False)
class ManifoldResult(FixedPointResult):
    graph: GraphFunction = None


@dataclass(eq=False)
class DerivativeResult(FixedPointResult):
    field: DerivativeField = None


def _iterate(apply_fn, x0, diff_fn, tol, max_iter, what):
    diffs, ratios = [], []
    x = x0
    stalled = 0
    for it in range(1, max_iter + 1):
        xn = apply_fn(x)
        d = float(diff_fn(xn, x))
        diffs.append(d)
        if len(diffs) >= 2 and diffs[-2] > 0.0:
            r = d / diffs[-2]
            ratios.append(r)
            if r >= 1.0 and d > 10.0 * tol:
                stalled += 1
                if stalled >= 3:
                    raise GapViolationError(
                        f"{what} iteration stopped contracting for three "
                        f"consecutive steps (last ratio {r:.4g})"
                    )
            else:
                stalled = 0
        x = xn
        if d <= tol:
            return x, diffs, ratios, it
    raise ConvergenceError(
        f"{what} iteration did not reach tol {tol:.3g} in {max_iter} steps "
        f"(last diff {diffs[-1]:.3g})"
    )


def _graph_diff(problem):
    wq = problem.alpha_weights[problem.m :]

    def diff(a, b):
        delta = (a.values - b.values).reshape(-1, wq.size)
        return np.linalg.norm(delta * wq, axis=1).max(initial=0.0)

    return diff


def _field_diff(problem):
    def diff(a, b):
        delta = a.node_values() - b.node_values()
        return weighted_map_norms(problem, delta).max(initial=0.0)

    return diff


def solve_manifold(problem, F, settings=None) -> ManifoldResult:
    """Iterate the graph transform from the zero graph to its fixed point.

    Requires the spectral gap conditions; failure to contract over three
    consecutive iterations raises GapViolationError, exhausting the
    iteration budget raises ConvergenceError.
    """
    settings = settings or SolveSettings()
    _require_gap(problem, F)
    axes = grid_axes(problem, settings, F.support_radius)
    phi0 = GraphFunction.zeros(problem, axes, F.support_radius)
    phi, diffs, ratios, its = _iterate(
        lambda g: apply_T(problem, F, g, settings),
        phi0,
        _graph_diff(problem),
        settings.tol_fp,
        settings.max_iter,
        "graph transform",
    )
    return ManifoldResult(diffs=diffs, ratios=ratios, iterations=its, graph=phi)


def solve_derivative(problem, F, phi, theta, settings=None) -> DerivativeResult:
    """Iterate the derivative transform along a solved graph.

    theta must not exceed the nonlinearity's Hoelder exponent and must stay
    below the first admissibility window of the spectrum.
    """
    settings = settings or SolveSettings()
    _require_gap(problem, F)
    if theta > F.theta_F:
        raise AdmissibilityError(
            f"theta {theta:.4g} exceeds the nonlinearity exponent {F.theta_F:.4g}"
        )
    t0 = gap_analysis.theta0(problem.lambda_m, problem.lambda_m1, F.L_F, problem.alpha)
    if theta >= t0:
        raise AdmissibilityError(
            f"theta {theta:.4g} is not below the admissibility window {t0:.4g}"
        )
    ups0 = DerivativeField.zeros(problem, phi.axes, F.support_radius)
    ups, diffs, ratios, its = _iterate(
        lambda u: apply_D(problem, F, phi, u, settings),
        ups0,
        _field_diff(problem),
        settings.tol_fp,
        settings.max_iter,
        "derivative transform",
    )
    ups.theta = theta
    ups.holder_bound = holder_certificate(ups, theta)
    return DerivativeResult(diffs=diffs, ratios=ratios, iterations=its, field=ups)


# ---------------------------------------------------------------------------
# Regularity certificates


def lipschitz_certificate(phi: GraphFunction, rng=None, long_range_pairs=1000) -> float:
    """Largest alpha-norm difference quotient of the graph.

    Scans every adjacent node pair along each axis and adds seeded random
    long-range pairs evaluated through the interpolant.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    problem = phi.problem
    wq = problem.alpha_weights[problem.m :]
    wp = problem.alpha_weights[: problem.m]
    best = 0.0
    vals = phi.values
    for d in range(problem.m):
        spacing = phi.axes[d][1] - phi.axes[d][0]
        delta = np.diff(vals, axis=d) * wq
        num = np.linalg.norm(delta, axis=-1)
        best = max(best, float(num.max(initial=0.0)) / (spacing * wp[d]))
    if long_range_pairs:
        lo = np.array([ax[0] for ax in phi.axes])
        hi = np.array([ax[-1] for ax in phi.axes])
        z1 = rng.uniform(lo, hi, size=(long_range_pairs, problem.m))
        z2 = rng.uniform(lo, hi, size=(long_range_pairs, problem.m))
        sep = coord_norm_batch(problem, z1 - z2)
        keep = sep > 1e-9
        num = np.linalg.norm((phi.eval(z1) - phi.eval(z2)) * wq, axis=1)
        if np.any(keep):
            best = max(best, float((num[keep] / sep[keep]).max()))
    return best


def holder_certificate(field: DerivativeField, theta: float, rng=None,
                       pairs_per_scale=200) -> float:
    """Largest Hoelder-theta quotient of the field over dyadic pair scales.

    Scales run from the grid spacing up to the box diameter; both endpoints
    of every sampled pair stay inside the grid box.
    """
    if theta < 0:
        raise AdmissibilityError("theta must be nonnegative")
    rng = np.random.default_rng(0) if rng is None else rng
    problem = field.problem
    half = np.array([ax[-1] for ax in field.axes])
    spacing = min(ax[1] - ax[0] for ax in field.axes)
    top = 1.9 * float(half.min())
    scales = []
    s = spacing
    while s < top:
        scales.append(s)
        s *= 2.0
    scales.append(top)
    best = 0.0
    for ell in scales:
        dirs = rng.standard_normal((pairs_per_scale, problem.m))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        offset = ell * dirs
        lo = -half + np.maximum(-offset, 0.0)
        hi = half - np.maximum(offset, 0.0)
        z1 = lo + rng.uniform(size=(pairs_per_scale, problem.m)) * (hi - lo)
        z2 = z1 + offset
        sep = coord_norm_batch(problem, z2 - z1)
        num = weighted_map_norms(problem, field.eval(z1) - field.eval(z2))
        best = max(best, float((num / sep**theta).max(initial=0.0)))
    return best


# ---------------------------------------------------------------------------
# Dumps


def _node_header(problem):
    m = problem.m
    cols = [f"p_{i}" for i in range(1, m + 1)]
    cols += [f"q_{i}" for i in range(m + 1, problem.n_modes + 1)]
    return cols


def dump_graph_csv(phi: GraphFunction, path):
    """Node table, row-major, slow coordinates then fast values."""
    nodes = phi.nodes()
    table = np.concatenate([nodes, phi.node_values()], axis=1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_node_header(phi.problem))
        for row in table:
            writer.writerow([f"{x:.17g}" for x in row])


def load_graph_csv(problem, path, support_radius=None) -> GraphFunction:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(x) for x in row] for row in reader])
    m = sum(1 for c in header if c.startswith("p_"))
    if m != problem.m or data.shape[1] != problem.n_modes:
        raise DimensionError("node table does not match the problem layout")
    axes = tuple(np.unique(data[:, d]) for d in range(m))
    shape = tuple(ax.size for ax in axes) + (problem.n_modes - m,)
    return GraphFunction(problem, axes, data[:, m:].reshape(shape), support_radius)


def dump_field_csv(field: DerivativeField, path):
    """Node table of the derivative maps, fast-mode index outer, slow inner."""
    problem = field.problem
    m = problem.m
    cols = [f"p_{i}" for i in range(1, m + 1)]
    cols += [
        f"dq{i}_dp{j}"
        for i in range(m + 1, problem.n_modes + 1)
        for j in range(1, m + 1)
    ]
    nodes = field.nodes()
    flat = field.node_values().reshape(nodes.shape[0], -1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in np.concatenate([nodes, flat], axis=1):
            writer.writerow([f"{x:.17g}" for x in row])
