"""Backward-integral construction of invariant graphs and their derivatives.

The slow-coordinate flow is integrated backward with classical RK4 and the
fast-block Duhamel integral is accumulated mode by mode with an exponential
trapezoid rule: the nonlinearity samples are interpolated piecewise linearly
in time and each integral of e^(lambda s) times a linear segment is taken in
closed form. Stiff fast modes therefore never enter a time-stepper.

Graphs and derivative fields are one type, `GridField`, keyed by the
trailing shape of its values. It lives on a uniform tensor grid over the
slow coordinates (one or two slow modes) with multilinear interpolation,
zero values at nodes outside the cutoff support, and zero evaluation
outside the grid box.

One march kernel, `_march`, serves the graph transform, the derivative
(fiber) transform and the trajectory integrators. It marches a stack of
rows grouped by member: each row carries its member's step, eigenvalues,
trapezoid weights, grid and nonlinearity. Once a row's slow state leaves
the cutoff support, the sampled grids and F are exact zeros at every later
stage point, so the march stops evaluating them there. In the transforms
the row leaves the stack, since every later term of its Duhamel integral is
an exact zero; so does a row whose member's march ends. A collecting march
(the trajectory integrators) keeps the row and marches it on the linear
part of its right-hand side alone, which is what the full right-hand side
computes there, up to the sign of a zero. Either way most of a march's
row-steps never sample a grid or evaluate F.
`solve_stack` drives the fixed-point sweeps of several members in lockstep
over that kernel, and the one-member operations (`apply_T`, `apply_D`,
`solve_manifold`, ...) are one-member calls of the same code. A march
builds its `NonlinearityStack` once and retires rows from it in place. The
phase `u @ W.T` of each base-map term over the rows still taken is formed by
`nonlinearity.chunked_phase`, the package's one phase rule, in zero-padded
gemm calls of `nonlinearity.PHASE_CHUNK` rows. OpenBLAS rounds a gemm row
by the kernel the call picks, which depends on how many rows the call
holds, so calls of one fixed size give each row the same bits whatever
rows it is stacked with. Every other step is row-wise, so a member
solved in a stack equals its solve alone, and a march that retires rows
equals one that marches every row to the end, bit for bit.

A right-hand side holds a few dozen to a few hundred rows, so each RK4
stage costs mostly the fixed cost of its numpy calls. The hot path spends
few of them: one radius, clip and pair of bumps give the cutoff and its
slope, and norms and clips go through bare ufuncs (`spectral_core.row_norms`,
`np.minimum`/`np.maximum`), which give the same bits as their wrapped forms.

The fiber march samples the graph and its derivative field in one
interpolation call and advances the tangent with the nonlinearity's
Jacobian-vector product, which forms only the base map's leading Jacobian
rows.

A march prepares one `grid_sampler.GridSampler` and keeps it as rows
retire. It holds the lanes' value tables as one flat table, each row's
offset into it, and each row's first node and spacing per axis. A stage
then runs only the floor, clip, gather and blend of the one-cell formula,
in the arithmetic `GridField.eval` uses. The march drops the box mask when
every lane's grid box covers its support ball, as the default box of
box_factor times the support does: the support mask then zeroes every
sample outside the box. A lane without a support radius, or with explicit
box_half_widths narrower than its support, keeps the mask.

A march holds only the fast modes that can be nonzero. F writes only its
first K coefficients, so the Duhamel integral of every fast mode past K is
an exact zero: the weights, integrand and integral carry the leading
min(max(K, m), N) - m fast modes, and the transforms zero-fill the rest of
their node tables. On the input side the march interpolates only the
leading fast modes that hold a value in some member's graph or field (its
`reach`), computed once per transform from the grid values; the rest of
its state and tangent buffers stays +0.0. The fiber march forms the
Jacobian rows only over those m + reach leading columns (4 of N = 32 on the
default config): past them every Jacobian entry meets a zero tangent row.
The rest of the nonlinearity sees all N modes. Its phase gemm and its
cutoff norm run over full rows, whose call shape and summation order set
the bits. The Jacobian-vector product runs at full width too, over the rows
zero-padded to N columns: every product it adds past m + reach is an exact
zero, so it keeps its bits up to the sign of a zero, where a product
narrowed to the leading columns would take another BLAS kernel and round
differently. An input field may be dense in every fast mode (the
PsiUniform suite's is); its march takes all N columns.
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
    DomainError,
    GapViolationError,
    OverflowGuardError,
)
from .grid_sampler import GridSampler, box_covers_support, grid_frame
from .nonlinearity import CutoffNonlinearity, NonlinearityStack, _take, per_row
from .spectral_core import (
    SpectralProblem,
    coord_norm_batch,
    near_max_opnorms,
    row_norms,
    weighted_opnorms,
)

_NODE_CHUNK = 8192

#: Largest slow state or tangent entry a backward march may reach.
OVERFLOW_GUARD = 1e12

#: Most RK4 steps one march may plan; the default config plans a few hundred.
MAX_STEPS = 10**6


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


def mesh(axes) -> np.ndarray:
    """Nodes of the tensor grid over the axes, row-major, shape (nodes, len(axes))."""
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


@dataclass(eq=False)
class GridField:
    """Values on a slow-coordinate tensor grid, keyed by their trailing shape:
    (fast modes,) makes a graph, (fast modes, m) a derivative field of
    node-wise linear maps from the slow coordinates into the fast block.

    Values at nodes on or outside the support radius are exactly zero, and
    evaluation returns exact zero outside the grid box and outside the
    support ball.
    """

    problem: SpectralProblem
    axes: tuple
    values: np.ndarray
    support_radius: float | None = None

    def __post_init__(self):
        grid = tuple(ax.size for ax in self.axes)
        fast, m = self.problem.n_modes - self.problem.m, self.problem.m
        if self.values.shape not in (grid + (fast,), grid + (fast, m)):
            raise DimensionError(f"values must have shape {grid + (fast,)} or {grid + (fast, m)}")

    @classmethod
    def zeros(cls, problem, axes, trailing, support_radius=None):
        shape = tuple(ax.size for ax in axes) + tuple(trailing)
        return cls(problem, tuple(axes), np.zeros(shape), support_radius)

    @property
    def trailing(self) -> tuple:
        """(fast modes,) for a graph, (fast modes, m) for a derivative field."""
        return self.values.shape[len(self.axes) :]

    @property
    def is_graph(self) -> bool:
        """True for a graph, False for a derivative field."""
        return self.trailing == (self.problem.n_modes - self.problem.m,)

    def nodes(self) -> np.ndarray:
        return mesh(self.axes)

    def node_values(self) -> np.ndarray:
        return self.values.reshape((-1,) + self.trailing)

    def eval(self, z) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if z.shape[-1] != len(self.axes):
            raise DimensionError(f"expected {len(self.axes)} slow coordinates")
        out = GridSampler(self.values, grid_frame(self.axes)[None])(z)
        if self.support_radius is not None:
            out[coord_norm_batch(self.problem, z) >= self.support_radius] = 0.0
        return out

    def with_values(self, values) -> "GridField":
        return GridField(self.problem, self.axes, values, self.support_radius)


def _map_weights(problem: SpectralProblem) -> tuple:
    """`weighted_opnorms` row and column weights of fast-block maps:
    weighted coordinate norm to alpha-norm."""
    w = problem.alpha_weights
    return w[problem.m :], w[: problem.m]


def weighted_map_norms(problem: SpectralProblem, mats) -> np.ndarray:
    """Operator norms of fast-block maps, weighted coordinate norm to
    alpha-norm; exact largest singular values, batched."""
    return weighted_opnorms(mats, *_map_weights(problem))


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
    """Concrete horizon; 'auto' truncates the Duhamel tail below 0.1 tol_fp,
    and is infinite when that underflows to zero.

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
    if tol == 0.0:
        return np.inf
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
    """The RK4 plan over the horizon T at steps of at most h; a horizon or a
    step count past the floats trips the overflow guard, and a plan of more
    than MAX_STEPS steps is a configuration error."""
    steps = np.ceil(T / h - 1e-12)
    if not np.isfinite(steps):
        raise OverflowGuardError(_OVERFLOW)
    if steps > MAX_STEPS:
        raise ConfigError(
            f"the RK4 plan takes {steps:.4g} steps of {h:.4g} over the horizon {T:.4g}, "
            f"more than {MAX_STEPS}; raise h or shorten T_horizon"
        )
    steps = max(1, int(steps))
    return steps, T / steps


# ---------------------------------------------------------------------------
# Backward marches

_OVERFLOW = ("backward slow flow exceeded the overflow guard; the horizon is "
             "too long for this spectrum")


def _check_guard(p):
    if not np.isfinite(p).all() or np.abs(p).max(initial=0.0) > OVERFLOW_GUARD:
        raise OverflowGuardError(_OVERFLOW)


def _check_guard_ahead(state, log_growth, remaining):
    """The overflow guard over the steps that retired rows skip.

    Outside the support the slow flow is linear: each RK4 step scales slow
    mode i, and row i of a tangent map, by G_i = 1 + z + z^2/2 + z^3/6 +
    z^4/24 with z = h lambda_i. Compared in log space, so nothing overflows.
    """
    limit = np.log(OVERFLOW_GUARD)
    grow = remaining[:, None] * log_growth
    with np.errstate(divide="ignore"):
        for s in state:
            reach = np.log(np.abs(s)) + (grow if s.ndim == 2 else grow[:, :, None])
            if np.any(reach > limit):
                raise OverflowGuardError(_OVERFLOW)


def _exit_radius(lane) -> float:
    """Weighted slow radius at or beyond which a row of this lane leaves
    the march's evaluated set (and, in the transforms, retires); inf when
    the lane lacks a support or a cutoff radius.

    Past both radii the sampled graph and field and the nonlinearity are
    exact zeros (the cutoff sees the same norm when the weights agree), so
    the slow flow is linear with positive rates: it only pushes the state,
    and every later RK4 stage point, further out under monotone rounding.
    """
    F, m = lane.F, lane.problem.m
    if (lane.support_radius is None or F.cutoff_radius is None
            or not np.array_equal(F.problem.alpha_weights[:m], lane.problem.alpha_weights[:m])):
        return np.inf
    return max(lane.support_radius, F.cutoff_radius)


@dataclass(eq=False)
class _Lane:
    """One member's march: its RK4 plan and the grid values its right-hand
    side samples (the graph, or the graph and field stacked), cut to their
    leading `reach` fast modes.

    width is the number of leading fast modes its integral can fill, the
    fast rows of F's K leading coefficients."""

    problem: SpectralProblem
    F: CutoffNonlinearity
    steps: int
    h: float
    frame: np.ndarray
    values: np.ndarray
    support_radius: float | None
    width: int
    reach: int


def _lane(problem, F, phi, upsilon, settings) -> _Lane:
    """The graph march over phi, or with a field upsilon the fiber march."""
    fast, m = problem.n_modes - problem.m, problem.m
    if phi.trailing != (fast,) or (upsilon is not None and upsilon.trailing != (fast, m)):
        raise DimensionError("the march samples a graph and, for the fiber, a derivative field")
    purpose = "graph" if upsilon is None else "fiber"
    T = resolve_horizon(problem, F, settings, purpose=purpose)
    steps, h = _steps_for(T, resolve_step(problem, F, settings))
    if upsilon is None:
        reach = _reach(phi)
        values = phi.values[..., :reach]
    else:
        reach = max(_reach(phi), _reach(upsilon))
        values = _stacked_graph_and_field(phi, upsilon, reach)
    width = min(max(F.base.rows, m), problem.n_modes) - m
    return _Lane(problem, F, steps, h, grid_frame(phi.axes), values, phi.support_radius,
                 width, reach)


def _reach(grid) -> int:
    """Leading fast modes in which the grid holds anything but +0.0 at some
    node. Past them every interpolated sample is +0.0, the value the
    march's zero-filled buffers already hold."""
    bits = grid.node_values().view(np.int64)
    for col in range(bits.shape[1], 0, -1):
        if bits[:, col - 1].any():
            return col
    return 0


def _stacked_graph_and_field(phi, upsilon, reach):
    """Graph values and field maps of the leading reach fast modes stacked
    along the trailing axis, shape grid + (reach, 1 + m), so one
    interpolation samples both."""
    if upsilon.support_radius != phi.support_radius or not all(
        np.array_equal(a, b) for a, b in zip(upsilon.axes, phi.axes)
    ):
        raise DimensionError("graph and derivative field must share grid and support")
    return np.concatenate([phi.values[..., :reach, None], upsilon.values[..., :reach, :]],
                          axis=-1)


def _start_points(blocks, m) -> np.ndarray:
    """The blocks' start points stacked into one (rows, m) float array;
    DimensionError for a batch of another shape, DomainError for a NaN or
    infinite coordinate, which the march would only turn into a false
    overflow-guard failure."""
    points = [np.asarray(pts, dtype=float) for _, pts in blocks]
    if any(pts.ndim != 2 or pts.shape[1] != m for pts in points):
        raise DimensionError(f"start points must be a (rows, {m}) batch of slow points")
    p = np.concatenate(points)
    if not np.isfinite(p).all():
        raise DomainError("start points must be finite")
    return p


def _march(blocks, fiber, collect=False):
    """Backward RK4 march of the slow flow, and with fiber of its tangent
    linearization, with the fused exponential-trapezoid Duhamel integral,
    over a stack of (lane, start points) blocks.

    Each row carries its lane's eigenvalues, step, trapezoid weights, grid
    and nonlinearity. A row leaves the evaluated set when its slow state
    ends a step at or beyond its lane's `_exit_radius`: from there the
    sampled grids and F are exact zeros at every later stage point, so its
    right-hand side is the linear part alone, -lambda_p p (and
    -lambda_p Theta for the tangent), the same bits as the full one up to
    the sign of a zero. The grids, the support mask and the
    `NonlinearityStack` (`retire`) no longer see it.

    Without collect such a row retires outright, as does every row whose
    lane's march ends: every later term of its integral is an exact zero,
    so its integral is final. Retired rows leave the stack, the overflow
    guard is checked over the steps they skip, and the march ends when no
    row is left. Returns the integral of the leading fast modes the stack's
    F can reach (`_Lane.width`, the most over its lanes) of each block, in
    block order; past them every integral is an exact zero.

    With collect, every lane must share one time grid, one steps and h, or
    DimensionError is raised. A row that leaves the evaluated set keeps
    marching on its linear part, which only the overflow guard watches, and
    no Duhamel integral is formed. The march returns the sample times and
    the trajectory of every row in block order (slow points, or tangent
    maps for fiber), shape (rows, steps+1) + point or map shape; no rows
    give an empty trajectory.

    Start points must form (rows, m) batches of finite numbers
    (`_start_points`). The samples fill only the leading `_Lane.reach` fast
    columns of the (rows, N) state and tangent buffers, which stay zero past
    them; the nonlinearity takes full rows, and the fiber march's Jacobian
    rows are formed over the m + reach leading columns. Either count may be
    0 (a zero map, the zero graph of a first sweep), so shapes are spelled
    out, not inferred.
    """
    lanes = [lane for lane, _ in blocks]
    counts = [len(points) for _, points in blocks]
    if collect and len({(lane.steps, lane.h) for lane in lanes}) > 1:
        raise DimensionError("a collecting march needs one time grid: every lane's "
                             "steps and h must agree")

    def lane_rows(f):
        return per_row([f(lane) for lane in lanes], counts)

    problem = lanes[0].problem
    m, n_modes = problem.m, problem.n_modes
    p = _start_points(blocks, m)
    rows = p.shape[0]
    steps = max(lane.steps for lane in lanes)
    if collect:
        times = -lanes[0].h * np.arange(steps + 1)
        traj = np.empty((rows, steps + 1, m) + ((m,) if fiber else ()))
        if not rows:
            return times, traj
    # fast modes the integral can fill, and leading fast columns the samples
    # can fill; explicit sizes, since either may be 0
    q = max(lane.width for lane in lanes)
    reach = max(lane.reach for lane in lanes)
    lam_p = lane_rows(lambda lane: lane.problem.eigenvalues[:m])
    neg_lam = -lam_p
    h = lane_rows(lambda lane: [lane.h])
    if not collect:
        ext = (1,) if fiber else ()

        def fast_rows(f):
            a = lane_rows(lambda lane: f(lane.problem.eigenvalues[m : m + q] * lane.h))
            return a.reshape((a.shape[0], q) + ext)

        w0, w1, decay_step = (fast_rows(f) for f in (phi0_weight, phi1_weight,
                                                       lambda z: np.exp(-z)))
        z = h * lam_p
        log_growth = np.log(1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0)
        last = np.repeat([lane.steps for lane in lanes], counts)
    unique = list({id(lane): lane for lane in lanes}.values())
    if len(unique) == 1:
        values, which = unique[0].values, None
    else:
        # one table over the lanes, zero past each lane's own reach
        grid, trail = unique[0].values.shape[:m], unique[0].values.shape[m + 1 :]
        values = np.zeros((len(unique),) + grid + (reach,) + trail)
        for table, lane in zip(values, unique):
            table[(slice(None),) * m + (slice(lane.reach),)] = lane.values
        which = np.repeat([unique.index(lane) for lane in lanes], counts)
    # the support mask zeroes every sample outside a box that covers it
    boxed = not all(box_covers_support(lane.frame, lane.problem.alpha_weights[:m],
                                       lane.support_radius) for lane in unique)
    sampler = GridSampler(values, lane_rows(lambda lane: lane.frame), which, boxed)
    supported = any(lane.support_radius is not None for lane in lanes)
    radius = lane_rows(lambda lane: [np.inf if lane.support_radius is None
                                     else lane.support_radius])[:, 0]
    w_slow = lane_rows(lambda lane: lane.problem.alpha_weights[:m])
    exit_radius = lane_rows(lambda lane: [_exit_radius(lane)])[:, 0]
    exits = bool(np.isfinite(exit_radius).any())
    F = NonlinearityStack([(lane.F, c) for lane, c in zip(lanes, counts)], width=m + q)

    def sample(pv, norms=None):
        """The grids at the slow points pv, zero at or past the support;
        norms: their weighted slow radii, when the caller has them."""
        out = sampler(pv)
        if supported:
            out[(row_norms(pv * w_slow) if norms is None else norms) >= radius] = 0.0
        return out

    # the leading n stack rows are evaluated, the rest march on their
    # linear part; the full right-hand side there is F - lambda_p p, which
    # adds F's exact zeros to the same linear part
    n = rows
    # the phase and the cutoff norm see every mode; the columns past
    # m + reach stay zero, so the Jacobian rows are formed over those only
    u = np.zeros((rows, n_modes))
    fast = slice(m, m + reach)
    if fiber:
        # graph tangent map: identity over the slow block, the field below it
        tangent = np.zeros((rows, n_modes, m))
        tangent[:, :m, :] = np.eye(m)
        state = [p, np.broadcast_to(np.eye(m), (rows, m, m)).copy()]

        def rhs(st, norms=None):
            pv, tv = st
            fp, ft = pv * neg_lam, tv * neg_lam[:, :, None]
            if not n:
                return [fp, ft], None
            sampled = sample(pv[:n], norms)
            u[:n, :m] = pv[:n]
            u[:n, fast] = sampled[..., 0]
            tangent[:n, fast, :] = sampled[..., 1:]
            fv, dfj = F.eval_and_jvp(u[:n], tangent[:n], columns=m + reach)
            fp[:n] += fv[:, :m]
            ft[:n] += dfj[:, :m, :] @ tv[:n]
            return [fp, ft], None if collect else dfj[:, m : m + q, :] @ tv
    else:
        state = [p]

        def rhs(st, norms=None):
            pv = st[0]
            fp = pv * neg_lam
            if not n:
                return [fp], None
            u[:n, :m] = pv[:n]
            u[:n, fast] = sample(pv[:n], norms)
            fv = F.eval(u[:n])
            fp[:n] += fv[:, :m]
            return [fp], None if collect else fv[:, m : m + q]

    if h.shape[0] == 1:
        h = float(h[0, 0])  # one step size: scalar arithmetic, as for one member

    def steps_of(h):
        """Step per state component, shaped to broadcast against it; the
        last one also fits the Duhamel integral."""
        return [h, h if isinstance(h, float) else h[:, :, None]] if fiber else [h]

    hs = steps_of(h)
    f, g_prev = rhs(state)
    if collect:
        traj[:, 0] = state[-1]
        order = np.arange(rows)  # the trajectory row of each stack row
    else:
        acc = np.zeros_like(g_prev)
        out = np.empty_like(acc)
        decay = np.ones_like(w0)
        live = np.arange(rows)  # the output row of each stack row
    for k in range(1, steps + 1):
        k1 = f
        k2, _ = rhs([s - 0.5 * hh * d for s, hh, d in zip(state, hs, k1)])
        k3, _ = rhs([s - 0.5 * hh * d for s, hh, d in zip(state, hs, k2)])
        k4, _ = rhs([s - hh * d for s, hh, d in zip(state, hs, k3)])
        state = [
            s - (hh / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for s, hh, a, b, c, d in zip(state, hs, k1, k2, k3, k4)
        ]
        for s in state:
            _check_guard(s)
        # the new slow radii: the samples' support mask and the exit test
        norms = row_norms(state[0][:n] * w_slow) if supported else None
        f, g_new = rhs(state, norms)
        leave = norms >= exit_radius if exits else np.zeros(n, dtype=bool)
        if collect:
            traj[order, k] = state[-1]
            if not leave.any():
                continue
            keep = ~leave
            # the rows that leave move behind the evaluated ones
            perm = np.concatenate([np.flatnonzero(keep), np.flatnonzero(leave),
                                   np.arange(n, rows)])
            state, f = ([a[perm] for a in arrs] for arrs in (state, f))
            neg_lam, order = _take(neg_lam, perm), order[perm]
        else:
            acc += decay * hs[-1] * (g_prev * w0 + (g_new - g_prev) * w1)
            decay = decay * decay_step
            g_prev = g_new
            drop = leave | (last <= k)
            if not drop.any():
                continue
            out[live[drop]] = acc[drop]
            _check_guard_ahead([s[drop] for s in state], _take(log_growth, drop),
                               last[drop] - k)
            keep = ~drop
            live = live[keep]
            if not live.size:
                break
            state, f = ([s[keep] for s in arrs] for arrs in (state, f))
            g_prev, acc = g_prev[keep], acc[keep]
            decay, neg_lam, w0, w1, decay_step, log_growth, last = (
                _take(a, keep) for a in (decay, neg_lam, w0, w1, decay_step, log_growth, last))
            if not isinstance(h, float):
                h = h[keep]
                hs = steps_of(h)
        n = int(keep.sum())
        radius, w_slow, exit_radius = (_take(a, keep) for a in (radius, w_slow, exit_radius))
        sampler.retire(keep)
        F.retire(keep)
    if collect:
        return times, traj
    return np.split(out, np.cumsum(counts)[:-1])


def _packs(blocks):
    """Consecutive blocks grouped into marches of at most _NODE_CHUNK rows."""
    group, rows = [], 0
    for block in blocks:
        if group and rows + len(block[1]) > _NODE_CHUNK:
            yield group
            group, rows = [], 0
        group.append(block)
        rows += len(block[1])
    if group:
        yield group


def _transform(members, settings):
    """One graph transform per (problem, F, phi, None) member, or one
    derivative transform per (problem, F, phi, upsilon) member, marched as
    one stack of node blocks.

    Each member's active nodes split into blocks of at most _NODE_CHUNK
    rows, and blocks are packed into marches of at most _NODE_CHUNK rows; a
    row's bits do not depend on the rows it is marched with.
    """
    blocks, plans = [], []
    for problem, F, phi, upsilon in members:
        lane = _lane(problem, F, phi, upsilon, settings)
        grid = phi if upsilon is None else upsilon
        nodes, active = _active_nodes(grid)
        live = nodes[active]
        first = len(blocks)
        blocks += [(lane, live[lo : lo + _NODE_CHUNK])
                   for lo in range(0, live.shape[0], _NODE_CHUNK)]
        plans.append((grid, active, first, len(blocks)))
    fiber = bool(members) and members[0][3] is not None
    pieces = []
    for group in _packs(blocks):
        pieces += _march(group, fiber)
    out = []
    for grid, active, first, last in plans:
        # past the member's own width its integral is an exact zero; a
        # march that stacked it with a wider member carries zeros there
        flat = np.zeros((active.size,) + grid.trailing)
        if last > first:
            q = blocks[first][0].width
            flat[active, :q] = np.concatenate([piece[:, :q] for piece in pieces[first:last]])
        out.append(grid.with_values(flat.reshape(grid.values.shape)))
    return out


# ---------------------------------------------------------------------------
# Public operations


def integrate_p_backward(problem, F, phi, xi, settings=None):
    """Backward trajectory of the slow flow from xi; returns (s, p(s)).

    Sample times run from 0 down to -T in march order. A single start point
    returns a (steps+1, m) array; a batch returns (batch, steps+1, m).
    """
    settings = settings or SolveSettings()
    lane = _lane(problem, F, phi, None, settings)
    xi = np.asarray(xi, dtype=float)
    s, traj = _march([(lane, np.atleast_2d(xi))], fiber=False, collect=True)
    return (s, traj[0]) if xi.ndim == 1 else (s, traj)


def integrate_Theta(problem, F, phi, upsilon, xi, settings=None):
    """Fiber linearization along the backward trajectory; identity at s = 0."""
    settings = settings or SolveSettings()
    lane = _lane(problem, F, phi, upsilon, settings)
    xi = np.asarray(xi, dtype=float)
    s, traj = _march([(lane, np.atleast_2d(xi))], fiber=True, collect=True)
    return (s, traj[0]) if xi.ndim == 1 else (s, traj)


def _active_nodes(graph):
    """Nodes strictly inside the support ball; others are pinned to zero.

    Once the weighted coordinate norm reaches the support radius the
    backward linear flow only grows it, so the integrand vanishes along the
    whole trajectory and the node value is exactly zero. The march applies
    the same exit argument along the way: a row retires at the end of the
    step that takes it out of the support (`_exit_radius`).
    """
    nodes = graph.nodes()
    if graph.support_radius is None:
        return nodes, np.ones(nodes.shape[0], dtype=bool)
    r = coord_norm_batch(graph.problem, nodes)
    return nodes, r < graph.support_radius


def apply_T(problem, F, phi, settings=None) -> GridField:
    """One graph transform: backward Duhamel integral at every grid node."""
    return _transform([(problem, F, phi, None)], settings or SolveSettings())[0]


def apply_D(problem, F, phi, upsilon, settings=None) -> GridField:
    """One derivative transform along the graph phi."""
    return _transform([(problem, F, phi, upsilon)], settings or SolveSettings())[0]


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
    graph: GridField = None


@dataclass(eq=False)
class DerivativeResult(FixedPointResult):
    field: GridField = None


def _sweep(step, starts, diff_fns, tol, max_iter, what):
    """Fixed-point iteration of several members in lockstep.

    step(live, xs) applies one transform to the iterates xs of the members
    listed in live. Each member keeps its own diffs, ratios, stall counter
    and iteration budget, and leaves the sweep once its diff reaches tol.
    Returns (x, diffs, ratios, iterations) per member. The iterates
    replace the entries of starts as they come, so the start fields are
    freed after the first step.
    """
    xs = starts
    diffs = [[] for _ in xs]
    ratios = [[] for _ in xs]
    stalled = [0] * len(xs)
    done = [0] * len(xs)
    live = list(range(len(xs)))
    for it in range(1, max_iter + 1):
        for i, xn in zip(live, step(live, [xs[i] for i in live])):
            d = float(diff_fns[i](xn, xs[i]))
            diffs[i].append(d)
            if len(diffs[i]) >= 2 and diffs[i][-2] > 0.0:
                r = d / diffs[i][-2]
                ratios[i].append(r)
                if r >= 1.0 and d > 10.0 * tol:
                    stalled[i] += 1
                    if stalled[i] >= 3:
                        raise GapViolationError(
                            f"{what} iteration stopped contracting for three "
                            f"consecutive steps (last ratio {r:.4g})"
                        )
                else:
                    stalled[i] = 0
            xs[i] = xn
            if d <= tol:
                done[i] = it
        live = [i for i in live if not done[i]]
        if not live:
            return list(zip(xs, diffs, ratios, done))
    raise ConvergenceError(
        f"{what} iteration did not reach tol {tol:.3g} in {max_iter} steps "
        f"(last diff {diffs[live[0]][-1]:.3g})"
    )


def _graph_diff(problem):
    wq = problem.alpha_weights[problem.m :]

    def diff(a, b):
        delta = (a.values - b.values).reshape(-1, wq.size)
        return np.linalg.norm(delta * wq, axis=1).max(initial=0.0)

    return diff


def _field_diff(problem):
    weights = _map_weights(problem)

    def diff(a, b):
        delta = a.node_values() - b.node_values()
        return near_max_opnorms(delta, *weights)[1].max(initial=0.0)

    return diff


def _solve_graphs(members, settings) -> list:
    """Graph sweeps of (problem, F) members from the zero graph; each sweep
    transforms the members still iterating as one `_transform` stack."""
    starts = []
    for problem, F in members:
        _require_gap(problem, F)
        axes = grid_axes(problem, settings, F.cutoff_radius)
        starts.append(GridField.zeros(problem, axes, (problem.n_modes - problem.m,),
                                      F.cutoff_radius))
    logs = _sweep(lambda live, graphs: _transform(
        [members[i] + (phi, None) for i, phi in zip(live, graphs)], settings),
        starts, [_graph_diff(problem) for problem, _ in members],
        settings.tol_fp, settings.max_iter, "graph transform")
    return [ManifoldResult(diffs=d, ratios=r, iterations=its, graph=phi)
            for phi, d, r, its in logs]


def _solve_fields(members, graphs, theta, settings) -> list:
    """Derivative sweeps of (problem, F) members along their solved graphs,
    stacked as in `_solve_graphs`."""
    starts = []
    for (problem, F), phi in zip(members, graphs):
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
        starts.append(GridField.zeros(problem, phi.axes, phi.trailing + (problem.m,),
                                      F.cutoff_radius))
    logs = _sweep(lambda live, fields: _transform(
        [members[i] + (graphs[i], ups) for i, ups in zip(live, fields)], settings),
        starts, [_field_diff(problem) for problem, _ in members],
        settings.tol_fp, settings.max_iter, "derivative transform")
    return [DerivativeResult(diffs=d, ratios=r, iterations=its, field=ups)
            for ups, d, r, its in logs]


def solve_manifold(problem, F, settings=None) -> ManifoldResult:
    """Iterate the graph transform from the zero graph to its fixed point.

    Requires the spectral gap conditions; failure to contract over three
    consecutive iterations raises GapViolationError, exhausting the
    iteration budget raises ConvergenceError.
    """
    return _solve_graphs([(problem, F)], settings or SolveSettings())[0]


def solve_derivative(problem, F, phi, theta, settings=None) -> DerivativeResult:
    """Iterate the derivative transform along a solved graph.

    theta must not exceed the nonlinearity's Hoelder exponent and must stay
    below the first admissibility window of the spectrum.
    """
    return _solve_fields([(problem, F)], [phi], theta, settings or SolveSettings())[0]


def solve_stack(members, theta, settings=None) -> list:
    """Graphs and derivative fields of several (problem, F) members, whose
    base maps share their terms by position, as one family's members do
    (`NonlinearityStack`).

    Each sweep marches the members still iterating as one stack; all graph
    sweeps finish before the derivative sweeps start. Member by member the
    results equal `solve_manifold` and `solve_derivative` bit for bit, up to
    the sign of a zero, and a failing member raises the error its own solve
    raises. Returns (ManifoldResult, DerivativeResult) pairs.
    """
    settings = settings or SolveSettings()
    manifolds = _solve_graphs(members, settings)
    fields = _solve_fields(members, [res.graph for res in manifolds], theta, settings)
    return list(zip(manifolds, fields))


# ---------------------------------------------------------------------------
# Regularity certificates


def lipschitz_certificate(phi: GridField, rng=None) -> float:
    """Largest alpha-norm difference quotient of the graph.

    Scans every adjacent node pair along each axis and adds 1000 seeded
    random long-range pairs evaluated through the interpolant.
    """
    if not phi.is_graph:
        raise DimensionError("lipschitz_certificate takes a graph, not a derivative field")
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
    lo = np.array([ax[0] for ax in phi.axes])
    hi = np.array([ax[-1] for ax in phi.axes])
    size = (1000, problem.m)
    z1 = rng.uniform(lo, hi, size=size)
    z2 = rng.uniform(lo, hi, size=size)
    sep = coord_norm_batch(problem, z1 - z2)
    keep = sep > 1e-9
    num = np.linalg.norm((phi.eval(z1) - phi.eval(z2)) * wq, axis=1)
    if np.any(keep):
        best = max(best, float((num[keep] / sep[keep]).max()))
    return best


#: Point pairs per dyadic scale in `dyadic_pairs`.
PAIRS_PER_SCALE = 200


def dyadic_pairs(axes, rng):
    """Seeded point pairs (z1, z2) at dyadic separations inside the grid box.

    Scales run from the grid spacing, doubling, up to 1.9 times the smallest
    half width; each scale yields PAIRS_PER_SCALE pairs with z2 - z1 the
    scale times a random unit direction and both endpoints inside the box.
    Per scale the directions are drawn before the start points; that rng
    order fixes the seeded certificates and reports.
    """
    half = np.array([ax[-1] for ax in axes])
    top = 1.9 * float(half.min())
    scales, s = [], min(ax[1] - ax[0] for ax in axes)
    while s < top:
        scales.append(s)
        s *= 2.0
    for ell in scales + [top]:
        dirs = rng.standard_normal((PAIRS_PER_SCALE, len(axes)))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        offset = ell * dirs
        lo = -half + np.maximum(-offset, 0.0)
        hi = half - np.maximum(offset, 0.0)
        z1 = lo + rng.uniform(size=(PAIRS_PER_SCALE, len(axes))) * (hi - lo)
        yield z1, z1 + offset


def dyadic_scan(problem, axes, values, weights, thetas, rng=None):
    """Hoelder seminorms of a field over the `dyadic_pairs` of axes, one per
    exponent in thetas, keyed by the exponent as a float, and the sup of the
    field's norms over the pairs' endpoints.

    values(z) is the field at slow points z, a stack of maps whose norms
    are `weighted_opnorms` with the (row, column) weights. Only maxima are
    read, so each stack goes through `near_max_opnorms` with the maximum
    so far as floor. The one pair set serves every exponent, so
    interpolation inequalities between the seminorms hold structurally
    rather than statistically.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    seminorms = {float(t): 0.0 for t in thetas}
    point_sup = 0.0
    for z1, z2 in dyadic_pairs(axes, rng):
        d1, d2 = values(z1), values(z2)
        for d in (d1, d2):
            norms = near_max_opnorms(d, *weights, floor=point_sup)[1]
            point_sup = float(norms.max(initial=point_sup))
        delta = d1 - d2
        sep = coord_norm_batch(problem, z2 - z1)
        for t, best in seminorms.items():
            quot = near_max_opnorms(delta, *weights, den=sep**t, floor=best)[1]
            seminorms[t] = float(quot.max(initial=best))
    return seminorms, point_sup


def holder_certificate(field: GridField, theta: float, rng=None) -> float:
    """Largest Hoelder-theta quotient of the field over the `dyadic_pairs`."""
    if theta < 0:
        raise AdmissibilityError("theta must be nonnegative")
    if field.is_graph:
        raise DimensionError("holder_certificate takes a derivative field, not a graph")
    seminorms, _ = dyadic_scan(field.problem, field.axes, field.eval,
                               _map_weights(field.problem), (theta,), rng)
    return seminorms[float(theta)]


# ---------------------------------------------------------------------------
# Dumps


def dump_csv(grid: GridField, path):
    """Node table, row-major: the slow coordinates, then a graph's fast values
    or a field's maps, fast-mode index outer, slow inner."""
    problem = grid.problem
    m = problem.m
    cols = [f"p_{i}" for i in range(1, m + 1)]
    fast = range(m + 1, problem.n_modes + 1)
    if grid.is_graph:
        cols += [f"q_{i}" for i in fast]
    else:
        cols += [f"dq{i}_dp{j}" for i in fast for j in range(1, m + 1)]
    nodes = grid.nodes()
    table = np.concatenate([nodes, grid.node_values().reshape(nodes.shape[0], -1)], axis=1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in table:
            writer.writerow([f"{x:.17g}" for x in row])
