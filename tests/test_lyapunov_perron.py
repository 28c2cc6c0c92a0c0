"""Graph transform machinery.

Oracles: the exponential quadrature weights are checked against a 50-digit
decimal reference, the backward slow flow against closed-form exponentials,
and the full transform against two fixtures (zero map, constant fast
forcing) whose fixed points are known exactly. Graphs and derivative fields
are both `GridField`s; the shape-contract tests check that the trailing
shape of the values decides which one a grid is, and that the marches and
the node-table dump follow it.
"""

import decimal
import warnings

import numpy as np
import pytest

from conftest import with_constants
from imlab import lyapunov_perron
from imlab.config import build_lab, config_from_dict
from imlab.errors import (
    AdmissibilityError,
    ConfigError,
    DimensionError,
    DomainError,
    GapViolationError,
    OverflowGuardError,
)
from imlab.lyapunov_perron import (
    OVERFLOW_GUARD,
    GridField,
    SolveSettings,
    apply_D,
    apply_T,
    dump_csv,
    grid_axes,
    holder_certificate,
    integrate_Theta,
    integrate_p_backward,
    lipschitz_certificate,
    phi0_weight,
    phi1_weight,
    resolve_horizon,
    resolve_step,
    slow_flow_rate,
    solve_derivative,
    solve_manifold,
    weighted_map_norms,
)
from imlab.nonlinearity import (
    PHASE_CHUNK,
    ConstantBase,
    CosineBase,
    CutoffNonlinearity,
    NonlinearityStack,
    SineBase,
    constant_map,
    zero_map,
)
from imlab.perturbation_harness import instantiate, solve_member
from imlab.spectral_core import SpectralProblem, coord_norm_batch
from imlab.suites import suite_psi_uniform


# trailing value shapes of two_mode grids: graph, derivative field
GRAPH, FIELD = (1,), (1, 1)


def two_mode(alpha=0.0):
    return SpectralProblem(eigenvalues=np.array([1.0, 4.0]), m=1, alpha=alpha)


def small_settings(**kw):
    kw.setdefault("grid_nodes", 41)
    kw.setdefault("box_half_widths", (1.5,))
    return SolveSettings(**kw)


def decimal_phi1(z, prec=50):
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        dz = decimal.Decimal(repr(z))
        val = (1 - (1 + dz) * (-dz).exp()) / (dz * dz)
        return float(val)


def test_phi0_weight_identity():
    z = np.logspace(-8, 2, 120)
    assert np.allclose(phi0_weight(z) * z, -np.expm1(-z), rtol=1e-14)
    assert phi0_weight(np.array(0.0))[0] == 1.0


def test_phi1_weight_against_decimal_reference():
    # straddle the series / closed-form switch at z = 0.15
    zs = [1e-8, 1e-4, 0.01, 0.1, 0.149, 0.151, 0.5, 2.0, 10.0]
    got = phi1_weight(np.array(zs))
    want = [decimal_phi1(z) for z in zs]
    assert np.allclose(got, want, rtol=1e-13)
    edge = [0.15 - 1e-9, 0.15 + 1e-9]  # one per branch
    assert np.allclose(phi1_weight(np.array(edge)), [decimal_phi1(z) for z in edge],
                       rtol=1e-13)
    assert phi1_weight(np.array(1e-13))[0] == pytest.approx(0.5, abs=1e-12)


def test_zero_map_fixed_point_is_zero():
    problem = two_mode()
    F = zero_map(problem)
    st = small_settings()
    res = solve_manifold(problem, F, st)
    assert res.iterations == 1
    assert np.all(res.graph.values == 0.0)
    der = solve_derivative(problem, F, res.graph, 0.5, st)
    assert np.all(der.field.values == 0.0)
    assert holder_certificate(der.field, 0.5) == 0.0


def test_constant_forcing_fixed_point():
    problem = two_mode()
    F = constant_map(problem, [0.0, 1.0])
    st = small_settings()
    res = solve_manifold(problem, F, st)
    vals = res.graph.values[..., 0]
    T = resolve_horizon(problem, F, st)
    # the exponential quadrature telescopes, so the only defect is the tail
    exact = 0.25 * -np.expm1(-4.0 * T)
    assert np.max(np.abs(vals - exact)) < 1e-13
    assert np.max(np.abs(vals - 0.25)) < 1e-10


def zero_graph(problem, half=1.5, nodes=41):
    return GridField.zeros(problem, (np.linspace(-half, half, nodes),), GRAPH)


def test_backward_flow_matches_exponential():
    problem = two_mode()
    F = zero_map(problem)
    st = small_settings(t_horizon=1.0)
    phi = zero_graph(problem)
    s, traj = integrate_p_backward(problem, F, phi, np.array([1.0]), st)
    assert s[0] == 0.0 and s[-1] == pytest.approx(-1.0, abs=1e-12)
    assert traj.shape == (s.size, 1)
    assert traj[-1, 0] == pytest.approx(np.e, rel=1e-6)
    batch = np.array([[1.0], [2.0], [-0.5]])
    s2, multi = integrate_p_backward(problem, F, phi, batch, st)
    assert multi.shape == (3, s2.size, 1)
    assert np.allclose(multi[:, -1, 0], batch[:, 0] * np.e, rtol=1e-6)


def test_rk4_converges_at_fourth_order():
    problem = two_mode()
    F = zero_map(problem)
    phi = zero_graph(problem)
    errs = []
    for h in (0.1, 0.05, 0.025):
        st = small_settings(t_horizon=1.0, h=h)
        _, traj = integrate_p_backward(problem, F, phi, np.array([1.0]), st)
        errs.append(abs(traj[-1, 0] - np.e))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 3.6) and np.all(orders < 4.4)


def test_theta_linearization():
    problem = two_mode()
    F = zero_map(problem)
    st = small_settings(t_horizon=1.0)
    axes = (np.linspace(-1.5, 1.5, 41),)
    phi = GridField.zeros(problem, axes, GRAPH)
    ups = GridField.zeros(problem, axes, FIELD)
    s, theta = integrate_Theta(problem, F, phi, ups, np.array([0.3]), st)
    assert theta.shape == (s.size, 1, 1)
    assert theta[0, 0, 0] == 1.0
    assert theta[-1, 0, 0] == pytest.approx(np.e, rel=1e-6)


def test_theta_needs_graph_and_field_on_one_grid_and_support():
    # the fiber march samples both in one interpolation with one support mask
    problem = two_mode()
    F = zero_map(problem)
    st = small_settings(t_horizon=1.0)
    axes = (np.linspace(-1.5, 1.5, 41),)
    phi = GridField.zeros(problem, axes, GRAPH)
    for ups in (GridField.zeros(problem, axes, FIELD, support_radius=1.0),
                GridField.zeros(problem, (np.linspace(-1.5, 1.5, 31),), FIELD)):
        with pytest.raises(DimensionError):
            integrate_Theta(problem, F, phi, ups, np.array([0.3]), st)


def test_fiber_horizon_needs_room_above_slow_rate():
    problem = SpectralProblem(eigenvalues=np.array([1.0, 1.05]), m=1, alpha=0.0)
    F = CutoffNonlinearity(
        problem=problem, base=ConstantBase(vector=np.zeros(2)), cutoff_radius=1.0,
        C_F=0.0, L_F=0.1,
    )
    assert slow_flow_rate(problem, F) == pytest.approx(1.2)
    with pytest.raises(GapViolationError):
        resolve_horizon(problem, F, small_settings(), purpose="fiber")


def test_settings_guards():
    problem = two_mode()
    F = zero_map(problem)
    with pytest.raises(ConfigError):
        solve_manifold(problem, F, small_settings(h=0.2))
    steep = two_mode(alpha=0.5)
    with pytest.raises(ConfigError):
        solve_manifold(steep, zero_map(steep), small_settings(t_horizon=0.1))
    with pytest.raises(ConfigError):
        SolveSettings(box_factor=0.9)
    with pytest.raises(ConfigError):
        SolveSettings(tol_fp=0.0)
    with pytest.raises(ConfigError):
        solve_manifold(problem, F, small_settings(grid_nodes=2))


def test_overflow_guard_trips():
    problem = two_mode()
    F = constant_map(problem, [0.0, 1.0])
    with pytest.raises(OverflowGuardError):
        solve_manifold(problem, F, small_settings(t_horizon=500.0))


def test_solve_requires_gap():
    problem = SpectralProblem(eigenvalues=np.array([10.0, 15.0]), m=1, alpha=0.0)
    F = CutoffNonlinearity(
        problem=problem, base=ConstantBase(vector=np.zeros(2)), cutoff_radius=1.0,
        C_F=0.0, L_F=0.5,
    )
    with pytest.raises(GapViolationError):
        solve_manifold(problem, F, small_settings())


def test_solve_derivative_guards():
    problem = two_mode()
    F = zero_map(problem)
    st = small_settings()
    phi = solve_manifold(problem, F, st).graph
    with pytest.raises(AdmissibilityError, match="exponent"):
        solve_derivative(problem, with_constants(F, 0.0, 0.0, 0.5, 0.0), phi, 0.9, st)
    narrow = SpectralProblem(eigenvalues=np.array([1.0, 1.3]), m=1, alpha=0.0)
    Fn = zero_map(narrow)
    stn = small_settings(h=0.05)
    phin = solve_manifold(narrow, Fn, stn).graph
    with pytest.raises(AdmissibilityError, match="window"):
        solve_derivative(narrow, Fn, phin, 0.5, stn)


@pytest.mark.parametrize("alpha, want", [(0.0, 0.5), (0.5, 1.0)])
def test_lipschitz_certificate_linear_graph(alpha, want):
    problem = two_mode(alpha)
    axes = (np.linspace(-1.0, 1.0, 41),)
    phi = GridField.zeros(problem, axes, GRAPH)
    phi = phi.with_values(0.5 * axes[0][:, None])
    assert lipschitz_certificate(phi) == pytest.approx(want, rel=1e-12)


def test_holder_certificate_flat_field():
    problem = two_mode()
    axes = (np.linspace(-1.0, 1.0, 41),)
    ups = GridField.zeros(problem, axes, FIELD)
    ups = ups.with_values(np.broadcast_to(0.3, ups.values.shape).copy())
    assert holder_certificate(ups, 0.5) < 1e-14
    with pytest.raises(AdmissibilityError):
        holder_certificate(ups, -0.5)


def test_lipschitz_certificate_rejects_a_field():
    problem = two_mode()
    ups = GridField.zeros(problem, (np.linspace(-1.0, 1.0, 41),), FIELD)
    with pytest.raises(DimensionError, match="graph"):
        lipschitz_certificate(ups)


def test_holder_certificate_rejects_a_graph():
    problem = two_mode()
    phi = GridField.zeros(problem, (np.linspace(-1.0, 1.0, 41),), GRAPH)
    with pytest.raises(DimensionError, match="field"):
        holder_certificate(phi, 0.5)


def test_weighted_map_norms_golden():
    problem = two_mode(alpha=0.5)
    mats = np.array([[[0.3]], [[-0.2]]])
    got = weighted_map_norms(problem, mats)
    assert np.allclose(got, [0.6, 0.4], rtol=1e-14)


def test_interpolation_reproduces_nodes():
    problem = two_mode()
    axes = (np.linspace(-1.0, 1.0, 5),)
    vals = np.arange(5.0)[:, None] ** 2
    phi = GridField(problem, axes, vals, None)
    nodes = phi.nodes()
    assert np.array_equal(phi.eval(nodes), phi.node_values())
    mid = phi.eval(np.array([[-0.75]]))  # halfway between nodes 0 and 1
    assert mid[0, 0] == pytest.approx(0.5, rel=1e-14)


def test_support_mask(lab, limit):
    graph = limit.graph
    radius = lab.limit_F.cutoff_radius
    nodes = graph.nodes()
    outside = coord_norm_batch(graph.problem, nodes) >= radius
    assert outside.any()
    assert np.all(graph.eval(nodes)[outside] == 0.0)
    inside = graph.node_values()[~outside]
    assert np.any(inside != 0.0)


def test_solved_limit_contracts(limit):
    man, der = limit.manifold, limit.derivative
    for res in (man, der):
        assert 2 <= res.iterations <= 8
        assert np.all(np.asarray(res.ratios) < 1.0)
    assert np.all(np.diff(man.diffs) < 0)


def test_csv_roundtrip(tmp_path, limit):
    # the node table holds each node and value exactly (%.17g round-trips)
    n, m = limit.problem.n_modes, limit.problem.m
    for grid, columns in ((limit.graph, n), (limit.field, m + (n - m) * m)):
        path = tmp_path / "table.csv"
        dump_csv(grid, path)
        assert len(path.read_text().splitlines()[0].split(",")) == columns
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(table[:, :m], grid.nodes())
        assert np.array_equal(table[:, m:], grid.node_values().reshape(table.shape[0], -1))


def test_dump_csv_headers_follow_the_trailing_shape(tmp_path):
    problem = SpectralProblem(eigenvalues=np.array([1.0, 4.0, 9.0, 16.0]), m=2, alpha=0.0)
    axes = (np.linspace(-1.0, 1.0, 3), np.linspace(-2.0, 2.0, 5))
    want = {
        (2,): ["p_1", "p_2", "q_3", "q_4"],
        (2, 2): ["p_1", "p_2", "dq3_dp1", "dq3_dp2", "dq4_dp1", "dq4_dp2"],
    }
    for trailing, cols in want.items():
        grid = GridField(problem, axes, np.arange(15.0 * np.prod(trailing)).reshape(
            (3, 5) + trailing))
        path = tmp_path / "table.csv"
        dump_csv(grid, path)
        assert path.read_text().splitlines()[0].split(",") == cols
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert table.shape == (15, len(cols))
        # row-major nodes; a field's maps run fast-mode index outer, slow inner
        assert np.array_equal(table[:, :2], grid.nodes())
        assert np.array_equal(table[7, 2:], grid.values[1, 2].reshape(-1))


def test_grid_field_shape_contract():
    problem = two_mode()
    axes = (np.linspace(-1.5, 1.5, 41),)
    for trailing in ((), (2,), (1, 2), (1, 1, 1)):
        with pytest.raises(DimensionError):
            GridField(problem, axes, np.zeros((41,) + trailing))
    with pytest.raises(DimensionError):
        GridField(problem, axes, np.zeros((40, 1)))
    # the fiber march refuses a graph where the derivative field goes
    F = zero_map(problem)
    st = small_settings(t_horizon=1.0)
    phi = GridField.zeros(problem, axes, GRAPH)
    with pytest.raises(DimensionError):
        apply_D(problem, F, phi, phi, st)
    with pytest.raises(DimensionError):
        integrate_Theta(problem, F, phi, phi, np.array([0.3]), st)
    with pytest.raises(DimensionError):
        apply_T(problem, F, GridField.zeros(problem, axes, FIELD), st)


# ---------------------------------------------------------------------------
# Retirement: the solver drops a row once its slow state leaves the cutoff
# support. A plain march that runs every row to the end of the horizon, with
# the solver's RK4 and exponential-trapezoid expressions, must agree with it
# bit for bit.


def reference_march(problem, F, phi, upsilon, settings):
    """Node values of one graph (upsilon None) or derivative transform, every
    active node marched over the whole horizon in one batch."""
    fiber = upsilon is not None
    T = resolve_horizon(problem, F, settings, purpose="fiber" if fiber else "graph")
    steps = max(1, int(np.ceil(T / resolve_step(problem, F, settings) - 1e-12)))
    h = T / steps
    m, n = problem.m, problem.n_modes
    grid = upsilon if fiber else phi
    nodes = grid.nodes()
    active = coord_norm_batch(problem, nodes) < grid.support_radius
    lam_p = problem.eigenvalues[:m]
    z = problem.eigenvalues[m:] * h
    shape = (-1, 1) if fiber else (-1,)
    w0, w1, decay_step = (w.reshape(shape) for w in (phi0_weight(z), phi1_weight(z), np.exp(-z)))

    def rhs(state):
        pv = state[0]
        u = np.zeros((pv.shape[0], n))
        u[:, :m] = pv
        u[:, m:] = phi.eval(pv)
        if not fiber:
            fv = F.eval_batch(u)
            return [fv[:, :m] - pv * lam_p], fv[:, m:]
        tv = state[1]
        V = np.zeros((pv.shape[0], n, m))
        V[:, :m] = np.eye(m)
        V[:, m:] = upsilon.eval(pv)
        fv, dfj = NonlinearityStack([(F, len(u))]).eval_and_jvp(u, V)
        return [fv[:, :m] - pv * lam_p, dfj[:, :m] @ tv - lam_p[:, None] * tv], dfj[:, m:] @ tv

    p = nodes[active]
    state = [p, np.broadcast_to(np.eye(m), (p.shape[0], m, m)).copy()] if fiber else [p]
    f, g_prev = rhs(state)
    acc = np.zeros_like(g_prev)
    decay = np.ones_like(w0)
    for _ in range(steps):
        k2, _ = rhs([s - 0.5 * h * d for s, d in zip(state, f)])
        k3, _ = rhs([s - 0.5 * h * d for s, d in zip(state, k2)])
        k4, _ = rhs([s - h * d for s, d in zip(state, k3)])
        state = [s - (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                 for s, a, b, c, d in zip(state, f, k2, k3, k4)]
        for s in state:
            if not np.all(np.isfinite(s)) or np.abs(s).max() > OVERFLOW_GUARD:
                raise OverflowGuardError("reference march overflow")
        f, g_new = rhs(state)
        acc += decay * h * (g_prev * w0 + (g_new - g_prev) * w1)
        decay = decay * decay_step
        g_prev = g_new
    out = np.zeros((nodes.shape[0],) + acc.shape[1:])
    out[active] = acc
    return out.reshape(grid.values.shape)


@pytest.fixture
def live_counts(monkeypatch):
    """Row counts of blocks that had lost some of their rows, one entry per
    block and retirement."""
    seen = []

    class Recording(lyapunov_perron.NonlinearityStack):
        def __init__(self, blocks, width=None):
            super().__init__(blocks, width)
            self.counts = np.array([count for _, count in blocks])
            self.block = np.repeat(np.arange(self.counts.size), self.counts)

        def retire(self, keep):
            super().retire(keep)
            self.block = self.block[keep]
            held = np.bincount(self.block, minlength=self.counts.size)
            seen.extend(held[(held > 0) & (held < self.counts)].tolist())

    monkeypatch.setattr(lyapunov_perron, "NonlinearityStack", Recording)
    return seen


def assert_transforms_match_reference(problem, F, settings):
    axes = grid_axes(problem, settings, F.cutoff_radius)
    fast = problem.n_modes - problem.m
    phi = apply_T(problem, F, GridField.zeros(problem, axes, (fast,), F.cutoff_radius), settings)
    ups = apply_D(problem, F, phi,
                  GridField.zeros(problem, axes, (fast, problem.m), F.cutoff_radius), settings)
    assert np.any(phi.values != 0.0) and np.any(ups.values != 0.0)
    assert np.array_equal(apply_T(problem, F, phi, settings).values,
                          reference_march(problem, F, phi, None, settings))
    assert np.array_equal(apply_D(problem, F, phi, ups, settings).values,
                          reference_march(problem, F, phi, ups, settings))


@pytest.mark.parametrize("eps", [0.0, 0.1, 1e-4])
def test_retiring_rows_is_exact_on_the_default_lab(lab, eps, live_counts):
    problem, F = instantiate(lab, eps)
    assert_transforms_match_reference(problem, F, lab.solve_settings)
    # the fiber march ends with a block of one row among retired ones: the
    # phase gemm must not turn into a one-row product there
    assert min(live_counts) == 1


def test_every_march_phase_gemm_holds_phase_chunk_rows(lab, monkeypatch):
    # a march forms each atom's phase in gemm calls of PHASE_CHUNK rows, so
    # a row's bits do not depend on the rows marched with it
    shapes = []
    for cls in (SineBase, CosineBase):
        def phase(self, u, _phase=cls.phase):
            shapes.append(u.shape)
            return _phase(self, u)
        monkeypatch.setattr(cls, "phase", phase)
    solve_member(lab, 0.1)
    assert len(shapes) > 1000
    assert {shape[-2] for shape in shapes} == {PHASE_CHUNK}
    assert {len(shape) for shape in shapes} == {3}


def test_one_stack_per_march_in_the_default_member_solve(lab, monkeypatch):
    # a march builds its nonlinearity stack once and retires rows from it
    # in place; a rebuild per retiring step would redo the term checks and the
    # per-row tables hundreds of times per solve
    built, retired, marched = [], [], []
    march = lyapunov_perron._march

    class Counting(lyapunov_perron.NonlinearityStack):
        def __init__(self, blocks, width=None):
            built.append(len(blocks))
            super().__init__(blocks, width)

        def retire(self, keep):
            retired.append(int(keep.size - keep.sum()))
            super().retire(keep)

    def counting_march(*args, **kwargs):
        marched.append(len(args[0]))
        return march(*args, **kwargs)

    monkeypatch.setattr(lyapunov_perron, "NonlinearityStack", Counting)
    monkeypatch.setattr(lyapunov_perron, "_march", counting_march)
    solve_member(lab, 0.1)
    assert marched and built == marched
    assert len(retired) > len(marched) and min(retired) > 0


def test_fiber_marches_form_jacobian_rows_over_m_plus_reach_columns(lab, limit, monkeypatch):
    # the fiber march's state and tangent vanish past m + reach columns, so
    # it forms the Jacobian rows over those only; a field dense in every
    # fast mode (the PsiUniform suite's) takes all N
    calls, expected = [], []
    march = lyapunov_perron._march

    class Recording(lyapunov_perron.NonlinearityStack):
        def eval_and_jvp(self, u, V, columns=None):
            calls.append((columns, expected[-1]))
            return super().eval_and_jvp(u, V, columns)

    def recording_march(blocks, fiber, collect=False):
        m = blocks[0][0].problem.m
        expected.append(m + max(lane.reach for lane, _ in blocks) if fiber else None)
        return march(blocks, fiber, collect)

    monkeypatch.setattr(lyapunov_perron, "NonlinearityStack", Recording)
    monkeypatch.setattr(lyapunov_perron, "_march", recording_march)
    solve_member(lab, 0.1)
    assert len(calls) > 1000
    assert all(columns == want for columns, want in calls)
    assert {columns for columns, _ in calls} == {4}
    calls.clear()
    suite_psi_uniform(lab, limit, lab.rng("suites"))
    assert calls and {columns for columns, _ in calls} == {lab.limit_problem.n_modes}


@pytest.mark.parametrize("payload", [
    {"spectral": {"m": 2}, "solver": {"grid_nodes": 11}},
    {"spectral": {"alpha": 0.25}, "nonlinearity": {"LF": 0.05}, "solver": {"grid_nodes": 51}},
])
def test_retiring_rows_is_exact_across_configs(payload):
    lab = build_lab(config_from_dict(payload))
    for eps in (0.0, 0.1):
        problem, F = instantiate(lab, eps)
        assert_transforms_match_reference(problem, F, lab.solve_settings)


def dense_grid(problem, axes, trailing, support_radius, rng):
    """A grid with random values in every fast mode at the nodes inside the
    support, zero at the others."""
    grid = GridField.zeros(problem, axes, trailing, support_radius)
    values = grid.node_values()
    inside = coord_norm_batch(problem, grid.nodes()) < support_radius
    values[inside] = 0.1 * rng.standard_normal((int(inside.sum()),) + tuple(trailing))
    return grid


@pytest.mark.parametrize("payload", [{}, {"spectral": {"m": 2}, "solver": {"grid_nodes": 11}}])
def test_transforms_on_dense_inputs_match_reference(payload):
    # the march integrates only the fast modes F can reach, but samples
    # every fast mode its inputs hold: a graph and a field dense in all of
    # them reach F through its phase and its cutoff norm
    lab = build_lab(config_from_dict(payload))
    rng = np.random.default_rng(11)
    for eps in (0.0, 0.1):
        problem, F = instantiate(lab, eps)
        settings = lab.solve_settings
        axes = grid_axes(problem, settings, F.cutoff_radius)
        fast, m = problem.n_modes - problem.m, problem.m
        phi = dense_grid(problem, axes, (fast,), F.cutoff_radius, rng)
        ups = dense_grid(problem, axes, (fast, m), F.cutoff_radius, rng)
        assert np.array_equal(apply_T(problem, F, phi, settings).values,
                              reference_march(problem, F, phi, None, settings))
        assert np.array_equal(apply_D(problem, F, phi, ups, settings).values,
                              reference_march(problem, F, phi, ups, settings))


# ---------------------------------------------------------------------------
# Freezing: a collecting march stops evaluating a row once its slow state
# leaves the cutoff support and marches it on its linear part. A plain march
# that evaluates every row at every RK4 stage must agree with it bit for
# bit, up to the sign of a zero.


def reference_trajectory(problem, F, phi, upsilon, xi, settings):
    """Sample times and backward trajectories from the start points xi:
    slow points, or with upsilon the tangent maps, every row evaluated at
    every stage."""
    fiber = upsilon is not None
    T = resolve_horizon(problem, F, settings, purpose="fiber" if fiber else "graph")
    steps = max(1, int(np.ceil(T / resolve_step(problem, F, settings) - 1e-12)))
    h = T / steps
    m, n = problem.m, problem.n_modes
    lam_p = problem.eigenvalues[:m]

    def rhs(state):
        pv = state[0]
        u = np.zeros((pv.shape[0], n))
        u[:, :m] = pv
        u[:, m:] = phi.eval(pv)
        if not fiber:
            return [F.eval_batch(u)[:, :m] - pv * lam_p]
        tv = state[1]
        V = np.zeros((pv.shape[0], n, m))
        V[:, :m] = np.eye(m)
        V[:, m:] = upsilon.eval(pv)
        fv, dfj = NonlinearityStack([(F, len(u))]).eval_and_jvp(u, V)
        return [fv[:, :m] - pv * lam_p, dfj[:, :m] @ tv - lam_p[:, None] * tv]

    state = [xi, np.broadcast_to(np.eye(m), (len(xi), m, m)).copy()] if fiber else [xi]
    traj = [state[-1]]
    f = rhs(state)
    for _ in range(steps):
        k2 = rhs([s - 0.5 * h * d for s, d in zip(state, f)])
        k3 = rhs([s - 0.5 * h * d for s, d in zip(state, k2)])
        k4 = rhs([s - h * d for s, d in zip(state, k3)])
        state = [s - (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                 for s, a, b, c, d in zip(state, f, k2, k3, k4)]
        traj.append(state[-1])
        f = rhs(state)
    return -h * np.arange(steps + 1), np.stack(traj, axis=1)


@pytest.fixture
def retired_rows(monkeypatch):
    """Rows each march's nonlinearity stack retired, one entry per march."""
    seen = []

    class Counting(lyapunov_perron.NonlinearityStack):
        def __init__(self, blocks, width=None):
            super().__init__(blocks, width)
            seen.append(0)

        def retire(self, keep):
            super().retire(keep)
            seen[-1] += int(keep.size - keep.sum())

    monkeypatch.setattr(lyapunov_perron, "NonlinearityStack", Counting)
    return seen


@pytest.mark.parametrize("payload", [
    {},
    {"spectral": {"m": 2}, "solver": {"grid_nodes": 11}},
    {"spectral": {"alpha": 0.25}, "nonlinearity": {"LF": 0.05}},
])
def test_collecting_marches_freeze_rows_exactly(payload, retired_rows):
    lab = build_lab(config_from_dict(payload))
    limit = solve_member(lab, 0.0)
    retired_rows.clear()
    problem, F, phi, ups = limit.problem, limit.F, limit.graph, limit.field
    settings = lab.solve_settings
    m = problem.m
    rng = np.random.default_rng(5)
    # weighted radii on the cutoff plateau, in its annulus and past it, and
    # points outside the grid box on every side
    radii = F.cutoff_radius * np.array([0.0, 0.2, 0.45, 0.55, 0.8, 0.99, 1.2])
    dirs = rng.standard_normal((radii.size, m))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    half = np.array([ax[-1] for ax in phi.axes])
    outside = 1.2 * half * np.array([[1.0] * m, [-1.0] * m])
    xi = np.concatenate([radii[:, None] * dirs / problem.alpha_weights[:m], outside])
    for upsilon, march in ((None, integrate_p_backward), (ups, integrate_Theta)):
        args = (problem, F, phi) + (() if upsilon is None else (upsilon,))
        s, traj = march(*args, xi, settings)
        s_ref, ref = reference_trajectory(problem, F, phi, upsilon, xi, settings)
        assert np.array_equal(s, s_ref)
        assert np.array_equal(traj, ref)
    # every row but at most one leaves the support within the horizon (the
    # alpha = 0.25 graph march is short), and a frozen row leaves the stack
    assert len(retired_rows) == 2
    assert all(len(xi) - 1 <= count <= len(xi) for count in retired_rows), retired_rows


def test_collecting_marches_take_empty_batches():
    problem = two_mode()
    F = zero_map(problem)
    st = small_settings(t_horizon=1.0)
    axes = (np.linspace(-1.5, 1.5, 41),)
    phi = GridField.zeros(problem, axes, GRAPH)
    ups = GridField.zeros(problem, axes, FIELD)
    s, traj = integrate_p_backward(problem, F, phi, np.empty((0, 1)), st)
    assert traj.shape == (0, s.size, 1) and s[-1] == pytest.approx(-1.0, abs=1e-12)
    s, theta = integrate_Theta(problem, F, phi, ups, np.empty((0, 1)), st)
    assert theta.shape == (0, s.size, 1, 1)


def test_marches_check_their_start_points():
    problem = two_mode()
    F = zero_map(problem)
    st = small_settings(t_horizon=1.0)
    axes = (np.linspace(-1.5, 1.5, 41),)
    phi = GridField.zeros(problem, axes, GRAPH)
    ups = GridField.zeros(problem, axes, FIELD)
    with pytest.raises(DimensionError):
        integrate_p_backward(problem, F, phi, np.zeros((3, 2)), st)
    with pytest.raises(DimensionError):
        integrate_Theta(problem, F, phi, ups, np.array([0.1, 0.2]), st)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            integrate_p_backward(problem, F, phi, np.array([[0.1], [bad]]), st)
        with pytest.raises(DomainError):
            integrate_Theta(problem, F, phi, ups, np.array([bad]), st)


@pytest.mark.parametrize("t_horizon, trips", [(25.0, False), (30.0, True), (500.0, True)])
def test_overflow_guard_covers_retired_rows(t_horizon, trips):
    # every row leaves the cutoff support within a few time units and then
    # grows like e^s, past the 1e12 guard near s = 27.6
    problem = two_mode()
    F = CutoffNonlinearity(problem=problem, base=ConstantBase(vector=np.array([0.0, 1.0])),
                           cutoff_radius=1.0, C_F=1.0, L_F=0.0)
    phi = GridField.zeros(problem, (np.linspace(-1.5, 1.5, 41),), GRAPH, support_radius=1.0)
    st = small_settings(t_horizon=t_horizon)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if trips:
            with pytest.raises(OverflowGuardError):
                reference_march(problem, F, phi, None, st)
            with pytest.raises(OverflowGuardError):
                apply_T(problem, F, phi, st)
        else:
            assert np.array_equal(apply_T(problem, F, phi, st).values,
                                  reference_march(problem, F, phi, None, st))
