"""Distance estimators and the rate study.

The multiplicative spectral family, whose members share the limit's
coefficient space, has closed-form perturbation sizes (tau, rho) and exactly linear derivative mismatch in eps,
which pins the estimators down without reference to the solver. Solved-member
checks then exercise the full pipeline at the largest default eps.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    direction_sup,
    oracle_beta,
    oracle_c1_distance,
    oracle_holder,
    oracle_kappa,
    oracle_rho,
    oracle_sup_distance,
    oracle_tau,
    oracle_theta_measured,
)
from imlab import lyapunov_perron
from imlab.config import build_lab, config_from_dict, default_config
from imlab.errors import ConfigError, ConvergenceError, DimensionError
from imlab.lyapunov_perron import GridField, grid_axes, integrate_Theta, slow_flow_rate
from imlab.nonlinearity import PHASE_CHUNK, CosineBase, SineBase
from imlab.perturbation_harness import (
    _lift_full,
    _log_fit,
    _refined_grid,
    beta_eps,
    c1_distance,
    c1theta_distance,
    derivative_mismatch,
    holder_seminorm_of_difference,
    instantiate,
    rate_study,
    rho_of,
    solve_member,
    solve_members,
    sup_distance,
    tau_eps,
    theta_comparison,
)
from imlab.spectral_core import SpectralProblem, alpha_norm_batch, kappa, weighted_opnorms


@pytest.fixture(scope="module")
def member(lab):
    return solve_member(lab, 0.1)


def test_instantiate_contract(lab):
    problem, F = instantiate(lab, 0.01)
    assert np.allclose(problem.eigenvalues, lab.limit_problem.eigenvalues * 1.01,
                       rtol=1e-15)
    assert problem.n_modes == lab.limit_problem.n_modes
    u = np.zeros((1, 32))
    assert not np.allclose(F.eval_batch(u), lab.limit_F.eval_batch(u))
    p0, F0 = instantiate(lab, 0.0)
    assert np.array_equal(p0.eigenvalues, lab.limit_problem.eigenvalues)
    assert np.allclose(F0.eval_batch(u), lab.limit_F.eval_batch(u))


def test_tau_closed_form(lab):
    # alpha = 0 and lambda_1 = 2: the resolvent gap is eps / (2 (1 + eps))
    for eps in (0.01, 0.1):
        assert tau_eps(lab, eps) == pytest.approx(eps / (2 * (1 + eps)), rel=1e-13)
    assert tau_eps(lab, 0.0) == 0.0


def test_rho_linear_in_eps(lab):
    rho = rho_of(lab, 0.05)
    assert rho == pytest.approx(0.05 * direction_sup(lab.family), rel=1e-13)
    assert rho_of(lab, 0.0) == 0.0


def test_every_phase_gemm_holds_one_unthreaded_chunk(monkeypatch):
    # OpenBLAS (scipy-openblas 0.3.31) hands a gemm of more than 2 * 2**18
    # multiply-adds to a second thread, which spins for CPU time that buys
    # no wall time; every phase gemm in build, certification, rho, beta and
    # the sup distance holds exactly PHASE_CHUNK rows and at most 2**17
    # multiply-adds, on the default lab, on the widest phase (K = 32) and on
    # the m = 2 lab
    calls = []

    def record(u, out):
        # a stacked (chunks, rows, N) product runs one gemm per chunk
        calls.append((u.ndim, u.shape[-2], u.shape[-2] * u.shape[-1] * out.shape[-1]))
        return out

    def check():
        assert calls
        assert {(ndim, rows) for ndim, rows, _ in calls} == {(3, PHASE_CHUNK)}
        assert max(madds for _, _, madds in calls) <= 2**17
        calls.clear()

    for cls in (SineBase, CosineBase):
        monkeypatch.setattr(cls, "phase",
                            lambda self, u, phase=cls.phase: record(u, phase(self, u)))

    for config in (default_config(), config_from_dict({"nonlinearity": {"K": 32}})):
        lab = build_lab(config)
        lab.certify()
        assert rho_of(lab, 0.1) > 0.0
        check()

    # beta_eps samples the m = 2 lab's refined grid, 81 x 81 = 6561 points;
    # sup_distance reads its 41 x 41 nodes
    lab = build_lab(config_from_dict({"spectral": {"m": 2}, "solver": {"grid_nodes": 41}}))
    problem = lab.limit_problem
    axes = grid_axes(problem, lab.solve_settings, lab.config.nonlinearity.radius)
    phi0 = GridField.zeros(problem, axes, (problem.n_modes - problem.m,))
    phi_eps = GridField.zeros(lab.problem_at(0.1), axes, phi0.trailing)
    assert beta_eps(lab, 0.1, phi0) > 0.0
    assert sup_distance(phi_eps, phi0) == 0.0
    check()


def test_beta_linear_in_eps(lab, limit):
    b1 = beta_eps(lab, 0.05, limit.graph)
    b2 = beta_eps(lab, 0.1, limit.graph)
    assert b1 > 0
    assert b2 == pytest.approx(2 * b1, rel=1e-11)
    assert beta_eps(lab, 0.0, limit.graph) == 0.0


@pytest.fixture(scope="module", params=["default", "alpha"])
def solved_family(request, lab, limit, member):
    """(lab, limit, member at eps = 0.1) on the default config and on one
    with alpha > 0, where the perturbed weights differ from the limit's."""
    if request.param == "default":
        return lab, limit, member
    weighted = build_lab(config_from_dict(
        {"spectral": {"alpha": 0.25}, "nonlinearity": {"LF": 0.05}}))
    return (weighted, *solve_members(weighted, (0.0, 0.1)))


def test_one_space_comparison_equals_the_identity_extension(solved_family):
    # the paper's general-E formulas at E = M = I give every estimate bit
    # for bit; each call draws from a fresh stream of the same seed
    lab, limit, member = solved_family
    eps, problem, F = member.eps, member.problem, member.F
    E = np.eye(problem.n_modes)
    assert tau_eps(lab, eps) == oracle_tau(lab.limit_problem, problem, E)
    far = lab.problem_at(max(lab.eps_grid))
    assert lab.kappa == kappa(lab.limit_problem, far) \
        == oracle_kappa(E, E.T, lab.limit_problem, far)
    assert kappa(lab.limit_problem, problem) == oracle_kappa(E, E.T, lab.limit_problem, problem)
    assert rho_of(lab, eps) == oracle_rho(F, lab.limit_F, E, lab.rng("study"))
    assert beta_eps(lab, eps, limit.graph) == oracle_beta(F, lab.limit_F, limit.graph, E)
    assert sup_distance(member.graph, limit.graph) \
        == oracle_sup_distance(member.graph, limit.graph, E)
    assert c1_distance(member.field, limit.field) \
        == oracle_c1_distance(member.field, limit.field, E)
    thetas = (lab.theta, lab.theta_star)
    got = holder_seminorm_of_difference(member.field, limit.field, thetas, rng=lab.rng("study"))
    assert got == oracle_holder(member.field, limit.field, E, thetas, lab.rng("study"))
    sizes = {"beta": 1.0, "tau_log": 1.0, "rho": 1.0, "d_c1_deriv": 1.0}
    comp = theta_comparison(lab, limit, member, sizes, xi_samples=8, rng=lab.rng("study"))
    want = oracle_theta_measured(lab, limit, member, E, 8, lab.rng("study"))
    assert np.array_equal(comp.measured, want)
    if lab.limit_problem.alpha > 0:
        assert lab.kappa > 1.0


def constant_graph(problem, axes, c):
    vals = np.zeros(tuple(ax.size for ax in axes) + (problem.n_modes - problem.m,))
    vals[..., 0] = c
    return GridField(problem, axes, vals, None)


def test_sup_distance_constant_offset(lab, limit):
    problem = lab.limit_problem
    axes = limit.graph.axes
    phi0 = GridField.zeros(problem, axes, (problem.n_modes - problem.m,))
    phi_eps = constant_graph(problem, axes, 0.3)
    assert sup_distance(phi_eps, phi0) == pytest.approx(0.3, rel=1e-14)
    assert sup_distance(phi0, phi0) == 0.0


def test_c1_distance_constant_field(lab, limit):
    problem = lab.limit_problem
    axes = limit.graph.axes
    f0 = GridField.zeros(problem, axes, (problem.n_modes - problem.m, problem.m))
    vals = np.zeros(f0.values.shape)
    vals[..., 0, 0] = 0.2
    fe = f0.with_values(vals)
    assert c1_distance(fe, f0) == pytest.approx(0.2, rel=1e-14)
    assert c1_distance(f0, f0) == 0.0


def test_derivative_mismatch_in_one_space(lab, limit, member):
    z = limit.graph.nodes()[:5]
    delta = derivative_mismatch(member.field, limit.field, z)
    m = lab.limit_problem.m
    assert delta.shape == (5, 32, m)
    # slow rows cancel, fast rows compare the fields directly
    assert np.all(delta[:, :m, :] == 0.0)
    want = limit.field.eval(z) - member.field.eval(z)
    assert np.allclose(delta[:, m:, :], want, atol=1e-15)


def test_self_distance_is_zero(lab, limit):
    assert sup_distance(limit.graph, limit.graph) == 0.0
    assert c1_distance(limit.field, limit.field) == 0.0
    semis, pair_sup = holder_seminorm_of_difference(
        limit.field, limit.field, (lab.theta,), rng=np.random.default_rng(0)
    )
    assert semis[lab.theta] == 0.0 and pair_sup == 0.0


def test_node_maxima_read_the_member_grid():
    # the member's one nonzero node, 0.45, lies inside a limit cell, so the
    # limit grid and its midpoints miss it: they read 0.888...
    problem = SpectralProblem(eigenvalues=np.array([1.0, 4.0]), m=1, alpha=0.0)
    limit_axes, member_axes = (np.linspace(-1, 1, 5),), (np.linspace(-0.9, 0.9, 5),)
    bump = np.zeros((5, 1, 1))
    bump[3] = 1.0
    phi0 = GridField.zeros(problem, limit_axes, (1,))
    phi_eps = GridField(problem, member_axes, bump[..., 0])
    field0 = GridField.zeros(problem, limit_axes, (1, 1))
    field_eps = GridField(problem, member_axes, bump)
    assert sup_distance(phi_eps, phi0) == 1.0
    assert c1_distance(field_eps, field0) == 1.0


def dense_distances(limit, member, refine=8):
    """The norms of `sup_distance` and `c1_distance`, sampled on the limit
    grid refined by an integer factor."""
    z = _refined_grid(limit.graph, refine)
    gaps = alpha_norm_batch(member.problem,
                            _lift_full(limit.graph, z) - _lift_full(member.graph, z))
    delta = derivative_mismatch(member.field, limit.field, z)
    slow = limit.problem.alpha_weights[: limit.problem.m]
    return gaps.max(), weighted_opnorms(delta, member.problem.alpha_weights, slow).max()


def assert_node_maxima_dominate(limit, member):
    sup, c1 = dense_distances(limit, member)
    assert sup > 0.0 and c1 > 0.0
    assert sup_distance(member.graph, limit.graph) >= sup * (1.0 - 1e-14)
    assert c1_distance(member.field, limit.field) >= c1 * (1.0 - 1e-14)


def test_node_maxima_dominate_a_dense_sample(solved_family):
    _, limit, member = solved_family
    assert_node_maxima_dominate(limit, member)


def test_node_maxima_dominate_a_dense_sample_on_two_slow_modes():
    lab = build_lab(config_from_dict({"spectral": {"m": 2}, "solver": {"grid_nodes": 11}}))
    assert_node_maxima_dominate(*solve_members(lab, (0.0, 0.1)))


def test_log_fit_needs_two_distinct_x():
    # one eps given twice leaves a single point of the log-log line
    assert _log_fit([0.1, 0.1], [1e-3, 1e-3]) == (None, None)
    assert _log_fit([0.0, 0.1], [1e-3, 1e-3]) == (None, None)
    c, slope = _log_fit([0.1, 0.1, 0.01], [1e-2, 1e-2, 1e-3])
    assert c == pytest.approx(0.1, rel=1e-12) and slope == pytest.approx(1.0, rel=1e-12)


def test_c1theta_distance_components(lab, limit, member):
    res = c1theta_distance(
        member.graph, limit.graph, member.field, limit.field,
        lab.theta, lab.theta_star, rng=lab.rng("study"),
    )
    assert res.value == pytest.approx(res.sup_part + res.deriv_part + res.seminorm)
    assert res.sup_part > 0 and res.deriv_part > 0 and res.seminorm >= 0
    assert res.interpolation_ok
    ratio = lab.theta / lab.theta_star
    want = res.seminorm_star**ratio * (2 * res.deriv_part) ** (1 - ratio)
    assert res.interpolation_bound == pytest.approx(want, rel=1e-12)
    with pytest.raises(ConfigError):
        c1theta_distance(
            member.graph, limit.graph, member.field, limit.field,
            lab.theta_star, lab.theta_star,
        )


def test_seminorm_estimator_is_continuous_in_theta(lab, limit, member):
    semis, _ = holder_seminorm_of_difference(
        member.field, limit.field, (1e-3, 2e-3),
        rng=np.random.default_rng(3),
    )
    lo, hi = semis[1e-3], semis[2e-3]
    assert lo > 0
    assert abs(hi - lo) <= 0.01 * lo


def test_rate_study_degenerate_grid(lab):
    report = rate_study(lab, eps_grid=(0.0,))
    row = report.rows[0]
    assert row.d_sup == 0.0 and row.d_c1 == 0.0 and row.d_c1theta == 0.0
    assert row.tau == 0.0 and row.rho == 0.0 and row.beta == 0.0
    assert report.all_pass and report.interpolation_ok


def test_rate_study_short_grid(lab, tmp_path):
    report = rate_study(lab, eps_grid=(0.01, 0.003))
    assert [r.eps for r in report.rows] == [0.01, 0.003]
    assert report.rows[0].d_sup > report.rows[1].d_sup > 0
    assert report.all_pass and report.interpolation_ok
    assert set(report.fits) >= {"sup_vs_bound", "sup_vs_eps", "c1theta_vs_bound"}
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    report.write_csv(a)
    report.write_csv(b)
    assert a.read_bytes() == b.read_bytes()
    report.write_json(tmp_path / "r.json")
    assert (tmp_path / "r.json").stat().st_size > 0


def test_rate_study_rejects_negative_eps(lab):
    with pytest.raises(ConfigError):
        rate_study(lab, eps_grid=(0.01, -0.5))


def test_fitted_constant_stable_under_grid_shift(lab):
    base = rate_study(lab, eps_grid=(1e-2, 1e-3))
    shifted = rate_study(lab, eps_grid=(10**-2.5, 10**-3.5))
    c0 = base.fitted_C_sup
    c1 = shifted.fitted_C_sup
    assert c0 > 0 and c1 > 0
    assert 0.5 <= c1 / c0 <= 2.0


def test_theta_comparison_envelope(lab, limit, member):
    eps = member.eps
    sizes = {
        "beta": beta_eps(lab, eps, limit.graph),
        "tau_log": tau_eps(lab, eps) * max(1.0, -np.log(tau_eps(lab, eps))),
        "rho": rho_of(lab, eps),
        "d_c1_deriv": c1_distance(member.field, limit.field),
    }
    comp = theta_comparison(lab, limit, member, sizes, xi_samples=20,
                            rng=lab.rng("study"))
    assert comp.violations == 0
    assert comp.fitted_C > 0
    assert comp.measured.shape == (20, comp.times.size)
    assert np.all(np.diff(comp.envelope) > 0)  # envelope grows backward in time


def test_two_lane_collect_march_equals_each_lane_alone(lab, limit, member):
    # theta_comparison's settings: one horizon and one step for both members
    h = 0.05 / max(slow_flow_rate(limit.problem, limit.F),
                   slow_flow_rate(member.problem, member.F))
    t_final = 2.0 / lab.limit_problem.lambda_m
    settings = replace(lab.solve_settings, t_horizon=t_final, h=h)
    half = np.array([ax[-1] for ax in limit.graph.axes])
    z = lab.rng("study").uniform(-0.5 * half, 0.5 * half, size=(12, lab.limit_problem.m))

    def lane(mem, st=settings):
        return lyapunov_perron._lane(mem.problem, mem.F, mem.graph, mem.field, st)

    lanes = [lane(limit), lane(member)]
    s, both = lyapunov_perron._march([(ln, z) for ln in lanes], fiber=True, collect=True)
    for k, mem in enumerate((limit, member)):
        s_alone, alone = integrate_Theta(mem.problem, mem.F, mem.graph, mem.field, z, settings)
        assert np.array_equal(s, s_alone)
        assert np.array_equal(both[12 * k : 12 * (k + 1)], alone)
    # lanes on different time grids have no one trajectory array: fewer
    # steps, or as many steps of another size
    fewer = lane(member, replace(settings, t_horizon=0.5 * t_final))
    shorter = lane(member, replace(settings, t_horizon=t_final * (1.0 - 1e-9)))
    assert fewer.steps < lanes[0].steps
    assert shorter.steps == lanes[0].steps and shorter.h != lanes[0].h
    for other in (fewer, shorter):
        with pytest.raises(DimensionError, match="one time grid"):
            lyapunov_perron._march([(lanes[0], z), (other, z)], fiber=True, collect=True)


def assert_same_solve(stacked, alone):
    for got, want in ((stacked.manifold, alone.manifold),
                      (stacked.derivative, alone.derivative)):
        assert np.array_equal(got.diffs, want.diffs)
        assert np.array_equal(got.ratios, want.ratios)
        assert got.iterations == want.iterations
    assert np.array_equal(stacked.graph.values, alone.graph.values)
    assert np.array_equal(stacked.field.values, alone.field.values)


def test_stacked_members_equal_one_member_solves(lab, limit, member):
    alone = [limit, member, solve_member(lab, 1e-4)]
    stacked = solve_members(lab, (0.0, 0.1, 1e-4))
    assert [s.eps for s in stacked] == [0.0, 0.1, 1e-4]
    for got, want in zip(stacked, alone):
        assert_same_solve(got, want)


@pytest.mark.parametrize(
    "payload, eps, differ",
    [
        # members converge after different iteration counts
        ({"family": {"eps_grid": [1.0, 0.3, 1e-4]}}, (0.0, 1.0, 0.3, 1e-4), "iterations"),
        # alpha > 0 scales each member's grid by its own eigenvalues
        ({"spectral": {"alpha": 0.25}, "nonlinearity": {"LF": 0.05},
          "solver": {"grid_nodes": 51}}, (0.0, 0.1), "grids"),
        ({"spectral": {"m": 2}, "solver": {"grid_nodes": 11}}, (0.0, 0.1), None),
    ],
)
def test_stacked_members_equal_one_member_solves_across_configs(payload, eps, differ):
    lab = build_lab(config_from_dict(payload))
    stacked = solve_members(lab, eps)
    for got in stacked:
        assert_same_solve(got, solve_member(lab, got.eps))
    if differ == "iterations":
        assert len({s.manifold.iterations for s in stacked}) > 1
    if differ == "grids":
        assert not np.array_equal(stacked[0].graph.axes[0], stacked[1].graph.axes[0])


_SOLVE_DIGEST = """
import hashlib
from imlab.config import build_lab, config_from_dict
from imlab.perturbation_harness import solve_members
lab = build_lab(config_from_dict({"spectral": {"alpha": 0.25}, "nonlinearity": {"LF": 0.05},
                                  "solver": {"grid_nodes": 51}}))
digest = hashlib.sha256()
for solved in solve_members(lab, (0.0, 0.1)):
    digest.update(solved.graph.values.tobytes())
    digest.update(solved.field.values.tobytes())
print(digest.hexdigest())
"""


def test_stacked_solve_bits_do_not_depend_on_the_blas_thread_count():
    # the members' blocks differ in row count here (alpha > 0), so the
    # stacked phase products hold blocks of several counts; the bytes of
    # the solved graphs and fields must not change with the BLAS threads
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _SOLVE_DIGEST], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


def test_stacked_members_fail_as_one_member_solves(lab):
    short = replace(lab.solve_settings, max_iter=2)
    with pytest.raises(ConvergenceError) as alone:
        solve_member(lab, 0.0, settings=short)
    with pytest.raises(ConvergenceError) as stacked:
        solve_members(lab, (0.0, 0.1), settings=short)
    assert str(stacked.value) == str(alone.value)


def test_member_solves_compute_no_field_certificate(monkeypatch):
    # the Hoelder certificate of a solved field is read by `imlab build`
    # alone, which computes it itself; the solves leave it out
    calls = []
    original = lyapunov_perron.holder_certificate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lyapunov_perron, "holder_certificate", counting)
    lab = build_lab(config_from_dict({"spectral": {"m": 2}, "solver": {"grid_nodes": 11}}))
    solve_members(lab, (0.0, 0.1))
    solve_member(lab, 0.0)
    assert calls == []
