"""Cutoff nonlinearities: geometry, derivatives, certification.

The jacobian oracle is central finite differencing of eval_batch; the
Jacobians are the base map's K leading rows, and the differenced rows past K
must vanish exactly. The bump geometry has exact plateau and vanishing
regions by construction, so those are asserted without tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import direction_sup, eval_one, with_constants
from imlab.errors import CertificationError, ConfigError, DimensionError
from imlab.nonlinearity import (
    JACOBIAN_BLOCK,
    ConstantBase,
    CosineBase,
    CutoffNonlinearity,
    NonlinearityStack,
    PerturbedNonlinearityPair,
    SineBase,
    SumBase,
    certify_constants,
    constant_map,
    cutoff_derivative,
    cutoff_value,
    holder_quotient_of_derivative,
    rho_eps,
    zero_map,
)
from imlab.spectral_core import SpectralProblem, alpha_norm, alpha_norm_batch, identity_pair


def make_problem(n=5, alpha=0.0):
    ev = 2.0 * np.arange(1, n + 1) ** 2
    return SpectralProblem(eigenvalues=ev.astype(float), m=1, alpha=alpha)


def sine_field(problem, seed=3, amp=0.05, k=4):
    rng = np.random.default_rng(seed)
    n = problem.n_modes
    base = SineBase(
        n_modes=n,
        amplitudes=amp * rng.uniform(0.5, 1.0, size=k),
        weights=rng.normal(size=(k, n)),
        phases=rng.uniform(0, 2 * np.pi, size=k),
    )
    return CutoffNonlinearity(problem=problem, base=base, cutoff_radius=1.0)


def test_cutoff_plateau_and_support():
    assert cutoff_value(np.array(0.0), 1.0) == 1.0
    assert cutoff_value(np.array(0.5), 1.0) == 1.0
    assert cutoff_value(np.array(0.75), 1.0) == 0.5
    assert cutoff_value(np.array(1.0), 1.0) == 0.0
    assert cutoff_value(np.array(2.3), 1.0) == 0.0
    rs = np.linspace(0.5, 1.0, 60)
    vals = cutoff_value(rs, 1.0)
    assert np.all(np.diff(vals) <= 0)
    inner = cutoff_value(np.linspace(0.55, 0.95, 40), 1.0)
    assert np.all(np.diff(inner) < 0)  # strictly decreasing away from the flat ends
    assert cutoff_derivative(np.array(0.4), 1.0) == 0.0
    assert cutoff_derivative(np.array(1.1), 1.0) == 0.0


def test_cutoff_derivative_matches_fd():
    rs = np.linspace(0.55, 0.97, 25)
    h = 1e-6
    fd = (cutoff_value(rs + h, 1.0) - cutoff_value(rs - h, 1.0)) / (2 * h)
    exact = cutoff_derivative(rs, 1.0)
    assert np.allclose(exact, fd, atol=1e-7)


def test_base_maps_value_and_scale():
    n = 4
    amps = np.array([0.2, 0.3])
    w = np.ones((2, n))
    sine = SineBase(n_modes=n, amplitudes=amps, weights=w, phases=np.zeros(2))
    assert np.allclose(sine.value(np.zeros(n)), 0.0)
    cos = CosineBase(n_modes=n, amplitudes=amps, weights=w)
    v0 = cos.value(np.zeros(n))[0]
    assert np.allclose(v0[:2], amps) and np.allclose(v0[2:], 0.0)
    assert np.allclose(cos.scaled(2.0).value(np.zeros(n)), 2.0 * v0)
    const = ConstantBase(vector=np.arange(float(n)))
    assert np.allclose(const.rows_at(const.phase(np.ones((1, n)))), 0.0)
    both = SumBase(sine, cos, second_scale=0.5)
    u = np.full((1, n), 0.1)
    assert np.allclose(both.value(u), sine.value(u) + 0.5 * cos.value(u))
    F = CutoffNonlinearity(problem=make_problem(n), base=both, cutoff_radius=None)
    assert np.allclose(F.jacobian_batch(u), sine.rows_at(sine.phase(u))
                       + 0.5 * cos.rows_at(cos.phase(u)))


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_jacobian_matches_finite_differences(alpha):
    problem = make_problem(alpha=alpha)
    F = sine_field(problem)
    rng = np.random.default_rng(5)
    # plateau, annulus, and exterior points all exercise different branches
    pts = []
    for target in (0.3, 0.8, 1.4):
        u = rng.normal(size=problem.n_modes)
        pts.append(u * target / alpha_norm(problem, u))
    pts = np.array(pts)
    jac = F.jacobian_batch(pts)
    k = F.base.rows
    assert jac.shape == (3, k, problem.n_modes) and k < problem.n_modes
    h = 1e-6
    for b, u in enumerate(pts):
        for j in range(problem.n_modes):
            e = np.zeros(problem.n_modes)
            e[j] = h
            fd = (eval_one(F, u + e) - eval_one(F, u - e)) / (2 * h)
            assert np.allclose(jac[b, :, j], fd[:k], atol=5e-8), (b, j)
            assert np.all(fd[k:] == 0.0), (b, j)


def test_eval_vanishes_outside_support():
    problem = make_problem()
    F = sine_field(problem)
    far = np.full(problem.n_modes, 3.0)
    assert np.all(eval_one(F, far) == 0.0)
    assert np.all(F.jacobian_batch(far[None]) == 0.0)


def test_constant_and_zero_fixtures():
    problem = make_problem(2)
    F = constant_map(problem, [0.0, 1.0])
    assert F.analytic_fixture and F.support_radius is None
    assert F.C_F == 1.0
    assert np.allclose(eval_one(F, np.array([5.0, -3.0])), [0.0, 1.0])
    assert np.all(F.jacobian_batch(np.zeros((1, 2))) == 0.0)
    Z = zero_map(problem)
    assert Z.C_F == 0.0 and Z.L_F == 0.0
    assert np.all(Z.eval_batch(np.ones((4, 2))) == 0.0)
    with pytest.raises(ConfigError):
        certify_constants(F, rng=np.random.default_rng(0))


def test_certification_accepts_honest_constants():
    problem = make_problem()
    raw = sine_field(problem)
    rng = np.random.default_rng(9)
    sampled = certify_constants(
        with_constants(raw, C_F=10.0, L_F=10.0, theta_F=1.0, L=100.0),
        sample_count=400,
        rng=rng,
        pair_count=2000,
    )
    honest = with_constants(
        raw,
        C_F=1.1 * sampled["C_F"],
        L_F=1.1 * sampled["L_F"],
        theta_F=1.0,
        L=1.1 * sampled["L"],
    )
    out = certify_constants(honest, sample_count=400, rng=np.random.default_rng(10), pair_count=2000)
    assert out["C_F"] <= honest.C_F and out["L_F"] <= honest.L_F and out["L"] <= honest.L


@pytest.mark.parametrize(
    "lie, phrase",
    [
        (dict(C_F=1e-9, L_F=10.0, L=100.0), "sup |F|"),
        (dict(C_F=10.0, L_F=1e-9, L=100.0), "sup |DF|"),
        (dict(C_F=10.0, L_F=10.0, L=1e-12), "Hoelder quotient"),
    ],
)
def test_certification_rejects_lies_with_witness(lie, phrase):
    problem = make_problem()
    F = with_constants(sine_field(problem), theta_F=1.0, **lie)
    with pytest.raises(CertificationError) as err:
        certify_constants(F, sample_count=400, rng=np.random.default_rng(2), pair_count=2000)
    assert phrase in str(err.value)
    assert err.value.witness is not None


def test_holder_quotient_of_linear_map_is_zero():
    problem = make_problem(3)
    F = CutoffNonlinearity(
        problem=problem, base=ConstantBase(vector=[0.1, 0.0, 0.0]), cutoff_radius=None
    )
    q = holder_quotient_of_derivative(F, 0.5, sample_count=200, rng=np.random.default_rng(1))
    assert q == 0.0
    # the zero map has no Jacobian rows at all
    Z = zero_map(problem)
    assert Z.jacobian_batch(np.zeros((2, 3))).shape == (2, 0, 3)
    assert holder_quotient_of_derivative(Z, 0.5, sample_count=200,
                                         rng=np.random.default_rng(1)) == 0.0


def test_holder_quotient_positive_for_cutoff_field(lab):
    q = holder_quotient_of_derivative(lab.limit_F, lab.theta, sample_count=500,
                                      rng=np.random.default_rng(4))
    assert np.isfinite(q) and q > 0


def test_pair_guards():
    base = ConstantBase(vector=np.zeros(3))
    with pytest.raises(ConfigError):
        PerturbedNonlinearityPair(base0=base, direction=base, eps_max=-0.1)
    with pytest.raises(ConfigError):
        PerturbedNonlinearityPair(base0=base, direction=base, eps_max=0.1, rule="scaling")
    pair = PerturbedNonlinearityPair(base0=base, direction=base, eps_max=0.1)
    problem = make_problem(3)
    consts = dict(C_F=1.0, L_F=1.0, theta_F=1.0, L=1.0)
    with pytest.raises(ConfigError):
        pair.member(problem, 0.2, 1.0, consts)
    limit = pair.member(problem, 0.0, 1.0, consts)
    assert limit.base is base


def test_dimension_mismatch_rejected():
    problem = make_problem(4)
    with pytest.raises(DimensionError):
        CutoffNonlinearity(problem=problem, base=ConstantBase(vector=np.zeros(3)),
                           cutoff_radius=1.0)


def test_rho_eps_exact_for_cosine_direction():
    problem = make_problem(alpha=0.0)
    n = problem.n_modes
    base0 = SineBase(
        n_modes=n,
        amplitudes=np.array([0.05, 0.02]),
        weights=np.random.default_rng(0).normal(size=(2, n)),
        phases=np.array([0.3, 1.1]),
    )
    direction = CosineBase(n_modes=n, amplitudes=np.array([0.3, 0.4]), weights=np.ones((2, n)))
    family = PerturbedNonlinearityPair(base0=base0, direction=direction, eps_max=0.1)
    consts = dict(C_F=1.0, L_F=1.0, theta_F=1.0, L=1.0)
    eps = 0.05
    F_eps = family.member(problem, eps, 1.0, consts)
    F_lim = family.member(problem, 0.0, 1.0, consts)
    pair = identity_pair(problem, problem)
    rho = rho_eps(F_eps, F_lim, pair.E, sample_count=300, rng=np.random.default_rng(6))
    # the mismatch eps * zeta(r) |cos(W u)| |amps| peaks at the origin sample
    assert rho == pytest.approx(eps * direction_sup(family), rel=1e-14)


def _jvp_member(kind, problem, seed):
    """One nonlinearity of each kind the fiber march meets."""
    rng = np.random.default_rng(seed)
    n = problem.n_modes
    consts = dict(C_F=1.0, L_F=1.0, theta_F=1.0, L=1.0)
    sine = SineBase(n, 0.1 * rng.uniform(0.5, 1.0, 3), rng.normal(size=(3, n)),
                    rng.uniform(0, 2 * np.pi, 3))
    if kind == "sine":  # the eps = 0 member
        return CutoffNonlinearity(problem=problem, base=sine, cutoff_radius=1.0)
    if kind == "sum":  # an eps > 0 member
        direction = CosineBase(n, rng.uniform(0.5, 1.0, 2), rng.normal(size=(2, n)))
        family = PerturbedNonlinearityPair(base0=sine, direction=direction, eps_max=0.1)
        return family.member(problem, 0.05, 1.0, consts)
    tail = np.zeros(n)
    tail[-1] = 0.3  # value support in the last row, past the sine rows
    if kind == "sum_tail":
        return CutoffNonlinearity(problem=problem, base=SumBase(sine, ConstantBase(tail)),
                                  cutoff_radius=1.0)
    return CutoffNonlinearity(problem=problem, base=ConstantBase(tail), cutoff_radius=None)


@given(
    kind=st.sampled_from(["sine", "sum", "sum_tail", "fixture"]),
    m=st.sampled_from([1, 2]),
    alpha=st.sampled_from([0.0, 0.5]),
    radii=st.tuples(st.floats(0.0, 0.49), st.floats(0.51, 0.99), st.floats(1.01, 2.0)),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_eval_and_jvp_matches_dense_jacobian(kind, m, alpha, radii, seed):
    ev = 2.0 * np.arange(1, 7) ** 2
    problem = SpectralProblem(eigenvalues=ev.astype(float), m=m, alpha=alpha)
    F = _jvp_member(kind, problem, seed)
    rng = np.random.default_rng(seed + 1)
    # one point on the plateau, one in the annulus, one outside the support
    u = rng.normal(size=(3, problem.n_modes))
    u *= (np.array(radii) / np.array([alpha_norm(problem, x) for x in u]))[:, None]
    V = rng.normal(size=(3, problem.n_modes, m))
    fv, jvp = F.eval_and_jvp(u, V)
    assert np.array_equal(fv, F.eval_batch(u))
    k = F.base.rows
    rows = F.jacobian_batch(u) @ V
    assert rows.shape == (3, k, m)
    scale = max(np.abs(rows).max(initial=0.0), 1e-300)
    assert np.abs(jvp[:, :k] - rows).max(initial=0.0) <= 1e-14 * scale
    assert np.all(jvp[:, k:] == 0.0)


def test_stack_blocks_equal_each_member_alone():
    # one family, four members with their own spectra (alpha > 0 gives each
    # its own norm weights) in blocks of unequal size; the limit member's
    # block has no direction term. OpenBLAS rounds gemm rows differently once
    # a call holds a few hundred rows, so at 1000 rows a single gemm over the
    # stack fails this test; it guards the per-block rule.
    n, m = 32, 1
    rng = np.random.default_rng(11)
    base0 = SineBase(n, 0.1 * rng.uniform(0.5, 1.0, 4), rng.normal(size=(4, n)),
                     rng.uniform(0, 2 * np.pi, 4))
    direction = CosineBase(n, 0.1 * rng.uniform(0.5, 1.0, 4), rng.normal(size=(4, n)))
    family = PerturbedNonlinearityPair(base0=base0, direction=direction, eps_max=0.1)
    consts = dict(C_F=1.0, L_F=1.0, theta_F=1.0, L=1.0)
    ev = 2.0 * np.arange(1, n + 1) ** 2
    members = [
        family.member(SpectralProblem(ev * (1 + eps), m, 0.25), eps, 1.0, consts)
        for eps in (0.1, 0.0, 1e-4, 0.03)
    ]
    counts = (133, 57, 410, 400)
    rows = sum(counts)
    u = rng.normal(size=(rows, n))
    u *= (rng.uniform(0.0, 1.5, rows) / np.linalg.norm(u, axis=1))[:, None]
    V = rng.normal(size=(rows, n, m))
    stack = NonlinearityStack(list(zip(members, counts)))
    vals = stack.eval(u)
    fv, jvp = stack.eval_and_jvp(u, V)
    lo = 0
    for F, count in zip(members, counts):
        block = slice(lo, lo + count)
        want_fv, want_jvp = F.eval_and_jvp(u[block], V[block])
        assert np.array_equal(vals[block], F.eval_batch(u[block]))
        assert np.array_equal(fv[block], want_fv)
        assert np.array_equal(jvp[block], want_jvp)
        lo += count
    # the rows a march still holds after retiring others: the first block
    # keeps one row, each in turn (a one-row product alone goes to gemv and
    # rounds some rows differently), the second none, and the third drops
    # below the row count where OpenBLAS changes its gemm rounding
    for one in range(counts[0]):
        live = np.concatenate([[one], 190 + np.arange(0, 410, 7), 600 + np.arange(400)])
        part = NonlinearityStack(list(zip(members, counts)), live)
        part_fv, part_jvp = part.eval_and_jvp(u[live], V[live])
        assert np.array_equal(part.eval(u[live]), vals[live])
        assert np.array_equal(part_fv, fv[live]) and np.array_equal(part_jvp, jvp[live])


def _radial_batch(problem, radii, seed):
    """Random directions scaled to the given alpha-norm radii."""
    u = np.random.default_rng(seed).normal(size=(len(radii), problem.n_modes))
    return u * (np.asarray(radii) / alpha_norm_batch(problem, u))[:, None]


_LAYOUTS = {
    "mixed": np.linspace(0.0, 1.5, 23),
    "no_annulus": np.concatenate([np.linspace(0.0, 0.45, 12), np.linspace(1.05, 2.0, 11)]),
    "annulus_last": np.concatenate([np.linspace(0.0, 0.45, 21), [0.7, 0.9]]),
}


@pytest.mark.parametrize("kind", ["sine", "sum", "fixture", "zero"])
@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_jacobian_blocks_equal_the_batch(kind, layout):
    # the blocks must carry the bits of one whole-batch call; a one-row
    # block that formed its own phase would go to gemv and round differently
    problem = SpectralProblem(2.0 * np.arange(1.0, 7.0) ** 2, m=1, alpha=0.5)
    F = zero_map(problem) if kind == "zero" else _jvp_member(kind, problem, 7)
    u = _radial_batch(problem, _LAYOUTS[layout], 7)
    annulus = np.flatnonzero(cutoff_derivative(alpha_norm_batch(problem, u), 1.0))
    assert {"mixed": annulus.size > 2, "no_annulus": annulus.size == 0,
            "annulus_last": list(annulus) == [21, 22]}[layout]
    whole = F.jacobian_batch(u)
    rows = len(u)
    for size in (1, 7, rows, rows + 1):
        blocks = list(F.jacobian_blocks(u, size))
        starts = range(0, rows, size)
        assert len(blocks) == len(starts)
        for lo, block in zip(starts, blocks):
            assert np.array_equal(block, whole[lo:lo + size]), (size, lo)


@pytest.mark.parametrize("kind", ["sine", "sum"])
def test_default_blocks_equal_a_large_batch(kind):
    # past a few hundred rows OpenBLAS rounds a gemm row by the call's row
    # count, so blocks of JACOBIAN_BLOCK rows must not run their own gemms
    problem = SpectralProblem(2.0 * np.arange(1.0, 33.0) ** 2, m=1, alpha=0.0)
    F = _jvp_member(kind, problem, 3)
    rows = 2 * JACOBIAN_BLOCK + 37
    u = _radial_batch(problem, np.linspace(0.0, 1.5, rows), 3)
    blocks = list(F.jacobian_blocks(u))
    assert [len(b) for b in blocks] == [JACOBIAN_BLOCK, JACOBIAN_BLOCK, 37]
    assert np.array_equal(np.concatenate(blocks), F.jacobian_batch(u))
