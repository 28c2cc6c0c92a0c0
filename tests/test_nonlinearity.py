"""Cutoff nonlinearities: geometry, derivatives, certification.

The jacobian oracle is central finite differencing of eval_batch; the
Jacobians are the base map's K leading rows, and the differenced rows past K
must vanish exactly. The bump geometry has exact plateau and vanishing
regions by construction, so those are asserted without tolerance.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    alpha_norm,
    atom_rows,
    base_value,
    cutoff_derivative,
    direction_sup,
    eval_one,
    with_constants,
)
from imlab.errors import CertificationError, ConfigError, DimensionError
from imlab.nonlinearity import (
    JACOBIAN_BLOCK,
    PHASE_CHUNK,
    ConstantBase,
    CosineBase,
    CutoffNonlinearity,
    NonlinearityStack,
    PerturbedNonlinearityPair,
    SineBase,
    SumBase,
    _ball_samples,
    _max_opnorm,
    certify_constants,
    chunked_phase,
    constant_map,
    cutoff_and_slope,
    cutoff_value,
    holder_quotient_of_derivative,
    pad_rows,
    rho_eps,
    zero_map,
)
from imlab.spectral_core import (
    SpectralProblem,
    alpha_norm_batch,
    weighted_opnorms,
)


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


def _two_pass_bump(r, radius):
    """The cutoff value and derivative formed apart, each with its own
    scaling and masked bumps: the definitions the one-pass
    `cutoff_and_slope` replaces."""
    def f(x, prime=False):
        out = np.zeros_like(x)
        pos = x > 1e-12
        out[pos] = np.exp(-1.0 / x[pos]) / (x[pos] ** 2 if prime else 1.0)
        return out

    half = radius / 2.0
    s = np.clip((r - radius / 2.0) / (radius / 2.0), 0.0, 1.0)
    value = f(1.0 - s) / (f(1.0 - s) + f(s) + 1e-300)
    s = (r - half) / half
    inside = (s > 0.0) & (s < 1.0)
    sc = s[inside]
    fa, fb, dfa, dfb = f(1.0 - sc), f(sc), f(1.0 - sc, True), f(sc, True)
    slope = np.zeros_like(s)
    slope[inside] = -(dfa * fb + fa * dfb) / (fa + fb) ** 2 / half
    return value, slope


@pytest.mark.parametrize("radius", [1.0, 0.37, 2.5, 1e-3])
def test_cutoff_and_slope_equal_the_two_pass_bump(radius):
    # a dense ladder through plateau, annulus and exterior, both ends of
    # the annulus to the last bits (1 - s <= 1e-12 and s <= 1e-12, where
    # the bumps flush to zero), and random radii
    half = radius / 2.0
    r = np.concatenate([
        np.linspace(0.0, 2.0 * radius, 100_001),
        radius * (1.0 - np.logspace(-17, -9, 2000)),
        half * (1.0 + np.logspace(-17, -9, 2000)),
        [half, radius, np.nextafter(half, radius), np.nextafter(radius, 0.0), 3.0 * radius],
        np.random.default_rng(5).uniform(0.0, 2.0 * radius, 100_000),
    ])
    value, slope = _two_pass_bump(r, radius)
    zeta, at, dzeta = cutoff_and_slope(r, radius)
    assert np.array_equal(zeta.view(np.int64), value.view(np.int64))
    assert np.array_equal(at, np.flatnonzero(slope))
    assert np.array_equal(dzeta.view(np.int64), slope[at].view(np.int64))
    assert np.array_equal(cutoff_value(r, radius).view(np.int64), value.view(np.int64))
    assert np.array_equal(cutoff_derivative(r, radius), slope)
    # the ladder reaches radii where the derivative flushes to zero inside
    # the annulus, and the one-pass form skips them as the two-pass one did
    s = (r - half) / half
    assert np.any((s > 0.0) & (s < 1.0) & (slope == 0.0))
    assert np.any(1.0 - s[(s > 0.0) & (s < 1.0)] <= 1e-12)


def test_base_maps_value_and_scale():
    n = 4
    amps = np.array([0.2, 0.3])
    w = np.ones((2, n))
    sine = SineBase(n_modes=n, amplitudes=amps, weights=w, phases=np.zeros(2))
    assert np.allclose(base_value(sine, np.zeros(n)), 0.0)
    cos = CosineBase(n_modes=n, amplitudes=amps, weights=w)
    v0 = base_value(cos, np.zeros(n))[0]
    assert np.allclose(v0[:2], amps) and np.allclose(v0[2:], 0.0)
    assert np.allclose(base_value(cos.scaled(2.0), np.zeros(n)), 2.0 * v0)
    const = ConstantBase(vector=np.arange(float(n)))
    assert np.allclose(atom_rows(const, np.ones((1, n))), 0.0)
    both = SumBase(sine, cos, second_scale=0.5)
    u = np.full((1, n), 0.1)
    assert np.allclose(base_value(both, u), base_value(sine, u) + 0.5 * base_value(cos, u))
    F = CutoffNonlinearity(problem=make_problem(n), base=both, cutoff_radius=None)
    assert np.allclose(F.jacobian_batch(u), atom_rows(sine, u) + 0.5 * atom_rows(cos, u))


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
    assert F.analytic_fixture and F.cutoff_radius is None
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


@pytest.mark.parametrize("lowered", ["L_F", "L"])
def test_certification_witness_is_the_full_scan_argmax(lab, lowered):
    # certification screens its samples by their Frobenius norms; a lowered
    # constant must still fail at the sample a full SVD scan picks first
    F = lab.limit_F
    loose = dict(C_F=10.0, L_F=10.0, theta_F=F.theta_F, L=1e6)
    sampled = certify_constants(with_constants(F, **loose))
    with pytest.raises(CertificationError) as err:
        certify_constants(with_constants(F, **dict(loose, **{lowered: 0.99 * sampled[lowered]})))
    rng = np.random.default_rng(0)  # certify_constants' draws, in its order
    w, radius = F.problem.alpha_weights, F.cutoff_radius
    pts = _ball_samples(F.problem, radius, 2000, rng)
    if lowered == "L_F":
        slopes = weighted_opnorms(F.jacobian_batch(pts), col_weights=w)
        assert sampled["L_F"] == slopes.max()
        assert np.array_equal(err.value.witness, pts[slopes.argmax()])
        return
    a = _ball_samples(F.problem, radius, 5000, rng)
    b = a + rng.standard_normal(a.shape) * (0.05 * radius)
    den = alpha_norm_batch(F.problem, a - b) ** F.theta_F + 1e-300
    quot = weighted_opnorms(F.jacobian_batch(a) - F.jacobian_batch(b), col_weights=w) / den
    assert sampled["L"] == quot.max()
    worst = quot.argmax()
    assert np.array_equal(err.value.witness[0], a[worst])
    assert np.array_equal(err.value.witness[1], b[worst])


def test_max_opnorm_over_blocks_keeps_the_first_tie():
    # the largest norm sits in the second and the fourth block and twice in
    # the fourth; the row found is the one np.argmax finds in the whole
    rng = np.random.default_rng(8)
    mats = rng.normal(size=(40, 3, 5))
    mats[[13, 31, 35]] = 4.0 * mats[0]
    w = rng.uniform(0.5, 2.0, 5)
    den = rng.uniform(0.5, 2.0, 40)
    den[[13, 31, 35]] = 1.0
    blocks = [(mats[lo:lo + 10], den[lo:lo + 10]) for lo in range(0, 40, 10)]
    full = weighted_opnorms(mats, col_weights=w) / den
    assert _max_opnorm(blocks, w) == (full.max(), full.argmax()) == (full[13], 13)
    assert _max_opnorm([], w) == (-np.inf, 0)


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
    rho = rho_eps(F_eps, F_lim, sample_count=300, rng=np.random.default_rng(6))
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
    fv, jvp = NonlinearityStack([(F, len(u))]).eval_and_jvp(u, V)
    assert np.array_equal(fv, F.eval_batch(u))
    k = F.base.rows
    rows = F.jacobian_batch(u) @ V
    assert rows.shape == (3, k, m)
    assert np.array_equal(jvp[:, :k], rows)
    assert np.all(jvp[:, k:] == 0.0)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kind", ["sine", "sum"])
def test_jacobian_of_a_large_batch_takes_the_chunked_base_values(kind, m, alpha, seed):
    # 500 rows at N = 32, a third of them on the annulus: the cutoff's slope
    # term takes the unbumped base values there, from the `chunked_phase`
    # of the batch, as `base_value` forms them; bumped values, or a phase
    # from one plain gemm over all 500 rows, would round differently
    problem = SpectralProblem(eigenvalues=2.0 * np.arange(1, 33) ** 2.0, m=m, alpha=alpha)
    F = _jvp_member(kind, problem, seed)
    rng = np.random.default_rng(seed + 1)
    u = rng.normal(size=(500, problem.n_modes))
    radii = rng.permutation(np.concatenate([rng.uniform(0.0, 0.49, 167),
                                            rng.uniform(0.51, 0.99, 167),
                                            rng.uniform(1.01, 2.0, 166)]))
    u *= (radii / alpha_norm_batch(problem, u))[:, None]
    k = F.base.rows
    (atom, _), *rest = F.base.terms()
    want = pad_rows(atom_rows(atom, u), k)
    for atom, scale in rest:
        want += scale * pad_rows(atom_rows(atom, u), k)
    r = alpha_norm_batch(problem, u)
    zeta, at, dzeta = cutoff_and_slope(r, F.cutoff_radius)
    want *= zeta[:, None, None]
    grad = (u[at] * problem.alpha_weights**2) / r[at, None]
    values = base_value(F.base, u)
    want[at] += (dzeta[:, None] * values[at, :k])[:, :, None] * grad[:, None, :]
    assert at.size > 100
    assert np.array_equal(F.jacobian_batch(u), want)
    # the values too take the chunked phase
    assert np.array_equal(F.eval_batch(u), values * cutoff_value(r, F.cutoff_radius)[:, None])


@pytest.mark.parametrize("count", [PHASE_CHUNK, 1, 2, 57, 133, 400])
def test_stacked_phase_product_equals_per_block_products(count):
    # `chunked_phase` forms an atom's phase as one stacked product over
    # chunks of PHASE_CHUNK rows, and its bits rest on numpy running one
    # gemm per chunk there, as a one-chunk call does; a numpy that folded
    # the batch into one gemm over all the rows would round most rows
    # differently (1060 of 1064 at 8 blocks of 133 rows)
    n, k = 32, 4
    rng = np.random.default_rng(count)
    W = rng.normal(size=(k, n))
    for blocks in range(1, 9):
        U3 = rng.normal(size=(blocks, count, n))
        stacked = U3 @ W.T
        for b in range(blocks):
            assert np.array_equal(stacked[b], U3[b] @ W.T), (blocks, b)


@pytest.mark.parametrize("k, n", [(2, 6), (4, 6), (2, 32), (4, 32), (8, 32), (32, 32)])
def test_chunked_phase_of_any_row_subset_equals_the_whole(k, n):
    # OpenBLAS switches gemm kernels between a few hundred rows (K = 4,
    # N = 32: past 300 with scipy-openblas 0.3.31 on x86) and one row
    # (gemv), so a plain product of 1100 rows rounds most rows unlike
    # their product alone; in PHASE_CHUNK-row calls a row's bits depend on
    # no other row. K <= N: a base map writes at most N coefficients.
    rng = np.random.default_rng(10 * k + n)
    atom = SineBase(n, rng.uniform(0.5, 1.0, k), rng.normal(size=(k, n)),
                    rng.uniform(0, 2 * np.pi, k))
    # a padded buffer kept across calls (`work`), grown and shrunk by the
    # row counts, must give the bits of a fresh one
    work = {}
    for rows in (1, 2, 57, PHASE_CHUNK, PHASE_CHUNK + 1, 300, 350, 701, 1100):
        u = rng.normal(size=(rows, n))
        whole, = chunked_phase([atom.phase], u)
        assert whole.shape == (rows, k)
        subsets = [rng.permutation(rows), np.arange(rows)[::-1], [rows - 1],
                   rng.choice(rows, size=(rows + 1) // 2, replace=False),
                   np.sort(rng.choice(rows, size=min(rows, 3), replace=False))]
        for idx in subsets:
            assert np.array_equal(chunked_phase([atom.phase], u[idx])[0], whole[idx]), \
                (rows, len(idx))
            assert np.array_equal(chunked_phase([atom.phase], u[idx], work)[0], whole[idx]), \
                (rows, len(idx))


def _sampled_member(case, lab):
    """A member of each phase shape the sampling calls meet: the default
    family's eps_max member (K = 4 sine plus cosine), families of K = 8 and
    K = 32 atoms at N = 32 with two slow modes, and the 0-column phases of
    the closed-form fixtures."""
    if case == "default":
        return lab.nonlinearity_at(lab.family.eps_max)
    problem = SpectralProblem(eigenvalues=2.0 * np.arange(1, 33) ** 2.0, m=2, alpha=0.25)
    if case == "constant":
        return constant_map(problem, np.linspace(0.0, 1.0, 32))
    if case == "zero":
        return zero_map(problem)
    k = int(case[1:])
    rng = np.random.default_rng(k)
    sine = SineBase(32, rng.uniform(0.5, 1.0, k), rng.normal(size=(k, 32)),
                    rng.uniform(0, 2 * np.pi, k))
    direction = CosineBase(32, rng.uniform(0.5, 1.0, k), rng.normal(size=(k, 32)))
    family = PerturbedNonlinearityPair(base0=sine, direction=direction, eps_max=0.1)
    return family.member(problem, 0.1, 1.0, {})


@example(case="default", rows=5009, seed=0)
@example(case="default", rows=PHASE_CHUNK * 8 + 1, seed=0)
@example(case="K32", rows=2009, seed=0)
@given(case=st.sampled_from(["default", "K8", "K32", "constant", "zero"]),
       rows=st.integers(1, 6000), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_sampling_calls_equal_the_march_evaluator(lab, case, rows, seed):
    # the sampling calls take the march's one phase rule: they are
    # one-member `NonlinearityStack` calls, so a point takes the bits a
    # march gives it; a phase formed in one gemm over the whole batch
    # rounds rows differently past a few hundred rows. The points fill the
    # plateau, the annulus and the exterior.
    F = _sampled_member(case, lab)
    rng = np.random.default_rng(seed)
    u = _radial_batch(F.problem, rng.uniform(0.0, 1.5, rows) * (F.cutoff_radius or 1.0), seed)
    stack = NonlinearityStack([(F, rows)])
    assert np.array_equal(F.eval_batch(u), stack.eval(u)), (case, rows)
    assert np.array_equal(F.jacobian_batch(u), stack.jacobian_rows(u)[1]), (case, rows)


@pytest.mark.parametrize("case", ["default", "K8", "K32", "constant", "zero"])
def test_sampling_calls_take_an_empty_batch(lab, case):
    F = _sampled_member(case, lab)
    u = np.zeros((0, 32))
    for atom, _ in F.base.terms():
        width = atom.phase(np.zeros((1, 32))).shape[1]
        phase, = chunked_phase([atom.phase], u)
        assert phase.shape == (0, width)
    assert F.eval_batch(u).shape == (0, 32)
    assert F.jacobian_batch(u).shape == (0, F.base.rows, 32)
    assert list(F.jacobian_blocks(u)) == []


@pytest.mark.parametrize("counts", [(133, 57, 410, 400), (133, 133, 57, 133, 400)],
                         ids=["distinct_counts", "repeated_counts"])
def test_stack_blocks_equal_each_member_alone(counts):
    # one family, members with their own spectra (alpha > 0 gives each its
    # own norm weights) in blocks of unequal size; the limit member's block,
    # the second, has no direction term. OpenBLAS rounds gemm rows
    # differently once a call holds a few hundred rows, so at 1000 rows a
    # single gemm over the stack fails this test; it guards the rule that
    # every phase gemm holds PHASE_CHUNK rows. The limit's rows take the
    # direction term with eps = 0.0, which must leave their values alone.
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
        for eps in (0.1, 0.0, 1e-4, 0.03, 0.05)[: len(counts)]
    ]
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
        alone = NonlinearityStack([(F, count)])
        want_fv, want_jvp = alone.eval_and_jvp(u[block], V[block])
        assert np.array_equal(vals[block], alone.eval(u[block]))
        assert np.array_equal(fv[block], want_fv)
        assert np.array_equal(jvp[block], want_jvp)
        lo += count
    # a march retires rows from the stack it built, in steps; after each
    # step the rows it still takes must equal the whole stack's. Below, the
    # first block keeps one row at the end, each in turn (a one-row product
    # alone goes to gemv and rounds some rows differently), the second
    # retires whole, so its eps rows go, and the third drops rows (in
    # the first layout below the row count where OpenBLAS changes its gemm
    # rounding)
    edges = np.cumsum((0,) + counts)
    first, third = (np.arange(edges[i], edges[i + 1]) for i in (0, 2))
    rest = np.arange(edges[3], rows)
    for one in range(counts[0]):
        steps = [
            np.concatenate([first[(first % 3 == one % 3) | (first == one)],
                            np.arange(edges[1], edges[2]), third[::7], rest]),
            np.concatenate([[one], third[::7], rest]),
            np.concatenate([[one], third[::14], rest[::2]]),
        ]
        part = NonlinearityStack(list(zip(members, counts)))
        taken = np.arange(rows)
        for live in steps:
            keep = np.isin(taken, live)
            part.retire(keep)
            taken = taken[keep]
            assert np.array_equal(taken, live)
            part_fv, part_jvp = part.eval_and_jvp(u[live], V[live])
            assert np.array_equal(part.eval(u[live]), vals[live])
            assert np.array_equal(part_fv, fv[live]) and np.array_equal(part_jvp, jvp[live])


def test_stack_rejects_members_that_do_not_share_their_terms():
    # every stacked row takes every term by position, so members must share
    # their base-map atoms there, as one family's members do
    n = 6
    rng = np.random.default_rng(5)
    bases = [SineBase(n, rng.uniform(0.5, 1.0, 2), rng.normal(size=(2, n)),
                      rng.uniform(0, 2 * np.pi, 2)) for _ in range(2)]
    consts = dict(C_F=1.0, L_F=1.0, theta_F=1.0, L=1.0)
    members = [CutoffNonlinearity(problem=make_problem(n), base=base, cutoff_radius=1.0, **consts)
               for base in bases]
    with pytest.raises(DimensionError):
        NonlinearityStack([(members[0], 3), (members[1], 4)])
    direction = CosineBase(n, rng.uniform(0.5, 1.0, 2), rng.normal(size=(2, n)))
    summed = [CutoffNonlinearity(problem=make_problem(n), base=SumBase(base, direction, 0.1),
                                 cutoff_radius=1.0, **consts) for base in bases]
    with pytest.raises(DimensionError):
        NonlinearityStack([(summed[0], 3), (members[1], 4)])
    NonlinearityStack([(summed[0], 3), (members[0], 4)])


def _leading_columns_case(k0, k1, m, c, seed, n=32):
    """A stacked limit and eps member pair of a K = k0 sine family with a
    k1-row cosine direction, and rows u (one plateau, two annulus and one
    outside row per member) and tangents V (rows, N, m) that vanish past
    their leading c columns."""
    rng = np.random.default_rng(seed)
    base0 = SineBase(n, 0.1 * rng.uniform(0.5, 1.0, k0), rng.normal(size=(k0, n)),
                     rng.uniform(0, 2 * np.pi, k0))
    direction = CosineBase(n, 0.1 * rng.uniform(0.5, 1.0, k1), rng.normal(size=(k1, n)))
    family = PerturbedNonlinearityPair(base0=base0, direction=direction, eps_max=0.1)
    problem = SpectralProblem(2.0 * np.arange(1, n + 1) ** 2.0, m, 0.25)
    members = [family.member(problem, eps, 1.0, {}) for eps in (0.0, 0.05)]
    radii = np.tile([0.3, 0.6, 0.95, 1.4], 2)
    u = np.zeros((radii.size, n))
    u[:, :c] = rng.normal(size=(radii.size, c))
    u *= (radii / alpha_norm_batch(problem, u))[:, None]
    V = np.zeros((radii.size, n, m))
    V[:, :c] = rng.normal(size=(radii.size, c, m))
    return [(F, 4) for F in members], u, V


@given(k0=st.integers(1, 8), k1=st.integers(1, 8), m=st.sampled_from([1, 2]),
       c=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_jvp_over_leading_columns_equals_the_full_width(k0, k1, m, c, seed):
    # where u and V vanish past c, the rows formed over the leading c
    # columns and contracted zero-padded at full width give the full
    # evaluation's bits (np.array_equal lets an exact zero change its sign)
    c = max(c, m + 1)
    blocks, u, V = _leading_columns_case(k0, k1, m, c, seed)
    stack = NonlinearityStack(blocks)
    _, at, _ = cutoff_and_slope(stack._radius(u), stack.radius)
    assert at.size == 4  # two annulus rows per member
    fv, jvp = stack.eval_and_jvp(u, V, columns=c)
    want_fv, want_jvp = NonlinearityStack(blocks).eval_and_jvp(u, V)
    assert np.array_equal(fv, want_fv)
    assert np.array_equal(jvp, want_jvp), (k0, k1, m, c)


def test_one_stack_across_column_counts_equals_fresh_stacks():
    # a stack keeps one zero-tailed buffer per column count: a call with
    # fewer columns than the last must not apply the last call's tail. With
    # u and V dense past c, columns=c applies DF(u)'s leading c columns only,
    # so a stale tail would show; the bits are compared, signs of zeros too
    blocks, u, V = _leading_columns_case(4, 4, 1, 32, 5)
    stack = NonlinearityStack(blocks)
    keep = np.array([True, False, True, True, False, True, True, False])

    def fresh(retired):
        other = NonlinearityStack(blocks)
        if retired:
            other.retire(keep)
        return other

    for retired in (False, True):  # the buffers then serve fewer rows
        if retired:
            stack.retire(keep)
            u, V = u[keep], V[keep]
        for c in (32, 4, 2, 4, 32, 2):
            fv, jvp = stack.eval_and_jvp(u, V, columns=c)
            want_fv, want_jvp = fresh(retired).eval_and_jvp(u, V, columns=c)
            assert fv.tobytes() == want_fv.tobytes(), (c, retired)
            assert jvp.tobytes() == want_jvp.tobytes(), (c, retired)
            rows = fresh(retired).jacobian_rows(u)[1]
            assert np.allclose(jvp[:, :4], rows[:, :, :c] @ V[:, :c], rtol=1e-13, atol=1e-15)


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
    # block forms its phase in a zero-padded PHASE_CHUNK-row call, where a
    # one-row product would go to gemv and round differently
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
    # OpenBLAS rounds a gemm row by the call's row count, so the blocks of
    # JACOBIAN_BLOCK rows and the whole batch must both form their phases
    # in calls of PHASE_CHUNK rows
    problem = SpectralProblem(2.0 * np.arange(1.0, 33.0) ** 2, m=1, alpha=0.0)
    F = _jvp_member(kind, problem, 3)
    rows = 2 * JACOBIAN_BLOCK + 37
    u = _radial_batch(problem, np.linspace(0.0, 1.5, rows), 3)
    blocks = list(F.jacobian_blocks(u))
    assert [len(b) for b in blocks] == [JACOBIAN_BLOCK, JACOBIAN_BLOCK, 37]
    assert np.array_equal(np.concatenate(blocks), F.jacobian_batch(u))
