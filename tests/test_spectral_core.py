"""Spectral building blocks: norms, weighted operator norms, perturbation sizes.

Closed-form goldens are computed by hand from two-mode problems; the
perturbation metrics (resolvent deficiency, norm equivalence) have exact
expressions for the multiplicative eigenvalue family used throughout.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import alpha_norm
from imlab.errors import ConfigError, DimensionError
from imlab.spectral_core import (
    SpectralProblem,
    _gram_bounds,
    alpha_norm_batch,
    coord_norm_batch,
    kappa,
    near_max_opnorms,
    norm_equivalence_delta,
    resolvent_deficiency,
    spectrum_from_rule,
    weighted_opnorms,
)


def two_mode(alpha=0.5):
    return SpectralProblem(eigenvalues=np.array([1.0, 4.0]), m=1, alpha=alpha)


def test_spectrum_rules():
    assert np.array_equal(spectrum_from_rule("i^2", 4, 2.0), [2.0, 8.0, 18.0, 32.0])
    assert np.array_equal(spectrum_from_rule("linear", 3, 3.0), [3.0, 6.0, 9.0])
    with pytest.raises(ConfigError):
        spectrum_from_rule("cubic", 4)
    with pytest.raises(ConfigError):
        spectrum_from_rule("i^2", 1)
    with pytest.raises(ConfigError):
        spectrum_from_rule("i^2", 4, scale=0.0)


def test_problem_validation():
    ev = np.array([1.0, 4.0, 9.0])
    with pytest.raises(ConfigError):
        SpectralProblem(eigenvalues=np.array([4.0, 1.0]), m=1, alpha=0.0)
    with pytest.raises(ConfigError):
        SpectralProblem(eigenvalues=np.array([-1.0, 4.0]), m=1, alpha=0.0)
    with pytest.raises(ConfigError):
        SpectralProblem(eigenvalues=ev, m=3, alpha=0.0)
    with pytest.raises(ConfigError):
        SpectralProblem(eigenvalues=ev, m=1, alpha=1.0)
    prob = SpectralProblem(eigenvalues=ev, m=1, alpha=0.5)
    assert prob.lambda_m == 1.0 and prob.lambda_m1 == 4.0
    with pytest.raises(ValueError):
        prob.eigenvalues[0] = 2.0  # frozen view


def test_alpha_norm_golden():
    # weights (1, 2) at alpha = 1/2, so |(3, 4)|_alpha^2 = 9 + 64
    assert alpha_norm(two_mode(), [3.0, 4.0]) == pytest.approx(math.sqrt(73), rel=1e-15)
    assert alpha_norm(two_mode(alpha=0.0), [3.0, 4.0]) == pytest.approx(5.0, rel=1e-15)


def test_coord_norm_golden():
    prob = SpectralProblem(eigenvalues=np.array([1.0, 4.0, 9.0, 16.0]), m=2, alpha=0.5)
    assert coord_norm_batch(prob, [1.0, 2.0]) == pytest.approx(math.sqrt(17), rel=1e-15)
    with pytest.raises(DimensionError):
        coord_norm_batch(prob, [1.0, 2.0, 3.0])


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
    st.floats(-100.0, 100.0),
)
@settings(max_examples=200, deadline=None)
def test_alpha_norm_is_a_norm(u, v, c):
    prob = two_mode()
    u, v = np.array(u), np.array(v)
    slack = 1e-9 * (1 + alpha_norm(prob, u) + alpha_norm(prob, v))
    assert alpha_norm(prob, u + v) <= alpha_norm(prob, u) + alpha_norm(prob, v) + slack
    assert alpha_norm(prob, c * u) == pytest.approx(abs(c) * alpha_norm(prob, u), abs=1e-12, rel=1e-12)


def test_batch_norms_match_scalar():
    prob = two_mode()
    rng = np.random.default_rng(7)
    vs = rng.normal(size=(50, 2))
    got = alpha_norm_batch(prob, vs)
    want = [alpha_norm(prob, v) for v in vs]
    assert np.allclose(got, want, rtol=1e-14)
    ps = rng.normal(size=(50, 1))
    got = coord_norm_batch(prob, ps)
    assert np.allclose(got, np.abs(ps[:, 0]) * prob.alpha_weights[0], rtol=1e-14)


def test_weighted_opnorms_golden_and_stacking():
    # diag(3, -4) weighted to diag(3 * 1 / 2, -4 * 2 / 1)
    mat = np.diag([3.0, -4.0])
    assert weighted_opnorms(mat) == pytest.approx(4.0, rel=1e-15)
    assert weighted_opnorms(mat, row_weights=[1.0, 2.0], col_weights=[2.0, 1.0]) \
        == pytest.approx(8.0, rel=1e-15)
    assert weighted_opnorms(mat, col_weights=[0.5, 8.0]) == pytest.approx(6.0, rel=1e-15)
    # a matrix inside a stack gets the same norm as alone, bit for bit
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(4, 6, 5, 3))
    rows, cols = rng.uniform(0.5, 2.0, 5), rng.uniform(0.5, 2.0, 3)
    got = weighted_opnorms(stack, rows, cols)
    assert got.shape == (4, 6)
    want = [[weighted_opnorms(m, rows, cols) for m in block] for block in stack]
    assert np.array_equal(got, want)


@given(n=st.integers(1, 32), k=st.integers(0, 32), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_weighted_opnorms_of_leading_rows_match_zero_extension(n, k, seed):
    # Jacobians are kept as their K leading rows; their norms must be those
    # of the zero-extended N x N matrices up to rounding, and 0 for K = 0
    k = min(k, n)
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(7, k, n)) * 10.0 ** rng.uniform(-6, 3, size=(7, 1, 1))
    rows, cols = rng.uniform(0.5, 2.0, n), rng.uniform(0.1, 30.0, n)
    dense = np.zeros((7, n, n))
    dense[:, :k] = block
    for row_w, col_w in ((None, cols), (rows, cols)):
        got = weighted_opnorms(block, None if row_w is None else row_w[:k], col_w)
        want = weighted_opnorms(dense, row_w, col_w)
        assert got.shape == want.shape == (7,)
        assert np.all(np.abs(got - want) <= 1e-14 * want)


def _outcome(f):
    """f()'s result, or the type of the LinAlgError it raises."""
    try:
        return f()
    except np.linalg.LinAlgError as err:
        return type(err)


def _stack(kind, count, k, n, rng):
    """A (count, k, n) stack: plain normal, rank one (Frobenius norm equal
    to the operator norm), a few matrices repeated (exact ties), or zeros."""
    if kind == "rank1":
        return rng.normal(size=(count, k, 1)) * rng.normal(size=(count, 1, n))
    if kind == "ties":
        few = rng.normal(size=(3, k, n))
        return few[rng.integers(0, 3, size=count)]
    if kind == "zeros":
        return np.zeros((count, k, n))
    return rng.normal(size=(count, k, n)) * 10.0 ** rng.uniform(-3, 3, size=(count, 1, 1))


@given(kind=st.sampled_from(["normal", "rank1", "ties", "zeros"]),
       count=st.integers(0, 40), k=st.integers(0, 6), n=st.integers(0, 6),
       weighted=st.booleans(), divided=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_near_max_opnorms_keeps_the_max_and_first_argmax(kind, count, k, n, weighted,
                                                          divided, seed):
    rng = np.random.default_rng(seed)
    mats = _stack(kind, count, k, n, rng)
    weights = (rng.uniform(0.5, 2.0, k), rng.uniform(0.1, 30.0, n)) if weighted else ()
    den = rng.uniform(0.1, 10.0, count) if divided else None
    full = weighted_opnorms(mats, *weights)
    bounds = _gram_bounds(mats * weights[0][:, None] / weights[1] if weighted else mats)
    assert np.all(bounds >= full * (1.0 - 1e-12))
    if den is not None:
        full = full / den
    keep, values = near_max_opnorms(mats, *weights, den=den)
    assert np.all(np.diff(keep) > 0)
    assert np.array_equal(values, full[keep])
    if not count:
        assert keep.size == 0
        return
    assert values.max() == full.max()
    assert keep[values.argmax()] == full.argmax()
    # a floor at the maximum keeps it; one above every Frobenius norm keeps
    # nothing
    keep, values = near_max_opnorms(mats, *weights, den=den, floor=full.max())
    assert keep[values.argmax()] == full.argmax() and values.max() == full.max()
    fro = np.sqrt(np.sum((mats * weights[0][:, None] / weights[1] if weighted else mats) ** 2,
                         axis=(1, 2)))
    if den is not None:
        fro = fro / den
    assert near_max_opnorms(mats, *weights, den=den, floor=2.0 * fro.max() + 1.0)[0].size == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_near_max_opnorms_of_a_non_finite_entry_acts_as_the_full_path(bad):
    mats = np.random.default_rng(5).normal(size=(9, 3, 4))
    mats[4, 1, 2] = bad
    full = _outcome(lambda: weighted_opnorms(mats))
    got = _outcome(lambda: near_max_opnorms(mats)[1])
    if isinstance(full, type):
        assert got is full
    else:
        assert np.array_equal(got, full, equal_nan=True)


def scaled(problem, factor):
    return SpectralProblem(
        eigenvalues=problem.eigenvalues * factor, m=problem.m, alpha=problem.alpha
    )


def test_resolvent_deficiency_golden():
    # multiplicative family in one coefficient space: the weighted mismatch
    # is diagonal with entries eps (1+eps)^(alpha-1) lambda_i^(alpha-1)
    for alpha, want in ((0.0, 1.0 / 11.0), (0.5, 0.1 / math.sqrt(1.1))):
        limit = two_mode(alpha)
        got = resolvent_deficiency(limit, scaled(limit, 1.1))
        assert got == pytest.approx(want, rel=1e-13)
    limit = two_mode()
    assert resolvent_deficiency(limit, limit) == 0.0
    bigger = SpectralProblem(eigenvalues=np.array([1.0, 4.0, 9.0]), m=1, alpha=0.5)
    with pytest.raises(DimensionError):
        resolvent_deficiency(limit, bigger)


def test_kappa_golden():
    # the identity between the spaces of a multiplicative family stretches
    # the alpha-weighted norm by (1 + eps)^alpha one way and shrinks it the
    # other; unweighted, and against itself, it is an isometry
    assert kappa(two_mode(0.0), scaled(two_mode(0.0), 1.21)) == 1.0
    assert kappa(two_mode(), two_mode()) == 1.0
    assert kappa(two_mode(), scaled(two_mode(), 1.21)) == pytest.approx(1.1, rel=1e-14)
    assert kappa(two_mode(), scaled(two_mode(), 1 / 1.21)) == pytest.approx(1.1, rel=1e-14)


def test_kappa_bounds_the_identity_between_weighted_spaces():
    # kappa is the larger of the exact norms of the identity from one
    # alpha-weighted coefficient space into the other, so it agrees with the
    # SVD norm of I and bounds the weighted norm ratio of any vector, on a
    # spectrum that grows some modes and shrinks others
    limit = SpectralProblem(eigenvalues=spectrum_from_rule("i^2", 8, 2.0), m=2, alpha=0.5)
    factors = np.array([1.3, 0.7, 1.1, 0.95, 1.2, 0.9, 1.05, 1.0])
    pert = SpectralProblem(eigenvalues=limit.eigenvalues * factors, m=2, alpha=0.5)
    k = kappa(limit, pert)
    assert k == pytest.approx(1 / math.sqrt(0.7), rel=1e-14)
    eye = np.eye(8)
    w0, we = limit.alpha_weights, pert.alpha_weights
    forward = weighted_opnorms(eye, row_weights=we, col_weights=w0)
    backward = weighted_opnorms(eye, row_weights=w0, col_weights=we)
    assert max(1.0, float(forward), float(backward)) == pytest.approx(k, rel=1e-12)
    rng = np.random.default_rng(5)
    v = rng.normal(size=(1000, 8))
    ratio = alpha_norm_batch(pert, v) / alpha_norm_batch(limit, v)
    assert np.all(ratio <= k * (1 + 1e-14))
    assert np.all(ratio >= (1 - 1e-14) / k)


def test_norm_equivalence_golden():
    limit = two_mode(alpha=0.5)
    pert = scaled(limit, 1.21)
    assert norm_equivalence_delta(limit, pert) == pytest.approx(0.1, rel=1e-12)
    assert norm_equivalence_delta(limit, limit) == 0.0
    # shrinking eigenvalues erode from below instead
    shrunk = scaled(limit, 1.0 / 1.21)
    assert norm_equivalence_delta(limit, shrunk) == pytest.approx(1 - 1 / 1.1, rel=1e-12)


def test_norm_equivalence_bounds_coord_norms():
    # the delta certificate must dominate the coordinate norm distortion on
    # random slow vectors, the way it is used to compare manifold graphs
    limit = SpectralProblem(eigenvalues=spectrum_from_rule("i^2", 8, 2.0), m=2, alpha=0.5)
    pert = scaled(limit, 1.3)
    delta = norm_equivalence_delta(limit, pert)
    rng = np.random.default_rng(11)
    ps = rng.normal(size=(1000, 2))
    n0 = coord_norm_batch(limit, ps)
    ne = coord_norm_batch(pert, ps)
    ratio = ne / n0
    assert np.all(ratio <= 1 + delta + 1e-12)
    assert np.all(ratio >= 1 - delta - 1e-12)


