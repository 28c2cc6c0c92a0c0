"""Diagonal spectral model problems: norms, perturbation sizes.

A model problem is a positive diagonal operator given by its eigenvalue
sequence, a slow-mode count m, and a fractional power alpha. Vectors are
plain numpy arrays of eigenbasis coefficients. Every operator norm between
weighted spaces reduces to the largest singular value of a diagonally
reweighted matrix; `weighted_opnorms` computes it exactly, for one matrix
or a stack, and is the package's only SVD.

Most callers read only the largest norm of a stack, or where it sits.
`near_max_opnorms` screens such a stack by two upper bounds of sigma_max
(Golub & Van Loan, Matrix Computations, 2.3): the Frobenius norm |M|_F, and
the square root of the largest absolute row sum of the smaller Gram matrix
M M^T or M^T M, which bounds its largest eigenvalue sigma_max^2. One SVD of
the matrix with the largest Frobenius norm gives a lower bound for the
maximum. Only the matrices whose Frobenius bound, and then whose Gram bound,
reach within `SCREEN_MARGIN` of it go through `weighted_opnorms`. The screen
is exact, not an estimate:

- LAPACK runs once per matrix, so a matrix's norm does not depend on the
  stack it sits in, and the values returned are the stack's own;
- the SVD and the Frobenius norm are accurate to about 1e-13 relative;
  the Gram bound's rounding, relative to sigma_max^2, is at most about the
  unit roundoff times the long side times the short side to the power 1.5
  (below 1e-13 for the (4, 32) Jacobian blocks, 4e-9 at a thousand on a
  side);
  so every matrix whose norm is within rounding of the maximum, or above
  the caller's floor, clears a 1e-8 screen;
- the candidates keep their order, so the first of tied maxima is the one
  np.argmax picks from the whole stack.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError

#: Rows per block of `alpha_norm_batch`.
NORM_BLOCK = 256

#: Relative margin of the screen in `near_max_opnorms`; it must stay far
#: wider than the rounding of an SVD or of the screen's bounds.
SCREEN_MARGIN = 1e-8


def _readonly(a):
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SpectralProblem:
    """Eigenvalues (ascending, positive), slow-mode count m, exponent alpha."""

    eigenvalues: np.ndarray
    m: int
    alpha: float = 0.0

    def __post_init__(self):
        ev = _readonly(self.eigenvalues)
        object.__setattr__(self, "eigenvalues", ev)
        if ev.ndim != 1 or ev.size < 2:
            raise ConfigError("need a 1-d eigenvalue sequence with at least two modes")
        if not np.all(ev > 0):
            raise ConfigError("eigenvalues must be positive")
        if not np.all(np.diff(ev) >= 0):
            raise ConfigError("eigenvalues must be ascending")
        if not 1 <= self.m < ev.size:
            raise ConfigError(f"m={self.m} must satisfy 1 <= m < {ev.size}")
        if ev[self.m] <= ev[self.m - 1]:
            raise ConfigError("lambda_m must be strictly below lambda_{m+1}")
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigError(f"alpha={self.alpha} outside [0, 1)")

    @property
    def n_modes(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def lambda_m(self) -> float:
        return float(self.eigenvalues[self.m - 1])

    @property
    def lambda_m1(self) -> float:
        return float(self.eigenvalues[self.m])

    @property
    def alpha_weights(self) -> np.ndarray:
        """Diagonal of the alpha-power weighting, lambda_i**alpha."""
        return self.eigenvalues**self.alpha

    def check_vector(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.n_modes:
            raise DimensionError(
                f"expected {self.n_modes} coefficients, got {v.shape[-1]}"
            )
        return v


def spectrum_from_rule(rule: str, n: int, scale: float = 1.0) -> np.ndarray:
    """Generate an eigenvalue sequence from a named rule."""
    if n < 2:
        raise ConfigError("need at least two modes")
    if scale <= 0:
        raise ConfigError("scale must be positive")
    if rule == "i^2":
        return scale * np.arange(1, n + 1, dtype=float) ** 2
    if rule == "linear":
        return scale * np.arange(1, n + 1, dtype=float)
    raise ConfigError(f"unknown spectrum rule {rule!r}")


def alpha_norm_batch(problem: SpectralProblem, v) -> np.ndarray:
    """Alpha-norms over the last axis, `NORM_BLOCK` rows at a time: each
    row's sum is its own, so the blocks change no bit, and the weighted
    and squared temporaries stay one block in size."""
    v = problem.check_vector(v)
    w = problem.alpha_weights
    if v.ndim < 2:
        return np.linalg.norm(v * w, axis=-1)
    rows = v.reshape(-1, v.shape[-1])
    out = np.empty(rows.shape[0])
    for lo in range(0, rows.shape[0], NORM_BLOCK):
        out[lo : lo + NORM_BLOCK] = np.linalg.norm(rows[lo : lo + NORM_BLOCK] * w, axis=-1)
    return out.reshape(v.shape[:-1])


def row_norms(x) -> np.ndarray:
    """Euclidean norms over the last axis of a real array: the ufuncs that
    `np.linalg.norm(x, axis=-1)` runs for it, so the same bits, without the
    wrapper's per-call argument handling."""
    return np.sqrt(np.add.reduce(x * x, axis=-1))


def coord_norm_batch(problem: SpectralProblem, p) -> np.ndarray:
    """Slow-coordinate norms over the last axis, using the first m
    eigenvalue weights."""
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != problem.m:
        raise DimensionError(f"expected {problem.m} coordinates, got {p.shape[-1]}")
    w = problem.alpha_weights[: problem.m]
    return np.linalg.norm(p * w, axis=-1)


def weighted_opnorms(mats, row_weights=None, col_weights=None) -> np.ndarray:
    """Largest singular values of diag(row_weights) @ M @ diag(1/col_weights)
    for each matrix M over the last two axes of mats: the exact norms of the
    maps M from the col-weighted into the row-weighted Euclidean norm.
    A map into or from a zero-dimensional space has norm 0."""
    mats = np.asarray(mats, dtype=float)
    if 0 in mats.shape[-2:]:
        return np.zeros(mats.shape[:-2])
    if row_weights is not None:
        mats = mats * np.asarray(row_weights)[:, None]
    if col_weights is not None:
        mats = mats / np.asarray(col_weights)[None, :]
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def _gram_bounds(mats) -> np.ndarray:
    """Upper bounds of the largest singular values of a stack (B, r, c):
    the square roots of the largest absolute row sums of the smaller Gram
    matrices, which bound their largest eigenvalues."""
    flip = mats.swapaxes(-1, -2)
    gram = mats @ flip if mats.shape[-2] <= mats.shape[-1] else flip @ mats
    return np.sqrt(np.add.reduce(np.abs(gram), axis=-1).max(axis=-1, initial=0.0))


def near_max_opnorms(mats, row_weights=None, col_weights=None, den=None, floor=-np.inf):
    """The matrices of a stack (B, r, c) that can hold the largest
    `weighted_opnorms` value, or one above floor: (indices, values), the
    indices ascending and the values their exact `weighted_opnorms`, each
    divided by its entry of den (B,) when den is given.

    A matrix is kept when its weighted Frobenius norm and its Gram bound
    (`_gram_bounds`), over den, both reach (1 - `SCREEN_MARGIN`) times the
    larger of floor and the exact value of the matrix with the largest
    Frobenius norm, so the values' max and first argmax are the whole
    stack's, bit for bit, whenever that max reaches floor; an empty result
    means no matrix exceeds floor. A non-finite Frobenius value keeps the
    whole stack, so NaN and LinAlgError come out as from `weighted_opnorms`.
    """
    mats = np.asarray(mats, dtype=float)
    if row_weights is not None:
        mats = mats * np.asarray(row_weights)[:, None]
    if col_weights is not None:
        mats = mats / np.asarray(col_weights)[None, :]
    fro = np.sqrt(np.add.reduce(mats * mats, axis=(-2, -1)))
    if den is not None:
        den = np.asarray(den)
        fro = fro / den
    if not fro.size or not np.all(np.isfinite(fro)):
        keep = np.arange(fro.size)
    else:
        top = int(fro.argmax())
        best = weighted_opnorms(mats[top])
        best = max(floor, float(best if den is None else best / den[top]))
        keep = np.flatnonzero(fro >= (1.0 - SCREEN_MARGIN) * best)
        bound = _gram_bounds(mats[keep])
        if den is not None:
            bound = bound / den[keep]
        keep = keep[bound >= (1.0 - SCREEN_MARGIN) * best]
    values = weighted_opnorms(mats[keep])
    return keep, values if den is None else values / den[keep]


def resolvent_deficiency(limit: SpectralProblem, perturbed: SpectralProblem) -> float:
    """Exact operator norm of inv(A_eps) - inv(A_0) from the plain limit
    norm into the alpha-weighted perturbed norm. Both operators are
    diagonal in the shared eigenbasis, so the norm is the largest weighted
    diagonal gap |w_eps,i (1/lambda_eps,i - 1/lambda_0,i)|, never sampled."""
    if perturbed.n_modes != limit.n_modes:
        raise DimensionError("the two problems have different mode counts")
    gap = 1.0 / perturbed.eigenvalues - 1.0 / limit.eigenvalues
    return float(np.abs(gap * perturbed.alpha_weights).max())


def kappa(limit: SpectralProblem, perturbed: SpectralProblem) -> float:
    """Exact common bound, at least 1, of the norms of the identity between
    the two problems' coefficient spaces, plain and alpha-weighted both
    ways: the extreme ratios of their alpha weights."""
    w0, we = limit.alpha_weights, perturbed.alpha_weights
    return max(1.0, float((we / w0).max()), float((w0 / we).max()))


def norm_equivalence_delta(limit: SpectralProblem, perturbed: SpectralProblem) -> float:
    """Smallest delta with (1-delta)|.|_0 <= |.|_eps <= (1+delta)|.|_0.

    Both coordinate norms weight the same slow coordinates, so the extreme
    ratios of (lambda_i^eps / lambda_i^0)^alpha over i <= m decide delta.
    """
    if limit.m != perturbed.m:
        raise ConfigError("slow-mode counts differ")
    m = limit.m
    ratios = (perturbed.eigenvalues[:m] / limit.eigenvalues[:m]) ** limit.alpha
    return max(float(ratios.max()) - 1.0, 1.0 - float(ratios.min()), 0.0)
