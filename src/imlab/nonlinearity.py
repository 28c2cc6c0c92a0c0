"""Cutoff nonlinearities with certified Lipschitz and Hoelder constants.

The prepared nonlinearity is a smooth base map multiplied by a radial bump
in the alpha-norm: identically 1 on the inner plateau (radius R/2), smooth
in the annulus, identically 0 outside radius R. Constants are certified by
seeded dense sampling with a fixed slack factor; certification failures are
loud and carry a witness.

One evaluator, `NonlinearityStack`, forms F and DF for the whole package:
the values of several family members over one stack of rows, their
Jacobian rows by the product rule through the bump, and Jacobian-vector
products. A base map writes only its first K coefficients, so every
Jacobian here is its (K, N) block of leading rows; the rows past K are
exactly zero and are never formed. A caller whose points and tangents
vanish past some leading columns, as the fiber march's do, asks for those
columns of the rows only (`NonlinearityStack` says why the Jacobian-vector
product still runs at full width). The members share their base-map terms
by position, and every row takes every term (the limit's direction with
eps = 0.0).

Each term's phase `u @ W.T` has one rule, `chunked_phase`: one stacked
product over zero-padded chunks of `PHASE_CHUNK` rows, so every gemm call
holds exactly that many rows. OpenBLAS rounds a gemm row by the kernel the
call picks, which depends on how many rows the call holds; in calls of one
fixed size a row's bits depend on neither its position nor the rows
stacked with it, and no call is a one-row gemv. Everything else the
evaluator does is row-wise. So a march that retires rows equals one that
keeps them, and the sampling calls of `CutoffNonlinearity` (`eval_batch`,
`jacobian_batch`, `jacobian_blocks`) give each point the bits a march
gives it. Certification streams its thousands of sampled Jacobians in
blocks of `JACOBIAN_BLOCK` points, each from its own phase and from its
slice of the batch's radius and bump, so the blocks equal slices of one
whole-batch call and only one block is held at a time. It reads only the
largest norm of each sampled set and the sample that holds it, so the
blocks go through `spectral_core.near_max_opnorms`.

The chunks hold 128 rows because OpenBLAS hands a gemm of more than
2 * 2**18 multiply-adds to a second thread on a 2-core host, which does
little of the work and then spins for CPU time that buys no wall time. A
128-row call holds 128 * N * K multiply-adds: at N = 32 that is 2**14 at
K = 4 and 2**17 at K = 32, the most coefficients a base map writes, so no
phase gemm is threaded.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, ConfigError, DimensionError
from .spectral_core import (
    SpectralProblem,
    alpha_norm_batch,
    near_max_opnorms,
    weighted_row_norms,
)

#: Slack applied on top of sampled maxima when certifying constants.
CERT_SLACK = 1.1

#: Rows per block when certification streams sampled Jacobians.
JACOBIAN_BLOCK = 128

#: Rows per gemm call when an atom's phase is formed (`chunked_phase`).
PHASE_CHUNK = 128


# ---------------------------------------------------------------------------
# Radial bump cutoff


def _bump_f(x):
    """exp(-1/x) continued by 0 for x <= 1e-12 (and NaN): exp(-1/x)
    underflows to +0.0 there, so clamping x to 1e-12 gives the zeros
    without a mask; fmax also sends NaN to the clamp."""
    return np.exp(-1.0 / np.fmax(x, 1e-12))


def _bumps(r, half: float):
    """The pair [1 - s, s] of the scaled radius s = (r - half) / half
    clipped to [0, 1], their bumps [f(1 - s), f(s)], both stacked on a
    leading axis of 2, and the cutoff value at the radii r."""
    pair = np.empty((2,) + r.shape)
    np.minimum(np.maximum((r - half) / half, 0.0), 1.0, out=pair[1, ...])
    np.subtract(1.0, pair[1], out=pair[0, ...])
    f = _bump_f(pair)
    return pair, f, f[0] / (f[0] + f[1] + 1e-300)


def cutoff_value(r, radius: float):
    """Smooth bump: 1 for r <= radius/2, 0 for r >= radius."""
    return _bumps(np.asarray(r, dtype=float), radius / 2.0)[-1]


def cutoff_and_slope(r, radius: float):
    """The bump at the radii r (1-d), the indices of the radii where its
    derivative is nonzero, and the derivative there.

    One scaling, clip and pair of bumps serves both. On the annulus the
    derivative reuses exp(-1/x): exp(-1/x) / x**2 is the bump's f' at x for
    x = 1 - s and x = s, both far above 1e-154 there (1 - s is at least an
    ulp of 1, s about the rounding of r - R/2 relative to R/2), so x**2
    does not underflow and a zero bump gives a zero f'.
    """
    half = radius / 2.0
    pair, f, zeta = _bumps(r, half)
    ring = np.nonzero((pair[1] > 0.0) & (pair[1] < 1.0))[0]
    if not ring.size:
        return zeta, ring, np.empty(0)
    pair, f = pair[:, ring], f[:, ring]
    terms = f / pair**2 * f[::-1]  # f'(1 - s) f(s), f'(s) f(1 - s)
    dzeta = -(terms[0] + terms[1]) / (f[0] + f[1]) ** 2 / half
    nonzero = dzeta != 0.0
    return zeta, ring[nonzero], dzeta[nonzero]


# ---------------------------------------------------------------------------
# Base maps: smooth maps with exact derivatives on the coefficient space


def pad_rows(rows, count: int) -> np.ndarray:
    """Stack of row blocks (B, k, ...) zero-extended to (B, count, ...): the
    leading values (B, k) or Jacobian rows (B, k, N) of a base map."""
    if rows.shape[1] == count:
        return rows
    out = np.zeros((rows.shape[0], count) + rows.shape[2:])
    out[:, : rows.shape[1]] = rows
    return out


class _BaseMap:
    """Base maps vanish, value and Jacobian alike, past their first `rows`
    coefficients."""

    def terms(self) -> list:
        """(atom, scale) pairs whose sum, in order, is this map; the first
        scale is None."""
        return [(self, None)]


class _Atom(_BaseMap):
    """A base map whose leading values (`value_at`, shape (B, rows)) and
    leading Jacobian rows (`rows_at`, written into out (B, rows, c) over
    the leading c columns) both follow from one phase array per point, so
    a batch needs the phase `u @ W.T` only once."""


class SineBase(_Atom):
    """amplitudes * sin(W u + phases) written into the first K coefficients."""

    def __init__(self, n_modes: int, amplitudes, weights, phases):
        self.n = int(n_modes)
        self.amplitudes = np.asarray(amplitudes, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.phases = np.asarray(phases, dtype=float)
        k = self.amplitudes.size
        if self.weights.shape != (k, self.n) or self.phases.shape != (k,):
            raise ConfigError("inconsistent sine base shapes")
        if k > self.n:
            raise ConfigError(f"K={k} base coefficients exceed N={self.n} modes")
        self.rows = k

    def phase(self, u):
        return u @ self.weights.T + self.phases

    def value_at(self, phase):
        return self.amplitudes * np.sin(phase)

    def rows_at(self, phase, out):
        c = self.amplitudes * np.cos(phase)
        return np.multiply(c[:, :, None], self.weights[None, :, : out.shape[-1]], out=out)

    def scaled(self, factor: float) -> "SineBase":
        return SineBase(self.n, self.amplitudes * factor, self.weights, self.phases)


class CosineBase(_Atom):
    """amplitudes * cos(W u) written into the first K coefficients.

    Zero phase makes the value norm peak exactly at u = 0, which sits on the
    cutoff plateau; perturbation-size oracles rely on that.
    """

    def __init__(self, n_modes: int, amplitudes, weights):
        self.n = int(n_modes)
        self.amplitudes = np.asarray(amplitudes, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        k = self.rows = self.amplitudes.size
        if self.weights.shape != (k, self.n):
            raise ConfigError("inconsistent cosine base shapes")
        if k > self.n:
            raise ConfigError(f"K={k} base coefficients exceed N={self.n} modes")

    def phase(self, u):
        return u @ self.weights.T

    def value_at(self, phase):
        return self.amplitudes * np.cos(phase)

    def rows_at(self, phase, out):
        c = -self.amplitudes * np.sin(phase)
        return np.multiply(c[:, :, None], self.weights[None, :, : out.shape[-1]], out=out)

    def scaled(self, factor: float) -> "CosineBase":
        return CosineBase(self.n, self.amplitudes * factor, self.weights)


class ConstantBase(_Atom):
    """Constant map; its Jacobian vanishes identically.

    Its rows reach the last nonzero entry, because the cutoff's product rule
    writes the value into the Jacobian rows.
    """

    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=float)
        self.n = self.vector.size
        nonzero = np.flatnonzero(self.vector)
        self.rows = int(nonzero[-1]) + 1 if nonzero.size else 0

    def phase(self, u):
        return np.empty(u.shape[:-1] + (0,))

    def value_at(self, phase):
        return np.tile(self.vector[: self.rows], (phase.shape[0], 1))

    def rows_at(self, phase, out):
        out[...] = 0.0
        return out


class SumBase(_BaseMap):
    """Pointwise sum of two base maps on the same coefficient space; the
    second is a single base map, so a sum flattens to `terms()`."""

    def __init__(self, first, second, second_scale: float = 1.0):
        if first.n != second.n:
            raise DimensionError("base maps live on different spaces")
        if not isinstance(second, _Atom):
            raise ConfigError("the second term of a base-map sum must be a single map")
        self.first, self.second = first, second
        self.second_scale = float(second_scale)
        self.n = first.n
        self.rows = max(first.rows, second.rows)

    def terms(self) -> list:
        return self.first.terms() + [(self.second, self.second_scale)]


# ---------------------------------------------------------------------------
# Cutoff nonlinearity


@dataclass(eq=False)
class CutoffNonlinearity:
    """Base map times a radial alpha-norm bump, with certified constants.

    cutoff_radius None disables the bump entirely; that variant exists for
    closed-form fixtures and is flagged `analytic_fixture`, which
    `certify_constants` refuses.

    The sampling calls evaluate F through a one-member `NonlinearityStack`,
    so a point takes the bits a march gives it. Derivatives are the leading
    K = `base.rows` rows of DF, the only rows that can be nonzero:
    `jacobian_blocks` streams them for certification, the Hoelder quotients
    and the slope normalization, `jacobian_batch` returns them at once for
    the derivative mismatch.
    """

    problem: SpectralProblem
    base: object
    cutoff_radius: float | None
    C_F: float = 0.0
    L_F: float = 0.0
    theta_F: float = 1.0
    L: float = 0.0

    def __post_init__(self):
        if self.base.n != self.problem.n_modes:
            raise DimensionError("base map does not match the problem dimension")
        if self.cutoff_radius is not None and self.cutoff_radius <= 0:
            raise ConfigError("cutoff radius must be positive")
        if not 0.0 < self.theta_F <= 1.0:
            raise ConfigError("theta_F must lie in (0, 1]")

    @property
    def analytic_fixture(self) -> bool:
        return self.cutoff_radius is None

    def eval_batch(self, u) -> np.ndarray:
        """F(u) for a batch of points u (B, N)."""
        u = self._points(u)
        return NonlinearityStack([(self, u.shape[0])]).eval(u)

    def jacobian_batch(self, u) -> np.ndarray:
        """Leading K = `base.rows` rows of the exact Jacobians, shape
        (B, K, N), in the row buffer of a one-member stack."""
        u = self._points(u)
        return NonlinearityStack([(self, u.shape[0])]).jacobian_rows(u)[1]

    def jacobian_blocks(self, u, size: int = JACOBIAN_BLOCK):
        """Yield the leading K = `base.rows` rows of the exact Jacobians in
        consecutive (<= size, K, N) blocks of the batch u.

        Each block forms its own phases, whose row bits do not depend on
        the rows beside them (`chunked_phase`), and its own radius and
        bump, which are row-wise like the rest, so the blocks equal slices
        of `jacobian_batch(u)` bit for bit, and a consumer holds one block
        at a time. Each block is a copy, since the stack reuses its row
        buffer.
        """
        u = self._points(u)
        stack = NonlinearityStack([(self, u.shape[0])])
        for lo in range(0, u.shape[0], size):
            yield stack.jacobian_rows(u[lo : lo + size])[1].copy()

    def _points(self, u) -> np.ndarray:
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if u.shape[-1] != self.problem.n_modes:
            raise DimensionError("wrong coefficient count")
        return u


def per_row(values, counts) -> np.ndarray:
    """Per-block arrays repeated over each block's rows, or a single
    (1, ...) row when every block holds the same bytes, which broadcasts
    against any leading part of the stack."""
    values = [np.asarray(v, dtype=float) for v in values]
    if all(v.tobytes() == values[0].tobytes() for v in values):
        return values[0][None]
    return np.repeat(np.stack(values), counts, axis=0)


def _take(a, keep):
    """Rows keep of a per-row array; a single broadcast row stays as is."""
    return a if a.shape[0] == 1 else a[keep]


def chunked_phase(products, u, work=None) -> list:
    """Each row-wise product of the rows u, such as an atom's phase
    `atom.phase`, in gemm calls of `PHASE_CHUNK` rows: numpy runs one gemm
    per chunk of a stacked (chunks, PHASE_CHUNK, N) product, so a row's bits
    do not depend on the rows it is stacked with, and no call is a one-row
    gemv. The whole chunks are a view of u; the last, partial chunk is
    copied into a zero-padded (1, PHASE_CHUNK, N) buffer, kept across calls
    in the dict work when one is given, with only its padding zeroed again.
    No rows give a stack of no chunks, so each product is (0, width)."""
    n, width = u.shape
    full = n - n % PHASE_CHUNK
    parts = [u[:full].reshape(-1, PHASE_CHUNK, width)] if full or not n else []
    if full < n:
        work = {} if work is None else work
        tail = work.get("tail")
        if tail is None:
            tail = work["tail"] = np.empty((1, PHASE_CHUNK, width))
        tail[0, : n - full] = u[full:]
        tail[0, n - full :] = 0.0
        parts.append(tail)
    results = []
    for product in products:
        flat = [p.reshape(p.shape[0] * PHASE_CHUNK, p.shape[-1]) for p in map(product, parts)]
        results.append(flat[0][:n] if len(flat) == 1 else np.concatenate(flat)[:n])
    return results


class NonlinearityStack:
    """Cutoff nonlinearities of several members over one stack of rows,
    grouped into blocks of consecutive rows that share a member.

    The members must share their base-map terms by position, as the members
    of one family do: base0 first, then the direction. Every row takes every
    term, combined in `SumBase` order, first + eps * second, with a per-row
    eps; a member that lacks a term (the limit) takes it with eps = 0.0.
    That keeps its values but for the sign of a zero: x + 0.0 * y equals x,
    bit for bit, for every finite y and every x but -0.0, which becomes
    +0.0. Nothing in the march divides by a value of F and every report
    number is a norm or a maximum, so the reports keep their bytes.

    The terms' phases `u @ W.T` come from one `chunked_phase`, whose gemm
    calls all hold `PHASE_CHUNK` rows, and every other operation is
    row-wise, so a row's bits do not depend on the rows stacked with it:
    each block equals its member's own one-block stack, a march that
    retires rows equals one that keeps them, and a slice of rows equals
    the whole stack's rows there.

    A march builds its stack once and retires rows from it (`retire`),
    which takes the kept rows of the per-row arrays.

    The values are formed over the k leading coefficients, the most any
    member's base map writes, and the Jacobian rows as (rows, k, columns) in
    buffers reused across calls, so a march's RK4 stages allocate no fresh
    stacks: the products and sums are the same element-wise operations, in
    the same order, as when each term's rows are formed anew. The methods
    zero-extend their results to `width` leading coefficients.

    `jacobian_rows` and `eval_and_jvp` take a per-call column count: the
    Jacobian rows are formed over the leading columns only, by the same
    element-wise products as the full rows' leading part. The fiber march
    passes the m + reach columns its state and tangent can fill; past them
    both are +0.0. `eval_and_jvp` still contracts at full width: it copies
    the rows into a zero-tailed (rows, k, N) buffer and multiplies by all N
    rows of the tangent. Every product it adds past the columns is an exact
    zero, in the same kernel order, so the result keeps its bits up to the
    sign of an exact zero. A narrowed (rows, k, c) @ (rows, c, m) product
    would not: OpenBLAS picks its kernel by the shapes, and at N = 32,
    K = 4 such a product moves bits for m = 1 whenever c is not a multiple
    of 4, and for m = 2 whenever c < 16.
    """

    def __init__(self, blocks, width=None):
        """blocks: (CutoffNonlinearity, row count) pairs in stack order;
        width: the leading coefficients of the values and Jacobian-vector
        products the methods return, at least the widest base map's rows;
        by default all N."""
        first = blocks[0][0]
        self.n = first.problem.n_modes
        self.radius = first.cutoff_radius
        if any(F.problem.n_modes != self.n or F.cutoff_radius != self.radius
               for F, _ in blocks):
            raise DimensionError("stacked nonlinearities must share N and the cutoff radius")
        counts = [count for _, count in blocks]
        terms = [F.base.terms() for F, _ in blocks]
        longest = max(terms, key=len)
        if any(atom is not shared for each in terms
               for (atom, _), (shared, _) in zip(each, longest)):
            raise DimensionError("stacked nonlinearities must share their base-map terms "
                                 "by position")
        # the first term carries no eps, a later one an eps per row, 0.0
        # where the member lacks the term
        self.terms = [(atom, None if pos == 0 else per_row(
            [each[pos][1] if pos < len(each) else 0.0 for each in terms], counts)[:, None])
            for pos, (atom, _) in enumerate(longest)]
        self.weights = per_row([F.problem.alpha_weights for F, _ in blocks], counts)
        self.weights2 = self.weights**2
        self.k = max(F.base.rows for F, _ in blocks)
        self.width = self.n if width is None else width
        self.work = {}

    def retire(self, keep):
        """Drop the rows taken where the boolean keep is False; the methods
        then take the rows kept, in order."""
        self.weights, self.weights2 = _take(self.weights, keep), _take(self.weights2, keep)
        self.terms = [(atom, eps if eps is None else _take(eps, keep))
                      for atom, eps in self.terms]

    def _buffer(self, key, count, columns):
        """The first count rows of a reused (rows, k, columns) buffer, one
        per key. A buffer starts as zeros, so a part that no call under its
        key writes stays +0.0."""
        buf = self.work.get(key)
        if buf is None or buf.shape[0] < count:
            buf = self.work[key] = np.zeros((count, self.k, columns))
        return buf[:count]

    def _atom_rows(self, atom, phase, out):
        """atom's Jacobian rows at phase, zero-extended to k rows, in out."""
        atom.rows_at(phase, out=out[:, : atom.rows])
        if atom.rows < self.k:
            out[:, atom.rows :] = 0.0
        return out

    def _base(self, u, columns=None):
        """Base values (n, k) of the n rows taken and, with a column count,
        their leading Jacobian rows over that many leading columns
        (n, k, columns) in the "rows" buffer; each term's phase comes from
        `chunked_phase`, over full rows."""
        n = u.shape[0]
        phases = chunked_phase([atom.phase for atom, _ in self.terms], u, self.work)
        (first, _), *rest = self.terms
        vals = pad_rows(first.value_at(phases[0]), self.k)
        for (atom, eps), phase in zip(rest, phases[1:]):
            vals = vals + eps * pad_rows(atom.value_at(phase), self.k)
        if columns is None:
            return vals, None
        rows = self._atom_rows(first, phases[0], self._buffer(("rows", columns), n, columns))
        for (atom, eps), phase in zip(rest, phases[1:]):
            term = self._atom_rows(atom, phase, self._buffer(("term", columns), n, columns))
            term *= eps[:, :, None]
            rows += term
        return vals, rows

    def _radius(self, u) -> np.ndarray:
        """Alpha-norms of the rows taken u (`weighted_row_norms`)."""
        return weighted_row_norms(u, self.weights)

    def eval(self, u) -> np.ndarray:
        """F(u) for the rows taken u."""
        vals, _ = self._base(u)
        if self.radius is not None:
            vals *= cutoff_value(self._radius(u), self.radius)[:, None]
        return pad_rows(vals, self.width)

    def jacobian_rows(self, u, columns=None):
        """F(u)'s k leading values (n, k) and DF(u)'s k leading rows over
        the leading columns (n, k, columns; all N by default) for the rows
        taken u, the latter in the reused "rows" buffer. The base value,
        radius and bump are formed once, from full rows; the rows of DF(u)
        past k are exactly zero.

        The product rule through the bump adds dzeta * value * grad on the
        annulus, with grad the alpha-norm's gradient lambda^(2 alpha) u / r
        over the same columns, in (JACOBIAN_BLOCK, k, columns) temporaries.
        """
        columns = self.n if columns is None else columns
        vals, rows = self._base(u, columns)
        if self.radius is not None:
            r = self._radius(u)
            zeta, at, dzeta = cutoff_and_slope(r, self.radius)
            rows *= zeta[:, None, None]
            if at.size:
                w2 = self.weights2[:, :columns]
                grad = (u[at, :columns] * (w2 if len(w2) == 1 else w2[at])) / r[at][:, None]
                slope = dzeta[:, None] * vals[at]
                for lo in range(0, at.size, JACOBIAN_BLOCK):
                    hi = lo + JACOBIAN_BLOCK
                    rows[at[lo:hi]] += slope[lo:hi, :, None] * grad[lo:hi, None, :]
            vals *= zeta[:, None]
        return vals, rows

    def eval_and_jvp(self, u, V, columns=None):
        """F(u) and DF(u) V for the rows taken u and tangents V (n, N, m):
        `jacobian_rows` applied to V. With columns, only DF(u)'s leading
        columns are applied, which is DF(u) V when V is +0.0 past them (and
        its bits, up to the sign of an exact zero, when u is too): the rows
        are formed there only, copied into a zero-tailed (n, k, N) buffer
        and contracted with all of V."""
        vals, rows = self.jacobian_rows(u, columns=columns)
        c = rows.shape[-1]
        if c < self.n:
            # one buffer per column count, so its tail past c is never written
            padded = self._buffer(("padded", c), u.shape[0], self.n)
            padded[:, :, :c] = rows
            rows = padded
        return pad_rows(vals, self.width), pad_rows(rows @ V, self.width)


def constant_map(problem: SpectralProblem, vector) -> CutoffNonlinearity:
    """Closed-form fixture: constant F without cutoff. Lipschitz constant 0."""
    vec = np.asarray(vector, dtype=float)
    base = ConstantBase(vec)
    return CutoffNonlinearity(
        problem=problem,
        base=base,
        cutoff_radius=None,
        C_F=float(np.linalg.norm(vec)),
        L_F=0.0,
        theta_F=1.0,
        L=0.0,
    )


def zero_map(problem: SpectralProblem) -> CutoffNonlinearity:
    return constant_map(problem, np.zeros(problem.n_modes))


# ---------------------------------------------------------------------------
# Sampling and certification


def _ball_samples(problem: SpectralProblem, radius: float, count: int, rng):
    """Seeded samples covering plateau, annulus, and exterior shells.

    Includes the origin and scaled axis points so that plateau extremes of
    well-prepared maps are hit exactly.
    """
    n = problem.n_modes
    w = problem.alpha_weights
    axes = min(n, 8)
    out = np.empty((1 + axes + count, n))
    out[0] = 0.0
    out[1 : 1 + axes] = 0.25 * radius * (np.eye(n)[:axes] / w[:axes, None])
    # the directions are drawn, normalized and scaled in place
    dirs = out[1 + axes :]
    rng.standard_normal(out=dirs)
    dirs /= alpha_norm_batch(problem, dirs)[:, None] + 1e-300
    # deterministic radius ladder: plateau, annulus, exterior
    radii = np.concatenate(
        [
            np.linspace(0.0, 0.5 * radius, count // 3),
            np.linspace(0.5 * radius, radius, count // 3),
            np.linspace(radius, 2.0 * radius, count - 2 * (count // 3)),
        ]
    )
    dirs *= radii[:, None]
    return out


def _max_opnorm(blocks, w):
    """The largest norm, from the alpha-weighted (weights w) to the plain
    norm, of a stream of (mats, den) blocks of consecutive rows, each norm
    divided by its entry of den (None: by nothing), and the first row that
    holds it, the one np.argmax over the whole stream picks. Each block is
    screened (`near_max_opnorms`) against the maximum so far, and only a
    strictly larger value moves the row."""
    best, at, lo = -np.inf, 0, 0
    for mats, den in blocks:
        keep, values = near_max_opnorms(mats, col_weights=w, den=den, floor=best)
        if values.size and values.max() > best:
            best, at = float(values.max()), lo + int(keep[values.argmax()])
        lo += mats.shape[0]
    return best, at


def _holder_quotients(F: CutoffNonlinearity, a, b, theta):
    """The largest |DF(a) - DF(b)| / |a - b|^theta over aligned point pairs,
    from the alpha-weighted to the plain norm, and the first pair that holds
    it, one block of pairs at a time."""

    def blocks():
        lo = 0
        for ja, jb in zip(F.jacobian_blocks(a), F.jacobian_blocks(b)):
            hi = lo + ja.shape[0]
            ja -= jb
            yield ja, alpha_norm_batch(F.problem, a[lo:hi] - b[lo:hi]) ** theta + 1e-300
            lo = hi

    return _max_opnorm(blocks(), F.problem.alpha_weights)


def certify_constants(
    F: CutoffNonlinearity,
    sample_count: int = 2000,
    rng=None,
    pair_count: int = 10_000,
) -> dict:
    """Sample sup norms and difference quotients; fail loudly on violations.

    The Jacobian samples stream through `jacobian_blocks`, so only one block
    of rows (or of pair differences) is held at a time. Only the largest
    slope and quotient are read, so each block goes through
    `near_max_opnorms` with the maximum of the blocks before it as floor:
    the exact SVD runs only on the matrices whose upper bounds can reach
    it, and the maxima and their witnesses are those of a full scan, bit
    for bit. Returns the sampled estimates (before slack). Raises
    CertificationError with a witness when a sample exceeds a configured
    constant.
    """
    if F.analytic_fixture:
        raise ConfigError("analytic fixtures skip certification by design")
    rng = np.random.default_rng(0) if rng is None else rng
    radius = F.cutoff_radius
    pts = _ball_samples(F.problem, radius, sample_count, rng)

    values = np.linalg.norm(F.eval_batch(pts), axis=1)
    c_hat = float(values.max())
    i_worst = int(values.argmax())
    if c_hat > F.C_F:
        raise CertificationError(
            f"sampled sup |F| = {c_hat:.6g} exceeds configured C_F = {F.C_F:.6g}",
            witness=pts[i_worst],
        )

    # derivatives and their differences: alpha-weighted norm to plain norm
    l_hat, i_worst = _max_opnorm(((jac, None) for jac in F.jacobian_blocks(pts)),
                                 F.problem.alpha_weights)
    if l_hat > F.L_F:
        raise CertificationError(
            f"sampled sup |DF| = {l_hat:.6g} exceeds configured L_F = {F.L_F:.6g}",
            witness=pts[i_worst],
        )
    del pts, values  # not read past here; the pair stage sets the peak

    # Hoelder quotient of the derivative at exponent theta_F over point pairs.
    a = _ball_samples(F.problem, radius, pair_count // 2, rng)
    b = rng.standard_normal(a.shape)  # a + noise * scale, formed in place
    b *= 0.05 * radius
    b += a
    h_hat, i_worst = _holder_quotients(F, a, b, F.theta_F)
    if h_hat > F.L:
        raise CertificationError(
            f"sampled derivative Hoelder quotient {h_hat:.6g} exceeds "
            f"configured L = {F.L:.6g}",
            witness=(a[i_worst], b[i_worst]),
        )
    return {"C_F": c_hat, "L_F": l_hat, "L": h_hat}


def holder_quotient_of_derivative(
    F: CutoffNonlinearity, theta: float, sample_count: int = 4000, rng=None
) -> float:
    """Sampled Hoelder-theta quotient of DF over the support ball, with slack."""
    rng = np.random.default_rng(0) if rng is None else rng
    radius = F.cutoff_radius if F.cutoff_radius is not None else 1.0
    a = _ball_samples(F.problem, radius, sample_count, rng)
    scales = 10.0 ** rng.uniform(-3, 0, size=a.shape[0])
    b = rng.standard_normal(a.shape)  # a + noise * scale, formed in place
    b *= scales[:, None] * 0.3 * radius
    b += a
    return CERT_SLACK * _holder_quotients(F, a, b, theta)[0]


# ---------------------------------------------------------------------------
# Perturbed families


@dataclass(eq=False)
class PerturbedNonlinearityPair:
    """Limit nonlinearity plus a perturbation direction.

    The only built rule is additive: the perturbed member applies the shared
    cutoff to base0 + eps * direction, and the limit member is eps-free.
    The configured constants must hold uniformly over [0, eps_max].
    """

    base0: object
    direction: object
    eps_max: float

    def __post_init__(self):
        if self.eps_max < 0:
            raise ConfigError("eps_max must be nonnegative")

    def member(
        self, problem: SpectralProblem, eps: float, cutoff_radius: float, constants: dict
    ) -> CutoffNonlinearity:
        if eps < 0 or eps > self.eps_max * (1 + 1e-12):
            raise ConfigError(f"eps={eps} outside [0, {self.eps_max}]")
        base = self.base0 if eps == 0.0 else SumBase(self.base0, self.direction, eps)
        return CutoffNonlinearity(
            problem=problem, base=base, cutoff_radius=cutoff_radius, **constants
        )


def rho_eps(
    F_eps: CutoffNonlinearity,
    F_limit: CutoffNonlinearity,
    sample_count: int = 2000,
    rng=None,
) -> float:
    """Sampled sup of |F_eps(u) - F_limit(u)| over the support ball; the
    two maps act on one coefficient space. It is the maximum over
    `sample_count` seeded ball samples, a lower bound of the true sup.

    The sample ladder covers plateau, annulus, and exterior shells and
    always includes the origin, so additive families with zero-phase
    cosine directions are measured exactly.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    radius = F_limit.cutoff_radius or 1.0
    pts = _ball_samples(F_limit.problem, radius, sample_count, rng)
    diff = F_eps.eval_batch(pts) - F_limit.eval_batch(pts)
    return float(np.linalg.norm(diff, axis=1).max())
