"""Cutoff nonlinearities with certified Lipschitz and Hoelder constants.

The prepared nonlinearity is a smooth base map multiplied by a radial bump
in the alpha-norm: identically 1 on the inner plateau (radius R/2), smooth
in the annulus, identically 0 outside radius R. Constants are certified by
seeded dense sampling with a fixed slack factor; certification failures are
loud and carry a witness. `NonlinearityStack` evaluates the nonlinearities of
several family members over one stack of rows, as the batched marches need.

A base map writes only its first K coefficients, so every Jacobian here is
its (K, N) block of leading rows; the rows past K are exactly zero and are
never formed. Certification streams its thousands of sampled Jacobians in
fixed blocks of `JACOBIAN_BLOCK` points (`CutoffNonlinearity.jacobian_blocks`):
the gemms run once over the whole sample batch, so the blocks carry the same
bits as one whole-batch evaluation, and only one block is held at a time.

The other per-sample temporaries are held one block at a time too: the
samples are drawn, normalized and scaled in one preallocated array, the
perturbed pair points are formed in their noise array, the norms go row
block by row block (`alpha_norm_batch`), and the base values and norm
gradient on the annulus, the pair differences and the Hoelder quotients are
formed per Jacobian block. Each is the same element-wise operation on the
same operands, so the sampled constants keep their bits. The marches'
Jacobian rows go into buffers that `NonlinearityStack` reuses across RK4
stages.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError, ConfigError, DimensionError
from .spectral_core import SpectralProblem, alpha_norm_batch, weighted_opnorms

#: Slack applied on top of sampled maxima when certifying constants.
CERT_SLACK = 1.1

#: Rows per block when certification streams sampled Jacobians.
JACOBIAN_BLOCK = 128


# ---------------------------------------------------------------------------
# Radial bump cutoff


def _bump_f(x):
    """exp(-1/x) continued by 0 for x <= 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 1e-12
    out[pos] = np.exp(-1.0 / x[pos])
    return out


def _bump_fprime(x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 1e-12
    out[pos] = np.exp(-1.0 / x[pos]) / x[pos] ** 2
    return out


def cutoff_value(r, radius: float):
    """Smooth bump: 1 for r <= radius/2, 0 for r >= radius."""
    r = np.asarray(r, dtype=float)
    s = (r - radius / 2.0) / (radius / 2.0)
    s = np.clip(s, 0.0, 1.0)
    fa = _bump_f(1.0 - s)
    fb = _bump_f(s)
    return fa / (fa + fb + 1e-300)


def cutoff_derivative(r, radius: float):
    """Derivative of the bump with respect to r; zero off the annulus."""
    r = np.asarray(r, dtype=float)
    half = radius / 2.0
    s = (r - half) / half
    inside = (s > 0.0) & (s < 1.0)
    out = np.zeros_like(s)
    sc = s[inside]
    fa, fb = _bump_f(1.0 - sc), _bump_f(sc)
    dfa, dfb = _bump_fprime(1.0 - sc), _bump_fprime(sc)
    out[inside] = -(dfa * fb + fa * dfb) / (fa + fb) ** 2 / half
    return out


# ---------------------------------------------------------------------------
# Base maps: smooth maps with exact derivatives on the coefficient space


def pad_rows(rows, count: int) -> np.ndarray:
    """Stack of row blocks (B, k, N) zero-extended to (B, count, N)."""
    if rows.shape[1] == count:
        return rows
    out = np.zeros((rows.shape[0], count, rows.shape[2]))
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
    """A base map whose value and leading Jacobian rows (`rows_at`, shape
    (B, rows, N), optionally written into out) both follow from one phase
    array per point, so a batch needs the phase `u @ W.T` only once."""

    def value(self, u):
        return self.value_at(self.phase(np.atleast_2d(np.asarray(u, dtype=float))))


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
        out = np.zeros((phase.shape[0], self.n))
        out[:, : self.rows] = self.amplitudes * np.sin(phase)
        return out

    def rows_at(self, phase, out=None):
        c = self.amplitudes * np.cos(phase)
        return np.multiply(c[:, :, None], self.weights[None, :, :], out=out)

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
        out = np.zeros((phase.shape[0], self.n))
        out[:, : self.rows] = self.amplitudes * np.cos(phase)
        return out

    def rows_at(self, phase, out=None):
        c = -self.amplitudes * np.sin(phase)
        return np.multiply(c[:, :, None], self.weights[None, :, :], out=out)

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
        return np.broadcast_to(self.vector, (phase.shape[0], self.n)).copy()

    def rows_at(self, phase, out=None):
        if out is None:
            return np.zeros((phase.shape[0], self.rows, self.n))
        out[...] = 0.0
        return out

    def scaled(self, factor: float) -> "ConstantBase":
        return ConstantBase(self.vector * factor)


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

    def value(self, u):
        return self.first.value(u) + self.second_scale * self.second.value(u)

    def terms(self) -> list:
        return self.first.terms() + [(self.second, self.second_scale)]


# ---------------------------------------------------------------------------
# Cutoff nonlinearity


@dataclass(eq=False)
class CutoffNonlinearity:
    """Base map times a radial alpha-norm bump, with certified constants.

    cutoff_radius None disables the bump entirely; that variant exists for
    closed-form fixtures and is flagged so reports can record that
    certification was skipped.

    Derivatives are the leading K = `base.rows` rows of DF, the only rows
    that can be nonzero. `jacobian_blocks` streams them for certification,
    the Hoelder quotients and the slope normalization, `jacobian_batch`
    returns them at once for the derivative mismatch; the fiber march
    applies the same rows to its tangent through
    `NonlinearityStack.eval_and_jvp` (`eval_and_jvp` is its one-member call).
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

    @property
    def support_radius(self) -> float | None:
        return self.cutoff_radius

    def eval_batch(self, u) -> np.ndarray:
        u = self._points(u)
        return NonlinearityStack([(self, u.shape[0])]).eval(u)

    def jacobian_batch(self, u) -> np.ndarray:
        """Leading K = `base.rows` rows of the exact Jacobians, shape
        (B, K, N): the one-block case of `jacobian_blocks`."""
        u = self._points(u)
        return next(self.jacobian_blocks(u, max(u.shape[0], 1)))

    def jacobian_blocks(self, u, size: int = JACOBIAN_BLOCK):
        """Yield the leading K = `base.rows` rows of the exact Jacobians in
        consecutive (<= size, K, N) blocks of the batch u, by the product
        rule through the radial bump; the rows K..N-1 of DF are exactly zero.

        Every gemm (each atom's phase `u @ W.T` over the whole batch, and
        over the annulus rows for the base values there, as `base.value`
        forms them) runs once, because OpenBLAS rounds a row differently by
        call shape; everything element-wise, the base values included, is
        formed per block. So the blocks equal slices of `jacobian_batch(u)`
        bit for bit, and a consumer holds one block at a time.
        """
        u = self._points(u)
        k = self.base.rows

        def term_phases(x):  # SumBase order, first + eps * second
            return [(atom, scale, atom.phase(x)) for atom, scale in self.base.terms()]

        phases = term_phases(u)
        if self.cutoff_radius is not None:
            r = alpha_norm_batch(self.problem, u)
            zeta = cutoff_value(r, self.cutoff_radius)
            dzeta = cutoff_derivative(r, self.cutoff_radius)
            live = np.flatnonzero(dzeta != 0.0)
            ring = term_phases(u[live])
            w2 = self.problem.alpha_weights**2
        for lo in range(0, max(u.shape[0], 1), size):
            hi = lo + size
            (atom, _, phase), *rest = phases
            jac = pad_rows(atom.rows_at(phase[lo:hi]), k)
            for atom, scale, phase in rest:
                term = pad_rows(atom.rows_at(phase[lo:hi]), k)
                term *= scale
                jac += term
            if self.cutoff_radius is None:
                yield jac
                continue
            jac *= zeta[lo:hi, None, None]
            a, b = np.searchsorted(live, [lo, hi])
            if b > a:
                at = live[a:b]
                (atom, _, phase), *rest = ring
                vals = atom.value_at(phase[a:b])[:, :k]
                for atom, scale, phase in rest:
                    vals = vals + scale * atom.value_at(phase[a:b])[:, :k]
                # gradient of the alpha-norm: lambda^(2 alpha) u / r, zero on plateau
                grad = (u[at] * w2) / r[at, None]
                jac[at - lo] += dzeta[at, None, None] * vals[:, :, None] * grad[:, None, :]
            yield jac

    def eval_and_jvp(self, u, V):
        """F(u) and DF(u) V for a batch of points u (B, N) and tangents V
        (B, N, m); see `NonlinearityStack.eval_and_jvp`."""
        u = self._points(u)
        return NonlinearityStack([(self, u.shape[0])]).eval_and_jvp(u, V)

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


def _run(idx):
    """Increasing indices as a slice when they are one run of consecutive
    indices, so that indexing with them takes a view; else unchanged."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


class NonlinearityStack:
    """Cutoff nonlinearities of several members over one stack of rows,
    grouped into blocks of consecutive rows that share a member.

    Each base atom (`SineBase`, `CosineBase`, `ConstantBase`) is evaluated
    over the blocks whose member uses it, and each member's terms combine
    in `SumBase` order, first + eps * second, with a per-row eps; rows whose
    member lacks a term skip it. The phase `u @ W.T` is one stacked product
    per atom and block row count, over a (blocks, count, N) array: numpy
    runs one gemm per block of such a product, and OpenBLAS rounds a gemm
    row by how many rows the call holds (a one-row product goes to gemv),
    so each block sees the call its member sees alone. Every other
    operation is row-wise, so each block comes out bit for bit as its
    member's own evaluation.

    A march that retires rows rebuilds the stack over the rows it still
    holds (`live`). The phase is then formed over every row the stack
    started with, the retired ones as zero rows, so each block keeps its
    starting row count; only the live rows are carried further.

    The (rows, K, N) Jacobian rows of `eval_and_jvp` are formed in two
    buffers, `work`, that a march hands on to each rebuilt stack, so its
    RK4 stages reuse them instead of allocating fresh stacks: the products
    and sums are the same element-wise operations, in the same order, as
    when each term's rows are formed anew.
    """

    def __init__(self, blocks, live=None, work=None):
        """blocks: (CutoffNonlinearity, row count) pairs in stack order;
        live: increasing indices of the stack rows the methods take, by
        default all of them; work: the buffers of the stack this one
        replaces, if any."""
        self.work = {} if work is None else work
        first = blocks[0][0]
        self.n = first.problem.n_modes
        self.radius = first.cutoff_radius
        if any(F.problem.n_modes != self.n or F.cutoff_radius != self.radius
               for F, _ in blocks):
            raise DimensionError("stacked nonlinearities must share N and the cutoff radius")
        counts = [count for _, count in blocks]
        bounds = np.concatenate([[0], np.cumsum(counts)]).astype(int)
        self.size = int(bounds[-1])
        live = np.arange(self.size) if live is None else np.asarray(live)
        # the stack rows to scatter the rows taken to, if any has retired
        self.live = None if live.size == self.size else _run(live)
        weights = per_row([F.problem.alpha_weights for F, _ in blocks], counts)
        self.weights = weights if len(weights) == 1 else weights[live]
        self.weights2 = self.weights**2
        self.k = max(F.base.rows for F, _ in blocks)
        where = np.full(self.size, -1)  # row taken of each stack row; -1: retired
        where[live] = np.arange(live.size)
        # one group per term position, atom and block row count
        groups = {}
        for (F, count), start in zip(blocks, bounds):
            if not (where[start : start + count] >= 0).any():
                continue
            for pos, (atom, eps) in enumerate(F.base.terms()):
                _, starts, scales = groups.setdefault((pos, id(atom), count), (atom, [], []))
                starts.append(start)
                scales.append(eps)
        self.groups = []
        for (pos, _, count), (atom, starts, scales) in sorted(groups.items(),
                                                              key=lambda kv: kv[0][0]):
            src = np.add.outer(starts, np.arange(count)).ravel()  # the group's stack rows
            dst = where[src]
            held = np.flatnonzero(dst >= 0)
            if len(set(scales)) > 1:
                scales = np.repeat(scales, count)[held, None]
            else:
                scales = scales[0]
            self.groups.append((pos, atom, (len(starts), count, self.n), _run(src),
                                None if held.size == src.size else held,
                                _run(dst[held]), scales))

    def _buffer(self, name, count):
        """The first count rows of a reused (rows, k, N) buffer."""
        buf = self.work.get(name)
        if buf is None or buf.shape[0] < count:
            buf = self.work[name] = np.empty((count, self.k, self.n))
        return buf[:count]

    def _atom_rows(self, atom, phase, out):
        """atom's Jacobian rows at phase, zero-extended to k rows, in out."""
        atom.rows_at(phase, out=out[:, : atom.rows])
        out[:, atom.rows :] = 0.0
        return out

    def _base(self, u, with_rows):
        """Base values (n, N) and, with rows, the leading Jacobian rows
        (n, k, N) of the n stack rows, the latter in the "rows" buffer."""
        n = u.shape[0]
        full = u
        if self.live is not None:
            full = np.zeros((self.size, self.n))
            full[self.live] = u
        vals = np.empty((n, self.n))
        rows = self._buffer("rows", n) if with_rows else None
        for pos, atom, shape, src, held, dst, eps in self.groups:
            phase = atom.phase(full[src].reshape(shape))
            phase = phase.reshape(shape[0] * shape[1], phase.shape[-1])
            if held is not None:
                phase = phase[held]
            v = atom.value_at(phase)
            if pos == 0:
                vals[dst] = v
            else:
                vals[dst] += eps * v
            if not with_rows:
                continue
            direct = pos == 0 and isinstance(dst, slice)
            term = self._atom_rows(atom, phase,
                                   rows[dst] if direct else self._buffer("term", len(phase)))
            if pos > 0:
                term *= eps if isinstance(eps, float) else eps[:, :, None]
                rows[dst] += term
            elif not direct:
                rows[dst] = term
        return vals, rows

    def eval(self, u) -> np.ndarray:
        """F(u) for the stack rows u."""
        vals, _ = self._base(u, with_rows=False)
        if self.radius is None:
            return vals
        r = np.linalg.norm(u * self.weights, axis=-1)
        return vals * cutoff_value(r, self.radius)[:, None]

    def eval_and_jvp(self, u, V):
        """F(u) and DF(u) V for the stack rows u and tangents V
        (n, N, m), computing the base value, radius and bump once.

        Only the leading k rows of DF(u) are formed, by the element-wise
        product rule of `CutoffNonlinearity.jacobian_batch`; the other rows
        of DF(u) V are exactly zero.
        """
        n = u.shape[0]
        vals, rows = self._base(u, with_rows=True)
        k = self.k
        if self.radius is not None:
            r = np.linalg.norm(u * self.weights, axis=-1)
            zeta = cutoff_value(r, self.radius)
            dzeta = cutoff_derivative(r, self.radius)
            rows *= zeta[:, None, None]
            at = np.flatnonzero(dzeta)
            if at.size:
                w2 = self.weights2
                grad = (u[at] * (w2 if len(w2) == 1 else w2[at])) / r[at, None]
                scale = dzeta[at, None] * vals[at, :k]
                for j in range(k):  # one Jacobian row at a time: (rows, N) temporaries
                    rows[at, j] += scale[:, j, None] * grad
            vals *= zeta[:, None]
        jvp = np.zeros((n, self.n) + V.shape[2:])
        jvp[:, :k] = rows @ V
        return vals, jvp


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


def _holder_quotients(F: CutoffNonlinearity, a, b, theta) -> np.ndarray:
    """|DF(a) - DF(b)| / |a - b|^theta over aligned point pairs, from the
    alpha-weighted to the plain norm, one block of pairs at a time."""
    w = F.problem.alpha_weights
    out = np.empty(a.shape[0])
    lo = 0
    for ja, jb in zip(F.jacobian_blocks(a), F.jacobian_blocks(b)):
        hi = lo + ja.shape[0]
        ja -= jb
        den = alpha_norm_batch(F.problem, a[lo:hi] - b[lo:hi]) ** theta
        out[lo:hi] = weighted_opnorms(ja, col_weights=w) / (den + 1e-300)
        lo = hi
    return out


def certify_constants(
    F: CutoffNonlinearity,
    sample_count: int = 2000,
    rng=None,
    pair_count: int = 10_000,
) -> dict:
    """Sample sup norms and difference quotients; fail loudly on violations.

    The Jacobian samples stream through `jacobian_blocks`, so only one block
    of rows (or of pair differences) is held at a time; the norms are exact
    per matrix, so the per-block norms concatenate to the whole batch's.
    Returns the sampled estimates (before slack). Raises CertificationError
    with a witness when a sample exceeds a configured constant.
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
    slopes = np.concatenate([weighted_opnorms(jac, col_weights=F.problem.alpha_weights)
                             for jac in F.jacobian_blocks(pts)])
    l_hat = float(slopes.max())
    if l_hat > F.L_F:
        raise CertificationError(
            f"sampled sup |DF| = {l_hat:.6g} exceeds configured L_F = {F.L_F:.6g}",
            witness=pts[int(slopes.argmax())],
        )
    del pts, values, slopes  # not read past here; the pair stage sets the peak

    # Hoelder quotient of the derivative at exponent theta_F over point pairs.
    a = _ball_samples(F.problem, radius, pair_count // 2, rng)
    b = rng.standard_normal(a.shape)  # a + noise * scale, formed in place
    b *= 0.05 * radius
    b += a
    quot = _holder_quotients(F, a, b, F.theta_F)
    h_hat = float(quot.max())
    if h_hat > F.L:
        raise CertificationError(
            f"sampled derivative Hoelder quotient {h_hat:.6g} exceeds "
            f"configured L = {F.L:.6g}",
            witness=(a[int(quot.argmax())], b[int(quot.argmax())]),
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
    return CERT_SLACK * float(_holder_quotients(F, a, b, theta).max())


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
    rule: str = "additive"

    def __post_init__(self):
        if self.rule != "additive":
            raise ConfigError(f"unknown perturbation rule {self.rule!r}")
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
    pair_E: np.ndarray,
    sample_count: int = 2000,
    rng=None,
) -> float:
    """Sampled sup of |F_eps(E u) - E F_limit(u)| over the support ball.

    The sample ladder covers plateau, annulus, and exterior shells and
    always includes the origin, so additive families with identity extension
    and zero-phase cosine directions are measured exactly.
    """
    rng = np.random.default_rng(0) if rng is None else rng
    radius = F_limit.cutoff_radius or 1.0
    pts = _ball_samples(F_limit.problem, radius, sample_count, rng)
    lifted = pts @ np.asarray(pair_E, dtype=float).T
    diff = F_eps.eval_batch(lifted) - F_limit.eval_batch(pts) @ np.asarray(pair_E).T
    return float(np.linalg.norm(diff, axis=1).max())
