"""Multilinear interpolation on uniform slow-coordinate grids.

`GridSampler` is the package's one interpolation rule: `GridField.eval`
runs it with its box mask on, and each backward march of `lyapunov_perron`
prepares one and samples it at every RK4 stage. `box_covers_support`
decides when a march may drop the box mask.

The sampler lives in its own module for memory: a run that writes no
bytecode cache compiles every module from source, and inside
`lyapunov_perron` the sampler raised that compile's peak by about half a
megabyte, and the CLI's peak resident memory with it.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError
from .nonlinearity import _take
from .spectral_core import row_norms


def grid_frame(axes) -> np.ndarray:
    """First node, spacing and last node of each axis, shape (3, m)."""
    return np.array([[ax[0], ax[1] - ax[0], ax[-1]] for ax in axes]).T


class GridSampler:
    """Multilinear interpolation on uniform grids, prepared once for many
    batches of slow points, so a call runs only the floor, clip, gather and
    blend, in the arithmetic of one cell's formula.

    values is one grid, or with which (one lane index per point) grids
    stacked on a leading axis. The sampler holds them as one table with the
    lane and grid axes flattened into its first, so each corner of a
    point's cell is one `take`: a lane's nodes start at its point's `base`
    (which times the nodes per grid). frame is a `grid_frame` (3, m) with
    a leading axis of 1 (shared by every point) or one entry per point, and
    gives each axis's `lo` and `step` column. boxed keeps the box mask:
    points outside the grid box give exact zeros. Without it a point
    outside the box is extrapolated from the edge cell, and the caller's
    support mask must zero it (`box_covers_support`). `retire(keep)` keeps
    the per-point entries of the points kept.
    """

    def __init__(self, values, frame, which=None, boxed=True):
        m = frame.shape[-1]
        if m not in (1, 2):
            raise ConfigError("grids support one or two slow modes only")
        lead = 0 if which is None else 1
        self.nodes = values.shape[lead : lead + m]
        self.table = values.reshape((math.prod(values.shape[: lead + m]),)
                                    + values.shape[lead + m :])
        self.base = None if which is None else which * math.prod(self.nodes)
        self.lo, self.step, hi = ([frame[:, k, d].copy() for d in range(m)] for k in range(3))
        self.hi = hi if boxed else None

    def retire(self, keep):
        if self.base is not None:
            self.base = self.base[keep]
        for cols in filter(None, (self.lo, self.step, self.hi)):
            cols[:] = [_take(c, keep) for c in cols]

    def __call__(self, z):
        bshape = (z.shape[0],) + (1,) * (self.table.ndim - 1)
        idx, frac = [], []
        for d, size in enumerate(self.nodes):
            t = (z[:, d] - self.lo[d]) / self.step[d]
            # the cast truncates toward zero, which is the floor wherever
            # the clip at 0 leaves it
            i = np.minimum(np.maximum(t.astype(int), 0), size - 2)
            idx.append(i)
            frac.append((t - i).reshape(bshape))
        k = idx[0] if len(idx) == 1 else idx[0] * self.nodes[1] + idx[1]
        if self.base is not None:
            k = k + self.base
        take = self.table.take
        if len(idx) == 1:
            f = frac[0]
            out = (1.0 - f) * take(k, axis=0) + f * take(k + 1, axis=0)
        else:
            f, g = frac
            row = self.nodes[1]
            out = (1.0 - f) * (1.0 - g) * take(k, axis=0)
            out += f * (1.0 - g) * take(k + row, axis=0)
            out += (1.0 - f) * g * take(k + 1, axis=0)
            out += f * g * take(k + row + 1, axis=0)
        if self.hi is not None:
            inside = np.ones(z.shape[0], dtype=bool)
            for d, (lo, hi) in enumerate(zip(self.lo, self.hi)):
                inside &= (z[:, d] >= lo) & (z[:, d] <= hi)
            out[~inside] = 0.0
        return out


def box_covers_support(frame, weights, radius) -> bool:
    """True when every slow point outside the grid box of frame (a
    `grid_frame`) lies at or past the support radius in the norm weighted
    by weights, so a march's support mask zeroes every sample the box mask
    would; False without a radius.

    Checked on the box's edge points on each axis, in the march's own norm
    arithmetic: a point past an edge has that coordinate at least as large
    in magnitude, and rounding is monotone, so its norm is at least the
    edge point's."""
    if radius is None:
        return False
    lo, hi = frame[0], frame[2]
    if np.any(lo > 0.0) or np.any(hi < 0.0):
        return False
    edges = np.concatenate([np.diag(lo), np.diag(hi)]) * weights
    return bool(np.all(row_norms(edges) >= radius))
