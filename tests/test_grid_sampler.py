"""The grid sampler against the one-cell interpolation formula.

`conftest.interp_multilinear` keeps the formula as the oracle; the sampler
must give its bits, with and without the box mask where a covering support
mask zeroes the same points, and after retiring points.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import interp_multilinear
from imlab.grid_sampler import GridSampler, box_covers_support, grid_frame
from imlab.spectral_core import row_norms


def sample_points(rng, axes, rows):
    """Slow points over a grid box: each coordinate a node, an edge, a
    point inside, just outside or far outside the box."""
    cols = []
    for ax in axes:
        a = ax[-1]
        kind = rng.integers(0, 5, size=rows)
        col = np.where(kind == 0, ax[rng.integers(0, ax.size, size=rows)],
                       np.where(kind == 1, np.where(rng.random(rows) < 0.5, ax[0], ax[-1]),
                                rng.uniform(-a, a, size=rows)))
        beyond = a * (1.0 + rng.uniform(0.0, 1.0, size=rows)) * rng.choice([-1.0, 1.0], rows)
        col = np.where(kind == 3, beyond, np.where(kind == 4, 10.0 * beyond, col))
        cols.append(col)
    return np.stack(cols, axis=-1) if rows else np.zeros((0, len(axes)))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@settings(max_examples=80, deadline=None)
@given(m=st.sampled_from([1, 2]), lanes=st.sampled_from([1, 3]), nodes=st.integers(3, 7),
       reach=st.sampled_from([0, 1, 3]), field=st.booleans(), shared=st.booleans(),
       rows=st.integers(0, 60), cover=st.floats(0.2, 3.0), seed=st.integers(0, 2**32 - 1))
@example(m=1, lanes=1, nodes=3, reach=0, field=False, shared=True, rows=0, cover=0.5, seed=0)
@example(m=2, lanes=3, nodes=4, reach=0, field=True, shared=False, rows=0, cover=2.0, seed=1)
def test_sampler_matches_the_interpolation_formula(m, lanes, nodes, reach, field, shared,
                                                   rows, cover, seed):
    rng = np.random.default_rng(seed)
    grid = tuple(nodes + d for d in range(m))
    trail = (reach, 1 + m) if field else (reach,)
    values = rng.standard_normal((lanes,) + grid + trail)
    half = rng.uniform(0.5, 2.0, size=(1 if shared else lanes, m))
    axes = [[np.linspace(-a, a, g) for a, g in zip(hw, grid)] for hw in half]
    frames = np.stack([grid_frame(ax) for ax in axes])
    which = rng.integers(0, lanes, size=rows)
    lane_axes = [axes[0 if shared else k] for k in range(lanes)]
    z = np.concatenate([sample_points(rng, lane_axes[k], rows)[None] for k in range(lanes)])
    z = z[which, np.arange(rows)] if rows else np.zeros((0, m))
    frame = frames if shared else frames[which]
    table, lane = (values[0], None) if lanes == 1 else (values, which)
    want = interp_multilinear(frames[0] if shared else frame, table, z, lane)
    got = GridSampler(table, frame, lane)(z)
    assert same_bits(got, want)
    # without the box mask, the support mask of a radius the box covers
    # zeroes every point the box mask would
    weights = rng.uniform(0.5, 2.0, size=m)
    radius = cover * float((half * weights).min())
    covers = all(box_covers_support(f, weights, radius) for f in frames)
    if abs(cover - 1.0) > 1e-9:
        assert covers == (cover < 1.0)
    if covers:
        out = row_norms(z * weights) >= radius
        masked = want.copy()
        masked[out] = 0.0
        got = GridSampler(table, frame, lane, boxed=False)(z)
        got[out] = 0.0
        assert same_bits(got, masked)
    # retiring points keeps the entries of the points kept
    keep = rng.random(rows) < 0.6
    sampler = GridSampler(table, frame, lane)
    sampler.retire(keep)
    kept = interp_multilinear(frames[0] if shared else frame[keep], table, z[keep],
                              None if lane is None else lane[keep])
    assert same_bits(sampler(z[keep]), kept)


def test_sampler_needs_the_box_mask_past_a_narrow_box():
    # a point outside a box narrower than the support is extrapolated from
    # the edge cell unless the box mask zeroes it
    axes = (np.linspace(-0.5, 0.5, 5),)
    frame = grid_frame(axes)[None]
    values = np.arange(5.0)[:, None] + 1.0
    z = np.array([[0.75]])
    assert not box_covers_support(frame[0], np.ones(1), 1.0)
    assert box_covers_support(frame[0], np.ones(1), 0.5)
    assert not box_covers_support(frame[0], np.ones(1), None)
    assert GridSampler(values, frame)(z)[0, 0] == 0.0
    assert GridSampler(values, frame, boxed=False)(z)[0, 0] == 6.0
