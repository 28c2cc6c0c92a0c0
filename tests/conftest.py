"""Shared fixtures.

The default laboratory and its solved limit manifold are expensive enough
(a second or two each) that every module reuses one session-scoped copy.
Tests that mutate nothing may share them freely; anything that needs a
different configuration builds its own lab locally. The plain helpers
below are imported by the test modules (`from conftest import ...`).
"""

from dataclasses import replace

import numpy as np
import pytest

from imlab.config import build_lab, default_config
from imlab.errors import ConfigError
from imlab.nonlinearity import cutoff_and_slope, pad_rows
from imlab.perturbation_harness import solve_member
from imlab.spectral_core import ExtensionPair, certify_kappa


@pytest.fixture(scope="session")
def lab():
    return build_lab(default_config())


@pytest.fixture(scope="session")
def limit(lab):
    return solve_member(lab, 0.0)


def eval_one(F, u):
    """F at a single point u (N,)."""
    return F.eval_batch(np.asarray(u, dtype=float)[None, :])[0]


def alpha_norm(problem, v):
    """Fractional-power norm (sum v_i^2 lambda_i^(2 alpha))^(1/2) of one
    vector, by `np.linalg.norm`."""
    v = problem.check_vector(v)
    return float(np.linalg.norm(v * problem.alpha_weights))


def cutoff_derivative(r, radius):
    """Derivative of the bump with respect to r, at radii of any shape;
    zero off the annulus."""
    r = np.asarray(r, dtype=float)
    _, at, dzeta = cutoff_and_slope(r.reshape(-1), radius)
    out = np.zeros(r.size)
    out[at] = dzeta
    return out.reshape(r.shape)


def base_value(base, u):
    """A base map's values at the points u, zero-extended to all N
    coefficients: each term's values from its own phase `u @ W.T`, one
    product over all the points, summed in `SumBase` order."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    (atom, _), *rest = base.terms()
    vals = pad_rows(atom.value_at(atom.phase(u)), base.n)
    for atom, scale in rest:
        vals = vals + scale * pad_rows(atom.value_at(atom.phase(u)), base.n)
    return vals


def with_constants(F, C_F, L_F, theta_F, L):
    """F with its configured constants replaced."""
    return replace(F, C_F=C_F, L_F=L_F, theta_F=theta_F, L=L)


def direction_sup(family):
    """Sup norm of a family's direction; exact for zero-phase cosine
    directions, whose norm peaks at u = 0."""
    return float(np.linalg.norm(family.direction.amplitudes))


def mode_mixing_pair(limit, perturbed, angle, modes):
    """Orthogonal rotation mixing two modes; exercises kappa > 1 at alpha > 0.

    Modes are zero-based indices into the shared coefficient space.
    """
    n0, ne = limit.n_modes, perturbed.n_modes
    if ne != n0:
        raise ConfigError("mode mixing requires equal mode counts")
    i, j = modes
    if not (0 <= i < n0 and 0 <= j < n0 and i != j):
        raise ConfigError(f"invalid mode pair {modes}")
    E = np.eye(n0)
    c, s = np.cos(angle), np.sin(angle)
    E[i, i] = c
    E[j, j] = c
    E[i, j] = -s
    E[j, i] = s
    M = E.T.copy()
    kappa = certify_kappa(E, M, limit, perturbed)
    return ExtensionPair(E=E, M=M, kappa=kappa)
