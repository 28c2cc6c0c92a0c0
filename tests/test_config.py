"""Configuration round trips and laboratory assembly."""

import contextlib
import dataclasses
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imlab.cli import main
from imlab.config import (
    ExperimentConfig,
    _sampled_slope,
    _unit_bases,
    build_lab,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
)
from imlab.errors import AdmissibilityError, CertificationError, ConfigError
from imlab.nonlinearity import (
    PerturbedNonlinearityPair,
    _ball_samples,
    certify_constants,
    pad_rows,
)
from imlab.spectral_core import SpectralProblem, weighted_opnorms


def test_defaults():
    cfg = default_config()
    assert cfg.seed == 0
    assert cfg.spectral.rule == "i^2" and cfg.spectral.scale == 2.0
    assert cfg.spectral.m == 1 and cfg.spectral.alpha == 0.0
    assert cfg.nonlinearity.lf == 0.1
    assert cfg.theta == "auto" and cfg.theta_star == "auto"


def test_dict_roundtrip():
    cfg = default_config()
    blob = config_to_dict(cfg)
    json.dumps(blob)  # must be serializable as-is
    again = config_from_dict(blob)
    assert again == cfg


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"spooky": 1})
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"spectral": {"rule": "i^2", "order": 3}})


def test_value_guards():
    with pytest.raises(ConfigError):
        config_from_dict({"theta": -0.5})
    with pytest.raises(ConfigError):
        config_from_dict({"family": {"eps_grid": [0.1, -0.2]}})
    with pytest.raises(ConfigError):
        config_from_dict({"family": {"eps_grid": []}})
    with pytest.raises(ConfigError):
        config_from_dict({"nonlinearity": {"LF": 0.0}})
    with pytest.raises(ConfigError, match="nonnegative"):
        build_lab(config_from_dict({"nonlinearity": {"amplitude": -1.0}}))
    config_from_dict({"family": {"eps_grid": [0.0, 0.1]}})  # zero is a valid member


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 7, "spectral": {"N": 16}}))
    cfg = load_config(path)
    assert cfg.seed == 7 and cfg.spectral.n == 16
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(arr)


def test_default_lab_shape(lab):
    assert lab.limit_problem.n_modes == 32
    assert lab.limit_problem.eigenvalues[0] == 2.0
    assert lab.kappa == 1.0
    assert lab.gap.passed
    # spectrum scale 2 puts the default exactly at the top of the window
    assert lab.gap.theta_tilde == pytest.approx(1.0, abs=1e-12)
    assert lab.gap.margins["spectral_gap"] == pytest.approx(4.2, abs=1e-12)
    assert lab.gap.margins["eigenvalue_strength"] == pytest.approx(0.2, abs=1e-12)
    assert lab.theta_star == pytest.approx(0.9)
    assert lab.theta == pytest.approx(0.45)
    assert lab.eps_grid[0] > lab.eps_grid[-1] or lab.eps_grid == tuple(sorted(lab.eps_grid))


def test_lab_rng_streams(lab):
    a = lab.rng("study").uniform(size=3)
    b = lab.rng("study").uniform(size=3)
    assert np.array_equal(a, b)  # same tag restarts the stream
    c = lab.rng("suites").uniform(size=3)
    assert not np.array_equal(a, c)
    with pytest.raises(KeyError):
        lab.rng("nonsense")


def test_normalized_amplitude_passes_certification(lab):
    sampled = lab.certify()
    F = lab.limit_F
    assert set(sampled) == {0.0, max(lab.eps_grid)}
    for est in sampled.values():
        assert est["C_F"] <= F.C_F and est["L_F"] <= F.L_F and est["L"] <= F.L
    assert F.L_F == pytest.approx(0.1, rel=1e-12)


def test_build_and_certify_stay_small():
    # the Jacobian samples stream in blocks of (K, N) rows, not whole dense
    # N x N stacks, which took the two peaks to 124 and 158 MB on the default
    # config (and whole K-row stacks to 26 and 24 MB)
    tracemalloc.start()
    try:
        lab = build_lab(default_config())
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        lab.certify()
        _, certify_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build_peak < 16e6 and certify_peak < 16e6, (build_peak, certify_peak)


@pytest.mark.parametrize("payload", [{"seed": s} for s in range(4)]
                         + [{"spectral": {"m": 2}, "solver": {"grid_nodes": 21}}])
def test_sampled_slope_equals_the_dense_maximum(payload):
    # the amplitude rests on this maximum, so the K-row shortcut must give
    # the zero-extended N x N stack's value bit for bit
    cfg = config_from_dict(payload)
    nl = cfg.nonlinearity
    base, direction = _unit_bases(cfg, np.random.default_rng(cfg.seed))
    lam = cfg.spectral.limit_eigenvalues()
    for eps in (0.0, max(cfg.family.eps_grid)):
        problem = SpectralProblem(lam * (1.0 + eps), cfg.spectral.m, cfg.spectral.alpha)
        F = PerturbedNonlinearityPair(base, direction, eps).member(problem, eps, nl.radius, {})
        pts = _ball_samples(problem, nl.radius, 1500, np.random.default_rng(cfg.seed))
        dense = pad_rows(F.jacobian_batch(pts), problem.n_modes)
        want = weighted_opnorms(dense, col_weights=problem.alpha_weights).max()
        got = _sampled_slope(problem, base, direction, eps, nl.radius,
                             np.random.default_rng(cfg.seed))
        assert got == want, (eps, got, want)


def test_understated_constants_fail_certification():
    cfg = config_from_dict({"nonlinearity": {"amplitude": 0.02, "LF": 1e-4}})
    lab = build_lab(cfg)
    with pytest.raises(CertificationError):
        lab.certify()


def test_family_members(lab):
    p0 = lab.problem_at(0.0)
    assert np.array_equal(p0.eigenvalues, lab.limit_problem.eigenvalues)
    p1 = lab.problem_at(0.1)
    assert np.allclose(p1.eigenvalues, lab.limit_problem.eigenvalues * 1.1, rtol=1e-15)
    pair = lab.extension_at(0.1)
    assert pair.kappa == 1.0 and np.array_equal(pair.E, np.eye(32))
    F0 = lab.nonlinearity_at(0.0)
    Fe = lab.nonlinearity_at(0.05)
    u = np.zeros((1, 32))
    assert not np.allclose(F0.eval_batch(u), Fe.eval_batch(u))
    assert F0.L_F == Fe.L_F  # constants hold uniformly over the family


def test_exponent_window_guards():
    with pytest.raises(AdmissibilityError, match="theta_star"):
        build_lab(config_from_dict({"theta_star": 1.5}))
    with pytest.raises(AdmissibilityError, match="theta"):
        build_lab(config_from_dict({"theta": 0.95, "theta_star": 0.9}))


def test_zero_amplitude_lab_builds():
    lab = build_lab(config_from_dict({"nonlinearity": {"amplitude": 0.0}}))
    u = np.zeros((1, 32))
    assert np.all(lab.limit_F.eval_batch(u) == 0.0)


def test_explicit_eigenvalues():
    cfg = config_from_dict({"spectral": {"eigenvalues": [2.0, 8.0, 18.0, 32.0], "m": 1}})
    lab = build_lab(cfg)
    assert lab.limit_problem.n_modes == 4


def test_config_is_frozen():
    cfg = default_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 5


# ---------------------------------------------------------------------------
# Fuzzed configurations: each field draws a plausible value or junk of any
# JSON type. Spectra stay small (N <= 10), so no draw allocates much.

_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True), st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=1),
)


def _field(valid):
    """The valid-type strategy, or junk one draw in eight."""
    return st.integers(0, 7).flatmap(lambda i: _JUNK if i == 0 else valid)


def _section(fields):
    return _field(st.fixed_dictionaries({}, optional=fields))


_NUMBER = st.floats(-2.0, 40.0)
_CONFIGS = st.fixed_dictionaries({}, optional={
    "seed": _field(st.integers(-1, 5)),
    "out_dir": _field(st.just("out")),
    "theta": _field(st.one_of(st.just("auto"), st.floats(-0.5, 1.5))),
    "theta_star": _field(st.one_of(st.just("auto"), st.floats(-0.5, 1.5))),
    "spectral": _section({
        "rule": _field(st.sampled_from(["i^2", "linear", "cubic"])),
        "N": _field(st.integers(-1, 10)),
        "scale": _field(_NUMBER),
        "m": _field(st.integers(-1, 4)),
        "alpha": _field(st.floats(-0.5, 1.5)),
        "eigenvalues": _field(st.lists(_NUMBER, max_size=8)),
    }),
    "nonlinearity": _section({
        "model": _field(st.sampled_from(["sine", "cosine"])),
        "K": _field(st.integers(-1, 6)),
        "R": _field(st.floats(-1.0, 3.0)),
        "LF": _field(st.floats(-0.1, 2.0)),
        "CF": _field(st.one_of(st.just("auto"), st.floats(-1.0, 2.0))),
        "thetaF": _field(st.floats(-0.5, 1.5)),
        "L": _field(st.one_of(st.just("auto"), st.floats(-1.0, 5.0))),
        "amplitude": _field(st.one_of(st.just("auto"), st.floats(-1.0, 1.0))),
        "G": _section({"model": _field(st.just("cosine")),
                       "relative_amplitude": _field(st.floats(-1.0, 2.0))}),
        "eps_rule": _field(st.sampled_from(["additive", "other"])),
    }),
    "solver": _section({
        "T_horizon": _field(st.one_of(st.just("auto"), _NUMBER)),
        "h": _field(st.one_of(st.just("auto"), st.floats(-0.1, 1.0))),
        "tol_fp": _field(st.floats(-1e-6, 1e-3)),
        "max_iter": _field(st.integers(-1, 80)),
        "grid_nodes": _field(st.integers(0, 301)),
        "box_factor": _field(st.floats(0.0, 3.0)),
    }),
    "family": _section({
        "spectral_perturbation": _field(st.just("multiplicative")),
        "extension": _field(st.just("identity")),
        "eps_grid": _field(st.lists(st.floats(-0.5, 1.5), max_size=3)),
    }),
})


@settings(max_examples=25, deadline=None)
@given(payload=_CONFIGS)
def test_fuzzed_configs_build_or_fail_in_the_taxonomy(tmp_path_factory, payload):
    # parsing raises ConfigError or nothing, building raises ConfigError or
    # (for a well-formed config) AdmissibilityError, and `imlab check-gap`
    # reports the same outcome through its exit code, never a traceback
    try:
        lab = build_lab(config_from_dict(payload))
        expected = 0 if lab.gap.passed else 2
    except ConfigError:
        expected = 1
    except AdmissibilityError:
        expected = 2
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(payload))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["check-gap", "--config", str(path)]) == expected
