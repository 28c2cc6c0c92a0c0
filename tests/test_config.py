"""Configuration parsing and laboratory assembly."""

import contextlib
import dataclasses
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imlab import config, nonlinearity, spectral_core
from imlab.cli import main
from imlab.config import (
    HELD_MARGIN,
    ExperimentConfig,
    _sampled_slope,
    _unit_bases,
    build_lab,
    config_from_dict,
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
from imlab.perturbation_harness import solve_members
from imlab.spectral_core import SCREEN_MARGIN, SpectralProblem, weighted_opnorms


def test_defaults():
    cfg = default_config()
    assert cfg.seed == 0
    assert cfg.spectral.rule == "i^2" and cfg.spectral.scale == 2.0
    assert cfg.spectral.m == 1 and cfg.spectral.alpha == 0.0
    assert cfg.nonlinearity.lf == 0.1
    assert cfg.theta == "auto" and cfg.theta_star == "auto"


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"spooky": 1})
    with pytest.raises(ConfigError, match="unknown"):
        config_from_dict({"spectral": {"rule": "i^2", "order": 3}})


def test_readme_default_block_loads_to_the_defaults():
    # the README's config block spells out every key, the five that accept
    # one value (model, G.model, eps_rule, spectral_perturbation, extension)
    # included
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Configuration", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    payload = json.loads(block)
    assert payload["nonlinearity"]["eps_rule"] == "additive"
    assert payload["family"]["extension"] == "identity"
    assert config_from_dict(payload) == default_config()


@pytest.mark.parametrize("payload", [
    {"nonlinearity": {"model": "cosine"}},
    {"nonlinearity": {"G": {"model": "sine"}}},
    {"nonlinearity": {"eps_rule": "scaling"}},
    {"family": {"spectral_perturbation": "additive"}},
    {"family": {"extension": "projection"}},
], ids=["model", "G.model", "eps_rule", "spectral_perturbation", "extension"])
def test_one_value_keys_reject_any_other(tmp_path, capsys, payload):
    with pytest.raises(ConfigError):
        config_from_dict(payload)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    assert main(["check-gap", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


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


# The default lab's sampled numbers, recorded while the sampling calls still
# ran their own value and product-rule code. The amplitude, C_F and L rest on
# the sampled phase gemms, and no output reference covers them on the
# default seed; they must hold to 1e-12 relative, the output rule.
SAMPLED_DEFAULTS = {
    "amplitude": 0.01709312393614689,
    "constants": {"C_F": 0.024995850517172274, "L_F": 0.1, "theta_F": 1.0,
                  "L": 0.4323050377263945},
    "certify": {
        0.0: {"C_F": 0.022436902541654886, "L_F": 0.0911867725903875,
              "L": 0.33962674930867526},
        0.1: {"C_F": 0.020582262940822896, "L_F": 0.08206252591751789,
              "L": 0.28055410143368426},
    },
}


def test_sampled_constants_keep_their_recorded_values(lab):
    def close(want):
        return pytest.approx(want, rel=1e-12, abs=0.0)

    assert lab.amplitude == close(SAMPLED_DEFAULTS["amplitude"])
    assert lab.constants == close(SAMPLED_DEFAULTS["constants"])
    sampled = lab.certify()
    assert sampled.keys() == SAMPLED_DEFAULTS["certify"].keys()
    for eps, want in SAMPLED_DEFAULTS["certify"].items():
        assert sampled[eps] == close(want), eps


def test_build_and_certify_stay_small():
    # the Jacobian samples stream in blocks of (K, N) rows, not whole dense
    # N x N stacks, which took the two peaks to 124 and 158 MB on the default
    # config (whole K-row stacks to 26 and 24 MB, whole-batch sampling
    # temporaries to 8.6 and 9.9 MB, and keeping the value-and-slope samples
    # through the Hoelder pair stage took certify to 5.3 MB)
    tracemalloc.start()
    try:
        lab = build_lab(default_config())
        _, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        lab.certify()
        _, certify_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build_peak < 8e6 and certify_peak < 6e6, (build_peak, certify_peak)


def test_build_and_certify_take_few_svds(monkeypatch):
    # build and certification read only maxima of their sampled Jacobians'
    # norms, so the Frobenius screen leaves the exact SVD to a few of them;
    # a full sweep took every one of the default config's 25,078 matrices
    offered, factored = [0], [0]
    svd, screen = np.linalg.svd, spectral_core.near_max_opnorms

    def counted_svd(a, *args, **kwargs):
        a = np.asarray(a)
        factored[0] += int(np.prod(a.shape[:-2]))
        return svd(a, *args, **kwargs)

    def counted_screen(mats, *args, **kwargs):
        offered[0] += len(mats)
        return screen(mats, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    for module in (config, nonlinearity):
        monkeypatch.setattr(module, "near_max_opnorms", counted_screen)
    build_lab(default_config()).certify()
    assert offered[0] > 20_000, offered
    assert factored[0] <= offered[0] // 10, (factored, offered)


def test_sampled_slope_margin_is_inside_the_screen():
    # `_sampled_slope` holds the samples within HELD_MARGIN of its maximum;
    # the screen must keep every one of them
    assert 0.0 < HELD_MARGIN < SCREEN_MARGIN


def test_family_solve_stays_small(lab):
    # the march carries only the fast modes F can reach and forms its
    # Jacobian rows in reused buffers, and the sweeps free their zero start
    # fields; all 31 fast modes and fresh (rows, K, N) stacks in every RK4
    # stage took the default family's solve to 10.3 MB
    tracemalloc.start()
    try:
        solve_members(lab, (0.0,) + lab.eps_grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6, peak


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


@pytest.mark.xfail(strict=True, raises=CertificationError,
                   reason="sampled constants are not bounds: certify's fresh samples beat "
                          "the build's sampled L on K = 1 at seed 3 (ROADMAP item 1)")
def test_k1_seed3_lab_certifies():
    lab = build_lab(config_from_dict({"seed": 3, "nonlinearity": {"K": 1}}))
    lab.certify()


def test_family_members(lab):
    p0 = lab.problem_at(0.0)
    assert np.array_equal(p0.eigenvalues, lab.limit_problem.eigenvalues)
    p1 = lab.problem_at(0.1)
    assert np.allclose(p1.eigenvalues, lab.limit_problem.eigenvalues * 1.1, rtol=1e-15)
    assert p1.n_modes == p0.n_modes  # every member shares the limit's modes
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
