"""Experiment configuration: JSON schema, validation, and seeded model builders.

A configuration fully determines the laboratory: the limit spectrum, the
perturbed family, the prepared nonlinearity with certified constants, solver
controls, and the regularity exponents. Randomness is derived from one seed
through fixed spawn keys, so every build is reproducible bit for bit.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import gap_analysis
from .errors import AdmissibilityError, ConfigError
from .lyapunov_perron import SolveSettings
from .nonlinearity import (
    CERT_SLACK,
    CosineBase,
    CutoffNonlinearity,
    PerturbedNonlinearityPair,
    SineBase,
    _ball_samples,
    certify_constants,
    holder_quotient_of_derivative,
    pad_rows,
)
from .spectral_core import (
    ExtensionPair,
    SpectralProblem,
    identity_pair,
    spectrum_from_rule,
    weighted_opnorms,
)

DEFAULT_EPS_GRID = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)

# fixed spawn keys so each consumer owns an independent, reproducible stream
_RNG_TAGS = {"model": 0, "certify": 1, "suites": 2, "study": 3, "cli": 4}


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _only_keys(d, allowed, where):
    _require(isinstance(d, dict), f"{where} must be a JSON object")
    extra = set(d) - set(allowed)
    _require(not extra, f"unknown keys in {where}: {sorted(extra)}")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _number(d, key, default):
    v = d.get(key, default)
    _require(_is_number(v), f"{key} must be a finite number, got {v!r}")
    return float(v)


def _number_or_auto(d, key):
    return "auto" if d.get(key, "auto") == "auto" else _number(d, key, None)


def _integer(d, key, default):
    v = d.get(key, default)
    _require(isinstance(v, int) and not isinstance(v, bool),
             f"{key} must be an integer, got {v!r}")
    return v


def _text(d, key, default):
    v = d.get(key, default)
    _require(isinstance(v, str), f"{key} must be a string, got {v!r}")
    return v


def _numbers(d, key, default):
    v = d.get(key, default)
    _require(isinstance(v, (list, tuple)) and all(_is_number(x) for x in v),
             f"{key} must be a list of finite numbers")
    return tuple(float(x) for x in v)


@dataclass(frozen=True)
class SpectralConfig:
    rule: str = "i^2"
    n: int = 32
    scale: float = 2.0
    m: int = 1
    alpha: float = 0.0
    eigenvalues: tuple | None = None

    def limit_eigenvalues(self) -> np.ndarray:
        if self.eigenvalues is not None:
            return np.asarray(self.eigenvalues, dtype=float)
        return spectrum_from_rule(self.rule, self.n, self.scale)


@dataclass(frozen=True)
class NonlinearityConfig:
    model: str = "sine"
    k: int = 4
    radius: float = 1.0
    lf: float = 0.1
    cf: float | str = "auto"
    theta_f: float = 1.0
    l: float | str = "auto"
    amplitude: float | str = "auto"
    g_model: str = "cosine"
    g_relative_amplitude: float = 1.0
    eps_rule: str = "additive"


@dataclass(frozen=True)
class FamilyConfig:
    spectral_perturbation: str = "multiplicative"
    extension: str = "identity"
    eps_grid: tuple = DEFAULT_EPS_GRID

    def __post_init__(self):
        # checked here, so an --eps-grid override is held to the config rules
        _require(
            self.spectral_perturbation == "multiplicative",
            f"unknown spectral perturbation {self.spectral_perturbation!r}",
        )
        _require(self.extension == "identity", f"unknown extension {self.extension!r}")
        _require(len(self.eps_grid) >= 1, "eps_grid must not be empty")
        _require(all(math.isfinite(e) for e in self.eps_grid), "eps_grid entries must be finite")
        _require(all(e >= 0 for e in self.eps_grid), "eps_grid entries must be nonnegative")
        _require(max(self.eps_grid) <= 1.0, "eps_grid entries must not exceed 1")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    out_dir: str = "out"
    spectral: SpectralConfig = field(default_factory=SpectralConfig)
    nonlinearity: NonlinearityConfig = field(default_factory=NonlinearityConfig)
    solver: SolveSettings = field(default_factory=SolveSettings)
    family: FamilyConfig = field(default_factory=FamilyConfig)
    theta: float | str = "auto"
    theta_star: float | str = "auto"

    def __post_init__(self):
        # checked here, not in the parser, so command-line overrides applied
        # with dataclasses.replace are checked too
        _require(self.seed >= 0, f"seed must be nonnegative, got {self.seed}")
        n = len(self.spectral.limit_eigenvalues())
        _require(self.nonlinearity.k <= n,
                 f"K={self.nonlinearity.k} base coefficients exceed N={n} modes")


def default_config() -> ExperimentConfig:
    return ExperimentConfig()


# ---------------------------------------------------------------------------
# JSON round trip


def _spectral_from_dict(d) -> SpectralConfig:
    _only_keys(d, {"rule", "N", "scale", "m", "alpha", "eigenvalues"}, "spectral")
    eig = None if d.get("eigenvalues") is None else _numbers(d, "eigenvalues", None)
    cfg = SpectralConfig(
        rule=_text(d, "rule", "i^2"),
        n=_integer(d, "N", len(eig) if eig else 32),
        scale=_number(d, "scale", 2.0),
        m=_integer(d, "m", 1),
        alpha=_number(d, "alpha", 0.0),
        eigenvalues=eig,
    )
    _require(0.0 <= cfg.alpha < 1.0, "alpha must lie in [0, 1)")
    if cfg.eigenvalues is not None:
        _require(cfg.n == len(cfg.eigenvalues), "N disagrees with eigenvalues")
    return cfg


def _nonlinearity_from_dict(d) -> NonlinearityConfig:
    _only_keys(
        d,
        {"model", "K", "R", "LF", "CF", "thetaF", "L", "amplitude", "G", "eps_rule"},
        "nonlinearity",
    )
    g = d.get("G", {})
    _only_keys(g, {"model", "relative_amplitude"}, "nonlinearity.G")
    cfg = NonlinearityConfig(
        model=_text(d, "model", "sine"),
        k=_integer(d, "K", 4),
        radius=_number(d, "R", 1.0),
        lf=_number(d, "LF", 0.1),
        cf=_number_or_auto(d, "CF"),
        theta_f=_number(d, "thetaF", 1.0),
        l=_number_or_auto(d, "L"),
        amplitude=_number_or_auto(d, "amplitude"),
        g_model=_text(g, "model", "cosine"),
        g_relative_amplitude=_number(g, "relative_amplitude", 1.0),
        eps_rule=_text(d, "eps_rule", "additive"),
    )
    _require(cfg.model == "sine", f"unknown nonlinearity model {cfg.model!r}")
    _require(cfg.g_model == "cosine", f"unknown direction model {cfg.g_model!r}")
    _require(cfg.k >= 1, "K must be at least 1")
    _require(cfg.radius > 0, "R must be positive")
    _require(cfg.lf > 0, "LF must be positive")
    _require(0.0 < cfg.theta_f <= 1.0, "thetaF must lie in (0, 1]")
    _require(cfg.g_relative_amplitude >= 0, "relative_amplitude must be nonnegative")
    return cfg


def _solver_from_dict(d) -> SolveSettings:
    _only_keys(
        d,
        {"T_horizon", "h", "tol_fp", "max_iter", "grid_nodes", "box_factor"},
        "solver",
    )
    return SolveSettings(
        t_horizon=_number_or_auto(d, "T_horizon"),
        h=_number_or_auto(d, "h"),
        tol_fp=_number(d, "tol_fp", 1e-10),
        max_iter=_integer(d, "max_iter", 60),
        grid_nodes=_integer(d, "grid_nodes", 201),
        box_factor=_number(d, "box_factor", 1.5),
    )


def _family_from_dict(d) -> FamilyConfig:
    _only_keys(d, {"spectral_perturbation", "extension", "eps_grid"}, "family")
    return FamilyConfig(
        spectral_perturbation=_text(d, "spectral_perturbation", "multiplicative"),
        extension=_text(d, "extension", "identity"),
        eps_grid=_numbers(d, "eps_grid", DEFAULT_EPS_GRID),
    )


def config_from_dict(d) -> ExperimentConfig:
    _only_keys(
        d,
        {"seed", "out_dir", "spectral", "nonlinearity", "solver", "family",
         "theta", "theta_star"},
        "config",
    )

    def exponent(key):
        v = _number_or_auto(d, key)
        _require(v == "auto" or v > 0, f"{key} must be positive or 'auto'")
        return v

    return ExperimentConfig(
        seed=_integer(d, "seed", 0),
        out_dir=_text(d, "out_dir", "out"),
        spectral=_spectral_from_dict(d.get("spectral", {})),
        nonlinearity=_nonlinearity_from_dict(d.get("nonlinearity", {})),
        solver=_solver_from_dict(d.get("solver", {})),
        family=_family_from_dict(d.get("family", {})),
        theta=exponent("theta"),
        theta_star=exponent("theta_star"),
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    return config_from_dict(data)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    s, nl, sol, fam = cfg.spectral, cfg.nonlinearity, cfg.solver, cfg.family
    spectral = {"rule": s.rule, "N": s.n, "scale": s.scale, "m": s.m, "alpha": s.alpha}
    if s.eigenvalues is not None:
        spectral["eigenvalues"] = list(s.eigenvalues)
    return {
        "seed": cfg.seed,
        "out_dir": cfg.out_dir,
        "spectral": spectral,
        "nonlinearity": {
            "model": nl.model,
            "K": nl.k,
            "R": nl.radius,
            "LF": nl.lf,
            "CF": nl.cf,
            "thetaF": nl.theta_f,
            "L": nl.l,
            "amplitude": nl.amplitude,
            "G": {"model": nl.g_model, "relative_amplitude": nl.g_relative_amplitude},
            "eps_rule": nl.eps_rule,
        },
        "solver": {
            "T_horizon": sol.t_horizon,
            "h": sol.h,
            "tol_fp": sol.tol_fp,
            "max_iter": sol.max_iter,
            "grid_nodes": sol.grid_nodes,
            "box_factor": sol.box_factor,
        },
        "family": {
            "spectral_perturbation": fam.spectral_perturbation,
            "extension": fam.extension,
            "eps_grid": list(fam.eps_grid),
        },
        "theta": cfg.theta,
        "theta_star": cfg.theta_star,
    }


# ---------------------------------------------------------------------------
# Laboratory: everything the harness needs, built once from a config


@dataclass(eq=False)
class Laboratory:
    """Instantiated experiment: problems, family, constants, exponents."""

    config: ExperimentConfig
    limit_problem: SpectralProblem
    family: PerturbedNonlinearityPair
    constants: dict
    amplitude: float
    kappa: float
    gap: "gap_analysis.GapReport"
    theta: float
    theta_star: float

    def rng(self, tag: str) -> np.random.Generator:
        seq = np.random.SeedSequence(self.config.seed, spawn_key=(_RNG_TAGS[tag],))
        return np.random.default_rng(seq)

    def problem_at(self, eps: float) -> SpectralProblem:
        if eps == 0.0:
            return self.limit_problem
        lam = self.limit_problem.eigenvalues * (1.0 + eps)
        return SpectralProblem(lam, self.limit_problem.m, self.limit_problem.alpha)

    def extension_at(self, eps: float) -> ExtensionPair:
        return identity_pair(self.limit_problem, self.problem_at(eps))

    def nonlinearity_at(self, eps: float) -> CutoffNonlinearity:
        return self.family.member(
            self.problem_at(eps), eps, self.config.nonlinearity.radius, self.constants
        )

    @property
    def limit_F(self) -> CutoffNonlinearity:
        return self.nonlinearity_at(0.0)

    @property
    def eps_grid(self) -> tuple:
        return self.config.family.eps_grid

    @property
    def solve_settings(self) -> SolveSettings:
        return self.config.solver

    def certify(self, rng=None) -> dict:
        """Re-sample the configured constants on both end members; loud on
        violation. Returns the sampled estimates keyed by eps."""
        rng = self.rng("certify") if rng is None else rng
        out = {}
        for eps in (0.0, self.family.eps_max):
            out[eps] = certify_constants(self.nonlinearity_at(eps), rng=rng)
        return out


def _unit_bases(cfg: ExperimentConfig, rng):
    nl = cfg.nonlinearity
    n = cfg.spectral.n
    profile = rng.uniform(0.5, 1.0, size=nl.k)
    w_base = rng.standard_normal((nl.k, n)) / np.sqrt(n)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=nl.k)
    w_dir = rng.standard_normal((nl.k, n)) / np.sqrt(n)
    base = SineBase(n, profile, w_base, phases)
    direction = CosineBase(n, nl.g_relative_amplitude * profile, w_dir)
    return base, direction


def _sampled_slope(problem, base, direction, eps, radius, rng, count=1500):
    F = PerturbedNonlinearityPair(base, direction, eps).member(problem, eps, radius, {})
    pts = _ball_samples(problem, radius, count, rng)
    w = problem.alpha_weights
    # The amplitude scales every reported number, and it was fixed by the
    # largest norm of the zero-extended N x N Jacobians, whose top singular
    # value can differ from the (K, N) block's in the last bit. Both are
    # backward-stable SVDs of the same matrix, so they agree to a few ulps:
    # a sample whose K-row norm is more than 1e-9 relative below the largest
    # cannot hold the N x N maximum. Only the samples within that margin are
    # zero-extended, and the maximum comes out bit for bit as before.
    jac = F.jacobian_batch(pts)
    norms = weighted_opnorms(jac, col_weights=w)
    top = pad_rows(jac[norms >= (1.0 - 1e-9) * norms.max()], problem.n_modes)
    return float(weighted_opnorms(top, col_weights=w).max())


def build_lab(cfg: ExperimentConfig) -> Laboratory:
    """Instantiate the laboratory; derivative-linearity in the amplitude makes
    the Lipschitz normalization exact."""
    spectral = cfg.spectral
    limit = SpectralProblem(spectral.limit_eigenvalues(), spectral.m, spectral.alpha)
    nl = cfg.nonlinearity
    rng = np.random.default_rng(
        np.random.SeedSequence(cfg.seed, spawn_key=(_RNG_TAGS["model"],))
    )
    base_u, dir_u = _unit_bases(cfg, rng)

    eps_max = max(cfg.family.eps_grid)
    probe_problems = {0.0: limit}
    lam_max = limit.eigenvalues * (1.0 + eps_max)
    probe_problems[eps_max] = SpectralProblem(lam_max, limit.m, limit.alpha)

    if nl.amplitude == "auto":
        slope = max(
            _sampled_slope(probe_problems[e], base_u, dir_u, e, nl.radius, rng)
            for e in (0.0, eps_max)
        )
        if slope <= 0:
            raise ConfigError("degenerate nonlinearity: zero sampled slope")
        amplitude = nl.lf / (CERT_SLACK * slope)
    else:
        amplitude = float(nl.amplitude)
        _require(amplitude >= 0, "amplitude must be nonnegative")

    base = base_u.scaled(amplitude)
    direction = dir_u.scaled(amplitude)
    family = PerturbedNonlinearityPair(base, direction, eps_max)

    def end_members(constants):
        return [
            family.member(probe_problems[e], e, nl.radius, constants)
            for e in (0.0, eps_max)
        ]

    if nl.cf == "auto":
        cf = 0.0
        for F in end_members({}):
            pts = _ball_samples(F.problem, nl.radius, 1500, rng)
            cf = max(cf, float(np.linalg.norm(F.eval_batch(pts), axis=1).max()))
        cf *= CERT_SLACK
    else:
        cf = float(nl.cf)

    if nl.l == "auto":
        l_cfg = max(
            holder_quotient_of_derivative(F, nl.theta_f, rng=rng)
            for F in end_members({})
        )
    else:
        l_cfg = float(nl.l)

    constants = {"C_F": cf, "L_F": nl.lf, "theta_F": nl.theta_f, "L": l_cfg}

    kappa = identity_pair(limit, probe_problems[eps_max]).kappa

    t_tilde = gap_analysis.theta_tilde(
        nl.theta_f,
        gap_analysis.theta0(limit.lambda_m, limit.lambda_m1, nl.lf, limit.alpha),
        gap_analysis.theta1(limit.lambda_m, limit.lambda_m1, nl.lf, kappa, limit.alpha),
    )
    if cfg.theta_star == "auto":
        # a closed window still gets placeholder exponents so the failing
        # gap report can be built and printed; solving is blocked anyway
        theta_star = 0.9 * t_tilde if t_tilde > 0 else 0.5
    else:
        theta_star = float(cfg.theta_star)
        if theta_star > t_tilde:
            raise AdmissibilityError(
                f"theta_star {theta_star:.4g} exceeds the admissible "
                f"exponent {t_tilde:.4g}"
            )
    theta = 0.5 * theta_star if cfg.theta == "auto" else float(cfg.theta)
    if not 0.0 < theta < theta_star:
        raise AdmissibilityError(
            f"need 0 < theta < theta_star, got theta={theta:.4g}, "
            f"theta_star={theta_star:.4g}"
        )

    gap = gap_analysis.gap_report(
        limit.lambda_m,
        limit.lambda_m1,
        nl.lf,
        kappa=kappa,
        alpha=limit.alpha,
        theta=theta,
        theta_F=nl.theta_f,
        L=l_cfg,
    )

    return Laboratory(
        config=cfg,
        limit_problem=limit,
        family=family,
        constants=constants,
        amplitude=amplitude,
        kappa=kappa,
        gap=gap,
        theta=theta,
        theta_star=theta_star,
    )
