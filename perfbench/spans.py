"""Outside-in tracing of imlab: wrap public functions, keep spans in memory,
reduce them to per-layer metrics.

Nothing under src/ is edited. `install` replaces each traced function by a
wrapper in every imlab module that binds it (including names imported by
value, such as `suites.apply_D`), and each traced method on its class. A
span is `[name, start, end, parent]`, where parent is the index of the
enclosing traced span or -1. Counts that are worked out from a call's
arguments (rows, RK4 steps, Jacobian bytes) are kept apart from measured
times and labelled as computed.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

# Span name -> (module, attribute) or (module, class, method).
TARGETS = {
    "config.build_lab": ("config", "build_lab"),
    "config.certify": ("config", "Laboratory", "certify"),
    "nonlinearity.certify_constants": ("nonlinearity", "certify_constants"),
    "nonlinearity.holder_quotient_of_derivative": (
        "nonlinearity", "holder_quotient_of_derivative"),
    "nonlinearity.eval_batch": ("nonlinearity", "CutoffNonlinearity", "eval_batch"),
    "nonlinearity.jacobian_batch": (
        "nonlinearity", "CutoffNonlinearity", "jacobian_batch"),
    "lyapunov_perron.solve_manifold": ("lyapunov_perron", "solve_manifold"),
    "lyapunov_perron.apply_T": ("lyapunov_perron", "apply_T"),
    "lyapunov_perron.solve_derivative": ("lyapunov_perron", "solve_derivative"),
    "lyapunov_perron.apply_D": ("lyapunov_perron", "apply_D"),
    "lyapunov_perron.integrate_Theta": ("lyapunov_perron", "integrate_Theta"),
    "lyapunov_perron.integrate_p_backward": ("lyapunov_perron", "integrate_p_backward"),
    "lyapunov_perron.holder_certificate": ("lyapunov_perron", "holder_certificate"),
    "lyapunov_perron.weighted_map_norms": ("lyapunov_perron", "weighted_map_norms"),
    "perturbation_harness.solve_member": ("perturbation_harness", "solve_member"),
    "perturbation_harness.rate_study": ("perturbation_harness", "rate_study"),
    "perturbation_harness.theta_comparison": ("perturbation_harness", "theta_comparison"),
    "perturbation_harness.tau_eps": ("perturbation_harness", "tau_eps"),
    "perturbation_harness.rho_of": ("perturbation_harness", "rho_of"),
    "perturbation_harness.beta_eps": ("perturbation_harness", "beta_eps"),
    "perturbation_harness.sup_distance": ("perturbation_harness", "sup_distance"),
    "perturbation_harness.c1_distance": ("perturbation_harness", "c1_distance"),
    "perturbation_harness.holder_seminorm_of_difference": (
        "perturbation_harness", "holder_seminorm_of_difference"),
    "perturbation_harness.write_csv": ("perturbation_harness", "DistanceReport", "write_csv"),
    "perturbation_harness.write_json": (
        "perturbation_harness", "DistanceReport", "write_json"),
    "perturbation_harness.write_plot_script": (
        "perturbation_harness", "write_plot_script"),
    "suites.distp": ("suites", "suite_distp"),
    "suites.Jnorm": ("suites", "suite_jnorm"),
    "suites.distThetaEpsilon": ("suites", "suite_dist_theta_eps"),
    "suites.PsiUniform": ("suites", "suite_psi_uniform"),
    "suites.Jdistance": ("suites", "suite_jdistance"),
}

# Metrics that sum the outermost spans of several names.
GROUPS = {
    "perturbation_harness.estimators": (
        "perturbation_harness.tau_eps", "perturbation_harness.rho_of",
        "perturbation_harness.beta_eps", "perturbation_harness.sup_distance",
        "perturbation_harness.c1_distance",
        "perturbation_harness.holder_seminorm_of_difference",
    ),
    "cli.write": (
        "perturbation_harness.write_csv", "perturbation_harness.write_json",
        "perturbation_harness.write_plot_script",
    ),
}


# ---------------------------------------------------------------------------
# Computed counts. Each counter takes the call's result and arguments and
# returns counts derived from them by arithmetic; nothing is measured.


def _batch_rows(u) -> int:
    shape = np.shape(u)
    return int(shape[0]) if len(shape) >= 2 else 1


def _march_counts(problem, F, grid, settings, purpose) -> dict:
    """Active rows from the grid nodes and support radius; RK4 steps per
    march from the public horizon and step resolvers."""
    from imlab.lyapunov_perron import SolveSettings, resolve_horizon, resolve_step
    from imlab.spectral_core import coord_norm_batch

    settings = settings or SolveSettings()
    nodes = grid.nodes()
    if grid.support_radius is None:
        rows = nodes.shape[0]
    else:
        rows = int((coord_norm_batch(problem, nodes) < grid.support_radius).sum())
    T = resolve_horizon(problem, F, settings, purpose=purpose)
    h = resolve_step(problem, F, settings)
    steps = max(1, math.ceil(T / h - 1e-12)) if rows else 0
    return {"rows": rows, "steps": steps}


def _count_apply_T(result, problem, F, phi, settings=None):
    return _march_counts(problem, F, phi, settings, "graph")


def _count_apply_D(result, problem, F, phi, upsilon, settings=None):
    return _march_counts(problem, F, upsilon, settings, "fiber")


def _count_eval(result, F, u):
    return {"rows": _batch_rows(u)}


def _count_jacobian(result, F, u):
    rows = _batch_rows(u)
    n = F.problem.n_modes
    return {"rows": rows, "bytes": rows * n * n * 8}


def _count_theta(result, problem, F, phi, upsilon, xi, settings=None):
    return {"rows": _batch_rows(xi)}


def _count_iterations(result, *args, **kwargs):
    return {"iterations": result.iterations}


# Span name -> (counter, the keys it returns).
COUNTERS = {
    "lyapunov_perron.apply_T": (_count_apply_T, ("rows", "steps")),
    "lyapunov_perron.apply_D": (_count_apply_D, ("rows", "steps")),
    "nonlinearity.eval_batch": (_count_eval, ("rows",)),
    "nonlinearity.jacobian_batch": (_count_jacobian, ("rows", "bytes")),
    "lyapunov_perron.integrate_Theta": (_count_theta, ("rows",)),
    "lyapunov_perron.solve_manifold": (_count_iterations, ("iterations",)),
    "lyapunov_perron.solve_derivative": (_count_iterations, ("iterations",)),
}

#: Count suffixes derived arithmetically from arguments, not measured.
COMPUTED = ("rows", "steps", "bytes")


# ---------------------------------------------------------------------------
# Recording


class Recorder:
    """In-memory span and count store for one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(int)
        self._open = []

    def wrap(self, name, fn, counter=None):
        clock, spans, counts, stack = self.clock, self.spans, self.counts, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                for key, val in counter(result, *args, **kwargs).items():
                    counts[f"{name}.{key}"] += val
            return result

        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}


def install(recorder: Recorder) -> None:
    """Wrap every target; rebind each wrapped function wherever imlab binds it."""
    import imlab.cli  # noqa: F401  imports every module that binds a target

    modules = [m for n, m in sys.modules.items() if n == "imlab" or n.startswith("imlab.")]
    for name, target in TARGETS.items():
        module = sys.modules[f"imlab.{target[0]}"]
        counter = COUNTERS.get(name, (None,))[0]
        if len(target) == 3:
            cls = getattr(module, target[1])
            setattr(cls, target[2], recorder.wrap(name, getattr(cls, target[2]), counter))
            continue
        original = getattr(module, target[1])
        wrapped = recorder.wrap(name, original, counter)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


# ---------------------------------------------------------------------------
# Reduction


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list:
    """Per span: duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        inner = [(max(s, start), min(e, end)) for s, e in children.get(idx, ())]
        out.append((end - start) - _covered([iv for iv in inner if iv[1] > iv[0]]))
    return out


def inclusive_time(spans, names) -> float:
    """Summed duration of spans in `names` that no other span in `names`
    encloses, so nested or recursive calls are not counted twice."""
    names = set(names)
    total = 0.0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def layer_metrics(trace: dict) -> dict:
    """Per span name: `.calls`, `.s` (inclusive), `.self_s`; each counter
    total; each group's `.s`."""
    spans = trace["spans"]
    calls = defaultdict(int)
    own = defaultdict(float)
    for (name, *_), self_s in zip(spans, self_times(spans)):
        calls[name] += 1
        own[name] += self_s
    out = {}
    for name in TARGETS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = inclusive_time(spans, (name,))
        out[f"{name}.self_s"] = own[name]
    for group, names in GROUPS.items():
        out[f"{group}.s"] = inclusive_time(spans, names)
    for name, (_, keys) in COUNTERS.items():
        for key in keys:
            out[f"{name}.{key}"] = trace["counts"].get(f"{name}.{key}", 0)
    return out
