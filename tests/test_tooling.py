"""The benchmark's tracer against the package it traces.

`perfbench/spans.py` wraps imlab functions by name and computes counts from
their arguments. A rename or a changed signature would only surface when a
traced benchmark run crashes, so the names and signatures are checked here.
The module is loaded from its file; `install` is never called, so nothing in
this process is patched.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from imlab.lyapunov_perron import GridField, SolveSettings
from imlab.nonlinearity import zero_map
from imlab.spectral_core import SpectralProblem

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(target):
    """The function a TARGETS entry names: (module, attribute) or
    (module, class, method)."""
    obj = importlib.import_module(f"imlab.{target[0]}")
    for name in target[1:]:
        obj = getattr(obj, name)
    return obj


def test_every_trace_target_resolves(spans):
    for name, target in spans.TARGETS.items():
        assert callable(resolve(target)), name
    for group, names in spans.GROUPS.items():
        assert set(names) <= set(spans.TARGETS), group
    assert set(spans.COUNTERS) <= set(spans.TARGETS)


def test_counters_take_their_targets_arguments(spans):
    for name, (counter, _) in spans.COUNTERS.items():
        params = list(inspect.signature(counter).parameters.values())[1:]  # after result
        if any(p.kind is p.VAR_POSITIONAL for p in params):
            continue  # forwards whatever the target takes
        target = spans.TARGETS[name]
        want = list(inspect.signature(resolve(target)).parameters.values())
        assert len(params) == len(want), name
        for i, (got, exp) in enumerate(zip(params, want)):
            if not (i == 0 and len(target) == 3):  # a method's self may go by any name
                assert got.name == exp.name, name
            assert got.kind == exp.kind and got.default == exp.default, name


def test_march_counter_reads_a_grid_field(spans):
    problem = SpectralProblem(eigenvalues=np.array([1.0, 4.0]), m=1, alpha=0.0)
    phi = GridField.zeros(problem, (np.linspace(-1.5, 1.5, 41),), (1,), support_radius=1.0)
    settings = SolveSettings(grid_nodes=41, box_half_widths=(1.5,), t_horizon=1.0)
    counts = spans._count_apply_T(None, problem, zero_map(problem), phi, settings)
    assert counts["rows"] == int((np.abs(phi.nodes()[:, 0]) < 1.0).sum())
    assert counts["steps"] > 0
