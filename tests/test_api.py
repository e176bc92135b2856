"""The package's public names, and the modules it loads."""

from __future__ import annotations

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import flowfit

MODULES = ["flowfit"] + [
    f"flowfit.{info.name}" for info in pkgutil.iter_modules(flowfit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} declares no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def lazy_modules_after(code: str) -> list[str]:
    """The scipy and ``numpy.ma`` modules (numpy and the package load them
    only on demand) a fresh interpreter has loaded after running `code`."""
    src = str(Path(flowfit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import json, sys\n"
        "names = [m.split('.') for m in sys.modules]\n"
        "late = [n for n in names if n[0] == 'scipy' or n[:2] == ['numpy', 'ma']]\n"
        "print(json.dumps(sorted('.'.join(n) for n in late)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{probe}"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_scipy():
    assert lazy_modules_after("import flowfit, flowfit.cli") == []


# tiny rate studies; snake-gen's default tube queries integrate the true curve
TINY_STUDIES = {
    "stubble-lip": dict(field="cubic", d=1, ns=[16, 32], dt_rule="balanced"),
    "stubble-gen": dict(field="cubic", d=1, ns=[16, 32], dt_rule="balanced"),
    "snake-lip": dict(field="rotation", d=2, ns=[128, 256], dt_rule="fixed-horizon",
                      horizon=2 * math.pi, x1=[1.0, 0.0]),
    "snake-gen": dict(field="rotation", d=2, ns=[128, 256], dt_rule="fixed-horizon",
                      horizon=2 * math.pi, x1=[1.0, 0.0]),
}


@pytest.mark.parametrize("model", sorted(TINY_STUDIES))
def test_fit_and_predict_load_no_scipy(model):
    cfg = dict(TINY_STUDIES[model], model=model, beta=2, sigma=0.05, replicates=2, seed=3)
    code = (
        "from flowfit.harness import ExperimentConfig, run_experiment\n"
        f"run_experiment(ExperimentConfig.from_dict({cfg!r}))"
    )
    assert lazy_modules_after(code) == []


def test_runs_with_scipy_blocked():
    # scipy is a test dependency only: with its import blocked, every model
    # fits and predicts, and the stencil re-check and the tube radius run
    studies = [dict(TINY_STUDIES[model], model=model, beta=2, sigma=0.05, replicates=2, seed=3)
               for model in sorted(TINY_STUDIES)]
    code = textwrap.dedent(f"""\
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        from flowfit import snake
        from flowfit.flow import make_field
        from flowfit.harness import ExperimentConfig, run_experiment
        from flowfit.models import MODELS
        for study in {studies!r}:
            run_experiment(ExperimentConfig.from_dict(study))
        # beta = 3 on a damped pendulum, whose spiral lies on no conic: its
        # 6-point stencils are regular, so the non-simplex hull test runs
        cfg = ExperimentConfig.from_dict(dict(
            model="snake-gen", field="pendulum", d=2, beta=3, ns=[512],
            dt_rule="fixed-horizon", horizon=20.0, x1=[2.0, 0.0], sigma=0.01))
        ds = snake.generate_snake(make_field("pendulum"), np.array([2.0, 0.0]), 512, 20.0 / 512, 0.01, 5)
        predict = MODELS["snake-gen"].fit(cfg, ds, 3)
        queries = 0.97 * predict.curve_points[[50, 200, 400]]
        out = predict(queries)
        assert "interpolated" in out.status, out.status
        k = out.status.index("interpolated")
        assert snake.check_stencil(out.stencils[k], queries[k]) == []
        assert snake.delta_nn(predict.curve_points, queries) > 0.0
    """)
    # the blocked entry itself is all of scipy the run has
    assert [m for m in lazy_modules_after(code) if m.startswith("scipy")] == ["scipy"]
