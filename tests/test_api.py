"""The package's public names, and the modules it loads."""

from __future__ import annotations

import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
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
