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


# the variables OpenBLAS reads its thread count from, in its order
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_run(code: str, **variables: str):
    """The JSON of the last line `code` prints in a fresh interpreter that
    imports the package from this source tree.  None of the BLAS thread
    variables is set there but those of `variables`."""
    src = str(Path(flowfit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**env, **variables, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def lazy_modules_after(code: str) -> list[str]:
    """The scipy and ``numpy.ma`` modules (numpy and the package load them
    only on demand) a fresh interpreter has loaded after running `code`."""
    probe = (
        "import json, sys\n"
        "names = [m.split('.') for m in sys.modules]\n"
        "late = [n for n in names if n[0] == 'scipy' or n[:2] == ['numpy', 'ma']]\n"
        "print(json.dumps(sorted('.'.join(n) for n in late)))"
    )
    return fresh_run(f"{code}\n{probe}")


def test_import_loads_no_scipy():
    assert lazy_modules_after("import flowfit, flowfit.cli") == []


linux_tasks = pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task (Linux)")

# the process's thread count and the BLAS thread variables it sees
THREADS_PROBE = (
    "import json, os\n"
    "print(json.dumps([len(os.listdir('/proc/self/task')),"
    f" {{v: os.environ.get(v) for v in {BLAS_THREAD_VARS!r}}}]))"
)
UNSET = dict.fromkeys(BLAS_THREAD_VARS)


@linux_tasks
def test_import_starts_one_blas_thread_and_keeps_the_environment():
    assert fresh_run(f"import flowfit\n{THREADS_PROBE}") == [1, UNSET]


@linux_tasks
@pytest.mark.parametrize("variable", BLAS_THREAD_VARS)
def test_a_thread_variable_the_user_set_wins(variable):
    # numpy alone then runs on min(2, cores) threads; the package changes neither that nor the variable
    tasks, seen = fresh_run(f"import flowfit.cli\n{THREADS_PROBE}", **{variable: "2"})
    assert [tasks, seen] == fresh_run(f"import numpy\n{THREADS_PROBE}", **{variable: "2"})
    assert seen == {**UNSET, variable: "2"}


@linux_tasks
def test_numpy_imported_first_keeps_its_threads():
    alone = fresh_run(f"import numpy\n{THREADS_PROBE}")
    assert fresh_run(f"import numpy\nimport flowfit\n{THREADS_PROBE}") == alone


def test_a_large_solve_has_the_same_bits_on_any_machine():
    # a threaded BLAS norm splits vectors of more than 10,000 entries across
    # its threads and rounds differently, and the step control reads it; each
    # of these sizes moved bits under 2 threads before the import set one
    code = textwrap.dedent("""\
        from flowfit.flow import integrate_flow_grid, rotation_field
        import hashlib, json
        import numpy as np
        digest = hashlib.sha256()
        for m in (6_000, 10_000, 15_000):
            x0 = np.random.default_rng(0).uniform(-1.0, 1.0, (m, 2))
            (out,) = integrate_flow_grid(rotation_field(), x0, [np.array([0.5, 1.0])])
            digest.update(out.tobytes())
        print(json.dumps(digest.hexdigest()))
    """)
    assert fresh_run(code) == fresh_run(code, OPENBLAS_NUM_THREADS="1")


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
        fld = make_field("pendulum")
        (path,) = snake.flow_snake(fld, np.array([2.0, 0.0]), [(512, 20.0 / 512)])
        ds = snake.observe_snake(fld, path, 20.0 / 512, 0.01, 5)
        predict = MODELS["snake-gen"].fit(cfg, ds, 3, {{}})
        queries = 0.97 * predict.curve_points[[50, 200, 400]]
        out = predict(queries)
        assert "interpolated" in out.status, out.status
        k = out.status.index("interpolated")
        assert snake.check_stencil(out.stencils[k], queries[k]) == []
        assert snake.delta_nn(predict.curve_points, queries) > 0.0
    """)
    # the blocked entry itself is all of scipy the run has
    assert [m for m in lazy_modules_after(code) if m.startswith("scipy")] == ["scipy"]


# Exported names that nothing in the package calls: tests of paper behaviour
# need them (the flow at one time, the increment map, the declared derivative
# bounds, the tube radius, the independent re-check of a stencil's
# certificate, which the benchmark also runs on every returned stencil), or
# they are the `provenance` vocabulary that `flowfit estimate` writes.
UNCALLED_EXPORTS = {
    ("flow", "increment"),
    ("flow", "integrate_flow"),
    ("flow", "validate_smoothness_bounds"),
    ("snake", "delta_nn"),
    ("snake", "check_stencil"),
    ("models", "SUCCESSES"),
}


def references(src: Path) -> tuple[set, dict]:
    """Every ``(module, name)`` of the package that some code of `src` refers
    to outside the top-level statement that defines it, and every module's
    own bindings of its imports, ``{module: {local name: (module, name)}}``.

    A reference is a loaded name (bound at the top level of its module or by
    a relative import) or ``module.name`` through a relative module import.
    Import statements and ``__all__`` strings are not references.
    """
    import ast

    trees = {path.stem: ast.parse(path.read_text()) for path in src.glob("*.py")}
    imports: dict[str, dict] = {}
    for mod, tree in trees.items():
        bound = imports[mod] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:  # `from .flow import x` or `from . import snake`
                    origin = (node.module, alias.name) if node.module else (alias.name, None)
                    bound[alias.asname or alias.name] = origin
    used = set()
    for mod, tree in trees.items():
        for stmt in tree.body:
            defined = {getattr(stmt, "name", None)} | {
                t.id for t in getattr(stmt, "targets", []) if isinstance(t, ast.Name)}
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    origin = imports[mod].get(node.id, (mod, node.id))
                    if origin[1] is not None and not (origin[0] == mod and node.id in defined):
                        used.add(origin)
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    origin = imports[mod].get(node.value.id)
                    if origin is not None and origin[1] is None:
                        used.add((origin[0], node.attr))
    return used, imports


def test_every_exported_name_has_a_caller():
    src = Path(flowfit.__file__).resolve().parent
    used, imports = references(src)
    uncalled = []
    for name in MODULES:
        module = importlib.import_module(name)
        stem = "__init__" if name == "flowfit" else name.rsplit(".", 1)[1]
        for attr in module.__all__:
            origin = imports[stem].get(attr, (stem, attr))  # a re-export: where it is defined
            if origin not in used and origin not in UNCALLED_EXPORTS:
                uncalled.append(f"{name}.{attr}")
    assert not uncalled, f"exported but called nowhere in the package: {uncalled}"
    # the list names only exports (integrate_flow's one caller is increment)
    stale = [f"{stem}.{attr}" for stem, attr in sorted(UNCALLED_EXPORTS)
             if attr not in importlib.import_module(f"flowfit.{stem}").__all__]
    assert not stale, f"listed as uncalled exports, but not exported: {stale}"
