"""One ``flowfit benchmark`` run in a fresh process, timed from its launch.

    python3 child.py --config CFG --out DIR --result RES --launched T [--trace]
    python3 child.py --env

The first form imports flowfit from the ``src`` directory next to this
one, validates the config, runs the ``benchmark`` subcommand and writes
its timings (and, with ``--trace``, its span summary) to ``RES`` as JSON.
``T`` is the launching process's ``CLOCK_MONOTONIC`` reading, so set-up
time includes interpreter start.  The second form prints the versions of
the libraries the program runs on.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def _import_flowfit():
    sys.path.insert(0, str(SRC))
    import flowfit
    import flowfit.cli

    if not Path(flowfit.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"flowfit imported from {flowfit.__file__}, not {SRC}")
    return flowfit


def library_versions() -> dict:
    import numpy
    import scipy

    _import_flowfit()
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def run(args: argparse.Namespace) -> dict:
    flowfit = _import_flowfit()
    from flowfit.harness import ExperimentConfig

    ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()))
    hooks = None
    if args.trace:
        from layers import Hooks
        from tracer import Tracer

        hooks = Hooks(Tracer())
        hooks.install()
    ready, cpu0 = now(), cpu_seconds()
    record = {"setup_s": ready - args.launched, "rc": None, "error": None}
    try:
        record["rc"] = flowfit.cli.main(
            ["benchmark", "--config", args.config, "--out", args.out]
        )
    except (Exception, SystemExit):  # the run failed; report it, do not retry
        record["error"] = traceback.format_exc(limit=4)
    record["wall_s"] = now() - ready
    record["cpu_s"] = cpu_seconds() - cpu0
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if hooks is not None:
        record["trace"] = hooks.summary()
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--env", action="store_true")
    parser.add_argument("--config")
    parser.add_argument("--out")
    parser.add_argument("--result")
    parser.add_argument("--launched", type=float)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if args.env:
        print(json.dumps(library_versions()))
        return 0
    record = run(args)
    Path(args.result).write_text(json.dumps(record))
    return 0 if record["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
