"""Command-line entry points: run, experiment, validate.

Every command reads a JSON config (``--config``), optionally overridden
by ``--out`` and ``--seed``, and validates the config's model on the range
and sample count of its ``model`` section; a study's runs use those bounds.
Runs write a manifest that embeds the full normalized config; feeding the
manifest back as the config reproduces the run bit-for-bit.  Exit code 0
means every assertion passed, 2 a config error.  Exit code 1 is a failed
model check, step or study assertion; it leaves a machine-readable report in
the output directory, and a run whose step fails also writes the timeseries
and snapshots of the steps before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import asdict

import numpy as np
import scipy

from . import __version__
from .config import (ConfigError, RunConfig, parse_config, parse_config_dict,
                     serialize_config)
from .elliptic import CG_RTOL, LINEAR_RESIDUAL_ATOL, RESIDUAL_RTOL
from .evolution import (StepFailedError, THETA_RESIDUAL_TOL, run,
                        write_timeseries)
from .experiments import EXPERIMENTS, report_to_jsonable
from .grid import save_field
from .model import validate_assumptions

_SOLVER_TOLERANCES = {
    "theta_cg_rtol_2d": CG_RTOL,   # CG runs only on 2D theta systems; other solves are direct
    "linear_resolvent_residual": f"{RESIDUAL_RTOL!r} * |z|_H + {LINEAR_RESIDUAL_ATOL!r}",
    "singular_resolvent_residual": (f"min({RESIDUAL_RTOL!r} * (|z|_H + 1), "
                                    f"{0.5 * THETA_RESIDUAL_TOL!r}) in a step; "
                                    f"{RESIDUAL_RTOL!r} * (|z|_H + 1) for the prepared theta0"),
    "theta_step_residual": THETA_RESIDUAL_TOL,
}


def _linalg_builds(module) -> dict:
    """``"name version"`` of the BLAS and of the LAPACK that ``module`` (numpy or
    scipy) was built with, as its ``show_config`` reports them, offline."""
    deps = module.show_config(mode="dicts").get("Build Dependencies", {})
    builds = {}
    for lib in ("blas", "lapack"):
        dep = deps.get(lib, {})
        builds[f"{module.__name__}_{lib}"] = (f"{dep.get('name', 'unknown')} "
                                              f"{dep.get('version', 'unknown')}")
    return builds


# the environment variables that set the thread count of OpenBLAS, OpenMP and MKL
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _versions() -> dict:
    return {
        "kwcflow": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        **_linalg_builds(np),
        **_linalg_builds(scipy),
        # how a BLAS reduction is split over threads, and so its bits, may depend on these
        "blas_threads": {**{var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
                         "cpu_count": os.cpu_count()},
    }


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def _load_config(args) -> RunConfig:
    config = parse_config(args.config)
    if args.seed is not None:
        doc = serialize_config(config)
        doc["seed"] = args.seed
        config = parse_config_dict(doc)
    return config


def cmd_run(args) -> int:
    config = _load_config(args)
    outdir = args.out or config.output_dir or "kwcflow_out"
    os.makedirs(outdir, exist_ok=True)
    model = config.model
    report = validate_assumptions(model)
    failures = list(report.failures)
    manifest = {
        "config": serialize_config(config),
        "versions": _versions(),
        "solver_tolerances": dict(_SOLVER_TOLERANCES),
        "model_bounds": asdict(report.bounds),
        "assumption_checks": report.checks,
        "passed": False,
        "failures": failures,
    }
    if failures:
        _write_json(os.path.join(outdir, "manifest.json"), manifest)
        print("model assumptions failed:", "; ".join(failures), file=sys.stderr)
        return 1

    initial = config.make_initial_state()
    forcings = config.make_forcings()
    t0 = time.perf_counter()
    try:
        traj = run(initial, model, config.params, forcings, stepper=config.stepper,
                   snapshot_stride=config.snapshot_stride)
    except StepFailedError as exc:       # the steps before it are written as a run's
        traj = exc.trajectory
        failures.append(str(exc))
    wall = time.perf_counter() - t0

    write_timeseries(os.path.join(outdir, "timeseries.csv"), traj, model,
                     config.params, forcings)
    snapdir = os.path.join(outdir, "snapshots")
    os.makedirs(snapdir, exist_ok=True)
    for k, state in enumerate(traj.snapshots):
        save_field(os.path.join(snapdir, f"eta_{k:06d}.csv"), config.grid, state.eta)
        save_field(os.path.join(snapdir, f"theta_{k:06d}.csv"), config.grid, state.theta)

    reports = traj.solve_reports
    manifest.update({
        "wall_clock_seconds": wall,
        "steps": {
            "count": len(reports),
            "theta_iterations": [r["theta"].iterations for r in reports],
            "theta_residuals": [r["theta"].final_residual_h for r in reports],
        },
        "energy_start": traj.energies[0].total,
        "energy_end": traj.energies[-1].total,
        "passed": not failures,
    })
    _write_json(os.path.join(outdir, "manifest.json"), manifest)
    if failures:
        print(f"run failed: {failures[-1]}", file=sys.stderr)
        return 1
    print(f"run finished in {wall:.2f}s; energy {manifest['energy_start']:.6g} -> "
          f"{manifest['energy_end']:.6g}; artifacts in {outdir}")
    return 0


def cmd_experiment(args) -> int:
    config = _load_config(args)
    name = args.name
    if name not in EXPERIMENTS:
        print(f"unknown experiment {name!r}; available: {', '.join(sorted(EXPERIMENTS))}",
              file=sys.stderr)
        return 2
    # the study makes outdir with its first table, so a config it refuses leaves none
    outdir = args.out or config.output_dir or f"kwcflow_{name}"
    options = config.experiment.get(name, {})
    # the study's runs read the bounds recorded here
    failures = validate_assumptions(config.model).failures
    report = None
    t0 = time.perf_counter()
    if not failures:
        try:
            report = EXPERIMENTS[name](config, outdir=outdir, **options)
        except StepFailedError as exc:
            failures = [str(exc)]
    wall = time.perf_counter() - t0
    passed = not failures and bool(report.passed)
    payload = {
        "experiment": name,
        "options": options,
        "config": serialize_config(config),
        "versions": _versions(),
        "wall_clock_seconds": wall,
        "passed": passed,
    }
    if failures:
        payload["failures"] = failures
    else:
        payload["report"] = report_to_jsonable(report)
    os.makedirs(outdir, exist_ok=True)
    _write_json(os.path.join(outdir, "report.json"), payload)
    if failures:
        print(f"experiment {name} failed:", "; ".join(failures), file=sys.stderr)
    print(f"experiment {name}: {'PASS' if passed else 'FAIL'} ({wall:.1f}s); "
          f"report in {outdir}")
    return 0 if passed else 1


def cmd_validate(args) -> int:
    config = _load_config(args)
    report = validate_assumptions(config.model)
    for name, ok in report.checks.items():
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    for msg in report.warnings:
        print(f"warning: {msg}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "validation.json"), {
            "config": serialize_config(config),
            "checks": report.checks,
            "failures": report.failures,
            "warnings": report.warnings,
            "bounds": asdict(report.bounds),
            "passed": report.passed,
        })
    if not report.passed:
        print("validation failed:", "; ".join(report.failures), file=sys.stderr)
        return 1
    print(f"model bounds: delta_alpha={report.bounds.delta_alpha:.6g}, "
          f"|g'|={report.bounds.g_d1_sup:.6g}, |alpha'|={report.bounds.alpha_d1_sup:.6g}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="path to a JSON config (or manifest)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kwcflow",
        description="Grain-boundary order-parameter flow solver and verification suite")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="time-integrate a configured system")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_exp = sub.add_parser("experiment", help="run a named verification experiment")
    p_exp.add_argument("name", help=f"one of: {', '.join(sorted(EXPERIMENTS))}")
    _add_common(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_val = sub.add_parser("validate", help="check the model assumptions")
    _add_common(p_val)
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
