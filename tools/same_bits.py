"""Print one ``key sha256`` line per case of a fixed set of kwcflow runs.

Run it on two source trees and diff the outputs; no differing line means the
two trees give the same bits on every case:

    python3 tools/same_bits.py old/src > old.txt
    python3 tools/same_bits.py src > new.txt
    diff old.txt new.txt

Where the bits are meant to change, keep each run's counts and final fields
and compare them key by key:

    python3 tools/same_bits.py old/src --runs old.pkl > old.txt
    python3 tools/same_bits.py src --runs new.pkl > new.txt
    python3 tools/same_bits.py --compare old.pkl new.pkl

The comparison prints, per key that ran ``evolution.run``, both sides' Newton
and CG iterations, the H distance of the final theta and eta, and the sum over
the steps of the one-step uniqueness bound ``(r_old + r_new)/min m``: each
theta step minimizes a functional strongly convex with modulus ``min m``, so
two solves of one step that meet residuals r_old and r_new lie within that
distance.  The sum is a yardstick for the drift of a whole run, not a proof
of it, since later steps may amplify an earlier difference.  The comparison
ends with the largest ratio of the theta distance to that sum, with its key,
and the keys whose Newton counts differ.

The cases:

* the benchmark's 40 ops (``perfbench/workloads.py`` of this checkout, only
  imported): snapshots, times, energies, every solve report, every
  ``_theta_pde_residual`` value, the failure text and the bytes of every file
  the op writes;
* 1D n=64 and 2D 16x16 runs at mu, nu in {0, 0.1}^2, forced and unforced;
* 2D circular-grain runs (radius 0.3, tanh width 0.01, kappa 1e-2, eta 1) on
  32^2 and 48^2 grids, eps 2^-4..2^-10, dt 1e-3 and 1e-2, damped and undamped,
  3 steps, and undamped 12-step runs on 32^2 at eps 2^-4 and 2^-10, dt 1e-3 and
  1e-2;
* damped 1D grain-boundary runs (n=128, the benchmark's step at face 89,
  kappa 1e-2, eta 1) at eps 2^-4 and 2^-10, mu = nu = 0.1, dt 1e-3, 5 steps;
* the solves outside a step: ``singular_resolvent`` from its own start (no
  initial guess) on 1D n=64, n=128 and 2D 16x16 grids at eps 2^-2 and 2^-6,
  ``prepare_initial_theta`` on desk data, and ``initial_velocities`` at
  mu, nu in {0, 0.1}^2 (solutions and reports, or the failure text);
* the output files of ``kwcflow run`` on four configs (manifests without
  ``wall_clock_seconds`` or ``versions.blas_threads.cpu_count``, so that
  equal builds on machines with other core counts hash alike), one of them
  with the model sampled on [-2, 2] at 1000 points;
* the output files of ``kwcflow experiment <name>`` for each study, on a 32-cell
  1D grid with T 0.02 and dt 1e-3 and the study's smallest ladders, and of
  ``energy_dissipation`` on that sample-range config (``report.json`` without
  ``wall_clock_seconds`` or ``cpu_count``).

BLAS is pinned to one thread, which fixes the reduction order.  A summary
(case count, line-search energy evaluations, and the Newton and CG iterations
summed over the solve reports of the recorded runs) goes to standard error.
The ``--runs`` file is a pickle; read only files you wrote.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import pickle
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import asdict, is_dataclass
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _feed(h, obj) -> None:
    """Hash ``obj`` by type and exact value: arrays by dtype, shape and bytes."""
    import numpy as np
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = asdict(obj)
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj) + obj)
    else:
        h.update(f"{type(obj).__name__}:{obj!r};".encode())


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def tree_files(root: str) -> dict:
    """Bytes of every file under ``root``, keyed by relative path."""
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


class Recorder:
    """Wraps ``evolution.run`` and ``evolution._theta_pde_residual`` to keep
    what a case produced, and counts the singular solver's energy evaluations and
    the recorded runs' Newton and CG iterations."""

    def __init__(self, evolution, elliptic):
        self.residuals, self.trajectories, self.energy_calls = [], [], 0
        self.newton_iterations = self.cg_iterations = 0
        self.m_mins = []          # per step checked: min of the theta step's weight m
        self.runs = None          # what take() kept of the last case's runs, or None
        run, residual = evolution.run, evolution._theta_pde_residual
        residual_args = inspect.signature(residual)
        energy = elliptic._SingularSystem.energy

        def recorded_run(*args, **kwargs):
            try:
                traj = run(*args, **kwargs)
            except evolution.StepFailedError as exc:
                self.trajectories.append(exc.trajectory)
                raise
            self.trajectories.append(traj)
            return traj

        def recorded_residual(*args, **kwargs):
            value = residual(*args, **kwargs)
            self.residuals.append(value)
            bound = residual_args.bind(*args, **kwargs).arguments
            self.m_mins.append(float(bound["alpha0_new"].min()) / bound["dt"])
            return value

        def counted_energy(system, w):
            self.energy_calls += 1
            return energy(system, w)

        evolution.run = recorded_run
        evolution._theta_pde_residual = recorded_residual
        elliptic._SingularSystem.energy = counted_energy

    def take(self) -> dict:
        """What was recorded since the last call, as hashable data; the runs'
        counts, residuals and final fields go to ``self.runs``."""
        trajs = [None if t is None else {
            "times": t.times, "energies": t.energies, "reports": t.solve_reports,
            "snapshots": [(s.time, s.eta, s.theta) for s in t.snapshots]}
            for t in self.trajectories]
        self.runs = None
        done = [t for t in self.trajectories if t is not None]
        if done:
            newton = sum(r.iterations for t in done for step in t.solve_reports
                         for r in step.values())
            cg = sum(r.inner_iterations for t in done for step in t.solve_reports
                     for r in step.values())
            self.newton_iterations += newton
            self.cg_iterations += cg
            last = done[-1].snapshots[-1]
            self.runs = {"newton": newton, "cg": cg, "eta": last.eta, "theta": last.theta,
                         "cell_volume": done[-1].grid.cell_volume,
                         "theta_residuals": [step["theta"].final_residual_h
                                             for t in done for step in t.solve_reports],
                         "m_min": self.m_mins}
        out = {"trajectories": trajs, "residuals": self.residuals}
        self.residuals, self.trajectories, self.m_mins = [], [], []
        return out


def benchmark_cases(recorder):
    import numpy as np
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    with np.load(workloads.REFERENCE_PATH) as reference:
        for name in workloads.WORKLOADS:
            for op in workloads.workload_ops(name):
                with tempfile.TemporaryDirectory() as workdir:
                    result = workloads.run_op(op, workdir, reference)
                    files = tree_files(workdir)
                yield op.key, {"failure": result.failure, "steps": result.steps,
                               "attempted": result.attempted_steps, "files": files,
                               **recorder.take()}


def march(recorder, grid, eta, theta, params, forcings):
    from kwcflow import evolution, reference_model
    stepper = "pseudo_parabolic" if params.mu or params.nu else "parabolic"
    failure = None
    try:
        evolution.run(evolution.SystemState(grid, eta, theta), reference_model(), params,
                      forcings, stepper=stepper, snapshot_stride=1)
    except evolution.StepFailedError as exc:
        failure = str(exc)
    return {"failure": failure, **recorder.take()}


def damping_cases(recorder):
    import numpy as np
    from kwcflow import Forcings, Parameters, build_grid, random_smooth_field
    for grid, u, v in ((build_grid(1, [64], [1.0]), "0.1*sin(t)*cos(pi*x)", "0.2*cos(2*pi*x)"),
                       (build_grid(2, [16, 16], [1.0, 1.0]), "0.1*sin(t)*cos(pi*x)*cos(pi*y)",
                        "0.2*cos(2*pi*x)+0.1*cos(pi*y)")):
        rng = np.random.default_rng(7)
        eta = random_smooth_field(grid, rng, 1.0, 0.25)
        theta = random_smooth_field(grid, rng, 0.0, 0.5)
        for mu in (0.0, 0.1):
            for nu in (0.0, 0.1):
                for forced in (False, True):
                    params = Parameters(kappa=0.5, epsilon=0.1, T=0.02, dt=1e-3, mu=mu, nu=nu)
                    forcings = Forcings(grid, u=u if forced else None, v=v if forced else None)
                    key = f"damping:{grid.dim}d:mu={mu}:nu={nu}:forced={forced}"
                    yield key, march(recorder, grid, eta, theta, params, forcings)


def grain_cases(recorder, steps: int = 3):
    import numpy as np
    from kwcflow import Forcings, Parameters, build_grid
    grid = build_grid(1, [128], [1.0])
    theta = 0.5 * np.tanh((grid.centers(0) - 89 / 128) / 0.01)
    for k in (4, 10):
        params = Parameters(kappa=1e-2, epsilon=2.0**-k, T=5e-3, dt=1e-3, mu=0.1, nu=0.1)
        yield f"grain-1d:128:face=89:eps=2^-{k}:damping=0.1", march(
            recorder, grid, grid.constant(1.0), theta, params, Forcings(grid))
    runs = [(n, k, dt, damp, steps) for n in (32, 48) for k in (4, 6, 8, 10)
            for dt in (1e-3, 1e-2) for damp in (0.0, 0.1)]
    runs += [(32, k, dt, 0.0, 12) for k in (4, 10) for dt in (1e-3, 1e-2)]
    for n, k, dt, damp, count in runs:
        grid = build_grid(2, [n, n], [1.0, 1.0])
        x, y = grid.meshgrid()
        theta = 0.5 * np.tanh((np.hypot(x - 0.5, y - 0.5) - 0.3) / 0.01)
        params = Parameters(kappa=1e-2, epsilon=2.0**-k, T=count * dt, dt=dt,
                            mu=damp, nu=damp)
        key = f"grain-2d:{n}x{n}:eps=2^-{k}:dt={dt}:damping={damp}"
        if count != steps:
            key += f":steps={count}"
        yield key, march(recorder, grid, grid.constant(1.0), theta, params, Forcings(grid))


def _outcome(call, *args, **kwargs):
    """What ``call`` returned, or the text and report of the SolverError it raised."""
    from kwcflow import SolverError
    try:
        return {"value": call(*args, **kwargs)}
    except SolverError as exc:
        return {"failure": str(exc), "report": exc.report}


def resolvent_cases(recorder):
    """The solves outside a step; they call no ``run``, so the recorder stays empty."""
    import numpy as np
    from kwcflow import (Forcings, Parameters, SingularResolventProblem, SystemState, build_grid,
                         initial_velocities, prepare_initial_theta, random_smooth_field,
                         reference_model, singular_resolvent)
    model = reference_model()
    for cells in ([64], [128], [16, 16]):
        grid = build_grid(len(cells), cells, [1.0] * len(cells))
        rng = np.random.default_rng(5)
        eta = random_smooth_field(grid, rng, 1.0, 0.25)
        z = random_smooth_field(grid, rng, 0.0, 0.5)
        for k in (2, 6):
            problem = SingularResolventProblem(grid, model.alpha(eta), 0.5,
                                               model.alpha0(eta) / 1e-3, z, 2.0**-k)
            key = f"resolvent:{'x'.join(map(str, cells))}:eps=2^-{k}"
            yield key, _outcome(singular_resolvent, problem)
    for dim, cells in ((1, [64]), (2, [16, 16])):
        grid = build_grid(dim, cells, [1.0] * dim)
        rng = np.random.default_rng(1234)       # the desk studies' data
        eta0 = random_smooth_field(grid, rng, mean=1.0, amplitude=0.25)
        theta0 = random_smooth_field(grid, rng, mean=0.0, amplitude=0.5)
        for eps in (0.5, 2.0**-4):
            yield f"prepare:{dim}d:eps={eps}", _outcome(prepare_initial_theta, grid, eta0,
                                                        theta0, model, eps, 1.0)
        forcings = Forcings(grid, u=0.3, v=0.2)
        for mu in (0.0, 0.1):
            for nu in (0.0, 0.1):
                params = Parameters(kappa=1.0, epsilon=0.25, T=1.0, dt=1e-3, mu=mu, nu=nu)
                yield f"velocities:{dim}d:mu={mu}:nu={nu}", _outcome(
                    initial_velocities, SystemState(grid, eta0, theta0), model, params,
                    forcings)


CLI_CONFIGS = {
    "default": {},
    "damped-forced-2d": {
        "grid": {"dim": 2, "cells": [12, 10], "extents": [1.0, 0.8]},
        "params": {"kappa": 0.5, "epsilon": 0.1, "T": 0.05, "dt": 1e-3, "mu": 0.1, "nu": 0.1},
        "forcings": {"u": "0.1*sin(t)*cos(pi*x)*cos(pi*y)", "v": "0.05*cos(pi*x)"},
        "stepper": "pseudo_parabolic", "snapshot_stride": 10},
    "nu-only-1d": {
        "params": {"kappa": 0.2, "epsilon": 2.0**-6, "T": 0.1, "dt": 1e-3, "nu": 0.2},
        "initial": {"theta": {"profile": "cosine", "amplitude": 0.4, "mode": 3}},
        "stepper": "pseudo_parabolic", "snapshot_stride": 20},
    "sample-range": {
        "grid": {"cells": [16]}, "params": {"T": 0.005, "dt": 1e-3}, "snapshot_stride": 1,
        "model": {"sample_range": [-2.0, 2.0], "n_samples": 1000}},
}


EXPERIMENT_OPTIONS = {
    "energy_dissipation": {},
    "epsilon_limit": {"eps_values": [0.5, 0.3], "eps0": 0.2},
    "munu_limit": {"munu_values": [0.2, 0.1]},
    "continuous_dependence": {"delta": 1e-3, "perturb": "both"},
    "h2_uniformity": {"eps_values": [1.0, 0.5]},
    "manufactured_convergence": {"spatial_cells": [16, 32], "base_dt": 4e-3,
                                 "T_spatial": 0.04, "temporal_cells": 32,
                                 "temporal_dts": [8e-3, 4e-3], "T_temporal": 0.08},
}


def cli_outputs(recorder, argv, doc, summary):
    """Exit code and output files of the CLI command ``argv`` on config ``doc``;
    the JSON file ``summary`` is kept parsed, without its wall clock or core count."""
    from kwcflow.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "config.json"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with redirect_stdout(sys.stderr):     # its summary line shows the wall clock
            code = main([*argv, "--config", path, "--out", out])
        files = tree_files(out)
    parsed = json.loads(files.pop(summary))
    parsed.pop("wall_clock_seconds", None)
    # the machine's core count, which equal builds on other machines do not share
    parsed.get("versions", {}).get("blas_threads", {}).pop("cpu_count", None)
    recorder.take()
    return {"exit": code, summary.partition(".")[0]: parsed, "files": files}


def cli_cases(recorder):
    for name, doc in CLI_CONFIGS.items():
        yield f"cli:{name}", cli_outputs(recorder, ["run"], doc, "manifest.json")
    for name, options in EXPERIMENT_OPTIONS.items():
        doc = {"grid": {"cells": [32]}, "params": {"T": 0.02, "dt": 1e-3},
               "experiment": {name: options}}
        yield f"exp:{name}", cli_outputs(recorder, ["experiment", name], doc, "report.json")
    yield "exp:energy_dissipation:sample-range", cli_outputs(
        recorder, ["experiment", "energy_dissipation"], CLI_CONFIGS["sample-range"], "report.json")


def main(src: str, runs_path=None) -> int:
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import kwcflow
    from kwcflow import elliptic, evolution
    if not kwcflow.__file__.startswith(src + os.sep):
        raise SystemExit(f"imported kwcflow from {kwcflow.__file__}, not from {src}")
    recorder = Recorder(evolution, elliptic)
    count = 0
    runs = {}
    for cases in (benchmark_cases, damping_cases, grain_cases, resolvent_cases,
                  cli_cases):
        for key, value in cases(recorder):
            print(key, digest(value), flush=True)
            count += 1
            if recorder.runs is not None:
                runs[key], recorder.runs = recorder.runs, None
    print(f"{count} cases; {recorder.energy_calls} line-search energy evaluations; "
          f"{recorder.newton_iterations} Newton and {recorder.cg_iterations} CG iterations "
          "in the recorded runs", file=sys.stderr)
    if runs_path is not None:
        with open(runs_path, "wb") as fh:
            pickle.dump(runs, fh)
    return 0


def _h_distance(a: dict, b: dict, name: str) -> float:
    import numpy as np
    d = np.asarray(a[name]) - np.asarray(b[name])
    return float(np.sqrt(a["cell_volume"] * np.sum(d * d)))


def compare(old_path: str, new_path: str) -> int:
    """Print, per run key of both files, the Newton and CG counts, the H distance of
    the final fields and the summed one-step bound; then the totals, the largest
    ratio of the theta distance to the bound and the keys whose Newton counts differ."""
    with open(old_path, "rb") as fh:
        old = pickle.load(fh)
    with open(new_path, "rb") as fh:
        new = pickle.load(fh)
    print("key newton_old newton_new cg_old cg_new dist_theta_H dist_eta_H step_bound_sum")
    totals = {"all": [0, 0, 0, 0], "2d": [0, 0, 0, 0]}
    worst, newton_moved = (0.0, None), []   # (dist_theta_H / step_bound_sum, key)
    for key in (k for k in old if k in new):
        a, b = old[key], new[key]
        steps = len(a["theta_residuals"])
        if steps == len(b["theta_residuals"]) and a["theta"].shape == b["theta"].shape:
            m = [min(ma, mb) for ma, mb in zip(a["m_min"], b["m_min"])]
            bound = sum((ra + rb) / mk for ra, rb, mk in
                        zip(a["theta_residuals"], b["theta_residuals"], m))
            dist = _h_distance(a, b, "theta")
            dists = f"{dist:.3e} {_h_distance(a, b, 'eta'):.3e} {bound:.3e}"
            ratio = dist / bound if bound > 0 else (math.inf if dist > 0 else 0.0)
            worst = max(worst, (ratio, key), key=lambda pair: pair[0])
        else:
            dists = "- - -"
        print(key, a["newton"], b["newton"], a["cg"], b["cg"], dists)
        if a["newton"] != b["newton"]:
            newton_moved.append(f"{key} ({a['newton']} -> {b['newton']})")
        for group in ("all", "2d") if a["theta"].ndim == 2 else ("all",):
            for i, value in enumerate((a["newton"], b["newton"], a["cg"], b["cg"])):
                totals[group][i] += value
    for group, (na, nb, ca, cb) in totals.items():
        print(f"total over {group} run keys: Newton {na} -> {nb}, CG {ca} -> {cb}")
    missing = sorted(set(old) ^ set(new))
    if missing:
        print("run keys in one file only:", " ".join(missing))
    print(f"largest dist_theta_H / step_bound_sum: {worst[0]:.3g} ({worst[1]})")
    print(f"run keys whose Newton counts differ ({len(newton_moved)}):",
          " ".join(newton_moved) or "none")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="?", help="the source tree to import kwcflow from")
    parser.add_argument("--runs", metavar="FILE",
                        help="also keep each run's counts and final fields in FILE")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two --runs files instead of running anything")
    args = parser.parse_args()
    if args.compare:
        raise SystemExit(compare(*args.compare))
    if args.src is None:
        parser.error("a source tree or --compare is needed")
    raise SystemExit(main(args.src, args.runs))
