"""Time a benchmark workload's op pool, or the fixed 2D cases, on two source trees
in one process.

    python3 tools/ab_pools.py OLD_ROOT NEW_ROOT --workload grain-boundary --rounds 10
    python3 tools/ab_pools.py OLD_ROOT --aa --workload smooth-1d --rounds 8
    python3 tools/ab_pools.py OLD_ROOT NEW_ROOT --workload 2d --rounds 10 > 2d.json

OLD_ROOT and NEW_ROOT are repository roots.  Each tree's ``src/kwcflow`` is
loaded as a package of its own name (the modules import each other
relatively), and each side builds its ops from ``perfbench/workloads.py`` of
its own tree, only imported, with ``kwcflow`` bound to that side's package
while it loads.  Three sides are loaded: OLD, a second copy of OLD (the A/A
side) and NEW; with ``--aa`` only the first two.  The spread of the A/A side
against OLD is the noise a NEW/OLD ratio must clear.

One warm-up pass runs every op once per side.  Then each round runs every op
of the pool on every side, and the side that goes first rotates from op to op
and from round to round.  Only ``evolution.run`` is timed, on the process
CPU clock; the config is parsed, the assumptions validated and the initial
state made untimed, as ``workloads.run_op`` does them, and no output is
written.  A failing op (``StepFailedError``) counts its completed steps and the
time up to the failure.  BLAS is pinned to one thread.

Each step is stamped as perfbench's ``StepClock`` does it: the ``u`` forcing is
asked for once at the start of every step, so consecutive stamps (and the end
of the run) bracket one completed step.  That splits each side's time into the
first step of every op, where a new grid builds its operators, and the steps
after it.

Printed: each round's steps/s per side and each side's speed ratio against
OLD (>1: faster); then per side its median ratio with the least and largest
round and the rounds it won, its median ratio of step 1 and of steps 2 and
later, and on how many ops its results are bitwise OLD's: the final angle, the
final eta, and the energies of all snapshots; and each side's Newton total
over the pool (from the ``SolveReport`` iterations of its warm-up pass).

``--workload 2d`` times the fixed cases of :data:`CASES_2D` instead of a pool:
the north star's 1D n=64 and 2D 64² and 128² runs on the default config's data
(kappa 1, eps 0.25, dt 1e-3), and circular grains (radius 0.3, tanh width 0.01,
kappa 1e-2, eta 1) on 48², 64² and 128² at (eps, dt) = (2^-4, 1e-3) and
(2^-10, 1e-2).  Per case, each side makes two warm
steps untimed, then every round runs the case's N steps from that state on each
side, the side that goes first rotating by round, and ``evolution.run`` is timed
on the process CPU clock.  Per case it reports each side's median ms/step, the
median, least and largest per-round speed ratio against OLD (>1: faster than
OLD) with the rounds it won, each side's Newton and CG totals over the N steps
(from the ``SolveReport``s) and whether the final angle is bitwise OLD's.  One
line per case goes to stderr; the JSON document of all cases goes to stdout.
N was chosen per case so that ten rounds take about 2-3 minutes on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import platform
import statistics
import sys
import tempfile
import struct
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np      # after the thread count is pinned
import scipy

clock = time.process_time
SUBMODULES = ("grid", "model", "elliptic", "evolution", "config")

# (profile, cells, kappa, epsilon, dt, steps timed per round); "default" is the default
# config's data and parameters on the unit square of that many dimensions
CASES_2D = (("default", [64], 1.0, 0.25, 1e-3, 1000),
            ("default", [64, 64], 1.0, 0.25, 1e-3, 20),
            ("default", [128, 128], 1.0, 0.25, 1e-3, 3),
            *(("grain", [n, n], 1e-2, 2.0**-k, dt, steps) for n, k, dt, steps in (
                (48, 4, 1e-3, 30), (48, 10, 1e-2, 10), (64, 4, 1e-3, 16),
                (64, 10, 1e-2, 6), (128, 4, 1e-3, 3), (128, 10, 1e-2, 2))))


def load_side(root: str, name: str):
    """``root``'s ``perfbench/workloads.py``, bound to ``root``'s kwcflow loaded as ``name``."""
    pkg_dir = os.path.join(os.path.abspath(root), "src", "kwcflow")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    modules = {"kwcflow": package}
    for sub in SUBMODULES:
        modules[f"kwcflow.{sub}"] = importlib.import_module(f"{name}.{sub}")
    saved = {key: sys.modules.get(key) for key in modules}
    sys.modules.update(modules)
    try:
        path = os.path.join(os.path.abspath(root), "perfbench", "workloads.py")
        spec = importlib.util.spec_from_file_location(f"{name}_workloads", path)
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        for key, module in saved.items():
            if module is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module
    return workloads


def run_once(w, op, workdir: str):
    """(completed steps, CPU seconds of ``evolution.run``, Newton iterations, the bytes of
    the final theta, of the final eta and of every snapshot's energies, CPU seconds of each
    completed step)."""
    cfg = w.parse_config_dict(w.op_config(op, workdir))
    report = w.validate_assumptions(cfg.model, tuple(cfg.raw["model"]["sample_range"]),
                                    cfg.raw["model"]["n_samples"])
    if not report.passed:
        raise ValueError("model assumptions failed: " + "; ".join(report.failures))
    initial = cfg.make_initial_state()
    step_clock = w.StepClock(w.u_provider(cfg))
    forcings = w.Forcings(cfg.grid, u=step_clock, v=cfg.raw["forcings"]["v"])
    t0 = clock()
    try:
        traj = w.evolution.run(initial, cfg.model, cfg.params, forcings,
                               stepper=cfg.stepper, snapshot_stride=cfg.snapshot_stride)
    except w.StepFailedError as exc:
        traj = exc.trajectory
    t1 = clock()
    done = len(traj.solve_reports)
    # the stamps of the completed steps and, after the last, the next step's or the end
    stamps = (step_clock.stamps + [t1])[:done + 1]
    steps = [b - a for a, b in zip(stamps, stamps[1:])]
    newton = sum(r.iterations for step in traj.solve_reports for r in step.values())
    last = traj.snapshots[-1]
    energies = [x for e in traj.energies for x in (e.dirichlet, e.potential, e.interfacial,
                                                   e.total)]
    results = (last.theta.tobytes(), last.eta.tobytes(),
               struct.pack(f"{len(energies)}d", *energies))
    return done, t1 - t0, newton, results, steps


def case_key(profile, cells, kappa, epsilon, dt, steps) -> str:
    return (f"{profile}-{len(cells)}d:{'x'.join(map(str, cells))}:"
            f"eps=2^{math.log2(epsilon):g}:dt={dt:g}")


def case_start(package, w, case):
    """The state after two untimed steps of ``case`` on one side, its model, and the
    parameters of the case's timed steps."""
    profile, cells, kappa, epsilon, dt, steps = case
    if profile == "default":
        cfg = w.parse_config_dict({"grid": {"dim": len(cells), "cells": cells,
                                            "extents": [1.0] * len(cells)}})
        state, model = cfg.make_initial_state(), cfg.model
    else:
        grid = package.build_grid(2, cells, [1.0, 1.0])
        x, y = grid.meshgrid()
        theta = 0.5 * np.tanh((np.hypot(x - 0.5, y - 0.5) - 0.3) / 0.01)
        state = package.SystemState(grid, grid.constant(1.0), theta)
        model = package.reference_model()
    warm = package.run(state, model, package.Parameters(kappa, epsilon, 2 * dt, dt),
                       package.Forcings(state.grid)).snapshots[-1]
    start = package.SystemState(state.grid, warm.eta, warm.theta)
    return start, model, package.Parameters(kappa, epsilon, steps * dt, dt)


def time_steps(package, start, model, params):
    """(CPU seconds of ``run`` from ``start``, Newton and CG totals, final angle's bytes)."""
    forcings = package.Forcings(start.grid)
    t0 = clock()
    traj = package.run(start, model, params, forcings)
    seconds = clock() - t0
    reports = [r for step in traj.solve_reports for r in step.values()]
    return (seconds, sum(r.iterations for r in reports),
            sum(r.inner_iterations for r in reports), traj.snapshots[-1].theta.tobytes())


def per_side(values: dict, fmt: str = "{}") -> str:
    return ", ".join(f"{label} {fmt.format(value)}" for label, value in values.items())


def main_2d(args) -> int:
    labels = ("OLD", "A/A", "NEW")[:2 if args.aa else 3]
    roots = {"kwcflow_old": args.old, "kwcflow_aa": args.old, "kwcflow_new": args.new}
    sides = []
    for name in list(roots)[:len(labels)]:
        w = load_side(roots[name], name)
        sides.append((importlib.import_module(name), w))
    rows = []
    for case in CASES_2D:
        steps = case[-1]
        starts = [case_start(package, w, case) for package, w in sides]
        ms, counts = [[] for _ in sides], [None] * len(sides)
        for rnd in range(args.rounds):
            for side in (k % len(sides) for k in range(rnd, rnd + len(sides))):
                seconds, *counts[side] = time_steps(sides[side][0], *starts[side])
                ms[side].append(1e3 * seconds / steps)
        row = {"case": case_key(*case), "steps": steps, "rounds": args.rounds,
               "ms_per_step": {label: statistics.median(m) for label, m in zip(labels, ms)},
               "speed_vs_old": {}, "newton": {label: c[0] for label, c in zip(labels, counts)},
               "cg": {label: c[1] for label, c in zip(labels, counts)},
               "theta_bitwise_old": {label: c[2] == counts[0][2]
                                     for label, c in zip(labels[1:], counts[1:])}}
        for label, m in zip(labels[1:], ms[1:]):
            speed = sorted(old / new for old, new in zip(ms[0], m))
            row["speed_vs_old"][label] = {"median": statistics.median(speed), "min": speed[0],
                                          "max": speed[-1], "won": sum(r > 1.0 for r in speed)}
        rows.append(row)
        speed_fmt = "{0[median]:.4f} [{0[min]:.4f}, {0[max]:.4f}] won {0[won]}/" + str(args.rounds)
        print(f"{row['case']}, {steps} steps x {args.rounds} rounds: ms/step "
              f"{per_side(row['ms_per_step'], '{:.2f}')}; speed vs OLD "
              f"{per_side(row['speed_vs_old'], speed_fmt)}; Newton {per_side(row['newton'])}; "
              f"CG {per_side(row['cg'])}; final theta bitwise OLD's "
              f"{per_side(row['theta_bitwise_old'])}", file=sys.stderr, flush=True)
    json.dump({"clock": "process_time", "blas_threads": 1, "python": platform.python_version(),
               "numpy": np.__version__, "scipy": scipy.__version__, "cases": rows},
              sys.stdout, indent=1)
    print()
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="repository root of the parent tree")
    parser.add_argument("new", nargs="?", help="repository root of the changed tree")
    parser.add_argument("--workload", default="grain-boundary",
                        choices=("smooth-1d", "grain-boundary", "2d"))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--aa", action="store_true", help="time OLD against a second copy of OLD")
    args = parser.parse_args()
    if (args.new is None) != args.aa:
        parser.error("give NEW_ROOT, or --aa without it")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.workload == "2d":
        return main_2d(args)
    labels = ("OLD", "A/A", "NEW")[:2 if args.aa else 3]
    roots = (args.old, args.old, args.new)
    sides = [load_side(root, name) for root, name in
             zip(roots, ("kwcflow_old", "kwcflow_aa", "kwcflow_new"))][:len(labels)]
    ops = sides[0].workload_ops(args.workload)
    n = len(sides)

    with tempfile.TemporaryDirectory() as workdir:
        warm = [[run_once(w, op, workdir) for op in ops] for w in sides]
        newton = [sum(r[2] for r in results) for results in warm]
        # per side after OLD and per result (theta, eta, energies), the ops whose bytes
        # agree with OLD's
        equal = [[sum(a[3][i] == b[3][i] for a, b in zip(warm[0], other)) for i in range(3)]
                 for other in warm[1:]]
        # per side after OLD: the speed ratio against OLD of each round, of its steps 1
        # and of its steps 2 and later
        ratios, first_ratios, later_ratios = ([[] for _ in sides[1:]] for _ in range(3))
        for rnd in range(args.rounds):
            steps, seconds = [0] * n, [0.0] * n
            # per side, the CPU seconds of each op's step 1 and of its steps 2 and later
            first, later = [[] for _ in sides], [[] for _ in sides]
            for k, op in enumerate(ops):
                for side in ((k + rnd + j) % n for j in range(n)):
                    done, s, _, _, per_step = run_once(sides[side], op, workdir)
                    steps[side] += done
                    seconds[side] += s
                    first[side] += per_step[:1]
                    later[side] += per_step[1:]
            rate = [k / s for k, s in zip(steps, seconds)]
            for side in range(1, n):
                ratios[side - 1].append(rate[side] / rate[0])
                for times, out in ((first, first_ratios), (later, later_ratios)):
                    old, new = times[0], times[side]
                    out[side - 1].append((len(new) / sum(new)) / (len(old) / sum(old)))
            print(f"round {rnd + 1}: steps/s " + per_side(dict(zip(labels, rate)), "{:.1f}")
                  + "; vs OLD " + ", ".join(
                      f"{label} {r[-1]:.4f} (step 1 {f[-1]:.4f}, steps 2.. {g[-1]:.4f})"
                      for label, r, f, g in zip(labels[1:], ratios, first_ratios,
                                                later_ratios)), flush=True)

    print(f"{args.workload}, {len(ops)} ops, {args.rounds} rounds, speed vs OLD (>1: faster):")
    for label, r, f, g, eq in zip(labels[1:], ratios, first_ratios, later_ratios, equal):
        print(f"  {label}: median {statistics.median(r):.4f} [{min(r):.4f}, {max(r):.4f}], "
              f"won {sum(x > 1.0 for x in r)}/{args.rounds}; median of step 1 "
              f"{statistics.median(f):.4f}, of steps 2 and later {statistics.median(g):.4f}")
        print("  bitwise equal to OLD: final theta on {}/{n} ops, final eta on {}/{n}, "
              "snapshot energies on {}/{n}".format(*eq, n=len(ops)))
    print("Newton iterations over the pool: " + per_side(dict(zip(labels, newton))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
