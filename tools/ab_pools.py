"""Time a benchmark workload's op pool on two source trees in one process.

    python3 tools/ab_pools.py OLD_ROOT NEW_ROOT --workload grain-boundary --rounds 10
    python3 tools/ab_pools.py OLD_ROOT --aa --workload smooth-1d --rounds 8

OLD_ROOT and NEW_ROOT are repository roots.  Each tree's ``src/kwcflow`` is
loaded as a package of its own name (the modules import each other
relatively), and each side builds its ops from ``perfbench/workloads.py`` of
its own tree, only imported, with ``kwcflow`` bound to that side's package
while it loads.  With ``--aa`` OLD_ROOT is loaded twice and timed against
itself: the spread of that run is the noise a NEW/OLD ratio must clear.

One warm-up pass runs every op once per side.  Then each round runs every op
of the pool on both sides, and the side that goes first alternates from op to
op and from round to round.  Only ``evolution.run`` is timed, on the process
CPU clock; the config is parsed, the assumptions validated and the initial
state made untimed, as ``workloads.run_op`` does them, and no output is
written.  A failing op (``StepFailedError``) counts its completed steps and the
time up to the failure.  BLAS is pinned to one thread.

Each step is stamped as perfbench's ``StepClock`` does it: the ``u`` forcing is
asked for once at the start of every step, so consecutive stamps (and the end
of the run) bracket one completed step.  That splits each side's time into the
first step of every op, where a new grid builds its operators, and the steps
after it.

Printed: each round's steps/s per side and NEW/OLD ratio, the median ratio
and the rounds NEW won, the median NEW/OLD speed ratio of step 1 and of steps
2 and later, each side's Newton total over the pool (from the ``SolveReport``
iterations of its warm-up pass), and how many ops give bitwise equal results on
the two sides: the final angle, the final eta, and the energies of all snapshots.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import struct
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

clock = time.process_time
SUBMODULES = ("grid", "model", "elliptic", "evolution", "config")


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", help="repository root of the parent tree")
    parser.add_argument("new", nargs="?", help="repository root of the changed tree")
    parser.add_argument("--workload", default="grain-boundary",
                        choices=("smooth-1d", "grain-boundary"))
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--aa", action="store_true", help="time OLD against a second copy of OLD")
    args = parser.parse_args()
    if (args.new is None) != args.aa:
        parser.error("give NEW_ROOT, or --aa without it")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = (load_side(args.old, "kwcflow_old"),
             load_side(args.old if args.aa else args.new, "kwcflow_new"))
    ops = sides[0].workload_ops(args.workload)

    with tempfile.TemporaryDirectory() as workdir:
        warm = [[run_once(w, op, workdir) for op in ops] for w in sides]
        newton = [sum(r[2] for r in results) for results in warm]
        # per result (theta, eta, energies), the ops whose bytes agree on the two sides
        equal = [sum(a[3][i] == b[3][i] for a, b in zip(*warm)) for i in range(3)]
        ratios, first_ratios, later_ratios = [], [], []
        for rnd in range(args.rounds):
            steps, seconds = [0, 0], [0.0, 0.0]
            # per side, the CPU seconds of each op's step 1 and of its steps 2 and later
            first, later = [[], []], [[], []]
            for k, op in enumerate(ops):
                order = (0, 1) if (k + rnd) % 2 == 0 else (1, 0)
                for side in order:
                    done, s, _, _, per_step = run_once(sides[side], op, workdir)
                    steps[side] += done
                    seconds[side] += s
                    first[side] += per_step[:1]
                    later[side] += per_step[1:]
            rate = [n / s for n, s in zip(steps, seconds)]
            ratios.append(rate[1] / rate[0])
            for (old, new), out in ((first, first_ratios), (later, later_ratios)):
                out.append((len(new) / sum(new)) / (len(old) / sum(old)))
            print(f"round {rnd + 1}: OLD {rate[0]:.1f} NEW {rate[1]:.1f} steps/s, "
                  f"NEW/OLD {ratios[-1]:.4f} (step 1 {first_ratios[-1]:.4f}, "
                  f"steps 2.. {later_ratios[-1]:.4f})", flush=True)

    label = "A/A" if args.aa else "NEW/OLD"
    print(f"{args.workload}, {len(ops)} ops, {args.rounds} rounds: median {label} "
          f"{statistics.median(ratios):.4f}, NEW won {sum(r > 1.0 for r in ratios)}/{args.rounds}")
    print(f"median {label} speed of step 1 {statistics.median(first_ratios):.4f}, "
          f"of steps 2 and later {statistics.median(later_ratios):.4f}")
    print(f"Newton iterations over the pool: OLD {newton[0]}, NEW {newton[1]}")
    print("bitwise equal on the two sides: final theta on {}/{n} ops, final eta on {}/{n}, "
          "snapshot energies on {}/{n}".format(*equal, n=len(ops)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
