"""Workloads of the kwcflow benchmark.

An op is one `kwcflow run`: parse a config document, validate the model
assumptions, realize the initial state and forcings, march with
``evolution.run``, then write the timeseries and every snapshot.  Only
public functions of the package are called.  The workloads:

* ``smooth-1d``: 1D n=64, eps=0.25, kappa=1, dt=1e-3, T=1 (1000 steps),
  forcing ``0.1*sin(t)*cos(pi*x)``, snapshot stride 100.  Per-step Python
  overhead and small sparse solves dominate.
* ``grain-boundary``: 1D n=128, kappa=1e-2, eta0=1,
  ``theta0 = 0.5*tanh((x-c)/0.01)``, dt=1e-3, 40 steps, unforced, stride 1,
  over the eps ladder 2^-4..2^-10 at c=0.5 and at eight fixed mesh faces.
  This is the Newton-heavy singular regime; c=0.5, eps=2^-8 is a known
  solver failure and stays in so that it is counted, as do the failures at
  face 89.

Every op's final fields are checked against a stored reference
(``reference.npz``, made by ``make_reference.py``), so inputs come from fixed
pools.  A group is the workload's whole pool of ops in a seed-drawn order,
so every group, and every run, does the same work and meets the same
failures.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg

from kwcflow import evolution
from kwcflow.config import parse_config_dict
from kwcflow.evolution import (THETA_RESIDUAL_TOL, Forcings, StepFailedError,
                               compile_expression)
from kwcflow.grid import build_grid, load_field, save_field
from kwcflow.model import validate_assumptions

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.npz")

WORKLOADS = ("smooth-1d", "grain-boundary")

# Config seeds and interface faces that have a stored reference.
SMOOTH_1D_SEEDS = (0, 1, 2, 3)
GB_CELLS = 128
GB_CENTER_FACE = 64                      # c = 0.5, the known failing case at eps=2^-8
# Drawn once, uniformly from the faces 8..120 other than 64: the first eight
# of np.random.default_rng(20261017).choice(faces, 16, replace=False).
GB_FACES = (20, 62, 89, 51, 82, 102, 112, 11)
GB_EPS_EXPONENTS = (4, 6, 8, 10)         # eps = 2^-k
GB_WIDTH = 0.01

# Output-check tolerances.  The final fields must match the reference to
# REFERENCE_RTOL in H norm, relative to max(1, |reference|_H); solver
# residuals are 1e-9 and below.  The dissipation slack of each snapshot
# interval may fall below zero by at most SLACK_C * dt * (interval length),
# the first-order consistency error of the splitting scheme.  Unforced
# energies may rise by round-off only: ENERGY_RTOL relative.
REFERENCE_RTOL = 1e-6
SLACK_C = 1.0
ENERGY_RTOL = 1e-12

# Ops are timed on the process CPU clock.  On a shared virtual machine the
# wall clock also runs while the hypervisor gives this vCPU to other guests
# (steal time), and CPU time leaves that out.  The ops are single-threaded
# (BLAS is pinned to one thread) and never wait, so on a quiet machine both
# clocks give the same times.
clock = time.process_time

# CPU seconds of one calibration solve (see Calibration) at the reference
# speed: the median over ten runs (five a workload) on a 2-vCPU Xeon virtual
# machine, 4.04 ms, rounded.
CALIBRATION_SOLVE_S = 4.0e-3


class Calibration:
    """Times a fixed kernel between ops, to scale a run's times to a reference speed.

    CPU time still drifts with the load of other guests on a shared host: by
    up to 1.5x between runs a minute apart, and the same way for every op of
    a run.  The kernel is scipy's conjugate gradients on a fixed tridiagonal
    system of 128 unknowns: the kind of solve the ops spend most of their
    time in, but with no kwcflow code, so a change to kwcflow cannot move it.
    """

    def __init__(self, n: int = 128):
        off = -np.ones(n - 1)
        self.matrix = sp.diags([off, 2.02 * np.ones(n), off], [-1, 0, 1], format="csr")
        self.rhs = np.sin(np.arange(n))
        self.solves = 0
        self.seconds = 0.0

    def run(self, seconds: float) -> None:
        """Solve the fixed system repeatedly for about ``seconds`` of CPU time."""
        start = clock()
        while True:
            cg(self.matrix, self.rhs, rtol=1e-12, maxiter=1000)
            self.solves += 1
            if clock() - start >= seconds:
                break
        self.seconds += clock() - start

    @property
    def scale(self) -> float:
        """Reference over measured time per solve; times are multiplied by it."""
        return CALIBRATION_SOLVE_S * self.solves / self.seconds


@dataclass(frozen=True)
class Op:
    key: str                        # names the op's entries in the reference file
    doc: dict                       # config document, as `kwcflow run` reads it
    interface: Optional[float] = None   # grain-boundary: theta0 step centre c

    @property
    def unforced(self) -> bool:
        return self.doc.get("forcings", {}).get("u") is None


def smooth_op(seed: int) -> Op:
    doc = {"grid": {"dim": 1, "cells": [64], "extents": [1.0]},
           "params": {"kappa": 1.0, "epsilon": 0.25, "T": 1.0, "dt": 1e-3},
           "forcings": {"u": "0.1*sin(t)*cos(pi*x)", "v": None},
           "snapshot_stride": 100,
           "seed": int(seed)}
    return Op(f"smooth-1d:seed={seed}", doc)


def grain_boundary_op(face: int, eps_exponent: int) -> Op:
    doc = {"grid": {"dim": 1, "cells": [GB_CELLS], "extents": [1.0]},
           "params": {"kappa": 1e-2, "epsilon": 2.0 ** -eps_exponent, "T": 0.04, "dt": 1e-3},
           "initial": {"eta": {"profile": "constant", "value": 1.0},
                       "theta": {"file": "theta0.csv"}},
           "forcings": {"u": None, "v": None},
           "snapshot_stride": 1}
    return Op(f"grain-boundary:face={face}:eps=2^-{eps_exponent}", doc,
              interface=face / GB_CELLS)


def workload_ops(workload: str) -> list[Op]:
    """The workload's pool of ops, each with a stored reference."""
    if workload == "grain-boundary":
        return [grain_boundary_op(c, k) for c in (GB_CENTER_FACE,) + GB_FACES
                for k in GB_EPS_EXPONENTS]
    return [smooth_op(s) for s in SMOOTH_1D_SEEDS]


def op_groups(workload: str, seed: int) -> Iterator[list[Op]]:
    """Endless stream of op groups drawn from ``seed``; a group is measured whole.

    Each group is the whole pool in a new seed-drawn order."""
    rng = np.random.default_rng(seed)
    ops = workload_ops(workload)
    while True:
        yield [ops[i] for i in rng.permutation(len(ops))]


# -- one op ----------------------------------------------------------------------


class StepClock:
    """Forcing provider that stamps ``clock()`` each time it is asked.

    ``evolution.run`` asks for ``u(t_new)`` once at the start of every step,
    so consecutive stamps bracket one step.
    """

    def __init__(self, provider: Callable[[float], np.ndarray]):
        self.provider = provider
        self.stamps: list[float] = []

    def __call__(self, t: float) -> np.ndarray:
        self.stamps.append(clock())
        return self.provider(t)


def u_provider(cfg) -> Callable[[float], np.ndarray]:
    """The config's ``u`` expression as a callable (a zero field when unset)."""
    spec = cfg.raw["forcings"]["u"]
    if spec is None:
        zero = cfg.grid.zeros()
        return lambda t: zero
    return compile_expression(spec, cfg.grid)


class NullTracer:
    """Stand-in used when tracing is off: spans and counts cost nothing."""

    def span(self, name):
        return nullcontext()

    def add(self, counter, value=1):
        pass


@dataclass
class OpResult:
    key: str
    steps: int                      # completed steps
    attempted_steps: int            # completed steps plus a failed one
    run_s: float                    # time of evolution.run, also when it raised
    step_s: list = field(default_factory=list)   # time of each completed step
    setup_s: float = 0.0
    output_s: Optional[float] = None
    failure: Optional[str] = None   # why the op failed, None if it passed
    wrong_output: bool = False      # an output was produced and failed its check


def op_config(op: Op, workdir: str) -> dict:
    """The op's config document, writing its generated input field if it has one."""
    doc = dict(op.doc)
    if op.interface is not None:
        g = doc["grid"]
        grid = build_grid(g["dim"], g["cells"], g["extents"])
        x = grid.centers(0)
        path = os.path.join(workdir, "theta0.csv")
        save_field(path, grid, 0.5 * np.tanh((x - op.interface) / GB_WIDTH))
        doc["initial"] = dict(doc["initial"], theta={"file": path})
    return doc


def run_op(op: Op, workdir: str, reference, tracer=None, output_writes: int = 1) -> OpResult:
    """Run one op as `kwcflow run` does, then check its outputs untimed.

    The outputs are written ``output_writes`` times, each write overwriting
    the one before, and ``output_s`` is the median write time.  ``workdir``
    may hold the files of an earlier op; they are overwritten too.
    """
    tracer = tracer or NullTracer()
    doc = op_config(op, workdir)

    t0 = clock()
    with tracer.span("config.parse"):
        cfg = parse_config_dict(doc)
    with tracer.span("model.validate_assumptions"):
        report = validate_assumptions(cfg.model, tuple(cfg.raw["model"]["sample_range"]),
                                      cfg.raw["model"]["n_samples"])
    if not report.passed:
        raise ValueError("model assumptions failed: " + "; ".join(report.failures))
    with tracer.span("config.initial_state"):
        initial = cfg.make_initial_state()
        step_clock = StepClock(u_provider(cfg))
        forcings = Forcings(cfg.grid, u=step_clock, v=cfg.raw["forcings"]["v"])
    t1 = clock()

    try:
        with tracer.span("evolution.run"):
            traj = evolution.run(initial, cfg.model, cfg.params, forcings,
                                 stepper=cfg.stepper, snapshot_stride=cfg.snapshot_stride)
    except StepFailedError as exc:
        t2 = clock()
        done = len(exc.trajectory.solve_reports) if exc.trajectory is not None else 0
        return OpResult(op.key, done, done + 1, t2 - t1,
                        list(np.diff(step_clock.stamps[:done + 1])), t1 - t0, None,
                        f"{type(exc).__name__}: {exc}")
    t2 = clock()
    stamps = step_clock.stamps[:] + [t2]

    outdir = os.path.join(workdir, "out")
    snapdir = os.path.join(outdir, "snapshots")
    writes = []
    for _ in range(output_writes):
        t3 = clock()
        os.makedirs(snapdir, exist_ok=True)
        with tracer.span("evolution.write_timeseries"):
            evolution.write_timeseries(os.path.join(outdir, "timeseries.csv"), traj,
                                       cfg.model, cfg.params, forcings)
        for k, state in enumerate(traj.snapshots):
            for name, values in (("eta", state.eta), ("theta", state.theta)):
                path = os.path.join(snapdir, f"{name}_{k:06d}.csv")
                with tracer.span("grid.save_field"):
                    save_field(path, cfg.grid, values)
                tracer.add("grid.save_field.bytes", os.path.getsize(path))
        writes.append(clock() - t3)

    done = len(traj.solve_reports)
    problems = check_output(op, cfg, traj, forcings, snapdir, reference)
    return OpResult(op.key, done, done, t2 - t1, list(np.diff(stamps)), t1 - t0,
                    float(np.median(writes)), "; ".join(problems) or None,
                    wrong_output=bool(problems))


# -- output check ------------------------------------------------------------------


def check_output(op: Op, cfg, traj, forcings, snapdir: str, reference) -> list[str]:
    """Reasons the op's outputs are wrong; empty when they pass."""
    problems = []
    grid, params = cfg.grid, cfg.params
    for k, reports in enumerate(traj.solve_reports, start=1):
        for name, rep in reports.items():
            if not rep.converged:
                problems.append(f"step {k}: {name} solve not converged")
        if reports["theta"].final_residual_h > THETA_RESIDUAL_TOL:
            problems.append(f"step {k}: theta residual {reports['theta'].final_residual_h:.3e}"
                            f" > {THETA_RESIDUAL_TOL}")

    energies = traj.total_energies()
    if op.unforced:
        rise = np.diff(energies) - ENERGY_RTOL * np.abs(energies[:-1])
        if np.any(rise > 0):
            problems.append(f"unforced energy rose by {np.max(np.diff(energies)):.3e}")

    slack = evolution.energy_inequality_residual(traj, cfg.model, params, forcings)
    floor = -SLACK_C * params.dt * np.diff(traj.times)
    if np.any(slack < floor):
        k = int(np.argmin(slack - floor))
        problems.append(f"dissipation slack {slack[k]:.3e} below {floor[k]:.3e} "
                        f"on interval {k}")

    final = traj.snapshots[-1]
    last = len(traj.snapshots) - 1
    for name, values in (("eta", final.eta), ("theta", final.theta)):
        ref = reference[f"{op.key}:{name}"]
        err = grid.norm_h(values - ref) / max(1.0, grid.norm_h(ref))
        if not err <= REFERENCE_RTOL:
            problems.append(f"final {name} differs from the reference by {err:.3e} "
                            f"(relative H norm) > {REFERENCE_RTOL}")
        fgrid, written = load_field(os.path.join(snapdir, f"{name}_{last:06d}.csv"))
        if fgrid != grid or not np.array_equal(written, values):
            problems.append(f"final {name} snapshot file does not read back exactly")
    return problems
