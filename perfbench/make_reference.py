"""Regenerate ``reference.npz``: the final eta/theta of every op the workloads can draw.

The reference runs the same discrete scheme as the benchmark but solves every
linear system with a sparse direct factorization in place of conjugate
gradients, and when a theta solve still fails it approaches the target eps
by continuation from eps=2^-4.  So it is an independent check on the solver
path, and it also exists for ops that the CG path fails (such as c=0.5,
eps=2^-8).

Run from the repository root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from scipy.sparse.linalg import spsolve  # noqa: E402

from kwcflow import elliptic, evolution  # noqa: E402
from kwcflow.elliptic import SolverError  # noqa: E402
from kwcflow.config import parse_config_dict  # noqa: E402
from kwcflow.model import validate_assumptions  # noqa: E402

import workloads as W  # noqa: E402

singular_resolvent = evolution.singular_resolvent


def direct_solve(A, b, x0=None, rtol=None, atol=None, maxiter=None, M=None, callback=None):
    """Drop-in for ``scipy.sparse.linalg.cg`` that factorizes instead."""
    return spsolve(sp.csc_matrix(A), b), 0


def continued_solve(problem, tol_abs=None, initial_guess=None):
    """``singular_resolvent``, falling back to continuation in eps."""
    try:
        return singular_resolvent(problem, tol_abs=tol_abs, initial_guess=initial_guess)
    except SolverError:
        w, eps = initial_guess, 2.0 ** -4
        while eps > problem.epsilon:
            w, _ = singular_resolvent(dataclasses.replace(problem, epsilon=eps),
                                      initial_guess=w)
            eps /= 2
        return singular_resolvent(problem, tol_abs=tol_abs, initial_guess=w)


def all_ops():
    for workload in W.WORKLOADS:
        yield from W.workload_ops(workload)


def final_fields(op):
    with tempfile.TemporaryDirectory(dir=HERE) as workdir:
        cfg = parse_config_dict(W.op_config(op, workdir))
        validate_assumptions(cfg.model)
        initial = cfg.make_initial_state()
        traj = evolution.run(initial, cfg.model, cfg.params, cfg.make_forcings(),
                             stepper=cfg.stepper, snapshot_stride=cfg.snapshot_stride)
    return traj.snapshots[-1].eta, traj.snapshots[-1].theta


def main() -> int:
    elliptic.cg = direct_solve
    evolution.singular_resolvent = continued_solve
    out = {}
    for op in all_ops():
        eta, theta = final_fields(op)
        out[f"{op.key}:eta"] = eta
        out[f"{op.key}:theta"] = theta
        print(op.key, flush=True)
    np.savez_compressed(W.REFERENCE_PATH, **out)
    print(f"wrote {len(out)} fields to {W.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
