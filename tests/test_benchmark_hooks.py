"""The benchmark's tracer (perfbench/tracing.py) wraps kwcflow names by lookup.

``Tracer.installed`` reads every ``LAYER_CALLS`` entry with ``vars(owner)[attr]``,
so a name that a refactor stops binding breaks ``perfbench/run.py --trace 1``.
perfbench's own tests are not in this suite; the tests here guard the names
and the meaning of the Newton-iteration counter.
"""

from pathlib import Path

import numpy as np

from kwcflow import (Forcings, Parameters, SingularResolventProblem, SystemState, build_grid,
                     elliptic, evolution, hess_gamma_eps, reference_model)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.LAYER_CALLS if attr not in vars(owner)]
    assert not missing


def test_one_hessian_evaluation_per_newton_iteration(monkeypatch):
    # perfbench's newton_iters_per_step counts elliptic.hess_gamma_eps calls.
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return hess_gamma_eps(*args, **kwargs)

    monkeypatch.setattr(elliptic, "hess_gamma_eps", counted)
    g = build_grid(1, [128], [1.0])
    theta = 0.5 * np.tanh((g.centers(0) - 89 / 128) / 0.01)
    problem = SingularResolventProblem(g, g.constant(1.0), 1e-5, g.constant(1.0), theta,
                                       2.0**-10)
    _, report = elliptic.singular_resolvent(problem, initial_guess=theta)
    assert report.converged and report.iterations > 1
    assert len(calls) == report.iterations


def test_newton_reuses_the_gradient_of_its_residual(monkeypatch):
    # Each cell gradient serves one residual or energy evaluation: the Newton loop
    # takes the accepted trial's gradient and gamma instead of recomputing them.
    calls = {"grad_cells": 0, "residual_parts": 0, "energy": 0}
    for name in calls:
        method = getattr(elliptic._SingularSystem, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(elliptic._SingularSystem, name, counted)
    # ROADMAP item-4 case, step 1: kappa=1e-2, eps=2^-8, step-like angle at c=0.5.
    g = build_grid(1, [128], [1.0])
    params = Parameters(kappa=1e-2, epsilon=2.0**-8, T=5e-3, dt=1e-3)
    theta0 = 0.5 * np.tanh((g.centers(0) - 0.5) / 0.01)
    _, _, report = evolution._advance(SystemState(g, g.constant(1.0), theta0),
                                      reference_model(), params, Forcings(g))
    assert report.iterations > 1
    assert calls["residual_parts"] > report.iterations
    assert calls["grad_cells"] == calls["residual_parts"] + calls["energy"]
