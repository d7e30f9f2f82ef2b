"""The benchmark's tracer (perfbench/tracing.py) wraps kwcflow names by lookup.

``Tracer.installed`` reads every ``LAYER_CALLS`` entry with ``vars(owner)[attr]``,
so a name that a refactor stops binding breaks ``perfbench/run.py --trace 1``.
perfbench's own tests are not in this suite; the tests here guard the names
and the meaning of the Newton-iteration counter.
"""

from pathlib import Path

import numpy as np

from kwcflow import SingularResolventProblem, build_grid, elliptic, hess_gamma_eps

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
