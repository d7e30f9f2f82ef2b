import csv
import dataclasses
import itertools
import re

import numpy as np
import pytest

import kwcflow.elliptic as elliptic
import kwcflow.evolution as evolution
import kwcflow.grid as grid_module
import kwcflow.model as model_module
from kwcflow import (Forcings, Parameters, SolverError, SystemState,
                     build_grid, compile_expression,
                     energy_inequality_residual, gamma_eps, initial_velocities,
                     interfacial_flux, interfacial_force, prepare_initial_theta,
                     reference_model, run, singular_resolvent, validate_assumptions)
from kwcflow.evolution import StepFailedError, write_timeseries
from kwcflow.grid import Grid, KeepLast, random_smooth_field

from .test_model import VALIDATION_MODELS


@pytest.fixture
def setup():
    g = build_grid(1, [48], [1.0])
    model = reference_model()
    rng = np.random.default_rng(7)
    eta0 = random_smooth_field(g, rng, mean=1.0, amplitude=0.25)
    theta0 = random_smooth_field(g, rng, mean=0.0, amplitude=0.5)
    return g, model, eta0, theta0


def stationary_forcing(grid, model, c, epsilon):
    u = model.g(c) + model.alpha_d1(c) * gamma_eps(np.zeros(1), epsilon)
    return Forcings(grid, u=float(u), v=None)


# -- forcings ------------------------------------------------------------------


def test_expression_forcing_and_safety():
    g = build_grid(1, [16], [1.0])
    f = compile_expression("sin(t) * cos(pi * x)", g)
    x = g.centers(0)
    assert np.allclose(f(0.5), np.sin(0.5) * np.cos(np.pi * x))
    f = compile_expression("2.0", g)
    assert np.all(f(0.0) == 2.0)
    for bad in ("__import__('os')", "x.such", "open('x')", "lambda: 1", "y"):
        with pytest.raises(ValueError):
            compile_expression(bad, g)


def test_expression_forcing_gives_the_bits_of_the_whole_expression():
    # The parts free of t are evaluated once, when the provider is made (a part that
    # warns, as log(x - 0.5) does, at each call); every call gives the bits of the
    # whole expression evaluated at its t, in a new array.
    g = build_grid(2, [6, 5], [1.0, 0.8])
    x, y = g.meshgrid()
    cases = {
        "0.1*sin(t)*cos(pi*x)": lambda t: 0.1 * np.sin(t) * np.cos(np.pi * x),
        "exp(-(x**2 + y**2)) * t + sqrt(2)*y - 3": (
            lambda t: np.exp(-(x**2 + y**2)) * t + np.sqrt(2) * y - 3),
        "log(x - 0.5) + t*y": lambda t: np.log(x - 0.5) + t * y,
        "cos(pi*x)": lambda t: np.cos(np.pi * x),
    }
    for expr, direct in cases.items():
        f = compile_expression(expr, g)
        for t in (0.0, 0.37, 2.5):
            with np.errstate(invalid="ignore"):
                got, again, want = f(t), f(t), direct(t)
            assert got.tobytes() == want.tobytes() and got is not again, (expr, t)


def test_forcings_accept_various_specs():
    g = build_grid(1, [16], [1.0])
    x = g.centers(0)
    f = Forcings(g, u=1.5, v="t * x")
    assert np.all(f.u(3.0) == 1.5)
    assert np.allclose(f.v(2.0), 2.0 * x)
    f = Forcings(g)
    assert np.all(f.u(1.0) == 0.0) and np.all(f.v(1.0) == 0.0)
    f = Forcings(g, u=np.ones(g.shape) * 0.3)
    assert np.all(f.u(9.9) == 0.3)
    f = Forcings(g, u=lambda t: 2.0 * t * g.constant(1.0))
    assert np.all(f.u(0.25) == 0.5)
    with pytest.raises(TypeError):
        Forcings(g, u=object())


# -- initial data ----------------------------------------------------------------


def test_prepare_initial_theta_constant_fixed_point(setup):
    g, model, eta0, _ = setup
    theta = prepare_initial_theta(g, eta0, g.constant(0.8), model, 0.5, 1.0)
    assert np.max(np.abs(theta - 0.8)) <= 1e-11


def test_prepare_initial_theta_converges_in_epsilon(setup):
    g, model, eta0, theta0 = setup
    eps0 = 0.1
    ref = prepare_initial_theta(g, eta0, theta0, model, eps0, 1.0)
    errs = [g.norm_v(prepare_initial_theta(g, eta0, theta0, model, e, 1.0) - ref)
            for e in (0.5, 0.3, 0.2, 0.15, 0.11)]
    assert all(b < a for a, b in zip(errs, errs[1:]))


def test_initial_velocities_stationary(setup):
    g, model, _, _ = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=1.0, dt=1e-3)
    state = SystemState(g, g.constant(1.3), g.constant(0.7))
    f = stationary_forcing(g, model, 1.3, params.epsilon)
    p0, z0 = initial_velocities(state, model, params, f)
    assert np.max(np.abs(p0)) <= 1e-9
    assert np.max(np.abs(z0)) <= 1e-9


def test_initial_velocities_worked_examples(setup):
    g, model, _, _ = setup
    # mu = nu = 0, constant data, forcing engineered so the eta velocity is 1
    params = Parameters(kappa=1.0, epsilon=0.25, T=1.0, dt=1e-3)
    u0 = model.g(1.0) + model.alpha_d1(1.0) * params.epsilon + 1.0
    state = SystemState(g, g.constant(1.0), g.constant(0.0))
    p0, _ = initial_velocities(state, model, params, Forcings(g, u=float(u0)))
    assert np.max(np.abs(p0 - 1.0)) <= 1e-10
    # nu > 0, constant data: theta velocity is v(0)/alpha0
    params = Parameters(kappa=1.0, epsilon=0.25, T=1.0, dt=1e-3, nu=0.2)
    _, z0 = initial_velocities(state, model, params, Forcings(g, v=2.0))
    assert np.max(np.abs(z0 - 2.0 / model.alpha0(1.0))) <= 1e-10


# -- stepping ---------------------------------------------------------------------


def step(state, model, params, forcings):
    """One step of ``run``, without its bookkeeping."""
    return evolution._advance(state, model, params, forcings)[0]


def test_stationary_state_preserved(setup):
    g, model, _, _ = setup
    c, tc = 1.3, 0.7
    f = stationary_forcing(g, model, c, 0.25)
    for mu, nu in ((0.0, 0.0), (0.0, 0.1), (0.1, 0.0), (0.1, 0.1)):
        params = Parameters(kappa=1.0, epsilon=0.25, T=1.0, dt=1e-3, mu=mu, nu=nu)
        s = SystemState(g, g.constant(c), g.constant(tc))
        for _ in range(20):
            s = step(s, model, params, f)
        assert np.max(np.abs(s.eta - c)) <= 1e-10
        assert np.max(np.abs(s.theta - tc)) <= 1e-10


def test_parabolic_requires_zero_damping(setup):
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=1.0, dt=1e-3, mu=0.1)
    with pytest.raises(ValueError, match="mu = nu = 0"):
        run(SystemState(g, eta0, theta0), model, params, Forcings(g), stepper="parabolic")


def test_zero_damping_weights_skip_their_laplacians(setup, monkeypatch):
    # Each nonzero damping weight costs one operator call: mu a Laplacian of the
    # old eta, nu a divergence of the old angle's face gradient and one of the
    # damped flux in the step check.  The eta solve's residual re-check costs the
    # Laplacian left at mu = nu = 0, and the new angle's flux one divergence, which
    # the resolvent's re-check and the undamped step check share.  Every divergence,
    # a Laplacian's too, is taken by the kernel Grid._div, which is counted; the
    # checking Grid.laplacian is not called, since every field it would take is
    # one the step has checked or made.
    g, model, eta0, theta0 = setup
    calls = {"laplacian": 0, "_div": 0}
    for name in calls:
        method = getattr(Grid, name)

        def counted(self, f, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, f)

        monkeypatch.setattr(Grid, name, counted)
    for mu, nu, laplacians, divs in ((0.0, 0.0, 0, 2), (0.1, 0.0, 0, 3),
                                     (0.0, 0.1, 0, 4), (0.1, 0.1, 0, 5)):
        calls.update(laplacian=0, _div=0)
        params = Parameters(kappa=1.0, epsilon=0.25, T=1.0, dt=1e-3, mu=mu, nu=nu)
        step(SystemState(g, eta0, theta0), model, params, Forcings(g))
        assert (calls["laplacian"], calls["_div"]) == (laplacians, divs), (mu, nu)


def test_undamped_grain_step_takes_the_angle_flux_divergence_once(monkeypatch):
    # Two divergences per undamped step: the eta re-check's Laplacian and the new
    # angle's flux divergence, kept beside the flux for the resolvent's re-check and
    # the step check.  Every divergence, a Laplacian's too, is taken by Grid._div,
    # which is counted.  A grain-boundary step of the benchmark (face 89, eps 2^-6).
    g = build_grid(1, [128], [1.0])
    model = reference_model()
    params = Parameters(kappa=1e-2, epsilon=2.0**-6, T=5e-3, dt=1e-3)
    theta0 = 0.5 * np.tanh((g.centers(0) - 89 / 128) / 0.01)
    div, calls = Grid._div, []

    def counted(self, F):
        calls.append(1)
        return div(self, F)

    monkeypatch.setattr(Grid, "_div", counted)
    new, _, _ = evolution._advance(SystemState(g, g.constant(1.0), theta0), model, params,
                                   Forcings(g))
    assert len(calls) == 2
    monkeypatch.undo()
    args = (g, model.alpha(new.eta), new.theta, params.epsilon, params.kappa)
    assert interfacial_force(*args).tobytes() == g.div(interfacial_flux(*args)).tobytes()


def test_eta_step_matches_explicit_euler_oracle(setup):
    # at tiny dt the implicit update differs from explicit Euler by O(dt^2)
    g, model, eta0, theta0 = setup
    f = Forcings(g)
    diffs = []
    for dt in (1e-5, 1e-6):
        params = Parameters(kappa=1.0, epsilon=0.25, T=1.0, dt=dt)
        new = step(SystemState(g, eta0, theta0), model, params, f)
        ghat = (model.g(eta0)
                + model.alpha_d1(eta0) * gamma_eps(g.grad_cell(theta0), 0.25))
        explicit = eta0 + dt * (g.laplacian(eta0) - ghat)
        diffs.append(g.norm_h(new.eta - explicit))
    assert diffs[1] <= 2000.0 * (1e-6) ** 2
    assert 50.0 <= diffs[0] / diffs[1] <= 200.0   # O(dt^2) scaling


def test_energy_decrease_without_forcing(setup):
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=0.05, dt=1e-3)
    traj = run(SystemState(g, eta0, theta0), model, params, Forcings(g))
    E = traj.total_energies()
    assert np.max(np.diff(E)) <= 1e-9


def test_theta_shift_invariance(setup):
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=0.02, dt=1e-3)
    f = Forcings(g)
    a = run(SystemState(g, eta0, theta0), model, params, f)
    b = run(SystemState(g, eta0, theta0 + 2.0), model, params, f)
    for k in range(len(a.snapshots)):
        assert np.max(np.abs(b.theta_at(k) - 2.0 - a.theta_at(k))) <= 1e-12
        assert np.max(np.abs(b.eta_at(k) - a.eta_at(k))) <= 1e-12


# -- run and trajectory --------------------------------------------------------------


def test_run_after_a_validation_does_not_validate_again(setup, monkeypatch):
    g, model, eta0, theta0 = setup
    report = validate_assumptions(model, model.sample_range, model.n_samples)
    calls = []
    monkeypatch.setattr(model_module, "validate_assumptions",
                        lambda *args, **kwargs: calls.append(args))
    params = Parameters(kappa=1.0, epsilon=0.25, T=2e-3, dt=1e-3)
    traj = run(SystemState(g, eta0, theta0), model, params, Forcings(g))
    energy_inequality_residual(traj, model, params, Forcings(g))
    assert calls == [] and model.bounds is report.bounds


def test_run_single_step_two_snapshots(setup):
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=2e-3, dt=1e-3)
    traj = run(SystemState(g, eta0, theta0), model, params, Forcings(g))
    assert len(traj.snapshots) == 3
    # dt that does not divide T is rejected
    with pytest.raises(ValueError):
        run(SystemState(g, eta0, theta0), model,
            Parameters(kappa=1.0, epsilon=0.25, T=1.0, dt=3e-4), Forcings(g))


def test_run_stationary_flat_energy(setup):
    g, model, _, _ = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=0.02, dt=1e-3)
    f = stationary_forcing(g, model, 1.3, 0.25)
    traj = run(SystemState(g, g.constant(1.3), g.constant(0.7)), model, params, f)
    E = traj.total_energies()
    assert np.max(np.abs(E - E[0])) <= 1e-9
    res = energy_inequality_residual(traj, model, params, f)
    # forcing term makes the stationary residual positive; the kinetic and
    # energy-difference parts vanish
    u_term = 0.5 * params.dt * g.norm_h(f.u(0.0)) ** 2
    assert np.allclose(res, u_term, atol=1e-9)


def test_run_snapshot_stride(setup):
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=0.01, dt=1e-3)
    traj = run(SystemState(g, eta0, theta0), model, params, Forcings(g),
               snapshot_stride=4)
    assert traj.times == pytest.approx([0.0, 4e-3, 8e-3, 10e-3])
    assert len(traj.solve_reports) == 10   # reports recorded for every step
    assert all(t2 > t1 for t1, t2 in zip(traj.times, traj.times[1:]))
    assert traj.times[0] == 0.0


def test_run_factorizes_the_eta_matrix_once(setup, monkeypatch):
    # Every step solves the same dt*K + I; its factor is kept, keyed on the number 1.0.
    g, model, eta0, theta0 = setup
    monkeypatch.setattr(elliptic, "_last_factor", KeepLast())
    factorize, calls = elliptic._factorize, []
    monkeypatch.setattr(elliptic, "_factorize",
                        lambda *args: calls.append(args[1:]) or factorize(*args))
    params = Parameters(kappa=1.0, epsilon=0.25, T=0.02, dt=1e-3)
    traj = run(SystemState(g, eta0, theta0), model, params, Forcings(g))
    assert len(traj.solve_reports) == 20
    assert calls == [(1e-3, 1.0)]


def test_energy_inequality_residual_nonnegative_up_to_dt(setup):
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=0.1, dt=1e-3)
    traj = run(SystemState(g, eta0, theta0), model, params, Forcings(g))
    res = energy_inequality_residual(traj, model, params, Forcings(g))
    assert np.min(res) >= -1e-2 * params.dt


def test_run_failure_carries_partial_trajectory(setup, monkeypatch):
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=0.01, dt=1e-3)
    calls = {"n": 0}
    original = evolution.singular_resolvent

    def flaky(problem, **kwargs):
        calls["n"] += 1
        if calls["n"] > 3:
            raise SolverError("synthetic failure",
                              evolution.SolveReport(0, 1.0, False))
        return original(problem, **kwargs)

    monkeypatch.setattr(evolution, "singular_resolvent", flaky)
    with pytest.raises(StepFailedError) as excinfo:
        run(SystemState(g, eta0, theta0), model, params, Forcings(g))
    traj = excinfo.value.trajectory
    assert traj is not None
    assert len(traj.snapshots) == 4   # initial + 3 completed steps


def test_run_eta_solve_failure_carries_partial_trajectory(setup, monkeypatch):
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=0.01, dt=1e-3)
    factor = elliptic._resolvent_factor
    calls = {"n": 0}

    def off_after_three(*args):     # the eta solve of step 4 on is 1% off
        calls["n"] += 1
        solve = factor(*args)
        return solve if calls["n"] <= 3 else (lambda b: 1.01 * solve(b))

    monkeypatch.setattr(elliptic, "_resolvent_factor", off_after_three)
    with pytest.raises(StepFailedError) as excinfo:
        run(SystemState(g, eta0, theta0), model, params, Forcings(g))
    exc = excinfo.value
    assert str(exc).startswith("eta solve failed at t=0.004 (residual ")
    assert isinstance(exc.__cause__, SolverError) and exc.report is exc.__cause__.report
    assert not exc.report.converged
    assert len(exc.trajectory.snapshots) == 4   # initial + 3 completed steps


def test_run_non_finite_eta_solve_carries_partial_trajectory(setup, monkeypatch):
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=0.01, dt=1e-3)
    factor = elliptic._resolvent_factor
    calls = {"n": 0}

    def nan_after_three(*args):     # the eta solve of step 4 on is all NaN
        calls["n"] += 1
        solve = factor(*args)
        return solve if calls["n"] <= 3 else (lambda b: np.full(b.shape, np.nan))

    monkeypatch.setattr(elliptic, "_resolvent_factor", nan_after_three)
    with pytest.raises(StepFailedError) as excinfo:
        run(SystemState(g, eta0, theta0), model, params, Forcings(g))
    exc = excinfo.value
    assert str(exc).startswith("eta solve failed at t=")
    assert isinstance(exc.__cause__, SolverError) and exc.report is exc.__cause__.report
    assert len(exc.trajectory.snapshots) == 4   # initial + 3 completed steps


def test_run_step_residual_failure_carries_partial_trajectory(setup, monkeypatch):
    # A theta solve that met its own tolerance but whose step misses the 1e-9 check
    # of the backward-difference equation fails the step with that solve's report.
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=0.01, dt=1e-3)
    residual, solve, reports = evolution._theta_pde_residual, evolution.singular_resolvent, []

    def kept(problem, **kwargs):
        w, report = solve(problem, **kwargs)
        reports.append(report)
        return w, report

    def off_from_step_four(*args):
        return residual(*args) if len(reports) <= 3 else 2.5e-9

    monkeypatch.setattr(evolution, "singular_resolvent", kept)
    monkeypatch.setattr(evolution, "_theta_pde_residual", off_from_step_four)
    with pytest.raises(StepFailedError) as excinfo:
        run(SystemState(g, eta0, theta0), model, params, Forcings(g))
    exc = excinfo.value
    assert str(exc) == "theta equation residual 2.500e-09 exceeds 1e-09 at t=0.004"
    assert exc.__cause__ is None
    assert len(reports) == 4 and exc.report is reports[-1] and exc.report.converged
    assert len(exc.trajectory.solve_reports) == 3
    assert len(exc.trajectory.snapshots) == 4   # initial + 3 completed steps


@pytest.mark.parametrize("forcing,steps,cause,message", [
    ({"u": "log(0.0055 - t)"}, 5, type(None), "u(t): contains non-finite values"),
    ({"u": "t/0"}, 0, ZeroDivisionError, "u(t): float division by zero"),
    ({"v": "t/0"}, 0, ZeroDivisionError, "v(t): float division by zero"),
], ids=["non-finite", "division-by-zero", "v-division-by-zero"])
def test_a_forcing_that_fails_mid_run_fails_its_step(setup, forcing, steps, cause, message):
    # A forcing computed at t that raises there, or is not finite, fails the step as a
    # failed solve does: the run attaches the steps before it.  Either failure names
    # the forcing; the error of the forcing's own evaluation is chained to it.
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=0.01, dt=1e-3)
    with pytest.raises(StepFailedError) as excinfo, np.errstate(invalid="ignore"):
        run(SystemState(g, eta0, theta0), model, params, Forcings(g, **forcing))
    exc = excinfo.value
    assert str(exc) == f"forcing failed at t={(steps + 1) / 1000:g}: {message}"
    assert type(exc.__cause__) is ValueError and exc.report is None
    assert type(exc.__cause__.__cause__) is cause
    assert len(exc.trajectory.solve_reports) == steps
    assert len(exc.trajectory.snapshots) == steps + 1


def test_a_nan_step_residual_fails_the_step(setup, monkeypatch):
    # A NaN in the step check's force makes the residual NaN, which fails the 1e-9
    # check rather than passing it.  The resolvent's own re-check is left alone.
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=0.01, dt=1e-3)
    monkeypatch.setattr(evolution, "_interfacial_force",
                        lambda grid, *args: np.full(grid.shape, np.nan))
    with pytest.raises(StepFailedError,
                       match=r"^theta equation residual nan exceeds 1e-09 at t=0.001$") as excinfo:
        evolution._advance(SystemState(g, eta0, theta0), model, params, Forcings(g))
    assert excinfo.value.report.converged


@pytest.mark.parametrize("cells", [[48], [12, 10]])
def test_run_non_finite_newton_system_carries_partial_trajectory(cells, monkeypatch):
    g = build_grid(len(cells), cells, [1.0] * len(cells))
    rng = np.random.default_rng(7)
    eta0 = random_smooth_field(g, rng, mean=1.0, amplitude=0.25)
    theta0 = random_smooth_field(g, rng, mean=0.0, amplitude=0.5)
    hessian, calls = elliptic.hess_gamma_eps, {"n": 0}

    def nan_after_six(y, eps, dual=None, gam=None):    # the seventh Newton matrix on is NaN
        calls["n"] += 1
        if calls["n"] <= 6:
            return hessian(y, eps, dual, gam)
        return np.full((y.shape[0],) + y.shape, np.nan)

    monkeypatch.setattr(elliptic, "hess_gamma_eps", nan_after_six)
    params = Parameters(kappa=1.0, epsilon=0.25, T=0.01, dt=1e-3)
    with pytest.raises(StepFailedError, match="the Newton system is not finite") as excinfo:
        run(SystemState(g, eta0, theta0), reference_model(), params, Forcings(g))
    exc = excinfo.value
    assert isinstance(exc.__cause__, SolverError) and exc.report is exc.__cause__.report
    completed = len(exc.trajectory.solve_reports)
    assert completed >= 1 and len(exc.trajectory.snapshots) == completed + 1


def test_write_timeseries_columns(tmp_path, setup):
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=0.01, dt=1e-3)
    f = Forcings(g)
    traj = run(SystemState(g, eta0, theta0), model, params, f)
    path = tmp_path / "timeseries.csv"
    write_timeseries(path, traj, model, params, f)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ("t,E_dirichlet,E_potential,E_interfacial,E_total,"
                        "rate_eta_H,rate_theta_H,rate_eta_V,rate_theta_V,s4_residual")
    assert len(lines) == 1 + len(traj.snapshots)


def test_timeseries_and_residual_share_the_snapshot_intervals(tmp_path, setup):
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=0.01, dt=1e-3, mu=0.1, nu=0.1)
    f = Forcings(g, u="0.1*sin(t)*cos(pi*x)", v="0.05*t")
    traj = run(SystemState(g, eta0, theta0), model, params, f,
               stepper="pseudo_parabolic", snapshot_stride=4)
    path = tmp_path / "timeseries.csv"
    write_timeseries(path, traj, model, params, f)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))[1:]
    res = energy_inequality_residual(traj, model, params, f)
    assert [float(row["s4_residual"]) for row in rows] == list(res)
    assert len(rows) == 3   # intervals of 4, 4 and 2 steps
    for k, row in enumerate(rows):
        a, b = traj.snapshots[k], traj.snapshots[k + 1]
        dt = traj.times[k + 1] - traj.times[k]
        for name in ("eta", "theta"):
            rate = (getattr(b, name) - getattr(a, name)) / dt
            assert float(row[f"rate_{name}_H"]) == g.norm_h(rate)
            assert float(row[f"rate_{name}_V"]) == g.norm_v(rate)


# -- singular limit on grain-boundary data ----------------------------------------


def grain_boundary_run(center, eps_exponent):
    """Five unforced steps: 1D n=128, kappa=1e-2, dt=1e-3, eta0=1,
    theta0 = 0.5*tanh((x-c)/0.01).  Returns the trajectory and each step's
    theta residual."""
    g = build_grid(1, [128], [1.0])
    model = reference_model()
    params = Parameters(kappa=1e-2, epsilon=2.0**-eps_exponent, T=5e-3, dt=1e-3)
    theta0 = 0.5 * np.tanh((g.centers(0) - center) / 0.01)
    traj = run(SystemState(g, g.constant(1.0), theta0), model, params, Forcings(g))
    residuals = [evolution._theta_pde_residual(g, params, old.theta, model.alpha0(new.eta),
                                               model.alpha(new.eta), new.theta, g.zeros(),
                                               params.dt, g.grad(old.theta))
                 for old, new in zip(traj.snapshots, traj.snapshots[1:])]
    return traj, residuals


def assert_newton_steps(traj):
    # Primal-dual Newton takes at most 9 iterations a step on these cases; the
    # bound makes a slide back to a slowly converging method show.
    for reports in traj.solve_reports:
        assert reports["theta"].method == "newton"
        assert reports["theta"].iterations <= 15


def test_grain_boundary_step_at_eps_2_minus_8():
    # ROADMAP item 4: primal Newton stalls on step 1 here; primal-dual Newton
    # reaches 6.0e-11 against the 5e-10 target in 8 iterations.
    traj, residuals = grain_boundary_run(0.5, 8)
    assert len(residuals) == 5
    assert_newton_steps(traj)
    # run() already raises above this bound; it is restated so the test keeps
    # the case's criterion if the step check ever changes.
    assert max(residuals) <= evolution.THETA_RESIDUAL_TOL


def test_grain_boundary_face_89_at_eps_2_minus_10():
    # Primal Newton gives up on step 1 here, and lagged diffusivity stalls at 2.3e-4.
    traj, residuals = grain_boundary_run(89 / 128, 10)
    assert len(residuals) == 5
    assert_newton_steps(traj)
    assert max(residuals) <= evolution.THETA_RESIDUAL_TOL


@pytest.mark.parametrize("cells", [[128], [48, 48]], ids=["1d-128", "2d-48x48"])
@pytest.mark.parametrize("dt", [1e-3, 1e-2])
@pytest.mark.parametrize("eps_exponent", [2, 4, 8, 10])
def test_grain_boundary_stress_matrix(cells, dt, eps_exponent):
    # ROADMAP item 4: small eps, step-like angle, large dt, 2D.
    g = build_grid(len(cells), cells, [1.0] * len(cells))
    params = Parameters(kappa=1e-2, epsilon=2.0**-eps_exponent, T=3 * dt, dt=dt)
    theta0 = 0.5 * np.tanh((g.meshgrid()[0] - 89 / 128) / 0.01)
    traj = run(SystemState(g, g.constant(1.0), theta0), reference_model(), params,
               Forcings(g))
    assert len(traj.solve_reports) == 3
    assert_newton_steps(traj)


@pytest.mark.xfail(raises=StepFailedError, strict=True,
                   reason="ROADMAP item 6: round-off floor of the angle equation above the "
                          "solver's 5e-10 target")
@pytest.mark.parametrize("n,eps_exponent", [(512, 10), (1024, 8)])
def test_grain_boundary_fine_grid_at_small_eps(n, eps_exponent):
    # One ulp of theta moves the stencil residual by about beta/(eps*h^2) ulps, and
    # here by more than the target: Newton stalls at ~2e-9 on step 1, 4x above 5e-10.
    g = build_grid(1, [n], [1.0])
    params = Parameters(kappa=1e-2, epsilon=2.0**-eps_exponent, T=1e-2, dt=1e-3)
    theta0 = 0.5 * np.tanh((g.centers(0) - (0.5 + 0.3 / n)) / 0.01)
    traj = run(SystemState(g, g.constant(1.0), theta0), reference_model(), params,
               Forcings(g))
    assert len(traj.solve_reports) == 10


# -- one evaluation of the new angle's gradient and flux per step -------------------


@pytest.mark.parametrize("mu,nu,fluxes_per_step", [(0.0, 0.0, 1), (0.1, 0.1, 2)])
def test_run_evaluates_one_face_gradient_per_new_angle(setup, monkeypatch, mu, nu,
                                                       fluxes_per_step):
    # The solver's residual, the step check, the snapshot energy and the next eta
    # update share the new angle's gradient; at nu = 0 the check shares the flux too.
    # Every face-to-cell average, and every cell-to-face one, runs through the unchecked
    # kernel, _face_to_cell or _cell_to_face.
    g, model, eta0, theta0 = setup
    calls = {"_face_to_cell": 0, "_cell_to_face": 0}
    for name in calls:
        method = getattr(Grid, name)

        def counted(self, F, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, F)

        monkeypatch.setattr(Grid, name, counted)
    params = Parameters(kappa=1.0, epsilon=0.25, T=3e-3, dt=1e-3, mu=mu, nu=nu)
    # an angle no other test has asked for, so the initial energy evaluates its gradient
    traj = run(SystemState(g, eta0, theta0 + 0.125 + mu), model, params, Forcings(g),
               stepper="pseudo_parabolic", snapshot_stride=1)
    assert len(traj.snapshots) == 4
    assert calls["_face_to_cell"] == 3 + 1
    assert calls["_cell_to_face"] == 3 * fluxes_per_step


@pytest.mark.parametrize("case", ["grain-1d", "damped-2d"])
def test_trajectories_do_not_depend_on_the_memos(monkeypatch, case):
    if case == "grain-1d":
        g = build_grid(1, [128], [1.0])
        params = Parameters(kappa=1e-2, epsilon=2.0**-6, T=5e-3, dt=1e-3)
        eta0, theta0 = g.constant(1.0), 0.5 * np.tanh((g.centers(0) - 89 / 128) / 0.01)
        forcings, stepper = Forcings(g), "parabolic"
    else:
        g = build_grid(2, [12, 12], [1.0, 1.0])
        params = Parameters(kappa=0.5, epsilon=0.2, T=5e-3, dt=1e-3, mu=0.1, nu=0.1)
        rng = np.random.default_rng(3)
        eta0 = random_smooth_field(g, rng, mean=1.0, amplitude=0.25)
        theta0 = random_smooth_field(g, rng, mean=0.0, amplitude=0.5)
        forcings = Forcings(g, u="0.2*sin(t)*cos(pi*x)", v="0.1*cos(pi*y)")
        stepper = "pseudo_parabolic"
    residual = evolution._theta_pde_residual
    residuals = []

    def recorded(*args):
        residuals.append(residual(*args))
        return residuals[-1]

    monkeypatch.setattr(evolution, "_theta_pde_residual", recorded)

    def bits():
        residuals.clear()
        traj = run(SystemState(g, eta0, theta0), reference_model(), params, forcings,
                   stepper=stepper, snapshot_stride=1)
        return ([s.eta.tobytes() + s.theta.tobytes() for s in traj.snapshots],
                [vars(e) for e in traj.energies],
                [{k: vars(r) for k, r in reports.items()} for reports in traj.solve_reports],
                [float(r).hex() for r in residuals])

    kept = bits()
    monkeypatch.setattr(KeepLast, "get", lambda self, key, compute, *args: compute(*args))
    assert bits() == kept


# -- snapshot energies and the checks of a step ---------------------------------------


def energy_case(case):
    """(grid, initial state, params, forcings, stepper, stride, failing theta call or None)."""
    if case == "grain-1d":
        g = build_grid(1, [128], [1.0])
        params = Parameters(kappa=1e-2, epsilon=2.0**-8, T=6e-3, dt=1e-3)
        state = SystemState(g, g.constant(1.0), 0.5 * np.tanh((g.centers(0) - 89 / 128) / 0.01))
        return g, state, params, Forcings(g), "parabolic", 1, None
    rng = np.random.default_rng(5)
    if case == "damped-2d":
        g = build_grid(2, [12, 12], [1.0, 1.0])
        params = Parameters(kappa=0.5, epsilon=0.2, T=4e-3, dt=1e-3, mu=0.1, nu=0.1)
        forcings = Forcings(g, u="0.2*sin(t)*cos(pi*x)", v="0.1*cos(pi*y)")
        stepper, stride, fail_at = "pseudo_parabolic", 1, None
    else:
        g = build_grid(1, [64], [1.0])
        params = Parameters(kappa=1.0, epsilon=0.25, T=0.03, dt=1e-3)
        forcings = Forcings(g, u="0.1*sin(t)*cos(pi*x)")
        # forced at stride 7; the failing run, at stride 10, fails from its 14th theta solve
        stepper = "parabolic"
        stride, fail_at = (7, None) if case == "forced-1d" else (10, 14)
    state = SystemState(g, random_smooth_field(g, rng, mean=1.0, amplitude=0.25),
                        random_smooth_field(g, rng, mean=0.0, amplitude=0.5))
    return g, state, params, forcings, stepper, stride, fail_at


@pytest.mark.parametrize("case", ["grain-1d", "damped-2d", "forced-1d", "failing-1d"])
def test_snapshot_energies_are_the_bits_of_kwc_energy(monkeypatch, case):
    # A run takes each snapshot's energy from its step's fields; kwc_energy, evaluated
    # afresh (nothing kept), gives the same bits, the failing run's last state included.
    g, state, params, forcings, stepper, stride, fail_at = energy_case(case)
    model = reference_model()
    if fail_at is None:
        traj = run(state, model, params, forcings, stepper=stepper, snapshot_stride=stride)
        expected_times = [k * params.dt for k in range(0, round(params.T / params.dt) + 1)
                          if k % stride == 0 or k * params.dt == params.T]
    else:
        solve, calls = evolution.singular_resolvent, []

        def flaky(problem, **kwargs):
            calls.append(1)
            if len(calls) >= fail_at:
                raise SolverError("synthetic failure", elliptic.SolveReport(0, 1.0, False))
            return solve(problem, **kwargs)

        monkeypatch.setattr(evolution, "singular_resolvent", flaky)
        with pytest.raises(StepFailedError) as info:
            run(state, model, params, forcings, stepper=stepper, snapshot_stride=stride)
        traj = info.value.trajectory
        expected_times = [0.0, 10 * params.dt, 13 * params.dt]
    assert traj.times == pytest.approx(expected_times)
    monkeypatch.setattr(KeepLast, "get", lambda self, key, compute, *args: compute(*args))
    for snap, energy in zip(traj.snapshots, traj.energies, strict=True):
        fresh = evolution.kwc_energy(g, snap.eta, snap.theta, model, params)
        assert ([float(x).hex() for x in vars(energy).values()]
                == [float(x).hex() for x in vars(fresh).values()])


def grain_step_state(offset):
    """The 1D grain-boundary state (n=128, step at face 89, eta 1), its angle shifted by
    ``offset``, with its params (kappa 1e-2, eps 2^-6, dt 1e-3)."""
    g = build_grid(1, [128], [1.0])
    theta0 = 0.5 * np.tanh((g.centers(0) - 89 / 128) / 0.01) + offset
    params = Parameters(kappa=1e-2, epsilon=2.0**-6, T=5e-3, dt=1e-3)
    return g, SystemState(g, g.constant(1.0), theta0), params


def test_every_check_fires_from_its_first_scan(monkeypatch):
    # Each array is scanned where it is made or enters: a NaN raises its check's message
    # there, and a state, weight or forcing checked once is not scanned again.
    g, state, params = grain_step_state(0.0)
    model = reference_model()
    nan = g.constant(1.0)
    nan[5] = np.nan

    def advance(forcings=Forcings(g), model=model, start=None):
        return evolution._advance(state, model, params, forcings, start)

    # a computed forcing, at each call; its failure fails the step
    with pytest.raises(StepFailedError,
                       match=r"^forcing failed at t=0.001: u\(t\): contains non-finite values$"):
        advance(Forcings(g, u=lambda t: nan))
    with pytest.raises(StepFailedError,
                       match=r"^forcing failed at t=0.001: v\(t\): contains non-finite values$"), \
            np.errstate(invalid="ignore"):
        advance(Forcings(g, v="log(x - 0.5)"))
    # a constant forcing, once, when the Forcings is made
    with pytest.raises(ValueError, match="^field: contains non-finite values$"):
        Forcings(g, v=nan)
    with pytest.raises(ValueError, match=r"^u\(t\): contains non-finite values$"):
        Forcings(g, u=float("nan"))
    # the theta problem's weight beta = alpha(eta) and its m = alpha0(eta)/dt
    for name, message in (("alpha", "beta"), ("alpha0", "m")):
        broken = dataclasses.replace(model, **{name: lambda r: np.where(r > 0, np.nan, r)})
        with pytest.raises(ValueError, match=f"^{message}: contains non-finite values$"):
            advance(model=broken)
    # a start the step is handed: the angle and its dual
    _, gc, gam = evolution.angle_gradient(g, state.theta, params.epsilon)
    with pytest.raises(ValueError, match="^initial_guess: contains non-finite values$"):
        advance(start=(nan, gc / gam))
    with pytest.raises(ValueError, match="^initial_dual: contains non-finite values$"):
        advance(start=(state.theta, nan[None] * (gc / gam)))

    # The scans of one undamped step from an angle no test has asked for: the problems'
    # z (eta), beta, m and z (theta); the eta solve; the start and the start's dual of
    # the theta solve; one per Newton band.  The state's angles, old and new, are not
    # scanned where their gradients are taken, nor is the eta solve where its re-check
    # takes its Laplacian or the new angle's flux where its divergence is taken: each is
    # an array the step has checked or made from checked ones.  The constant forcings
    # and the new state are not scanned, nor is anything by the snapshot energy.
    g, state, params = grain_step_state(2.0**-7)
    scans, all_finite = [], grid_module.all_finite
    for module in (grid_module, elliptic):
        monkeypatch.setattr(module, "all_finite", lambda a: scans.append(1) or all_finite(a))
    new_state, _, report = evolution._advance(state, model, params, Forcings(g))
    assert report.iterations == 5
    assert len(scans) == 4 + 1 + 2 + report.iterations
    scans.clear()
    evolution._energy(g, new_state.eta, new_state.theta, new_state.alpha, model, params)
    assert not scans


@pytest.mark.parametrize("name,assumption", [("a2_fails", "(A2)"), ("a3_fails", "(A3)")])
def test_run_refuses_a_model_that_failed_validation(setup, name, assumption):
    # Validating first (as `kwcflow run` does) must not let run() start anyway.
    g, _, eta0, theta0 = setup
    model = VALIDATION_MODELS[name]()
    validate_assumptions(model)
    params = Parameters(kappa=1.0, epsilon=0.25, T=2e-3, dt=1e-3)
    with pytest.raises(ValueError, match=re.escape(assumption)):
        run(SystemState(g, eta0, theta0), model, params, Forcings(g))


# -- where a theta solve starts ------------------------------------------------------


def grain_setup(cells, eps_exponent, dt, steps):
    """Unforced grain data: a planar step at face 89/128 in 1D, a circle of radius
    0.3 in 2D; kappa=1e-2, eta0=1."""
    g = build_grid(len(cells), cells, [1.0] * len(cells))
    if g.dim == 1:
        r = g.centers(0) - 89 / 128
    else:
        x, y = g.meshgrid()
        r = np.hypot(x - 0.5, y - 0.5) - 0.3
    params = Parameters(kappa=1e-2, epsilon=2.0**-eps_exponent, T=steps * dt, dt=dt)
    return g, SystemState(g, g.constant(1.0), 0.5 * np.tanh(r / 0.01)), params


def record_theta_solves(monkeypatch):
    """Wrap the step's theta solve; returns the list of (problem, kwargs, report)."""
    calls = []
    solve = evolution.singular_resolvent

    def recorded(problem, **kwargs):
        w, report = solve(problem, **kwargs)
        calls.append((problem, kwargs, report))
        return w, report

    monkeypatch.setattr(evolution, "singular_resolvent", recorded)
    return calls


def dual_of(g, theta, epsilon):
    """The dual flux ``grad_gamma_eps`` of the cell gradient of ``theta``."""
    _, gc, gam = evolution.angle_gradient(g, theta, epsilon)
    return gc / gam


def unit_ball(p):
    """``p`` projected cell by cell onto the unit ball, as the solver writes it."""
    return p / np.maximum(1.0, np.sqrt(np.add.reduce(p * p, axis=0)))


def test_theta_solves_start_from_the_extrapolated_angle(monkeypatch):
    calls = record_theta_solves(monkeypatch)
    # grain data: every solve takes Newton steps
    g, state0, params = grain_setup([128], 10, 1e-3, 8)
    traj = run(state0, reference_model(), params, Forcings(g))
    thetas = [s.theta for s in traj.snapshots]
    starts = [kwargs["initial_guess"] for _, kwargs, _ in calls]
    assert all(report.iterations > 0 for _, _, report in calls)
    # steps 1 and 2 start from the old angle: no extrapolation through theta0
    assert starts[0] is thetas[0] and starts[1] is thetas[1]
    assert np.array_equal(starts[2], thetas[2] + (thetas[2] - thetas[1]))
    for k in range(4, 9):
        expected = 3.0 * (thetas[k - 1] - thetas[k - 2]) + thetas[k - 3]
        assert np.array_equal(starts[k - 1], expected)
    # the dual starts as the angle does, from the accepted angles' duals, projected
    duals = [dual_of(g, theta, params.epsilon) for theta in thetas]
    dual_starts = [kwargs["initial_dual"] for _, kwargs, _ in calls]
    assert np.array_equal(dual_starts[0], duals[0])
    assert np.array_equal(dual_starts[1], duals[1])
    assert np.array_equal(dual_starts[2], unit_ball(duals[2] + (duals[2] - duals[1])))
    for k in range(4, 9):
        expected = unit_ball(3.0 * (duals[k - 1] - duals[k - 2]) + duals[k - 3])
        assert np.array_equal(dual_starts[k - 1], expected)

    # An angle held by a zero v is stationary until v switches on after step 3; the
    # step after each solve that took no Newton step starts from the old angle.
    calls.clear()
    g = build_grid(1, [64], [1.0])
    bump = 0.5 * np.cos(np.pi * g.centers(0))
    params = Parameters(kappa=0.5, epsilon=0.25, T=8e-3, dt=1e-3)
    forcings = Forcings(g, v=lambda t: bump if t > 3.5e-3 else g.zeros())
    traj = run(SystemState(g, g.constant(1.0), g.constant(0.25)), reference_model(), params,
               forcings)
    thetas = [s.theta for s in traj.snapshots]
    iterations = [report.iterations for _, _, report in calls]
    assert iterations[:3] == [0, 0, 0] and min(iterations[3:]) > 0
    for k in range(1, 5):
        assert calls[k - 1][1]["initial_guess"] is thetas[k - 1]
        assert np.array_equal(calls[k - 1][1]["initial_dual"],
                              dual_of(g, thetas[k - 1], params.epsilon))
    for k in range(5, 9):
        expected = 3.0 * (thetas[k - 1] - thetas[k - 2]) + thetas[k - 3]
        assert np.array_equal(calls[k - 1][1]["initial_guess"], expected)


# The projection divides by the norm, which may round one ulp past 1.
UNIT_BALL_SLACK = 4 * np.finfo(float).eps


@pytest.mark.parametrize("dim", [1, 2])
def test_the_extrapolated_dual_is_projected_onto_the_unit_ball(dim):
    # None before two accepted pairs; then the angle and the dual are extrapolated alike,
    # linearly through two and quadratically through three, and the dual is projected
    # cell by cell: a prediction inside the ball is kept bit for bit, one outside it
    # is scaled back onto the sphere.
    rng = np.random.default_rng(dim)
    angles = rng.standard_normal((3, 40))
    duals = rng.uniform(-1.0, 1.0, (3, dim, 40))
    duals /= np.maximum(1.0, np.sqrt(np.add.reduce(duals * duals, axis=1)))[:, None]
    recent = list(zip(angles, duals))
    assert evolution._extrapolated_start(recent[:1]) is None
    theta, dual = evolution._extrapolated_start(recent[1:])
    assert np.array_equal(theta, angles[2] + (angles[2] - angles[1]))
    assert np.array_equal(dual, unit_ball(duals[2] + (duals[2] - duals[1])))
    theta, dual = evolution._extrapolated_start(recent)
    assert np.array_equal(theta, 3.0 * (angles[2] - angles[1]) + angles[0])
    raw = 3.0 * (duals[2] - duals[1]) + duals[0]
    outside = np.sqrt(np.add.reduce(raw * raw, axis=0)) > 1.0
    assert 0 < np.count_nonzero(outside) < raw.shape[1]
    assert dual[:, ~outside].tobytes() == raw[:, ~outside].tobytes()
    norm = np.sqrt(np.add.reduce(dual * dual, axis=0))
    assert np.all(np.abs(norm[outside] - 1.0) <= UNIT_BALL_SLACK)
    assert np.all(norm <= 1.0 + UNIT_BALL_SLACK)


def test_dual_starts_stay_in_the_unit_ball_on_a_2d_grain(monkeypatch):
    # On a 2D grain the extrapolated duals leave the ball at cells of the grain boundary;
    # the projection brings them back.  Steps 1 and 2 start from the old angle's dual.
    calls = record_theta_solves(monkeypatch)
    g, state0, params = grain_setup([32, 32], 10, 1e-3, 6)
    traj = run(state0, reference_model(), params, Forcings(g))
    thetas = [s.theta for s in traj.snapshots]
    dual_starts = [kwargs["initial_dual"] for _, kwargs, _ in calls]
    assert all(report.iterations > 0 for _, _, report in calls)
    for k in (0, 1):
        assert np.array_equal(dual_starts[k], dual_of(g, thetas[k], params.epsilon))
    duals = [dual_of(g, theta, params.epsilon) for theta in thetas]
    projected = 0
    for k in range(3, 6):
        raw = 3.0 * (duals[k] - duals[k - 1]) + duals[k - 2]
        projected += np.count_nonzero(np.add.reduce(raw * raw, axis=0) > 1.0)
        assert np.array_equal(dual_starts[k], unit_ball(raw))
    assert projected > 0
    for dual in dual_starts:
        assert np.max(np.sqrt(np.add.reduce(dual * dual, axis=0))) <= 1.0 + UNIT_BALL_SLACK


@pytest.mark.parametrize("cells,eps_exponent,dt", [([128], 10, 1e-3), ([32, 32], 10, 1e-2)],
                         ids=["1d-128", "2d-32x32"])
def test_extrapolated_starts_take_no_more_newton_steps(monkeypatch, cells, eps_exponent, dt):
    g, state0, params = grain_setup(cells, eps_exponent, dt, 20)

    def newton_total():
        traj = run(state0, reference_model(), params, Forcings(g))
        return sum(reports["theta"].iterations for reports in traj.solve_reports)

    extrapolated = newton_total()
    advance = evolution._advance
    # every step from the old angle and its dual
    monkeypatch.setattr(evolution, "_advance",
                        lambda state, model, params, forcings, start:
                        advance(state, model, params, forcings, start=None))
    assert extrapolated <= newton_total()


@pytest.mark.parametrize("eps_exponent", [4, 10])
@pytest.mark.parametrize("cells", [[128], [48, 48]], ids=["1d-128", "2d-48x48"])
def test_one_grain_step_is_unique_up_to_its_residuals(monkeypatch, cells, eps_exponent):
    # The theta step minimizes a functional strongly convex with modulus min m, so two
    # solves of it that meet residuals r1 and r2 lie within (r1 + r2)/min m in H.
    calls = record_theta_solves(monkeypatch)
    g, state0, params = grain_setup(cells, eps_exponent, 1e-3, 4)
    traj = run(state0, reference_model(), params, Forcings(g))
    problem, kwargs, _ = calls[-1]            # step 4, started from the prediction
    thetas = [s.theta for s in traj.snapshots]
    predicted = 3.0 * (thetas[3] - thetas[2]) + thetas[1]
    assert np.array_equal(kwargs["initial_guess"], predicted)
    tol = kwargs["tol_abs"]
    solutions = [
        singular_resolvent(problem, tol_abs=tol, initial_guess=thetas[3]),
        singular_resolvent(problem, tol_abs=tol, initial_guess=predicted,
                           initial_dual=kwargs["initial_dual"]),
        singular_resolvent(problem, tol_abs=tol),
    ]
    m_min = problem.m.min()
    for (w1, rep1), (w2, rep2) in itertools.combinations(solutions, 2):
        assert g.norm_h(w1 - w2) <= (rep1.final_residual_h + rep2.final_residual_h) / m_min
