import csv
import re

import numpy as np
import pytest

import kwcflow.evolution as evolution
from kwcflow import (Forcings, Parameters, SolverError, SystemState,
                     TabulatedForcing, build_grid, compile_expression,
                     energy_inequality_residual, gamma_eps, initial_velocities,
                     prepare_initial_theta, reference_model, run,
                     step_parabolic, step_pseudo_parabolic, validate_assumptions)
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
    with pytest.raises(TypeError):
        Forcings(g, u=object())


def test_tabulated_forcing_interpolates():
    g = build_grid(1, [16], [1.0])
    tab = TabulatedForcing([0.0, 1.0], [g.constant(0.0), g.constant(2.0)], g)
    assert np.allclose(tab(0.5), 1.0)
    assert np.all(tab(-1.0) == 0.0) and np.all(tab(5.0) == 2.0)
    f = Forcings(g, u=tab)
    assert np.allclose(f.u(0.25), 0.5)


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


def test_stationary_state_preserved(setup):
    g, model, _, _ = setup
    c, tc = 1.3, 0.7
    f = stationary_forcing(g, model, c, 0.25)
    for mu, nu in ((0.0, 0.0), (0.0, 0.1), (0.1, 0.0), (0.1, 0.1)):
        params = Parameters(kappa=1.0, epsilon=0.25, T=1.0, dt=1e-3, mu=mu, nu=nu)
        s = SystemState(g, g.constant(c), g.constant(tc))
        for _ in range(20):
            s = step_pseudo_parabolic(s, model, params, f)
        assert np.max(np.abs(s.eta - c)) <= 1e-10
        assert np.max(np.abs(s.theta - tc)) <= 1e-10


def test_parabolic_requires_zero_damping(setup):
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=1.0, dt=1e-3, mu=0.1)
    with pytest.raises(ValueError):
        step_parabolic(SystemState(g, eta0, theta0), model, params, Forcings(g))


def test_steppers_identical_at_zero_damping(setup):
    g, model, eta0, theta0 = setup
    params = Parameters(kappa=1.0, epsilon=0.25, T=1.0, dt=1e-3)
    st = SystemState(g, eta0, theta0)
    f = Forcings(g)
    a = step_parabolic(st, model, params, f)
    b = step_pseudo_parabolic(st, model, params, f)
    assert np.array_equal(a.eta, b.eta)
    assert np.array_equal(a.theta, b.theta)


def test_zero_damping_weights_skip_their_laplacians(setup, monkeypatch):
    # Each nonzero damping weight costs one Laplacian; the eta solve's
    # residual re-check costs the one left at mu = nu = 0.
    g, model, eta0, theta0 = setup
    calls = []
    laplacian = Grid.laplacian

    def counted(self, f):
        calls.append(1)
        return laplacian(self, f)

    monkeypatch.setattr(Grid, "laplacian", counted)
    for mu, nu, expected in ((0.0, 0.0, 1), (0.1, 0.0, 2), (0.0, 0.1, 2), (0.1, 0.1, 3)):
        calls.clear()
        params = Parameters(kappa=1.0, epsilon=0.25, T=1.0, dt=1e-3, mu=mu, nu=nu)
        step_pseudo_parabolic(SystemState(g, eta0, theta0), model, params, Forcings(g))
        assert len(calls) == expected, (mu, nu)


def test_eta_step_matches_explicit_euler_oracle(setup):
    # at tiny dt the implicit update differs from explicit Euler by O(dt^2)
    g, model, eta0, theta0 = setup
    f = Forcings(g)
    diffs = []
    for dt in (1e-5, 1e-6):
        params = Parameters(kappa=1.0, epsilon=0.25, T=1.0, dt=dt)
        new = step_parabolic(SystemState(g, eta0, theta0), model, params, f)
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
    residuals = [evolution._theta_pde_residual(g, model, params, old.theta, new.eta,
                                               new.theta, g.zeros(), params.dt)
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


# -- one evaluation of the new angle's gradient and flux per step -------------------


@pytest.mark.parametrize("mu,nu,fluxes_per_step", [(0.0, 0.0, 1), (0.1, 0.1, 2)])
def test_run_evaluates_one_face_gradient_per_new_angle(setup, monkeypatch, mu, nu,
                                                       fluxes_per_step):
    # The solver's residual, the step check, the snapshot energy and the next eta
    # update share the new angle's gradient; at nu = 0 the check shares the flux too.
    g, model, eta0, theta0 = setup
    calls = {"face_to_cell": 0, "cell_to_face": 0}
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
    assert calls["face_to_cell"] == 3 + 1
    assert calls["cell_to_face"] == 3 * fluxes_per_step


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


@pytest.mark.parametrize("name,assumption", [("a2_fails", "(A2)"), ("a3_fails", "(A3)")])
def test_run_refuses_a_model_that_failed_validation(setup, name, assumption):
    # Validating first (as `kwcflow run` does) must not let run() start anyway.
    g, _, eta0, theta0 = setup
    model = VALIDATION_MODELS[name]()
    validate_assumptions(model)
    params = Parameters(kappa=1.0, epsilon=0.25, T=2e-3, dt=1e-3)
    with pytest.raises(ValueError, match=re.escape(assumption)):
        run(SystemState(g, eta0, theta0), model, params, Forcings(g))
