"""Time integration of the coupled order-parameter system.

One step advances the pair (eta, theta) by a decoupled splitting: first a
semi-implicit eta update (implicit Laplacian, explicit nonlinearity), then
a fully implicit theta update through the singular-diffusion resolvent
with the unknown-dependent mobility weight alpha0(eta+)/dt.  Setting the
damping parameters mu or nu positive switches on the pseudo-parabolic
variant, which adds linear diffusion of the time derivatives; mu = nu = 0
reproduces the plain parabolic stepper through the identical code path.

A run records its snapshots, their energy breakdowns and each step's
solver reports.  The rates over each snapshot interval, and with them the
dissipation-inequality residual, are derived afterwards from the stored
snapshots.
"""

from __future__ import annotations

import ast
import csv
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .grid import Grid
# gamma_eps and grad_gamma_eps are not called here; they stay bound because the
# benchmark's tracer wraps them by name
from .model import (ModelFunctions, Parameters, angle_gradient, gamma_eps, grad_gamma_eps,
                    interfacial_flux, kwc_energy)
from .elliptic import (LinearResolventProblem, SingularResolventProblem,
                       SolveReport, SolverError, linear_resolvent,
                       singular_resolvent)

__all__ = [
    "SystemState",
    "Forcings",
    "TabulatedForcing",
    "check_expression",
    "compile_expression",
    "Trajectory",
    "StepFailedError",
    "prepare_initial_theta",
    "initial_velocities",
    "step_parabolic",
    "step_pseudo_parabolic",
    "run",
    "run_preconditions",
    "energy_inequality_residual",
    "write_timeseries",
    "TIMESERIES_COLUMNS",
]

THETA_RESIDUAL_TOL = 1e-9


@dataclass
class SystemState:
    grid: Grid
    eta: np.ndarray
    theta: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.eta = self.grid.check_scalar(np.asarray(self.eta, dtype=float), "eta")
        self.theta = self.grid.check_scalar(np.asarray(self.theta, dtype=float), "theta")


# -- forcings --------------------------------------------------------------------


_EXPR_FUNCS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "tanh": np.tanh,
    "exp": np.exp, "sqrt": np.sqrt, "abs": np.abs, "log": np.log,
}
_EXPR_CONSTS = {"pi": np.pi, "e": np.e}
_EXPR_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Constant,
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.Mod, ast.USub, ast.UAdd,
    ast.Load,
)


def check_expression(expr: str, dim: int):
    """Code object of a closed-form forcing in t, x (and y in 2D).

    Only arithmetic, numeric constants, the listed elementary functions,
    and the names t/x/y/pi/e are admitted; anything else is rejected up front.
    """
    tree = ast.parse(expr, mode="eval")
    allowed_names = set(_EXPR_FUNCS) | set(_EXPR_CONSTS) | {"t", "x"}
    if dim == 2:
        allowed_names.add("y")
    for node in ast.walk(tree):
        if not isinstance(node, _EXPR_NODES):
            raise ValueError(f"expression {expr!r}: construct {type(node).__name__} not allowed")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValueError(f"expression {expr!r}: constant {node.value!r} is not a number")
        if isinstance(node, ast.Name) and node.id not in allowed_names:
            raise ValueError(f"expression {expr!r}: unknown name {node.id!r}")
        if isinstance(node, ast.Call) and (
            not isinstance(node.func, ast.Name) or node.func.id not in _EXPR_FUNCS
        ):
            raise ValueError(f"expression {expr!r}: only {sorted(_EXPR_FUNCS)} may be called")
    return compile(tree, "<forcing>", "eval")


def compile_expression(expr: str, grid: Grid) -> Callable[[float], np.ndarray]:
    """Field provider of a checked forcing expression on ``grid``."""
    code = check_expression(expr, grid.dim)
    coords = grid.meshgrid()
    namespace = dict(_EXPR_FUNCS)
    namespace.update(_EXPR_CONSTS)
    namespace["x"] = coords[0]
    if grid.dim == 2:
        namespace["y"] = coords[1]

    def provider(t: float) -> np.ndarray:
        local = dict(namespace)
        local["t"] = float(t)
        val = eval(code, {"__builtins__": {}}, local)
        out = np.asarray(val, dtype=float)
        if out.shape != grid.shape:
            out = np.broadcast_to(out, grid.shape).copy()
        return out

    return provider


class TabulatedForcing:
    """Forcing defined by sampled fields, linearly interpolated in time."""

    def __init__(self, times, fields, grid: Grid):
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1 or self.times.size < 1:
            raise ValueError("need at least one sample time")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("sample times must be strictly increasing")
        self.fields = [grid.check_scalar(np.asarray(f, dtype=float)) for f in fields]
        if len(self.fields) != self.times.size:
            raise ValueError("one field per sample time required")

    def __call__(self, t: float) -> np.ndarray:
        ts = self.times
        if t <= ts[0]:
            return self.fields[0]
        if t >= ts[-1]:
            return self.fields[-1]
        k = int(np.searchsorted(ts, t) - 1)
        w = (t - ts[k]) / (ts[k + 1] - ts[k])
        return (1.0 - w) * self.fields[k] + w * self.fields[k + 1]


class Forcings:
    """Pair of field providers u(t), v(t); accepts None, scalars, arrays,
    callables, or expression strings."""

    def __init__(self, grid: Grid, u=None, v=None):
        self.grid = grid
        self._u = self._as_provider(u)
        self._v = self._as_provider(v)

    def _as_provider(self, spec):
        grid = self.grid
        if spec is None:
            zero = grid.zeros()
            return lambda t: zero
        if isinstance(spec, str):
            return compile_expression(spec, grid)
        if np.isscalar(spec):
            const = grid.constant(float(spec))
            return lambda t: const
        if isinstance(spec, np.ndarray):
            const = grid.check_scalar(spec)
            return lambda t: const
        if callable(spec):
            return spec
        raise TypeError(f"cannot interpret forcing spec of type {type(spec).__name__}")

    def u(self, t: float) -> np.ndarray:
        return self.grid.check_scalar(np.asarray(self._u(t), dtype=float), "u(t)")

    def v(self, t: float) -> np.ndarray:
        return self.grid.check_scalar(np.asarray(self._v(t), dtype=float), "v(t)")


# -- initial data ------------------------------------------------------------------


def prepare_initial_theta(grid: Grid, eta0: np.ndarray, theta0_raw: np.ndarray,
                          model: ModelFunctions, epsilon: float, kappa: float,
                          wstar: Optional[np.ndarray] = None) -> np.ndarray:
    """Regularity-prepared initial angle: the unit-weight resolvent applied
    to ``wstar + theta0`` with mobility weight ``alpha(eta0)``.

    As epsilon approaches a target value the prepared fields converge to
    each other in the discrete V norm, which the epsilon-limit experiment
    tracks.  The default ``wstar`` is zero, appropriate for smooth data.
    """
    eta0 = grid.check_scalar(eta0, "eta0")
    theta0_raw = grid.check_scalar(theta0_raw, "theta0_raw")
    w = grid.zeros() if wstar is None else grid.check_scalar(wstar, "wstar")
    problem = SingularResolventProblem(
        grid, beta=model.alpha(eta0), kappa_eff=kappa, m=grid.constant(1.0),
        z=w + theta0_raw, epsilon=epsilon,
    )
    theta0, report = singular_resolvent(problem, initial_guess=theta0_raw)
    if not report.converged:
        raise SolverError("initial-theta preparation did not converge", report)
    return theta0


def initial_velocities(state0: SystemState, model: ModelFunctions, params: Parameters,
                       forcings: Forcings) -> tuple[np.ndarray, np.ndarray]:
    """Compatible initial rates from the damped resolvents of both equations.

    With mu = nu = 0 the resolvents degenerate to pointwise division by 1
    and alpha0(eta0) respectively.
    """
    grid = state0.grid
    _, _, gam = angle_gradient(grid, state0.theta, params.epsilon)

    z_p = (grid.laplacian(state0.eta) - model.g(state0.eta)
           - model.alpha_d1(state0.eta) * gam + forcings.u(0.0))
    p0, rep_p = linear_resolvent(
        LinearResolventProblem(grid, params.mu**2, grid.constant(1.0), z_p))
    if not rep_p.converged:
        raise SolverError("initial eta-velocity solve failed", rep_p)

    z_z = grid.div(interfacial_flux(grid, model.alpha(state0.eta), state0.theta,
                                    params.epsilon, params.kappa)) + forcings.v(0.0)
    z0, rep_z = linear_resolvent(
        LinearResolventProblem(grid, params.nu**2, model.alpha0(state0.eta), z_z))
    if not rep_z.converged:
        raise SolverError("initial theta-velocity solve failed", rep_z)
    return p0, z0


# -- stepping ----------------------------------------------------------------------


class StepFailedError(RuntimeError):
    """A step's solve failed; carries diagnostics and, from run(), the
    partial trajectory."""

    def __init__(self, message: str, report: Optional[SolveReport] = None,
                 trajectory=None):
        super().__init__(message)
        self.report = report
        self.trajectory = trajectory


def _theta_pde_residual(grid: Grid, model: ModelFunctions, params: Parameters,
                        theta_old: np.ndarray, eta_new: np.ndarray,
                        theta_new: np.ndarray, v_new: np.ndarray, dt: float) -> float:
    """Backward-difference residual of the theta equation, assembled from scratch."""
    rate = (theta_new - theta_old) / dt
    flux = interfacial_flux(grid, model.alpha(eta_new), theta_new, params.epsilon, params.kappa)
    if params.nu:
        Gn, Go = grid.grad(theta_new), grid.grad(theta_old)
        flux = tuple(f + params.nu**2 / dt * (n - o) for f, n, o in zip(flux, Gn, Go))
    r = model.alpha0(eta_new) * rate - grid.div(flux) - v_new
    return grid.norm_h(r)


def _advance(state: SystemState, model: ModelFunctions, params: Parameters,
             forcings: Forcings) -> tuple[SystemState, SolveReport, SolveReport]:
    grid = state.grid
    dt = params.dt
    t_new = state.time + dt
    u_new = forcings.u(t_new)
    v_new = forcings.v(t_new)

    # eta step: implicit Laplacian (plus damping), explicit nonlinearity
    _, _, gam = angle_gradient(grid, state.theta, params.epsilon)
    ghat = model.g(state.eta) + model.alpha_d1(state.eta) * gam
    # damping terms are computed only when their weight is nonzero (x - 0.0 is x)
    damp_eta = params.mu**2 * grid.laplacian(state.eta) if params.mu else 0.0
    z_eta = state.eta - damp_eta + dt * (u_new - ghat)
    lam = dt + params.mu**2
    eta_new, rep_eta = linear_resolvent(
        LinearResolventProblem(grid, lam, grid.constant(1.0), z_eta))
    if not rep_eta.converged:
        raise StepFailedError(
            f"eta solve failed at t={t_new:.6g} (residual {rep_eta.final_residual_h:.3e})",
            rep_eta)

    # theta step: fully implicit convex solve given eta_new
    m = model.alpha0(eta_new) / dt
    kappa_eff = params.kappa + params.nu**2 / dt
    damp_theta = (params.nu**2 / dt) * grid.laplacian(state.theta) if params.nu else 0.0
    z_theta = v_new + m * state.theta - damp_theta
    problem = SingularResolventProblem(grid, model.alpha(eta_new), kappa_eff, m,
                                       z_theta, params.epsilon)
    tol = min(1e-10 * (grid.norm_h(z_theta) + 1.0), 0.5 * THETA_RESIDUAL_TOL)
    try:
        theta_new, rep_theta = singular_resolvent(problem, tol_abs=tol,
                                                  initial_guess=state.theta)
    except SolverError as exc:
        raise StepFailedError(f"theta solve failed at t={t_new:.6g}: {exc}",
                              exc.report) from exc

    res = _theta_pde_residual(grid, model, params, state.theta, eta_new, theta_new,
                              v_new, dt)
    if res > THETA_RESIDUAL_TOL:
        raise StepFailedError(
            f"theta equation residual {res:.3e} exceeds {THETA_RESIDUAL_TOL} at t={t_new:.6g}",
            rep_theta)

    return SystemState(grid, eta_new, theta_new, t_new), rep_eta, rep_theta


def step_parabolic(state: SystemState, model: ModelFunctions, params: Parameters,
                   forcings: Forcings) -> SystemState:
    """One step of the undamped system; requires mu = nu = 0."""
    if params.mu != 0.0 or params.nu != 0.0:
        raise ValueError("step_parabolic requires mu = nu = 0")
    new_state, _, _ = _advance(state, model, params, forcings)
    return new_state


def step_pseudo_parabolic(state: SystemState, model: ModelFunctions, params: Parameters,
                          forcings: Forcings) -> SystemState:
    """One step with pseudo-parabolic damping; mu = nu = 0 reproduces
    step_parabolic exactly (identical code path)."""
    new_state, _, _ = _advance(state, model, params, forcings)
    return new_state


# -- trajectories -------------------------------------------------------------------


@dataclass
class Trajectory:
    grid: Grid
    times: list = dc_field(default_factory=list)
    snapshots: list = dc_field(default_factory=list)
    energies: list = dc_field(default_factory=list)
    solve_reports: list = dc_field(default_factory=list)

    def eta_at(self, k: int) -> np.ndarray:
        return self.snapshots[k].eta

    def theta_at(self, k: int) -> np.ndarray:
        return self.snapshots[k].theta

    def total_energies(self) -> np.ndarray:
        return np.array([e.total for e in self.energies])


def run_preconditions(params: Parameters, stepper: str) -> list[tuple[str, str]]:
    """Why :func:`run` would refuse ``params`` with ``stepper`` before its first
    step, as (config key, message) pairs; empty when it can start."""
    problems = []
    if stepper == "parabolic" and (params.mu != 0.0 or params.nu != 0.0):
        problems.append(("stepper", "parabolic stepper requires mu = nu = 0"))
    n_steps = int(round(params.T / params.dt))
    if abs(n_steps * params.dt - params.T) > 1e-9 * max(params.T, 1.0):
        problems.append(("params.dt", f"dt={params.dt} does not divide T={params.T}"))
    return problems


def run(initial: SystemState, model: ModelFunctions, params: Parameters,
        forcings: Forcings, stepper: str = "parabolic",
        snapshot_stride: int = 1) -> Trajectory:
    """March from t = 0 to T, recording snapshots every ``snapshot_stride`` steps.

    Solver reports are recorded for every step regardless of stride.  If a
    step fails, the partial trajectory is attached to the raised
    :class:`StepFailedError` for diagnosis.
    """
    if stepper not in ("parabolic", "pseudo_parabolic"):
        raise ValueError(f"unknown stepper {stepper!r}")
    problems = run_preconditions(params, stepper)
    if problems:
        raise ValueError(problems[0][1])
    model.ensure_bounds()

    n_steps = int(round(params.T / params.dt))
    stride = max(int(snapshot_stride), 1)

    grid = initial.grid
    state = SystemState(grid, initial.eta.copy(), initial.theta.copy(), 0.0)
    traj = Trajectory(grid=grid)
    traj.times.append(0.0)
    traj.snapshots.append(state)
    traj.energies.append(kwc_energy(grid, state.eta, state.theta, model, params))

    for k in range(1, n_steps + 1):
        try:
            new_state, rep_eta, rep_theta = _advance(state, model, params, forcings)
        except StepFailedError as exc:
            exc.trajectory = traj
            raise
        traj.solve_reports.append({"eta": rep_eta, "theta": rep_theta})
        state = new_state
        if k % stride == 0 or k == n_steps:
            traj.times.append(state.time)
            traj.snapshots.append(state)
            traj.energies.append(kwc_energy(grid, state.eta, state.theta, model, params))
    return traj


def energy_inequality_residual(trajectory: Trajectory, model: ModelFunctions,
                               params: Parameters, forcings: Forcings) -> np.ndarray:
    """Slack of the discrete dissipation inequality per snapshot interval.

    For each pair of consecutive snapshots the returned value is

        E(s) + dt/2 |u|_H^2 + dt/(2 delta_alpha) |v|_H^2
        - dt/4 |rate_eta|_H^2 - dt*mu^2 |grad rate_eta|^2
        - dt*delta_alpha/2 |rate_theta|_H^2 - dt*nu^2 |grad rate_theta|^2
        - E(t),

    with backward-difference rates, right-endpoint rectangle quadrature,
    and delta_alpha the sampled infimum of alpha0.  Nonnegative up to a
    first-order-in-dt tolerance for the implicit-splitting scheme.
    """
    return np.array([slack for slack, *_ in _interval_slack(trajectory, model, params,
                                                             forcings)])


def _interval_slack(trajectory: Trajectory, model: ModelFunctions, params: Parameters,
                    forcings: Forcings):
    """Per snapshot interval: the dissipation slack, the backward-difference
    rates of eta and theta it used, and their H norms."""
    delta_alpha = model.ensure_bounds().delta_alpha
    grid = trajectory.grid

    def grad_sq(f):
        G = grid.grad(f)
        return grid.inner_faces(G, G)

    for k in range(len(trajectory.times) - 1):
        s, t = trajectory.times[k], trajectory.times[k + 1]
        dt = t - s
        de = (trajectory.eta_at(k + 1) - trajectory.eta_at(k)) / dt
        dth = (trajectory.theta_at(k + 1) - trajectory.theta_at(k)) / dt
        de_h, dth_h = grid.norm_h(de), grid.norm_h(dth)
        # the damping terms are computed only when their weight is nonzero (x + 0.0 is x)
        lhs = (0.25 * dt * de_h ** 2
               + (params.mu**2 * dt * grad_sq(de) if params.mu else 0.0)
               + 0.5 * delta_alpha * dt * dth_h ** 2
               + (params.nu**2 * dt * grad_sq(dth) if params.nu else 0.0)
               + trajectory.energies[k + 1].total)
        rhs = (trajectory.energies[k].total
               + 0.5 * dt * grid.norm_h(forcings.u(t)) ** 2
               + dt / (2.0 * delta_alpha) * grid.norm_h(forcings.v(t)) ** 2)
        yield rhs - lhs, de, dth, de_h, dth_h


TIMESERIES_COLUMNS = [
    "t", "E_dirichlet", "E_potential", "E_interfacial", "E_total",
    "rate_eta_H", "rate_theta_H", "rate_eta_V", "rate_theta_V", "s4_residual",
]


def write_timeseries(path, trajectory: Trajectory, model: ModelFunctions,
                     params: Parameters, forcings: Forcings) -> None:
    """One CSV row per snapshot; rates and the dissipation residual refer to
    the interval ending at that snapshot (zeros on the first row)."""
    grid = trajectory.grid
    intervals = list(_interval_slack(trajectory, model, params, forcings))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TIMESERIES_COLUMNS)
        for k, (t, e) in enumerate(zip(trajectory.times, trajectory.energies)):
            if k == 0:
                rates = (0.0, 0.0, 0.0, 0.0)
                s4 = 0.0
            else:
                s4, de, dth, de_h, dth_h = intervals[k - 1]
                rates = (de_h, dth_h, grid.norm_v(de), grid.norm_v(dth))
            writer.writerow([repr(float(v)) for v in
                             (t, e.dirichlet, e.potential, e.interfacial, e.total, *rates, s4)])
