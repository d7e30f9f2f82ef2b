"""Time integration of the coupled order-parameter system.

One step advances the pair (eta, theta) by a decoupled splitting: first a
semi-implicit eta update (implicit Laplacian, explicit nonlinearity), then
a fully implicit theta update through the singular-diffusion resolvent
with the unknown-dependent mobility weight alpha0(eta+)/dt.  Setting the
damping parameters mu or nu positive switches on the pseudo-parabolic
variant, which adds linear diffusion of the time derivatives; mu = nu = 0
is the plain parabolic system, stepped by the same code.

Each theta solve starts from the angle extrapolated in time through the last
accepted angles: quadratically, ``3 theta_n - 3 theta_{n-1} + theta_{n-2}``,
once three exist, linearly, ``2 theta_n - theta_{n-1}``, with two, and from
the old angle otherwise.  The H^1 regularity in time of the angle, which the
uniqueness argument rests on, puts the accepted angles on a smooth curve, so
the prediction saves Newton iterations.  It has two exceptions.  The initial
angle is never extrapolated through: the first step is an initial layer, in
which raw data have no H^1 rate.  And the step after a solve that took no
Newton iteration starts from the old angle, which is stationary to the
tolerance; extrapolation would only add round-off.  The dual flux starts
alike, from the duals of the accepted angles, ``p = grad_gamma_eps`` of each
one's kept cell gradient: ``3(p_n - p_{n-1}) + p_{n-2}`` once three exist,
``2 p_n - p_{n-1}`` with two, projected cell by cell onto the unit ball, where
the Newton matrix is SPD; in the two exceptions it starts at the old angle's.
The predicted angle's own dual would cost more Newton and CG iterations on 2D
grain runs.  The start moves the solution only within the solver's tolerance:
two solves of one step that meet residuals r1 and r2 lie within
``(r1 + r2)/min m`` in the H norm, ``m`` the step's weight.

A run records its snapshots, their energy breakdowns and each step's
solver reports.  The state a step makes is not checked again, and its
energy is taken from the step's own fields: the new eta and theta, the
theta problem's weight ``alpha(eta)`` and the new angle's kept gradient.  A
constant forcing is checked once, when the :class:`Forcings` is made; one
computed at t that fails there, or is not finite, fails the step.  The
rates over each snapshot interval, and with them the dissipation-inequality
residual, are derived afterwards from the stored snapshots.
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
from .model import (ModelFunctions, Parameters, _angle_gradient, _energy, _interfacial_force,
                    _kept_flux, angle_gradient, gamma_eps, grad_gamma_eps, interfacial_force,
                    kwc_energy)
from .elliptic import (RESIDUAL_RTOL, LinearResolventProblem, SingularResolventProblem,
                       SolveReport, SolverError, _unit_ball, linear_resolvent,
                       singular_resolvent)

__all__ = [
    "SystemState",
    "Forcings",
    "check_expression",
    "compile_expression",
    "Trajectory",
    "StepFailedError",
    "prepare_initial_theta",
    "initial_velocities",
    "run",
    "run_preconditions",
    "energy_inequality_residual",
    "write_timeseries",
    "TIMESERIES_COLUMNS",
]

THETA_RESIDUAL_TOL = 1e-9


@dataclass
class SystemState:
    """The fields at one time, checked when the state is made.  A state that a step
    made also holds the step's weight ``alpha(eta)`` as ``alpha`` (None otherwise)."""

    grid: Grid
    eta: np.ndarray
    theta: np.ndarray
    time: float = 0.0
    alpha: Optional[np.ndarray] = dc_field(default=None, init=False, repr=False,
                                           compare=False)

    def __post_init__(self):
        self.eta = self.grid.check_scalar(self.eta, "eta")
        self.theta = self.grid.check_scalar(self.theta, "theta")

    @classmethod
    def _of_step(cls, grid: Grid, eta: np.ndarray, theta: np.ndarray, time: float,
                 alpha: np.ndarray) -> "SystemState":
        """The state a step made, whose fields the step has checked, so it skips
        ``__post_init__``'s scans: its eta passed the linear resolvent's finiteness test,
        its theta met a finite residual, and the theta problem checked ``alpha``."""
        state = cls.__new__(cls)
        state.grid, state.eta, state.theta, state.time = grid, eta, theta, time
        state.alpha = alpha
        return state


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
    """Field provider of a checked forcing expression on ``grid``: each call
    evaluates the whole expression, with its ``t``, in one namespace made here."""
    code = check_expression(expr, grid.dim)
    coords = grid.meshgrid()
    namespace = {**_EXPR_FUNCS, **_EXPR_CONSTS, "x": coords[0]}
    if grid.dim == 2:
        namespace["y"] = coords[1]

    def provider(t: float) -> np.ndarray:
        namespace["t"] = float(t)
        out = np.asarray(eval(code, {"__builtins__": {}}, namespace), dtype=float)
        if out.shape != grid.shape:
            out = np.broadcast_to(out, grid.shape).copy()
        return out

    return provider


class Forcings:
    """Pair of field providers u(t), v(t); accepts None, scalars, arrays,
    callables, or expression strings.  A constant field (None, a scalar or an
    array) is checked once, here; a field computed at t is checked at each call."""

    def __init__(self, grid: Grid, u=None, v=None):
        self.grid = grid
        self._u = self._as_provider(u, "u(t)")
        self._v = self._as_provider(v, "v(t)")

    def _as_provider(self, spec, name: str):
        grid = self.grid
        if isinstance(spec, str):
            spec = compile_expression(spec, grid)
        if spec is None:
            const = grid.zeros()
        elif np.isscalar(spec):
            const = grid.check_scalar(grid.constant(float(spec)), name)
        elif isinstance(spec, np.ndarray):
            const = grid.check_scalar(spec)
        elif callable(spec):
            def checked(t):
                try:    # a failure is named, as the check names a field that is not finite
                    f = spec(t)
                except (ValueError, ArithmeticError) as exc:
                    raise ValueError(f"{name}: {exc}") from exc
                return grid.check_scalar(f, name)
            return checked
        else:
            raise TypeError(f"cannot interpret forcing spec of type {type(spec).__name__}")
        return lambda t: const

    def u(self, t: float) -> np.ndarray:
        return self._u(t)

    def v(self, t: float) -> np.ndarray:
        return self._v(t)


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
    return singular_resolvent(problem, initial_guess=theta0_raw)[0]


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
    p0, _ = linear_resolvent(LinearResolventProblem(grid, params.mu**2, 1.0, z_p))

    z_z = interfacial_force(grid, model.alpha(state0.eta), state0.theta,
                            params.epsilon, params.kappa) + forcings.v(0.0)
    z0, _ = linear_resolvent(
        LinearResolventProblem(grid, params.nu**2, model.alpha0(state0.eta), z_z))
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


def _theta_pde_residual(grid: Grid, params: Parameters, theta_old: np.ndarray,
                        alpha0_new: np.ndarray, alpha_new: np.ndarray,
                        theta_new: np.ndarray, v_new: np.ndarray, dt: float,
                        grad_old: tuple[np.ndarray, ...]) -> float:
    """Backward-difference residual of the theta equation, assembled from the stencils;
    ``alpha0_new`` and ``alpha_new`` are the mobility and the weight ``alpha`` at the
    new eta, ``grad_old`` the old angle's face gradient, which only damping reads."""
    rate = (theta_new - theta_old) / dt
    if params.nu:
        flux = _kept_flux(grid, alpha_new, theta_new, params.epsilon, params.kappa)[0]
        Gn = _angle_gradient(grid, theta_new, params.epsilon)[0]
        force = grid._div(tuple(f + params.nu**2 / dt * (n - o)
                                for f, n, o in zip(flux, Gn, grad_old)))
    else:    # the divergence the resolvent's re-check took
        force = _interfacial_force(grid, alpha_new, theta_new, params.epsilon, params.kappa)
    r = alpha0_new * rate - force - v_new
    return grid._norm_h(r)


def _advance(state: SystemState, model: ModelFunctions, params: Parameters,
             forcings: Forcings, start: Optional[tuple[np.ndarray, np.ndarray]] = None,
             ) -> tuple[SystemState, SolveReport, SolveReport]:
    """One step from ``state``; the theta solve starts from ``start``, a pair of an
    angle and a dual flux in the unit ball, by default the old angle and its dual."""
    grid = state.grid
    dt = params.dt
    t_new = state.time + dt
    try:    # a forcing computed at t may fail there, as a step's solve may
        u_new, v_new = forcings.u(t_new), forcings.v(t_new)
    except (ValueError, ArithmeticError) as exc:
        raise StepFailedError(f"forcing failed at t={t_new:.6g}: {exc}") from exc

    # eta step: implicit Laplacian (plus damping), explicit nonlinearity; the state's
    # fields were checked where it was made
    G_old, gc_old, gam = _angle_gradient(grid, state.theta, params.epsilon)
    ghat = model.g(state.eta) + model.alpha_d1(state.eta) * gam
    # damping terms are computed only when their weight is nonzero; x - 0.0 is x
    z_eta = state.eta - params.mu**2 * grid._div(grid._grad(state.eta)) if params.mu else state.eta
    z_eta = z_eta + dt * (u_new - ghat)
    lam = dt + params.mu**2
    try:
        eta_new, rep_eta = linear_resolvent(LinearResolventProblem(grid, lam, 1.0, z_eta))
    except SolverError as exc:
        raise StepFailedError(f"eta solve failed at t={t_new:.6g} "
                              f"(residual {exc.report.final_residual_h:.3e})", exc.report) from exc

    # theta step: fully implicit convex solve given eta_new
    alpha0_new = model.alpha0(eta_new)
    m = alpha0_new / dt
    kappa_eff = params.kappa + params.nu**2 / dt
    z_theta = v_new + m * state.theta
    if params.nu:    # the old angle's Laplacian, from the face gradient already in hand
        z_theta -= (params.nu**2 / dt) * grid._div(G_old)
    problem = SingularResolventProblem(grid, model.alpha(eta_new), kappa_eff, m,
                                       z_theta, params.epsilon)
    tol = min(RESIDUAL_RTOL * (grid._norm_h(z_theta) + 1.0), 0.5 * THETA_RESIDUAL_TOL)
    theta_start, dual_start = (state.theta, gc_old / gam) if start is None else start
    try:
        theta_new, rep_theta = singular_resolvent(problem, tol_abs=tol, initial_guess=theta_start,
                                                  initial_dual=dual_start)
    except SolverError as exc:
        raise StepFailedError(f"theta solve failed at t={t_new:.6g}: {exc}",
                              exc.report) from exc

    res = _theta_pde_residual(grid, params, state.theta, alpha0_new, problem.beta, theta_new,
                              v_new, dt, G_old)
    if not res <= THETA_RESIDUAL_TOL:     # NaN included
        raise StepFailedError(
            f"theta equation residual {res:.3e} exceeds {THETA_RESIDUAL_TOL} at t={t_new:.6g}",
            rep_theta)

    new_state = SystemState._of_step(grid, eta_new, theta_new, t_new, problem.beta)
    return new_state, rep_eta, rep_theta


def _extrapolated_start(recent: list) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The next theta solve's start predicted from ``recent``, the last accepted
    (angle, dual flux) pairs, oldest first: both quadratic through three, linear
    through two, the dual then projected onto the unit ball; None with fewer."""
    if len(recent) == 3:
        (older, p_older), (old, p_old), (last, p_last) = recent
        theta, dual = 3.0 * (last - old) + older, 3.0 * (p_last - p_old) + p_older
    elif len(recent) == 2:
        (old, p_old), (last, p_last) = recent
        theta, dual = last + (last - old), p_last + (p_last - p_old)
    else:
        return None
    return theta, _unit_ball(dual)


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
    :class:`StepFailedError` for diagnosis; it ends with the last completed
    state, a snapshot added to those of the stride when it is not one of them.
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

    def snapshot(state):
        # a state of a step: its energy from the step's checked fields and weight
        traj.times.append(state.time)
        traj.snapshots.append(state)
        traj.energies.append(_energy(grid, state.eta, state.theta, state.alpha, model,
                                     params))

    recent = []     # the last three accepted (angle, dual flux) pairs after the initial one
    start = None    # where the next theta solve starts; None: the old angle and its dual
    for k in range(1, n_steps + 1):
        try:
            new_state, rep_eta, rep_theta = _advance(state, model, params, forcings, start)
        except StepFailedError as exc:
            if traj.snapshots[-1] is not state:    # keep the last completed state
                snapshot(state)
            exc.trajectory = traj
            raise
        traj.solve_reports.append({"eta": rep_eta, "theta": rep_theta})
        state = new_state
        _, gc, gam = _angle_gradient(grid, state.theta, params.epsilon)    # kept by the step
        recent = recent[-2:] + [(state.theta, gc / gam)]
        # an angle that took no Newton step is stationary: start the next solve there
        start = _extrapolated_start(recent) if rep_theta.iterations else None
        if k % stride == 0 or k == n_steps:
            snapshot(state)
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
