"""Scripted verification studies for the solver.

Each experiment mirrors one of the analytical statements the scheme is
expected to reproduce at desk scale: unconditional energy dissipation,
convergence of the regularization parameter ladder, convergence of the
pseudo-parabolic damping to the parabolic flow, a Gronwall-type
continuous-dependence bound with an empirically fitted constant, the
epsilon-uniform H2 bound of the singular resolvent, and manufactured
solution order checks.  Experiments never raise on a failed assertion;
they return reports with a ``passed`` flag and full tables so artifacts
can still be written.

Default scales: 1D, 64 cells, T = 1, dt = 1e-3 (2D smoke runs use 32^2,
T = 0.25).  All randomness is seeded.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np
import sympy

from .grid import Grid, build_grid, bump_field, random_smooth_field
from .model import Parameters, reference_model
from .elliptic import SingularResolventProblem, check_h2_bound, singular_resolvent
from .evolution import (Forcings, SystemState, Trajectory,
                        energy_inequality_residual, prepare_initial_theta, run,
                        write_timeseries)

__all__ = [
    "ConvergenceTable",
    "GronwallReport",
    "EmbeddingEstimate",
    "DissipationReport",
    "H2UniformityReport",
    "ManufacturedReport",
    "exp_energy_dissipation",
    "exp_epsilon_limit",
    "exp_munu_limit",
    "exp_continuous_dependence",
    "exp_h2_uniformity",
    "exp_manufactured_convergence",
    "estimate_embedding_constant",
    "EXPERIMENTS",
    "run_experiment",
    "report_to_jsonable",
]


# -- report types ------------------------------------------------------------------


@dataclass
class ConvergenceTable:
    parameter: str
    values: list
    errors: list
    observed_rates: list
    extra: dict = dc_field(default_factory=dict)
    passed: bool = False
    notes: str = ""


@dataclass
class GronwallReport:
    times: list
    J: list
    R: list
    C1_formula: float
    C_hat: float
    passed: bool
    details: dict = dc_field(default_factory=dict)


@dataclass
class EmbeddingEstimate:
    c_v_l4: float
    best_witness: str
    raw_max: float
    safety: float


@dataclass
class DissipationReport:
    passed: bool
    monotone: bool
    worst_residual: float
    worst_residual_halved: float
    residual_ratio: float
    fitted_C: float
    max_energy_increase: float
    details: dict = dc_field(default_factory=dict)


@dataclass
class H2UniformityReport:
    passed: bool
    epsilons: list
    ratios: dict
    spread: dict
    trajectory: dict = dc_field(default_factory=dict)


@dataclass
class ManufacturedReport:
    passed: bool
    spatial: ConvergenceTable = None
    temporal: ConvergenceTable = None


# -- shared setup ------------------------------------------------------------------


def _desk_grid(dim: int, cells, extents=None) -> Grid:
    if np.isscalar(cells):
        cells = (int(cells),) * dim
    if extents is None:
        extents = (1.0,) * dim
    elif np.isscalar(extents):
        extents = (float(extents),) * dim
    return build_grid(dim, cells, extents)


def _default_initial(grid: Grid, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    eta0 = random_smooth_field(grid, rng, mean=1.0, amplitude=0.25)
    theta0 = random_smooth_field(grid, rng, mean=0.0, amplitude=0.5)
    return eta0, theta0


def _h_distances(a: Trajectory, b: Trajectory, weight=None) -> list:
    """Per common snapshot, the H distances of eta and of ``weight(eta_a) * theta``
    (of plain theta without a weight)."""
    grid = a.grid
    out = []
    for k in range(min(len(a.snapshots), len(b.snapshots))):
        w = 1.0 if weight is None else weight(a.eta_at(k))
        out.append((grid.norm_h(a.eta_at(k) - b.eta_at(k)),
                    grid.norm_h(w * (a.theta_at(k) - b.theta_at(k)))))
    return out


def _sup_h_distance(a: Trajectory, b: Trajectory) -> tuple[float, float, float]:
    """(sup-H eta, sup-H theta, sup-H combined) over common snapshots."""
    de = dth = dc = 0.0
    for e, t in _h_distances(a, b):
        de, dth = max(de, e), max(dth, t)
        dc = max(dc, float(np.hypot(e, t)))
    return de, dth, dc


def _strictly_decreasing(xs) -> bool:
    return all(b < a for a, b in zip(xs, xs[1:]))


def _log_ratios(errs) -> list:
    out = []
    for a, b in zip(errs, errs[1:]):
        out.append(float(np.log(a / b)) if a > 0 and b > 0 else float("nan"))
    return out


# -- energy dissipation --------------------------------------------------------------


def exp_energy_dissipation(dim: int = 1, cells=64, T: float = 1.0, dt: float = 1e-3,
                           epsilon: float = 0.25, kappa: float = 1.0,
                           mu: float = 0.0, nu: float = 0.0,
                           stepper: str = "parabolic", seed: int = 1234,
                           outdir=None) -> DissipationReport:
    """Zero-forcing run: energy must not increase and the dissipation
    inequality must hold with first-order slack.

    The tolerance constant C is fitted from the base run as
    ``3 |worst residual| / dt`` and rechecked on the dt-halved run; the
    worst residual itself must shrink by about half under dt-halving.
    """
    grid = _desk_grid(dim, cells)
    model = reference_model()
    eta0, theta0 = _default_initial(grid, seed)
    forcings = Forcings(grid)   # u = v = 0 enforced by construction
    results = {}
    for label, step in (("base", dt), ("halved", dt / 2.0)):
        params = Parameters(kappa=kappa, epsilon=epsilon, T=T, dt=step, mu=mu, nu=nu)
        traj = run(SystemState(grid, eta0, theta0), model, params, forcings,
                   stepper=stepper)
        res = energy_inequality_residual(traj, model, params, forcings)
        results[label] = (traj, res, params)

    traj, res, params = results["base"]
    traj2, res2, _ = results["halved"]
    dE = np.diff(traj.total_energies())
    monotone = bool(np.max(dE) <= 1e-9)
    worst = float(np.min(res))
    worst2 = float(np.min(res2))
    fitted_C = 3.0 * abs(worst) / dt
    holds = bool(np.min(res) >= -fitted_C * dt and np.min(res2) >= -fitted_C * dt / 2.0)
    ratio = abs(worst) / abs(worst2) if worst2 != 0 else np.inf
    ratio_ok = bool(1.5 <= ratio <= 2.5)

    report = DissipationReport(
        passed=monotone and holds and ratio_ok,
        monotone=monotone,
        worst_residual=worst,
        worst_residual_halved=worst2,
        residual_ratio=float(ratio),
        fitted_C=fitted_C,
        max_energy_increase=float(np.max(dE)),
        details={
            "inputs": {"dim": dim, "cells": cells, "T": T, "dt": dt,
                       "epsilon": epsilon, "kappa": kappa, "mu": mu, "nu": nu,
                       "stepper": stepper, "seed": seed},
            "E_start": float(traj.total_energies()[0]),
            "E_end": float(traj.total_energies()[-1]),
        },
    )
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        write_timeseries(os.path.join(outdir, "timeseries.csv"), traj, model,
                         params, forcings)
    return report


# -- epsilon limit ---------------------------------------------------------------------


def exp_epsilon_limit(dim: int = 1, cells=64, T: float = 1.0, dt: float = 1e-3,
                      kappa: float = 1.0, eps_values=(0.5, 0.3, 0.2, 0.15, 0.11),
                      eps0: float = 0.1, seed: int = 1234, outdir=None) -> ConvergenceTable:
    """Trajectory and prepared-initial-data distances along an epsilon ladder.

    For each epsilon the initial angle is prepared by the resolvent from
    the same raw data, the system is run, and both the V-distance of the
    prepared data and the sup-H trajectory distance to the eps0 reference
    must decrease strictly towards the limit.
    """
    grid = _desk_grid(dim, cells)
    model = reference_model()
    eta0, theta0_raw = _default_initial(grid, seed)
    forcings = Forcings(grid)

    def member(eps: float):
        theta0 = prepare_initial_theta(grid, eta0, theta0_raw, model, eps, kappa)
        params = Parameters(kappa=kappa, epsilon=eps, T=T, dt=dt)
        traj = run(SystemState(grid, eta0, theta0), model, params, forcings)
        return theta0, traj

    theta0_ref, traj_ref = member(eps0)
    init_errs, traj_errs, eta_errs, theta_errs = [], [], [], []
    for eps in eps_values:
        theta0_eps, traj_eps = member(eps)
        init_errs.append(grid.norm_v(theta0_eps - theta0_ref))
        de, dth, dc = _sup_h_distance(traj_eps, traj_ref)
        eta_errs.append(de)
        theta_errs.append(dth)
        traj_errs.append(dc)

    dec_traj = _strictly_decreasing(traj_errs)
    dec_init = _strictly_decreasing(init_errs)
    rates = _log_ratios(traj_errs)
    table = ConvergenceTable(
        parameter="epsilon",
        values=list(eps_values),
        errors=[float(e) for e in traj_errs],
        observed_rates=rates,
        extra={
            "init_error_V": [float(e) for e in init_errs],
            "eta_sup_H": [float(e) for e in eta_errs],
            "theta_sup_H": [float(e) for e in theta_errs],
            "eps0": eps0,
            "inputs": {"dim": dim, "cells": cells, "T": T, "dt": dt,
                       "kappa": kappa, "seed": seed},
        },
        passed=dec_traj and dec_init,
        notes="" if (dec_traj and dec_init) else "table not strictly decreasing",
    )
    if outdir is not None:
        _write_table_csv(outdir, "epsilon_limit.csv", table)
    return table


# -- (mu, nu) limit ----------------------------------------------------------------------


def exp_munu_limit(dim: int = 1, cells=64, T: float = 1.0, dt: float = 1e-3,
                   epsilon: float = 0.25, kappa: float = 1.0,
                   munu_values=(0.2, 0.1, 0.05, 0.025), seed: int = 1234,
                   outdir=None) -> ConvergenceTable:
    """Pseudo-parabolic runs against the parabolic reference as mu = nu -> 0."""
    grid = _desk_grid(dim, cells)
    model = reference_model()
    eta0, theta0 = _default_initial(grid, seed)
    forcings = Forcings(grid)
    initial = SystemState(grid, eta0, theta0)

    params0 = Parameters(kappa=kappa, epsilon=epsilon, T=T, dt=dt)
    ref = run(initial, model, params0, forcings, stepper="parabolic")
    # mu = nu = 0 must reproduce the parabolic path exactly
    same = run(initial, model, params0, forcings, stepper="pseudo_parabolic")
    identical = all(
        np.array_equal(a.eta, b.eta) and np.array_equal(a.theta, b.theta)
        for a, b in zip(ref.snapshots, same.snapshots)
    )

    errors = []
    for m in munu_values:
        params = Parameters(kappa=kappa, epsilon=epsilon, T=T, dt=dt, mu=m, nu=m)
        traj = run(initial, model, params, forcings, stepper="pseudo_parabolic")
        errors.append(_sup_h_distance(traj, ref)[2])

    decreasing = _strictly_decreasing(errors)
    rates = _log_ratios(errors)
    table = ConvergenceTable(
        parameter="mu=nu",
        values=list(munu_values),
        errors=[float(e) for e in errors],
        observed_rates=rates,
        extra={
            "zero_damping_identical": identical,
            "inputs": {"dim": dim, "cells": cells, "T": T, "dt": dt,
                       "epsilon": epsilon, "kappa": kappa, "seed": seed},
        },
        passed=decreasing and identical,
        notes="" if decreasing else "distances not strictly decreasing",
    )
    if outdir is not None:
        _write_table_csv(outdir, "munu_limit.csv", table)
    return table


# -- continuous dependence ------------------------------------------------------------------


def estimate_embedding_constant(grid: Grid, n_samples: int = 1000, seed: int = 0,
                                safety: float = 1.5) -> EmbeddingEstimate:
    """Sampled lower bound (times a safety factor) for the discrete V-to-L4 constant.

    Maximizes |f|_L4 / |f|_V over seeded band-limited fields plus a family
    of localized bumps; the constant witness pins the ratio at 1 on the
    unit domain.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    rng = np.random.default_rng(seed)

    def l4(f):
        return float(np.sum(f**4) * grid.cell_volume) ** 0.25

    best, witness = 1.0, "constant"   # |1|_L4 / |1|_V on the unit domain
    for i in range(n_samples):
        f = random_smooth_field(grid, rng, mean=rng.uniform(-1, 1),
                                amplitude=rng.uniform(0.1, 2.0))
        ratio = l4(f) / grid.norm_v(f)
        if ratio > best:
            best, witness = ratio, f"random_smooth[{i}]"
    for width in (0.03, 0.05, 0.1, 0.2):
        for center in (0.3, 0.5, 0.7):
            f = bump_field(grid, center=center, width=width, amplitude=1.0)
            ratio = l4(f) / grid.norm_v(f)
            if ratio > best:
                best, witness = ratio, f"bump(width={width},center={center})"
    return EmbeddingEstimate(c_v_l4=best * safety, best_witness=witness,
                             raw_max=best, safety=safety)


def exp_continuous_dependence(dim: int = 1, cells=64, T: float = 1.0, dt: float = 1e-3,
                              epsilon: float = 0.25, kappa: float = 1.0,
                              delta: float = 1e-3, perturb: str = "eta",
                              seed: int = 1234, outdir=None) -> GronwallReport:
    """Two perturbed runs and the discrete Gronwall bound between them.

    J(t) is the squared H-distance of eta plus the mobility-weighted
    squared H-distance of theta; R(t) collects the V-norms of the rates.
    C_hat is the smallest constant with dJ/dt <= 2 C_hat R J along the
    discrete trajectory, so the exponential envelope holds by
    construction; the report additionally checks first-order scaling of
    sup J in the perturbation size and J == 0 for identical inputs.  The
    non-computable analytic constant is reported alongside for comparison,
    using the sampled model bounds and the V-to-L4 estimate.
    """
    grid = _desk_grid(dim, cells)
    model = reference_model()
    model.ensure_bounds()
    eta0, theta0 = _default_initial(grid, seed)
    forcings = Forcings(grid)
    params = Parameters(kappa=kappa, epsilon=epsilon, T=T, dt=dt)

    shape_pert = bump_field(grid, center=0.4, width=0.08, amplitude=1.0)
    shape_pert /= np.max(np.abs(shape_pert))

    def perturbed(size: float) -> SystemState:
        de = size * shape_pert if perturb in ("eta", "both") else 0.0
        dth = size * shape_pert if perturb in ("theta", "both") else 0.0
        return SystemState(grid, eta0 + de, theta0 + dth)

    base = run(SystemState(grid, eta0, theta0), model, params, forcings)
    run_d = run(perturbed(delta), model, params, forcings)
    run_d2 = run(perturbed(delta / 2.0), model, params, forcings)
    base_again = run(SystemState(grid, eta0, theta0), model, params, forcings)

    def J_of(a: Trajectory, b: Trajectory) -> np.ndarray:
        pairs = _h_distances(a, b, lambda eta: np.sqrt(model.alpha0(eta)))
        return np.array([e ** 2 + t ** 2 for e, t in pairs])

    J = J_of(run_d, base)
    R = np.array(run_d.rate_eta_v) ** 2 + np.array(base.rate_theta_v) ** 2 + 1.0

    C_hat = 0.0
    for k in range(len(J) - 1):
        if J[k] > 0:
            growth = (J[k + 1] - J[k]) / dt
            if growth > 0:
                C_hat = max(C_hat, growth / (2.0 * R[k] * J[k]))

    int_R = np.concatenate([[0.0], np.cumsum(R) * dt])
    envelope = J[0] * np.exp(2.0 * C_hat * int_R) * 1.1
    env_ok = bool(np.all(J <= envelope + 1e-300))

    J_half = J_of(run_d2, base)
    scale_ratio = float(np.sqrt(np.max(J)) / np.sqrt(np.max(J_half)))
    scale_ok = bool(1.6 <= scale_ratio <= 2.4)

    J_zero = J_of(base_again, base)
    zero_ok = bool(np.all(J_zero == 0.0))

    # J(0) must equal the injected perturbation size
    de0 = delta * shape_pert if perturb in ("eta", "both") else grid.zeros()
    dth0 = delta * shape_pert if perturb in ("theta", "both") else grid.zeros()
    w0 = np.sqrt(model.alpha0(eta0 + de0))
    expected_J0 = grid.norm_h(de0) ** 2 + grid.norm_h(w0 * dth0) ** 2
    j0_ok = bool(abs(J[0] - expected_J0) <= 1e-12 * (1.0 + expected_J0))

    bounds = model.bounds
    emb = estimate_embedding_constant(grid, seed=seed)
    C1 = (4.0 / (min(kappa, 1.0) * min(bounds.delta_alpha, 1.0))
          * (bounds.g_d1_sup + bounds.alpha_d1_sup**2
             + emb.c_v_l4**4 * bounds.alpha0_d1_sup**2 + kappa))

    report = GronwallReport(
        times=[float(t) for t in run_d.times],
        J=[float(j) for j in J],
        R=[float(r) for r in R],
        C1_formula=float(C1),
        C_hat=float(C_hat),
        passed=env_ok and scale_ok and zero_ok and j0_ok and np.isfinite(C_hat),
        details={
            "inputs": {"dim": dim, "cells": cells, "T": T, "dt": dt,
                       "epsilon": epsilon, "kappa": kappa, "delta": delta,
                       "perturb": perturb, "seed": seed},
            "J0": float(J[0]),
            "expected_J0": float(expected_J0),
            "sup_J": float(np.max(J)),
            "sup_J_half_delta": float(np.max(J_half)),
            "delta_scaling_ratio": scale_ratio,
            "envelope_ok": env_ok,
            "delta_zero_J_identically_zero": zero_ok,
            "embedding_estimate": asdict(emb),
        },
    )
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "gronwall.csv"), "w", encoding="utf-8") as fh:
            fh.write("t,J,envelope\n")
            for t, j, e in zip(report.times, report.J, envelope):
                fh.write(f"{float(t)!r},{float(j)!r},{float(e)!r}\n")
    return report


# -- H2 uniformity ---------------------------------------------------------------------------


def _default_battery(grid: Grid):
    # nonzero-mean data keeps the solution from flattening away at small
    # epsilon, so the ratio probes the bound instead of degenerating to 0/denom
    x = grid.meshgrid()[0]
    L = grid.extents[0]
    return [
        ("constant", grid.zeros(), grid.constant(1.0)),
        ("smooth", 0.5 + 0.25 * np.cos(2 * np.pi * x / L),
         1.0 + 0.5 * np.cos(np.pi * x / L)),
        ("step_like", grid.constant(0.3), 1.0 + 0.8 * np.tanh((x - 0.5 * L) / 0.1)),
    ]


def exp_h2_uniformity(dim: int = 1, cells=128, kappa: float = 1.0,
                      eps_values=tuple(2.0**-k for k in range(9)),
                      battery=None, trajectory_check: bool = True,
                      T: float = 0.25, dt: float = 1e-3, seed: int = 1234,
                      outdir=None) -> H2UniformityReport:
    """Epsilon-uniformity of the resolvent H2 bound, plus a trajectory check.

    For each battery entry (beta, z) the ratio |w|_H2^2 / (|z|_H^2 +
    |beta|_V^2) is computed over the epsilon ladder; its max/min spread
    must stay within a factor 2.  Along a short zero-forcing run, the sup
    of |theta(t)|_H2 must stay finite and stable under dt-halving, with a
    fitted constant against the mobility-weighted right-hand side.
    """
    grid = _desk_grid(dim, cells)
    if battery is None:
        battery = _default_battery(grid)
    ratios, spread = {}, {}
    ok = True
    for name, beta, z in battery:
        entry = []
        for eps in eps_values:
            problem = SingularResolventProblem(grid, beta, kappa, grid.constant(1.0),
                                               z, eps)
            w, _ = singular_resolvent(problem)
            entry.append(check_h2_bound(grid, w, z, beta, eps, kappa))
        ratios[name] = [float(r) for r in entry]
        spread[name] = float(max(entry) / min(entry))
        ok = ok and spread[name] <= 2.0

    traj_info = {}
    if trajectory_check:
        model = reference_model()
        model.ensure_bounds()
        gsmall = _desk_grid(dim, 64)
        eta0, theta0 = _default_initial(gsmall, seed)
        forcings = Forcings(gsmall)
        sups, cfits = [], []
        for step in (dt, dt / 2.0):
            params = Parameters(kappa=kappa, epsilon=0.25, T=T, dt=step)
            traj = run(SystemState(gsmall, eta0, theta0), model, params, forcings)
            h2 = [gsmall.norm_h2(traj.theta_at(k)) for k in range(1, len(traj.snapshots))]
            rhs = []
            for k in range(1, len(traj.snapshots)):
                dth = (traj.theta_at(k) - traj.theta_at(k - 1)) / step
                # the forcing term of the bound's right-hand side is absent
                # because this run is zero-forced
                driver = -model.alpha0(traj.eta_at(k)) * dth + traj.theta_at(k)
                rhs.append(gsmall.norm_h(driver) ** 2
                           + gsmall.norm_v(model.alpha(traj.eta_at(k))) ** 2)
            sups.append(float(np.max(h2)))
            cfits.append(float(np.max(np.array(h2) ** 2 / np.array(rhs))))
        stable = bool(0.5 <= sups[0] / sups[1] <= 2.0)
        traj_info = {"sup_h2_theta": sups[0], "sup_h2_theta_halved_dt": sups[1],
                     "fitted_constant": cfits[0], "fitted_constant_halved_dt": cfits[1],
                     "stable_under_dt_halving": stable}
        ok = ok and stable and np.isfinite(sups[0])

    report = H2UniformityReport(
        passed=ok,
        epsilons=[float(e) for e in eps_values],
        ratios=ratios,
        spread=spread,
        trajectory=traj_info,
    )
    if outdir is not None:
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "h2_ratios.csv"), "w", encoding="utf-8") as fh:
            fh.write("epsilon," + ",".join(ratios) + "\n")
            for i, eps in enumerate(report.epsilons):
                fh.write(",".join([repr(eps)] + [repr(ratios[n][i]) for n in ratios]) + "\n")
    return report


# -- manufactured solutions --------------------------------------------------------------------


def _manufactured_forcings(model_name: str, epsilon: float, kappa: float):
    """Closed-form forcings for the cosine manufactured pair, via symbolic
    substitution into the strong equations (1D reference model)."""
    if model_name != "reference":
        raise ValueError("manufactured forcings are derived for the reference model")
    t, x = sympy.symbols("t x")
    eta = 1 + sympy.Rational(1, 4) * sympy.exp(-t) * sympy.cos(sympy.pi * x)
    theta = (sympy.Rational(3, 10)
             + sympy.Rational(1, 10) * sympy.exp(-t) * sympy.cos(2 * sympy.pi * x))

    g_expr = eta - 1

    def alpha_of(r):
        return sympy.Rational(1, 10) + sympy.sqrt(sympy.Rational(1, 100) + r**2)

    def alpha_d1_of(r):
        return r / sympy.sqrt(sympy.Rational(1, 100) + r**2)

    def alpha0_of(r):
        return 1 + 1 / (1 + r**2)

    tx = theta.diff(x)
    gam = sympy.sqrt(epsilon**2 + tx**2)
    u = (eta.diff(t) - eta.diff(x, 2) + g_expr + alpha_d1_of(eta) * gam)
    flux = alpha_of(eta) * tx / gam + kappa * tx
    v = alpha0_of(eta) * theta.diff(t) - flux.diff(x)

    fu = sympy.lambdify((t, x), u, "numpy")
    fv = sympy.lambdify((t, x), v, "numpy")
    feta = sympy.lambdify((t, x), eta, "numpy")
    ftheta = sympy.lambdify((t, x), theta, "numpy")
    return fu, fv, feta, ftheta


def exp_manufactured_convergence(spatial_cells=(32, 64, 128), base_dt: float = 2e-3,
                                 T_spatial: float = 0.1,
                                 temporal_cells: int = 128,
                                 temporal_dts=(8e-3, 4e-3, 2e-3),
                                 T_temporal: float = 0.4,
                                 epsilon: float = 0.25, kappa: float = 1.0,
                                 outdir=None) -> ManufacturedReport:
    """Order verification on the cosine manufactured pair (1D).

    Spatial: dt is scaled with h^2 so the total error scales like h^2 and
    the error ratio under h-halving sits near 4.  Temporal: fixed fine
    grid, errors measured against a small-dt reference run on the same
    grid so the spatial component cancels and the ratio sits near 2.
    """
    fu, fv, feta, ftheta = _manufactured_forcings("reference", epsilon, kappa)
    model = reference_model()

    def exact_state(grid: Grid, t: float) -> tuple[np.ndarray, np.ndarray]:
        x = grid.meshgrid()[0]
        return feta(t, x), ftheta(t, x)

    def forcing_pair(grid: Grid) -> Forcings:
        x = grid.meshgrid()[0]
        return Forcings(grid, u=lambda tt: fu(tt, x), v=lambda tt: fv(tt, x))

    # spatial ladder, dt ~ h^2
    spatial_errors = []
    h0 = 1.0 / spatial_cells[0]
    for n in spatial_cells:
        grid = _desk_grid(1, n)
        h = 1.0 / n
        dt = base_dt * (h / h0) ** 2
        steps = int(round(T_spatial / dt))
        dt = T_spatial / steps
        params = Parameters(kappa=kappa, epsilon=epsilon, T=T_spatial, dt=dt)
        e0, t0 = exact_state(grid, 0.0)
        traj = run(SystemState(grid, e0, t0), model, params, forcing_pair(grid),
                   snapshot_stride=steps)
        eT, tT = exact_state(grid, T_spatial)
        err = float(np.hypot(grid.norm_h(traj.eta_at(-1) - eT),
                             grid.norm_h(traj.theta_at(-1) - tT)))
        spatial_errors.append(err)
    spatial_ratios = [a / b for a, b in zip(spatial_errors, spatial_errors[1:])]
    spatial_ok = all(3.5 <= r <= 4.5 for r in spatial_ratios)
    spatial = ConvergenceTable(
        parameter="h",
        values=[1.0 / n for n in spatial_cells],
        errors=spatial_errors,
        observed_rates=[float(np.log2(r)) for r in spatial_ratios],
        extra={"ratios": spatial_ratios, "dt_scaling": "dt ~ h^2", "base_dt": base_dt},
        passed=spatial_ok,
    )

    # temporal ladder at fixed fine grid, reference = dt_min / 16
    grid = _desk_grid(1, temporal_cells)
    e0, t0 = exact_state(grid, 0.0)
    forc = forcing_pair(grid)

    def final_state(dt: float):
        steps = int(round(T_temporal / dt))
        params = Parameters(kappa=kappa, epsilon=epsilon, T=T_temporal,
                            dt=T_temporal / steps)
        traj = run(SystemState(grid, e0, t0), model, params, forc,
                   snapshot_stride=steps)
        return traj.eta_at(-1), traj.theta_at(-1)

    ref_eta, ref_theta = final_state(min(temporal_dts) / 16.0)
    temporal_errors = []
    for dt in temporal_dts:
        e, th = final_state(dt)
        temporal_errors.append(float(np.hypot(grid.norm_h(e - ref_eta),
                                              grid.norm_h(th - ref_theta))))
    temporal_ratios = [a / b for a, b in zip(temporal_errors, temporal_errors[1:])]
    temporal_ok = all(1.7 <= r <= 2.3 for r in temporal_ratios)
    temporal = ConvergenceTable(
        parameter="dt",
        values=list(temporal_dts),
        errors=temporal_errors,
        observed_rates=[float(np.log2(r)) for r in temporal_ratios],
        extra={"ratios": temporal_ratios, "cells": temporal_cells,
               "reference_dt": min(temporal_dts) / 16.0},
        passed=temporal_ok,
    )

    report = ManufacturedReport(passed=spatial_ok and temporal_ok,
                                spatial=spatial, temporal=temporal)
    if outdir is not None:
        _write_table_csv(outdir, "mms_spatial.csv", spatial)
        _write_table_csv(outdir, "mms_temporal.csv", temporal)
    return report


# -- registry and serialization ---------------------------------------------------


def _write_table_csv(outdir, filename, table: ConvergenceTable) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, filename), "w", encoding="utf-8") as fh:
        fh.write(f"{table.parameter},error\n")
        for v, e in zip(table.values, table.errors):
            fh.write(f"{float(v)!r},{float(e)!r}\n")


EXPERIMENTS = {
    "energy_dissipation": exp_energy_dissipation,
    "epsilon_limit": exp_epsilon_limit,
    "munu_limit": exp_munu_limit,
    "continuous_dependence": exp_continuous_dependence,
    "h2_uniformity": exp_h2_uniformity,
    "manufactured_convergence": exp_manufactured_convergence,
}


def run_experiment(name: str, outdir=None, **options):
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[name](outdir=outdir, **options)


def report_to_jsonable(report):
    """Dataclass report (possibly nested, with arrays) to JSON-ready data."""
    def convert(obj):
        if hasattr(obj, "__dataclass_fields__"):
            return {k: convert(v) for k, v in asdict(obj).items()}
        if isinstance(obj, dict):
            return {k: convert(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [convert(v) for v in obj]
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.floating, np.integer, np.bool_)):
            return obj.item()
        return obj
    return convert(report)


def write_report_json(outdir, name: str, report) -> str:
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "report.json")
    payload = {"experiment": name, "report": report_to_jsonable(report)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
    return path
