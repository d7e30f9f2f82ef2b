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

Each study is ``exp_<name>(config, outdir=None, **options)``: it runs on the
grid, model, parameters, seeded initial data, forcings and stepper of a
parsed ``RunConfig`` (a ladder replaces the parameter it varies) and takes
only its ladders and perturbation as options.  The default config is the
desk case: 1D, 64 cells, T = 1, dt = 1e-3, seed 1234.  A config value that
a study cannot honour raises a ``ConfigError`` naming its key.  A study whose
options its runs could reject builds them through its entry in
:data:`SETUPS`, which :func:`option_problems` also calls at parse time.
The studies' runs read the model bounds that the command validated on the
model's own sample range.
"""

from __future__ import annotations

import inspect
import json
import math
import os
from dataclasses import asdict, dataclass, field as dc_field, replace

import numpy as np

from .grid import Grid, build_grid, bump_field, random_smooth_field
from .model import ModelFunctions, Parameters
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
    "PERTURBATIONS",
    "option_problems",
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


def _refuse(config, section: str, keys, reason: str) -> None:
    """Raise a ConfigError naming each of ``keys`` in ``section`` that the config
    sets to anything but null, false or zero: the study cannot honour it."""
    from .config import ConfigError       # config imports this module
    given = [key for key in keys if config.raw[section][key] not in (None, False)]
    if given:
        raise ConfigError([f"{section}.{key}: {reason}; leave it at its default"
                           for key in given])


def _write_csv(outdir, filename, header, rows) -> None:
    """Write numeric ``rows`` as exact ``repr`` floats below ``header``;
    nothing without an ``outdir``."""
    if outdir is None:
        return
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, filename), "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


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


def _limit_table(parameter, values, errors, extra, checks, outdir,
                 filename) -> ConvergenceTable:
    """Distance table of a limit study with log-ratio rates, also written to
    ``outdir/filename``.  ``checks`` maps the note of each pass condition to
    whether it holds; the notes name every condition that fails."""
    errors = [float(e) for e in errors]
    table = ConvergenceTable(
        parameter=parameter,
        values=list(values),
        errors=errors,
        observed_rates=[float(np.log(a / b)) if a > 0 and b > 0 else float("nan")
                        for a, b in zip(errors, errors[1:])],
        extra=extra,
        passed=all(checks.values()),
        notes="; ".join(note for note, ok in checks.items() if not ok),
    )
    _write_csv(outdir, filename, [parameter, "error"], zip(table.values, errors))
    return table


def _order_table(parameter, values, errors, band, extra) -> ConvergenceTable:
    """Manufactured-order table: passes when every error ratio under
    refinement lies in ``band``."""
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    return ConvergenceTable(
        parameter=parameter,
        values=values,
        errors=errors,
        observed_rates=[float(np.log2(r)) for r in ratios],
        extra={"ratios": ratios, **extra},
        passed=all(band[0] <= r <= band[1] for r in ratios),
    )


# -- energy dissipation --------------------------------------------------------------


def exp_energy_dissipation(config, outdir=None) -> DissipationReport:
    """Unforced run of the config: energy must not increase and the dissipation
    inequality must hold with first-order slack.

    The tolerance constant C is fitted from the base run as
    ``3 |worst residual| / dt`` and rechecked on the dt-halved run; the
    worst residual itself must shrink by about half under dt-halving.
    """
    model, params, dt = config.model, config.params, config.params.dt
    _refuse(config, "forcings", ("u", "v"), "energy_dissipation runs unforced")
    initial, forcings = config.make_initial_state(), config.make_forcings()

    def slack_run(params: Parameters):
        traj = run(initial, model, params, forcings, stepper=config.stepper)
        return traj, energy_inequality_residual(traj, model, params, forcings)

    traj, res = slack_run(params)
    _, res2 = slack_run(replace(params, dt=dt / 2.0))
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


def _epsilon_setup(params: Parameters, eps_values, eps0: float):
    """The parameters of the reference run at ``eps0`` and of each rung."""
    return replace(params, epsilon=eps0), [replace(params, epsilon=eps) for eps in eps_values]


def exp_epsilon_limit(config, outdir=None, eps_values=(0.5, 0.3, 0.2, 0.15, 0.11),
                      eps0: float = 0.1) -> ConvergenceTable:
    """Trajectory and prepared-initial-data distances along an epsilon ladder.

    For each epsilon the initial angle is prepared by the resolvent from
    the config's raw initial data, the system is run, and both the
    V-distance of the prepared data and the sup-H trajectory distance to
    the eps0 reference must decrease strictly towards the limit.
    """
    _refuse(config, "initial", ["prepare_theta"],
            "epsilon_limit prepares theta0 at each epsilon of its ladder")
    grid, model = config.grid, config.model
    raw, forcings = config.make_initial_state(), config.make_forcings()
    params_ref, rungs = _epsilon_setup(config.params, eps_values, eps0)

    def member(params: Parameters):
        theta0 = prepare_initial_theta(grid, raw.eta, raw.theta, model, params.epsilon,
                                       params.kappa)
        traj = run(SystemState(grid, raw.eta, theta0), model, params, forcings,
                   stepper=config.stepper)
        return theta0, traj

    theta0_ref, traj_ref = member(params_ref)
    init_errs, traj_errs, eta_errs, theta_errs = [], [], [], []
    for params in rungs:
        theta0_eps, traj_eps = member(params)
        init_errs.append(grid.norm_v(theta0_eps - theta0_ref))
        de, dth, dc = _sup_h_distance(traj_eps, traj_ref)
        eta_errs.append(de)
        theta_errs.append(dth)
        traj_errs.append(dc)

    decreasing = _strictly_decreasing(traj_errs) and _strictly_decreasing(init_errs)
    extra = {
        "init_error_V": [float(e) for e in init_errs],
        "eta_sup_H": [float(e) for e in eta_errs],
        "theta_sup_H": [float(e) for e in theta_errs],
        "eps0": eps0,
    }
    return _limit_table("epsilon", eps_values, traj_errs, extra,
                        {"table not strictly decreasing": decreasing},
                        outdir, "epsilon_limit.csv")


# -- (mu, nu) limit ----------------------------------------------------------------------


def _munu_setup(params: Parameters, munu_values):
    """The parameters of the undamped reference and of each rung, mu = nu."""
    params0 = replace(params, mu=0.0, nu=0.0)
    return params0, [replace(params0, mu=m, nu=m) for m in munu_values]


def exp_munu_limit(config, outdir=None,
                   munu_values=(0.2, 0.1, 0.05, 0.025)) -> ConvergenceTable:
    """Pseudo-parabolic runs against the parabolic reference as mu = nu -> 0."""
    model, initial, forcings = config.model, config.make_initial_state(), config.make_forcings()
    params0, rungs = _munu_setup(config.params, munu_values)
    ref = run(initial, model, params0, forcings, stepper="parabolic")
    # mu = nu = 0 must reproduce the parabolic path exactly
    same = run(initial, model, params0, forcings, stepper="pseudo_parabolic")
    identical = all(
        np.array_equal(a.eta, b.eta) and np.array_equal(a.theta, b.theta)
        for a, b in zip(ref.snapshots, same.snapshots)
    )

    errors = []
    for params in rungs:
        traj = run(initial, model, params, forcings, stepper="pseudo_parabolic")
        errors.append(_sup_h_distance(traj, ref)[2])

    return _limit_table("mu=nu", munu_values, errors, {"zero_damping_identical": identical},
                        {"distances not strictly decreasing": _strictly_decreasing(errors),
                         "zero-damping run not identical to the parabolic path": identical},
                        outdir, "munu_limit.csv")


# -- continuous dependence ------------------------------------------------------------------


def estimate_embedding_constant(grid: Grid, n_samples: int = 1000, seed: int = 0,
                                safety: float = 1.5) -> EmbeddingEstimate:
    """Sampled lower bound (times a safety factor) for the discrete V-to-L4 constant.

    Maximizes |f|_L4 / |f|_V over the constant field, seeded band-limited
    fields and a family of localized bumps.  The constant's ratio is
    |Omega|^(-1/4), 1 on a domain of measure 1.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    rng = np.random.default_rng(seed)

    def l4(f):
        return float(np.sum(f**4) * grid.cell_volume) ** 0.25

    one = grid.constant(1.0)
    best, witness = l4(one) / grid.norm_v(one), "constant"
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


PERTURBATIONS = ("eta", "theta", "both")


def exp_continuous_dependence(config, outdir=None, delta: float = 1e-3,
                              perturb: str = PERTURBATIONS[0]) -> GronwallReport:
    """Two perturbed runs and the discrete Gronwall bound between them.

    J(t) is the squared H-distance of eta plus the mobility-weighted
    squared H-distance of theta; R(t) collects the V-norms of the rates.
    C_hat is the smallest constant with dJ/dt <= 2 C_hat R J along the
    discrete trajectory, so the exponential envelope holds by
    construction; the report additionally checks first-order scaling of
    sup J in the perturbation size and J == 0 for identical inputs.  The
    non-computable analytic constant is reported alongside for comparison,
    using the sampled model bounds and the V-to-L4 estimate.  ``perturb``
    names the fields that the bump of height ``delta`` moves, one of
    :data:`PERTURBATIONS`.
    """
    grid, model, params = config.grid, config.model, config.params
    dt, kappa = params.dt, params.kappa
    initial, forcings = config.make_initial_state(), config.make_forcings()
    eta0, theta0 = initial.eta, initial.theta

    shape_pert = bump_field(grid, center=0.4, width=0.08, amplitude=1.0)
    shape_pert /= np.max(np.abs(shape_pert))

    def perturbation(size: float) -> tuple[np.ndarray, np.ndarray]:
        de = size * shape_pert if perturb in ("eta", "both") else grid.zeros()
        dth = size * shape_pert if perturb in ("theta", "both") else grid.zeros()
        return de, dth

    def perturbed(size: float) -> SystemState:
        de, dth = perturbation(size)
        return SystemState(grid, eta0 + de, theta0 + dth)

    def march(state: SystemState) -> Trajectory:
        return run(state, model, params, forcings, stepper=config.stepper)

    base = march(initial)
    run_d = march(perturbed(delta))
    run_d2 = march(perturbed(delta / 2.0))
    base_again = march(SystemState(grid, eta0, theta0))

    def J_of(a: Trajectory, b: Trajectory) -> np.ndarray:
        pairs = _h_distances(a, b, lambda eta: np.sqrt(model.alpha0(eta)))
        return np.array([e ** 2 + t ** 2 for e, t in pairs])

    def rate_v(fields: list) -> np.ndarray:
        # every step is a snapshot (stride 1), so these are the per-step rates
        return np.array([grid.norm_v((b - a) / dt) for a, b in zip(fields, fields[1:])])

    J = J_of(run_d, base)
    R = (rate_v([s.eta for s in run_d.snapshots]) ** 2
         + rate_v([s.theta for s in base.snapshots]) ** 2 + 1.0)

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
    de0, dth0 = perturbation(delta)
    w0 = np.sqrt(model.alpha0(eta0 + de0))
    expected_J0 = grid.norm_h(de0) ** 2 + grid.norm_h(w0 * dth0) ** 2
    j0_ok = bool(abs(J[0] - expected_J0) <= 1e-12 * (1.0 + expected_J0))

    bounds = model.bounds
    emb = estimate_embedding_constant(grid, seed=config.seed)
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
    _write_csv(outdir, "gronwall.csv", ["t", "J", "envelope"],
               zip(report.times, report.J, envelope))
    return report


# -- H2 uniformity ---------------------------------------------------------------------------


def _battery(grid: Grid):
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


def _h2_setup(grid: Grid, params: Parameters, eps_values) -> dict:
    """Per battery entry, the unit-weight resolvent problem at each epsilon; the
    problems share their fields, so holding them all costs no field per problem."""
    m = grid.constant(1.0)
    return {name: [SingularResolventProblem(grid, beta, params.kappa, m, z, eps)
                   for eps in eps_values]
            for name, beta, z in _battery(grid)}


def exp_h2_uniformity(config, outdir=None, eps_values=tuple(2.0**-k for k in range(9)),
                      trajectory_check: bool = True) -> H2UniformityReport:
    """Epsilon-uniformity of the resolvent H2 bound, plus a trajectory check.

    For each battery entry (beta, z) on the config's grid the ratio
    |w|_H2^2 / (|z|_H^2 + |beta|_V^2) is computed over the epsilon ladder;
    its max/min spread must stay within a factor 2.  Along the config's
    unforced run, the sup of |theta(t)|_H2 must stay finite and stable
    under dt-halving, with a constant fitted against the mobility-weighted
    right-hand side of the undamped step.
    """
    grid, kappa = config.grid, config.params.kappa
    if trajectory_check:
        _refuse(config, "forcings", ("u", "v"), "h2_uniformity's trajectory check runs unforced")
    ratios, spread = {}, {}
    ok = True
    for name, problems in _h2_setup(grid, config.params, eps_values).items():
        entry = []
        for p in problems:
            w, _ = singular_resolvent(p)
            entry.append(check_h2_bound(grid, w, p.z, p.beta, p.epsilon, kappa))
        ratios[name] = [float(r) for r in entry]
        spread[name] = float(max(entry) / min(entry))
        ok = ok and spread[name] <= 2.0

    traj_info = {}
    if trajectory_check:
        model, initial, forcings = config.model, config.make_initial_state(), config.make_forcings()
        sups, cfits = [], []
        for step in (config.params.dt, config.params.dt / 2.0):
            traj = run(initial, model, replace(config.params, dt=step), forcings,
                       stepper=config.stepper)
            h2 = [grid.norm_h2(traj.theta_at(k)) for k in range(1, len(traj.snapshots))]
            rhs = []
            for k in range(1, len(traj.snapshots)):
                dth = (traj.theta_at(k) - traj.theta_at(k - 1)) / step
                # the forcing term of the bound's right-hand side is absent
                # because this run is unforced
                driver = -model.alpha0(traj.eta_at(k)) * dth + traj.theta_at(k)
                rhs.append(grid.norm_h(driver) ** 2
                           + grid.norm_v(model.alpha(traj.eta_at(k))) ** 2)
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
    _write_csv(outdir, "h2_ratios.csv", ["epsilon", *ratios],
               zip(report.epsilons, *ratios.values()))
    return report


# -- manufactured solutions --------------------------------------------------------------------


def _manufactured_forcings(model: ModelFunctions, epsilon: float, kappa: float,
                           t: float, x: np.ndarray):
    """Forcings u, v and fields eta, theta of the cosine manufactured pair (1D).

    With a = e^-t cos(pi x)/4, b = e^-t cos(2 pi x)/10, eta = 1 + a,
    theta = 3/10 + b and gam = sqrt(eps^2 + theta_x^2), substituting the
    pair into the strong equations gives, in closed form,

        u = (pi^2 - 1) a + g(eta) + alpha'(eta) gam,
        v = -alpha0(eta) b - [alpha'(eta) eta_x theta_x / gam
                              + alpha(eta) eps^2 theta_xx / gam^3 + kappa theta_xx].
    """
    pi = np.pi
    a = 0.25 * np.exp(-t) * np.cos(pi * x)
    b = 0.1 * np.exp(-t) * np.cos(2 * pi * x)
    eta, theta = 1.0 + a, 0.3 + b
    eta_x = -0.25 * pi * np.exp(-t) * np.sin(pi * x)
    theta_x = -0.2 * pi * np.exp(-t) * np.sin(2 * pi * x)
    theta_xx = -4.0 * pi**2 * b
    gam = np.sqrt(epsilon**2 + theta_x**2)
    u = (pi**2 - 1.0) * a + model.g(eta) + model.alpha_d1(eta) * gam
    v = -model.alpha0(eta) * b - (model.alpha_d1(eta) * eta_x * theta_x / gam
                                  + model.alpha(eta) * epsilon**2 * theta_xx / gam**3
                                  + kappa * theta_xx)
    return u, v, eta, theta


def _params_over(params: Parameters, T: float, dt: float) -> Parameters:
    """``params``' kappa and epsilon over [0, T] at ``dt`` rounded to divide T;
    a ``dt`` that gives no step is passed on as it is, for ``Parameters`` to reject."""
    steps = round(T / dt) if dt > 0 and 1.0 <= T / dt < math.inf else 0
    return Parameters(kappa=params.kappa, epsilon=params.epsilon, T=T,
                      dt=T / steps if steps else dt)


def _manufactured_setup(params: Parameters, spatial_cells, base_dt: float, T_spatial: float,
                        temporal_cells: int, temporal_dts, T_temporal: float) -> dict:
    """The grid and parameters of each run of the manufactured study, on its own
    unit-interval grids: ``spatial``, one pair per rung with dt ~ h^2, and
    ``temporal``, the fine grid with the reference run's parameters (at the
    smallest dt over 16) and each rung's."""
    # the grids first: they reject a cell count that h0 below would divide by
    grids = [build_grid(1, [n], [1.0]) for n in spatial_cells]
    fine = build_grid(1, [temporal_cells], [1.0])
    h0 = 1.0 / spatial_cells[0]
    return {"spatial": [(grid, _params_over(params, T_spatial, base_dt * ((1.0 / n) / h0) ** 2))
                        for grid, n in zip(grids, spatial_cells)],
            "temporal": (fine, _params_over(params, T_temporal, min(temporal_dts) / 16.0),
                         [_params_over(params, T_temporal, dt) for dt in temporal_dts])}


def exp_manufactured_convergence(config, outdir=None, spatial_cells=(32, 64, 128),
                                 base_dt: float = 2e-3, T_spatial: float = 0.1,
                                 temporal_cells: int = 128,
                                 temporal_dts=(8e-3, 4e-3, 2e-3),
                                 T_temporal: float = 0.4) -> ManufacturedReport:
    """Order verification on the cosine manufactured pair (1D), with the
    config's model, epsilon and kappa on the study's own unit-interval grids.

    Spatial: dt is scaled with h^2 so the total error scales like h^2 and
    the error ratio under h-halving sits near 4.  Temporal: fixed fine
    grid, errors measured against a small-dt reference run on the same
    grid so the spatial component cancels and the ratio sits near 2.
    """
    model, epsilon, kappa = config.model, config.params.epsilon, config.params.kappa
    setup = _manufactured_setup(config.params, spatial_cells, base_dt, T_spatial,
                                temporal_cells, temporal_dts, T_temporal)

    def manufactured(t: float, x: np.ndarray):
        return _manufactured_forcings(model, epsilon, kappa, t, x)

    def exact_state(grid: Grid, t: float) -> tuple[np.ndarray, np.ndarray]:
        return manufactured(t, grid.meshgrid()[0])[2:]

    def final_state(grid: Grid, params: Parameters) -> tuple[np.ndarray, np.ndarray]:
        # only the end state is kept
        x = grid.meshgrid()[0]
        forcings = Forcings(grid, u=lambda tt: manufactured(tt, x)[0],
                            v=lambda tt: manufactured(tt, x)[1])
        traj = run(SystemState(grid, *exact_state(grid, 0.0)), model, params, forcings,
                   snapshot_stride=int(round(params.T / params.dt)))
        return traj.eta_at(-1), traj.theta_at(-1)

    def distance(grid: Grid, a, b) -> float:
        return float(np.hypot(grid.norm_h(a[0] - b[0]), grid.norm_h(a[1] - b[1])))

    # spatial ladder, dt ~ h^2
    spatial_errors = []
    for grid, params in setup["spatial"]:
        end = final_state(grid, params)
        spatial_errors.append(distance(grid, end, exact_state(grid, T_spatial)))
    spatial = _order_table("h", [1.0 / n for n in spatial_cells], spatial_errors, (3.5, 4.5),
                           {"dt_scaling": "dt ~ h^2", "base_dt": base_dt})

    # temporal ladder at fixed fine grid, reference = dt_min / 16
    grid, reference_params, rungs = setup["temporal"]
    reference = final_state(grid, reference_params)
    temporal_errors = [distance(grid, final_state(grid, params), reference)
                       for params in rungs]
    temporal = _order_table("dt", list(temporal_dts), temporal_errors, (1.7, 2.3),
                            {"cells": temporal_cells, "reference_dt": min(temporal_dts) / 16.0})

    for filename, table in (("mms_spatial.csv", spatial), ("mms_temporal.csv", temporal)):
        _write_csv(outdir, filename, [table.parameter, "error"],
                   zip(table.values, table.errors))
    return ManufacturedReport(passed=spatial.passed and temporal.passed,
                              spatial=spatial, temporal=temporal)


# -- registry and serialization ---------------------------------------------------


EXPERIMENTS = {
    "energy_dissipation": exp_energy_dissipation,
    "epsilon_limit": exp_epsilon_limit,
    "munu_limit": exp_munu_limit,
    "continuous_dependence": exp_continuous_dependence,
    "h2_uniformity": exp_h2_uniformity,
    "manufactured_convergence": exp_manufactured_convergence,
}

# Per study with options that its runs could reject: the setup that builds, from those
# options and the config's parameters (and grid, where it reads one), the grids,
# Parameters and problems the study runs on.  The study builds through it, and
# option_problems calls it.
SETUPS = {
    "epsilon_limit": _epsilon_setup,
    "munu_limit": _munu_setup,
    "h2_uniformity": _h2_setup,
    "manufactured_convergence": _manufactured_setup,
}


def option_problems(name: str, grid: Grid, params: Parameters, defaults: dict,
                    options: dict) -> list[tuple[str, str]]:
    """Why study ``name``'s setup would reject ``options`` (type-checked, ladders of two
    values or more) over its option ``defaults`` on ``grid`` and ``params``, as
    (option, message) pairs; empty when the study sets up.  The options are tried
    together; when they fail, the options without which the failure changes are named
    jointly, else each that fails alone on the defaults the same way."""
    setup = SETUPS.get(name)
    arguments = inspect.signature(setup).parameters if setup else {}
    given = [key for key in arguments if key in options]
    if not given:
        return []

    def failure(keys) -> str | None:
        values = {"grid": grid, "params": params, **defaults,
                  **{key: options[key] for key in keys}}
        try:
            setup(**{key: values[key] for key in arguments})
        except ValueError as exc:
            return str(exc)
        return None

    joint = failure(given)
    if joint is None:
        return []
    needed = [key for key in given if failure([k for k in given if k != key]) != joint]
    if needed:
        return [(" and ".join(needed), joint)]
    return ([(key, joint) for key in given if failure([key]) == joint]
            or [(" and ".join(given), joint)])


def report_to_jsonable(report):
    """Dataclass report (possibly nested, with arrays) to JSON-ready data."""
    def plain(obj):     # an array or a numpy scalar, which json cannot write
        return obj.tolist() if isinstance(obj, np.ndarray) else obj.item()
    return json.loads(json.dumps(asdict(report), default=plain))
