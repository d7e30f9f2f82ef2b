"""Model functions, the regularized norm family, and the free energy.

The solver evolves two order parameters: the orientation order ``eta`` and
the orientation angle ``theta``.  Their dynamics descend the free energy

    E(eta, theta) = 1/2 int |grad eta|^2 + int G(eta)
                    + int alpha(eta) * gamma_eps(grad theta)
                    + kappa/2 int |grad theta|^2,

where ``gamma_eps(y) = sqrt(eps^2 + |y|^2)`` smooths the Euclidean norm.
This module holds the scalar model functions (g, G, alpha, alpha0 and
derivatives), the gamma family with gradient and Hessian, the discrete
energies, and the validator for the standing assumptions:

    (A1) kappa > 0,
    (A2) G is a nonnegative primitive of g,
    (A3) alpha is convex and inf alpha0 > 0.

A model carries the range and the number of points on which the validator
samples it (``ModelFunctions.sample_range`` and ``n_samples``, whose defaults
are the config's); a run validates a model without recorded bounds on them,
so every command and study reads the bounds of one range.

Two results are kept: the angle gradient of :func:`angle_gradient` (face
gradient, cell gradient and ``gamma_eps`` of the cell gradient) and the
flux of :func:`interfacial_flux` with its divergence
(:func:`interfacial_force`, taken when first asked for), each the last one
asked for, keyed on the exact bytes of its input arrays (a
:class:`~kwcflow.grid.KeepLast`).  A time step asks for both of its new
angle more than once; they are evaluated once, and an undamped step takes
the flux's divergence once.

The public functions check what a caller hands them (an angle whose
gradient is not kept, a flux before its divergence is taken); a time step
calls their private forms (:func:`_angle_gradient`,
:func:`_interfacial_force`) on arrays it has made or checked.  Both share
the kept results, which hold checked arrays only.

The energy has one definition, over checked fields and the checked weight
``alpha(eta)``: :func:`kwc_energy` checks its inputs and evaluates it, and a
run evaluates it on the fields of the step that made a snapshot, which the
step has checked, with the kept gradient of the new angle and the new eta's
face gradient that the eta solve's re-check took (a third kept result,
:func:`_face_gradient`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import Grid, KeepLast

__all__ = [
    "Parameters",
    "ModelBounds",
    "ModelFunctions",
    "AssumptionReport",
    "reference_model",
    "gamma_eps",
    "grad_gamma_eps",
    "hess_gamma_eps",
    "angle_gradient",
    "interfacial_energy",
    "interfacial_flux",
    "interfacial_force",
    "EnergyBreakdown",
    "kwc_energy",
    "validate_assumptions",
]


@dataclass
class Parameters:
    """Run parameters; validation raises naming the violated assumption."""

    kappa: float
    epsilon: float
    T: float
    dt: float
    mu: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        if not self.kappa > 0:
            raise ValueError(f"(A1): kappa must be positive, got {self.kappa}")
        if not math.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa}")
        if not (0 < self.epsilon <= 1):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if not math.isfinite(self.T):
            raise ValueError(f"T must be finite, got {self.T}")
        if not (0 < self.dt < self.T):
            raise ValueError(f"dt must satisfy 0 < dt < T, got dt={self.dt}, T={self.T}")
        for name, val in (("mu", self.mu), ("nu", self.nu)):
            if not (0 <= val < 1):
                raise ValueError(f"{name} must lie in [0, 1), got {val}")


# -- regularized norm family ---------------------------------------------------


def _as_vector(y):
    y = np.asarray(y, dtype=float)
    if y.ndim == 0:
        y = y[np.newaxis]
    return y


def _component_sum(a: np.ndarray):
    """Sum over the component axis 0; with one component, that component itself.
    That is the reduction's value bit for bit, except for a -0.0, which the
    reduction (it adds to +0.0) returns as +0.0; a square is never -0.0."""
    return a[0] if len(a) == 1 else np.add.reduce(a, axis=0)


def gamma_eps(y, epsilon: float):
    """sqrt(eps^2 + |y|^2); component axis is axis 0, batch axes follow."""
    y = _as_vector(y)
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    out = np.sqrt(epsilon**2 + _component_sum(y * y))
    return float(out) if out.ndim == 0 else out


def grad_gamma_eps(y, epsilon: float):
    """y / sqrt(eps^2 + |y|^2); single-valued only for eps > 0."""
    y = _as_vector(y)
    if epsilon <= 0:
        raise ValueError("grad_gamma_eps requires epsilon > 0 (the eps=0 case is set-valued)")
    return y / np.sqrt(epsilon**2 + _component_sum(y * y))


def hess_gamma_eps(y, epsilon: float, dual=None, gam=None):
    """Hessian (I*(eps^2+|y|^2) - y yT) / (eps^2+|y|^2)^(3/2); SPD for eps > 0.

    With a dual flux ``p`` (the layout of ``y``), the primal-dual linearization
    ``(I - sym(p yT)/gam)/gam`` with ``gam = gamma_eps(y)`` instead (Chan, Golub &
    Mulet): the Hessian at ``p = y/gam``, and SPD for every ``|p| <= 1``, with
    smallest eigenvalue at least ``(1 - |y|/gam)/gam``.  A caller that has
    ``gamma_eps(y, epsilon)`` at hand passes it as ``gam``, which is then not
    evaluated again; only the dual's formula reads it.  Without a dual the
    Hessian's formula is kept: it gives the smallest entries, ``eps^2/gam^3``
    where ``|y| >> eps``, without the cancellation in ``1 - |y|^2/gam^2``.

    Returns shape ``(N, N) + batch`` following the axis-0 component layout.
    """
    y = _as_vector(y)
    if epsilon <= 0:
        raise ValueError("hess_gamma_eps requires epsilon > 0")
    n = y.shape[0]
    out = np.empty((n, n) + y.shape[1:])
    if dual is None:
        s = epsilon**2 + _component_sum(y * y)
        denom = s ** 1.5
        for i in range(n):
            for j in range(n):
                out[i, j] = ((s if i == j else 0.0) - y[i] * y[j]) / denom
        return out
    p = _as_vector(dual)
    if gam is None:
        gam = gamma_eps(y, epsilon)
    for i in range(n):
        for j in range(n):
            # on the diagonal 0.5*(a + a) is a, bit for bit
            sym = p[i] * y[i] if i == j else 0.5 * (p[i] * y[j] + p[j] * y[i])
            out[i, j] = ((1.0 if i == j else 0.0) - sym / gam) / gam
    return out


# -- model function tuple -------------------------------------------------------


@dataclass
class ModelBounds:
    """Sup-norms sampled over a range; feeds the energy and Gronwall constants."""

    g_d1_sup: float
    alpha_d1_sup: float
    alpha_d2_sup: float
    alpha0_sup: float
    alpha0_d1_sup: float
    delta_alpha: float
    sample_range: tuple[float, float]
    n_samples: int


@dataclass
class ModelFunctions:
    """The tuple (g, G, alpha, alpha', alpha'', alpha0, alpha0'), with the range
    and the number of samples on which :func:`validate_assumptions` checks it."""

    g: Callable
    G: Callable
    alpha: Callable
    alpha_d1: Callable
    alpha_d2: Callable
    alpha0: Callable
    alpha0_d1: Callable
    name: str = "custom"
    sample_range: tuple[float, float] = (-10.0, 10.0)
    n_samples: int = 100_000
    bounds: Optional[ModelBounds] = None

    def ensure_bounds(self) -> ModelBounds:
        """The recorded bounds; a model without them is validated first on its own
        range, and raises ``ValueError`` naming the failed assumptions."""
        if self.bounds is None:
            report = validate_assumptions(self)
            if not report.passed:
                raise ValueError("model violates assumptions: " + "; ".join(report.failures))
        return self.bounds


def reference_model(alpha_offset: float = 0.1, alpha0_offset: float = 1.0,
                    alpha_scale: float = 1.0, alpha0_scale: float = 1.0) -> ModelFunctions:
    """Built-in model satisfying (A2)-(A3) with simple closed forms.

    g(r) = r - 1 with primitive G(r) = (r-1)^2 / 2; alpha is a smoothed
    absolute value (convex, |alpha'| <= scale); alpha0 is a bounded bump
    above ``alpha0_offset`` so inf alpha0 = alpha0_offset.  The offsets and
    scales are the supported numeric overrides.
    """
    ca, c0 = float(alpha_offset), float(alpha0_offset)
    sa, s0 = float(alpha_scale), float(alpha0_scale)
    return ModelFunctions(
        g=lambda r: r - 1.0,
        G=lambda r: 0.5 * (r - 1.0) ** 2,
        alpha=lambda r: ca + sa * np.sqrt(0.01 + r**2),
        alpha_d1=lambda r: sa * r / np.sqrt(0.01 + r**2),
        alpha_d2=lambda r: sa * 0.01 / (0.01 + r**2) ** 1.5,
        alpha0=lambda r: c0 + s0 / (1.0 + r**2),
        alpha0_d1=lambda r: -2.0 * s0 * r / (1.0 + r**2) ** 2,
        name="reference",
    )


# -- energies -------------------------------------------------------------------

_last_angle_gradient = KeepLast()    # keyed on (grid, epsilon, theta bytes)
_last_flux = KeepLast()              # keyed on (grid, epsilon, kappa, beta and theta bytes)
_last_face_gradient = KeepLast()     # keyed on (grid, the checked field's bytes)


def _read_only(arrays) -> None:
    for a in arrays:
        a.flags.writeable = False


def _gradients(grid: Grid, theta: np.ndarray, epsilon: float):
    G = grid._grad(theta)
    gc = grid._face_to_cell(G)
    gam = gamma_eps(gc, epsilon)
    _read_only((*G, gc, gam))
    return G, gc, gam


def _checked_gradients(grid: Grid, theta: np.ndarray, epsilon: float):
    return _gradients(grid, grid.check_scalar(theta), epsilon)


def angle_gradient(grid: Grid, theta: np.ndarray,
                   epsilon: float) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Face gradient ``G``, cell gradient ``gc`` and ``gamma_eps(gc)`` of ``theta``.

    The last result is kept and returned again, read-only, while the same
    grid, epsilon and bytes of ``theta`` are asked for; ``theta`` is checked
    when it is not.
    """
    return _angle_gradient(grid, np.asarray(theta, dtype=float), epsilon, _checked_gradients)


def _angle_gradient(grid: Grid, theta: np.ndarray, epsilon: float, compute=_gradients):
    """:func:`angle_gradient` of a checked angle, which it does not check again."""
    key = (grid, epsilon, theta.shape, theta.tobytes())
    return _last_angle_gradient.get(key, compute, grid, theta, epsilon)


def _face_gradient(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, ...]:
    """``grid._grad(f)`` of a checked field, kept and returned again while the same grid
    and bytes of ``f`` are asked for: the eta solve's re-check takes the new eta's
    gradient, and the step's snapshot energy takes it again.  Its callers only read it."""
    return _last_face_gradient.get((grid, f.tobytes()), grid._grad, f)


def interfacial_energy(grid: Grid, beta: np.ndarray, theta: np.ndarray,
                       epsilon: float, kappa: float) -> float:
    """Weighted interfacial energy int beta*gamma_eps(grad theta) + kappa/2 |grad theta|^2.

    The nonlinear part is quadratured at cells with the cell-averaged
    gradient; the quadratic part uses the face gradient, matching the
    convex functional the implicit theta-step minimizes.
    """
    beta = _checked_weight(grid, beta)
    theta = grid.check_scalar(theta, "theta")
    return _interfacial_energy(grid, beta, _angle_gradient(grid, theta, epsilon), kappa)


def _checked_weight(grid: Grid, beta) -> np.ndarray:
    """``beta`` checked finite and nonnegative."""
    beta = grid.check_scalar(beta, "beta")
    if np.minimum.reduce(beta, axis=None) < 0:
        raise ValueError(f"beta must be nonnegative, min = {np.min(beta)}")
    return beta


def _interfacial_energy(grid: Grid, beta: np.ndarray, gradients, kappa: float) -> float:
    """:func:`interfacial_energy` of the checked weight ``beta`` and the angle's
    ``gradients``, the triple of :func:`angle_gradient`."""
    G, _, gam = gradients
    nonlinear = grid.inner(beta, gam)
    quadratic = 0.5 * kappa * grid.inner_faces(G, G)
    return nonlinear + quadratic


def _interfacial_flux(grid: Grid, beta: np.ndarray, theta: np.ndarray,
                      epsilon: float, kappa: float, gradients) -> list:
    G, gc, gam = gradients(grid, theta, epsilon)
    # gc / gam is the expression grad_gamma_eps(gc) evaluates
    flux = grid.cell_to_face(beta * (gc / gam))
    for f, g in zip(flux, G):
        f += kappa * g
    _read_only(flux)
    return [flux, None]      # the divergence is taken when it is first asked for


def _kept_flux(grid: Grid, beta, theta, epsilon: float, kappa: float,
               gradients=angle_gradient) -> list:
    """The kept ``[flux, divergence or None]``; a new flux takes the angle's gradients
    from ``gradients``, :func:`angle_gradient` (which checks a new angle) or
    :func:`_angle_gradient` (for a checked one)."""
    beta, theta = np.asarray(beta, dtype=float), np.asarray(theta, dtype=float)
    key = (grid, epsilon, kappa, beta.shape, beta.tobytes(), theta.shape, theta.tobytes())
    return _last_flux.get(key, _interfacial_flux, grid, beta, theta, epsilon, kappa, gradients)


def interfacial_flux(grid: Grid, beta: np.ndarray, theta: np.ndarray,
                     epsilon: float, kappa: float) -> tuple[np.ndarray, ...]:
    """Face flux ``beta*grad_gamma_eps(grad theta) + kappa*grad theta``; minus its
    divergence is the first variation of :func:`interfacial_energy`.

    The last flux is kept and returned again, read-only, while the same grid,
    epsilon, kappa and bytes of ``beta`` and ``theta`` are asked for.
    """
    return _kept_flux(grid, beta, theta, epsilon, kappa)[0]


def interfacial_force(grid: Grid, beta: np.ndarray, theta: np.ndarray,
                      epsilon: float, kappa: float) -> np.ndarray:
    """``grid.div(interfacial_flux(...))``, kept beside the flux it is taken of and
    returned again, read-only, while that flux is."""
    kept = _kept_flux(grid, beta, theta, epsilon, kappa)
    if kept[1] is None:
        kept[1] = grid.div(kept[0])
        _read_only((kept[1],))
    return kept[1]


def _interfacial_force(grid: Grid, beta: np.ndarray, theta: np.ndarray,
                       epsilon: float, kappa: float) -> np.ndarray:
    """:func:`interfacial_force` of a checked weight and angle, whose flux, made from
    them, it does not check again."""
    kept = _kept_flux(grid, beta, theta, epsilon, kappa, _angle_gradient)
    if kept[1] is None:
        kept[1] = grid._div(kept[0])
        _read_only((kept[1],))
    return kept[1]


@dataclass
class EnergyBreakdown:
    dirichlet: float
    potential: float
    interfacial: float
    total: float


def kwc_energy(grid: Grid, eta: np.ndarray, theta: np.ndarray,
               model: ModelFunctions, params: Parameters) -> EnergyBreakdown:
    """Free energy split into Dirichlet, potential, and interfacial parts."""
    eta = grid.check_scalar(eta, "eta")
    theta = grid.check_scalar(theta, "theta")
    beta = _checked_weight(grid, model.alpha(eta))
    return _energy(grid, eta, theta, beta, model, params)


def _energy(grid: Grid, eta: np.ndarray, theta: np.ndarray, beta: np.ndarray,
            model: ModelFunctions, params: Parameters) -> EnergyBreakdown:
    """:func:`kwc_energy` of checked fields, ``beta`` the checked weight ``alpha(eta)``."""
    Ge = _face_gradient(grid, eta)
    dirichlet = 0.5 * grid.inner_faces(Ge, Ge)
    potential = float(np.add.reduce(model.G(eta), axis=None) * grid.cell_volume)
    interfacial = _interfacial_energy(grid, beta, _angle_gradient(grid, theta, params.epsilon),
                                      params.kappa)
    return EnergyBreakdown(
        dirichlet=dirichlet,
        potential=potential,
        interfacial=interfacial,
        total=dirichlet + potential + interfacial,
    )


# -- assumption validation ------------------------------------------------------


@dataclass
class AssumptionReport:
    passed: bool
    checks: dict
    failures: list
    warnings: list
    bounds: ModelBounds


def _central_diff(f, r, h):
    return (f(r + h) - f(r - h)) / (2.0 * h)


# Samples per block of validate_assumptions: a block's temporaries stay in cache.
_VALIDATION_BLOCK = 8192


def _block_extrema(model: ModelFunctions, r: np.ndarray, inner_limit: float) -> dict:
    """The minima (keys ``min_*``) and maxima (``max_*``) that validation takes
    over the sample points ``r``."""
    h = 1e-5 * (1.0 + np.abs(r))
    g_vals = model.g(r)
    a2_vals = model.alpha_d2(r)
    a0_vals = model.alpha0(r)
    a1_abs = np.abs(model.alpha_d1(r))
    inner = np.abs(r) <= inner_limit
    return {
        "min_G": np.min(model.G(r)),
        "max_primitive_err": np.max(np.abs(_central_diff(model.G, r, h) - g_vals)
                                    / (1.0 + np.abs(g_vals))),
        "min_alpha_d2": np.min(a2_vals),
        "max_abs_alpha_d2": np.max(np.abs(a2_vals)),
        "min_alpha": np.min(model.alpha(r)),
        "min_alpha0": np.min(a0_vals),
        "max_abs_alpha0": np.max(np.abs(a0_vals)),
        "max_abs_alpha_d1": np.max(a1_abs),
        # -inf when no sample of the block is inner
        "max_abs_alpha_d1_inner": np.max(a1_abs[inner]) if np.any(inner) else -np.inf,
        "max_abs_g_d1": np.max(np.abs(_central_diff(model.g, r, h))),
        "max_abs_alpha0_d1": np.max(np.abs(model.alpha0_d1(r))),
    }


def validate_assumptions(model: ModelFunctions, sample_range=None,
                         n_samples: Optional[int] = None) -> AssumptionReport:
    """Check (A2)-(A3) by dense sampling and record the sampled bound constants.

    The samples are ``n_samples`` points spread evenly over ``sample_range``;
    either left at None is the model's own.  The report carries pass/fail per
    check.  The sampled sup-norms are stored on ``model.bounds`` when every
    check passes, and ``model.bounds`` is cleared when one fails.  A warning
    (not a failure) is raised when the sampled |alpha'| keeps growing towards
    the ends of the range, since the estimates downstream treat it as finite.

    The samples are evaluated in blocks of ``_VALIDATION_BLOCK`` points.
    Every statistic taken is a minimum or a maximum, which does not depend
    on the blocks (a NaN in any block propagates).
    """
    sample_range = model.sample_range if sample_range is None else sample_range
    n_samples = model.n_samples if n_samples is None else n_samples
    lo, hi = float(sample_range[0]), float(sample_range[1])
    if not hi > lo:
        raise ValueError("sample_range must be a nonempty interval")
    if int(n_samples) < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    r = np.linspace(lo, hi, int(n_samples))
    inner_limit = 0.5 * max(abs(lo), abs(hi))
    blocks = [_block_extrema(model, r[i:i + _VALIDATION_BLOCK], inner_limit)
              for i in range(0, r.size, _VALIDATION_BLOCK)]
    ext = {key: (np.min if key.startswith("min_") else np.max)([b[key] for b in blocks])
           for key in blocks[0]}

    checks = {}
    failures = []
    warnings = []

    checks["a2_G_nonnegative"] = bool(ext["min_G"] >= -1e-12)
    if not checks["a2_G_nonnegative"]:
        failures.append(f"(A2): G attains negative values (min {ext['min_G']:.3e})")

    checks["a2_G_primitive_of_g"] = bool(ext["max_primitive_err"] <= 1e-6)
    if not checks["a2_G_primitive_of_g"]:
        failures.append(f"(A2): G' != g (max relative mismatch {ext['max_primitive_err']:.3e})")

    checks["a3_alpha_convex"] = bool(ext["min_alpha_d2"] >= -1e-12)
    if not checks["a3_alpha_convex"]:
        failures.append(f"(A3): alpha'' < 0 somewhere (min {ext['min_alpha_d2']:.3e})")

    checks["a3_alpha_nonnegative"] = bool(ext["min_alpha"] >= 0.0)
    if not checks["a3_alpha_nonnegative"]:
        failures.append(f"(A3): alpha attains negative values (min {ext['min_alpha']:.3e})")

    delta_alpha = float(ext["min_alpha0"])
    checks["a3_delta_alpha_positive"] = bool(delta_alpha > 0.0)
    if not checks["a3_delta_alpha_positive"]:
        failures.append(f"(A3): inf alpha0 = {delta_alpha:.3e} is not positive")

    inner_sup = ext["max_abs_alpha_d1_inner"]
    if inner_sup > -np.inf and ext["max_abs_alpha_d1"] > 1.02 * max(inner_sup, 1e-300):
        warnings.append("|alpha'| still grows near the ends of the sample range; "
                        "treat the recorded sup as a lower estimate")

    bounds = ModelBounds(
        g_d1_sup=float(ext["max_abs_g_d1"]),
        alpha_d1_sup=float(ext["max_abs_alpha_d1"]),
        alpha_d2_sup=float(ext["max_abs_alpha_d2"]),
        alpha0_sup=float(ext["max_abs_alpha0"]),
        alpha0_d1_sup=float(ext["max_abs_alpha0_d1"]),
        delta_alpha=delta_alpha,
        sample_range=(lo, hi),
        n_samples=int(n_samples),
    )
    model.bounds = None if failures else bounds

    return AssumptionReport(
        passed=not failures,
        checks=checks,
        failures=failures,
        warnings=warnings,
        bounds=bounds,
    )
