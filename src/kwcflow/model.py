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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import Grid

__all__ = [
    "Parameters",
    "ModelBounds",
    "ModelFunctions",
    "AssumptionReport",
    "reference_model",
    "gamma_eps",
    "grad_gamma_eps",
    "hess_gamma_eps",
    "interfacial_energy",
    "interfacial_flux",
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
        if not (0 < self.epsilon <= 1):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
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


def gamma_eps(y, epsilon: float):
    """sqrt(eps^2 + |y|^2); component axis is axis 0, batch axes follow."""
    y = _as_vector(y)
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    out = np.sqrt(epsilon**2 + (y * y).sum(axis=0))
    return float(out) if out.ndim == 0 else out


def grad_gamma_eps(y, epsilon: float):
    """y / sqrt(eps^2 + |y|^2); single-valued only for eps > 0."""
    y = _as_vector(y)
    if epsilon <= 0:
        raise ValueError("grad_gamma_eps requires epsilon > 0 (the eps=0 case is set-valued)")
    return y / np.sqrt(epsilon**2 + (y * y).sum(axis=0))


def hess_gamma_eps(y, epsilon: float):
    """Hessian (I*(eps^2+|y|^2) - y yT) / (eps^2+|y|^2)^(3/2); SPD for eps > 0.

    Returns shape ``(N, N) + batch`` following the axis-0 component layout.
    """
    y = _as_vector(y)
    if epsilon <= 0:
        raise ValueError("hess_gamma_eps requires epsilon > 0")
    n = y.shape[0]
    s = epsilon**2 + (y * y).sum(axis=0)
    denom = s ** 1.5
    out = np.empty((n, n) + y.shape[1:])
    for i in range(n):
        for j in range(n):
            out[i, j] = ((s if i == j else 0.0) - y[i] * y[j]) / denom
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
    """The tuple (g, G, alpha, alpha', alpha'', alpha0, alpha0')."""

    g: Callable
    G: Callable
    alpha: Callable
    alpha_d1: Callable
    alpha_d2: Callable
    alpha0: Callable
    alpha0_d1: Callable
    name: str = "custom"
    bounds: Optional[ModelBounds] = None

    def ensure_bounds(self, sample_range=(-10.0, 10.0), n_samples: int = 100_000) -> ModelBounds:
        if self.bounds is None:
            report = validate_assumptions(self, sample_range, n_samples)
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


def interfacial_energy(grid: Grid, beta: np.ndarray, theta: np.ndarray,
                       epsilon: float, kappa: float) -> float:
    """Weighted interfacial energy int beta*gamma_eps(grad theta) + kappa/2 |grad theta|^2.

    The nonlinear part is quadratured at cells with the cell-averaged
    gradient; the quadratic part uses the face gradient, matching the
    convex functional the implicit theta-step minimizes.
    """
    beta = grid.check_scalar(beta, "beta")
    theta = grid.check_scalar(theta, "theta")
    if np.min(beta) < 0:
        raise ValueError(f"beta must be nonnegative, min = {np.min(beta)}")
    G = grid.grad(theta)
    gc = grid.face_to_cell(G)
    nonlinear = grid.inner(beta, gamma_eps(gc, epsilon))
    quadratic = 0.5 * kappa * grid.inner_faces(G, G)
    return nonlinear + quadratic


def interfacial_flux(grid: Grid, beta: np.ndarray, theta: np.ndarray,
                     epsilon: float, kappa: float) -> tuple[np.ndarray, ...]:
    """Face flux ``beta*grad_gamma_eps(grad theta) + kappa*grad theta``; minus its
    divergence is the first variation of :func:`interfacial_energy`."""
    G = grid.grad(theta)
    F = grid.cell_to_face(beta * grad_gamma_eps(grid.face_to_cell(G), epsilon))
    return tuple(F[d] + kappa * G[d] for d in range(grid.dim))


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
    Ge = grid.grad(eta)
    dirichlet = 0.5 * grid.inner_faces(Ge, Ge)
    potential = float(np.sum(model.G(eta)) * grid.cell_volume)
    interfacial = interfacial_energy(grid, model.alpha(eta), theta,
                                     params.epsilon, params.kappa)
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


def validate_assumptions(model: ModelFunctions, sample_range=(-10.0, 10.0),
                         n_samples: int = 100_000) -> AssumptionReport:
    """Check (A2)-(A3) by dense sampling and record the sampled bound constants.

    The report carries pass/fail per check; the sampled sup-norms are also
    stored on ``model.bounds``.  A warning (not a failure) is raised when
    the sampled |alpha'| keeps growing towards the ends of the range,
    since the estimates downstream treat it as finite.
    """
    lo, hi = float(sample_range[0]), float(sample_range[1])
    if not hi > lo:
        raise ValueError("sample_range must be a nonempty interval")
    r = np.linspace(lo, hi, int(n_samples))
    h = 1e-5 * (1.0 + np.abs(r))

    checks = {}
    failures = []
    warnings = []

    G_vals = model.G(r)
    checks["a2_G_nonnegative"] = bool(np.min(G_vals) >= -1e-12)
    if not checks["a2_G_nonnegative"]:
        failures.append(f"(A2): G attains negative values (min {np.min(G_vals):.3e})")

    g_vals = model.g(r)
    fd_G = _central_diff(model.G, r, h)
    err = np.abs(fd_G - g_vals) / (1.0 + np.abs(g_vals))
    checks["a2_G_primitive_of_g"] = bool(np.max(err) <= 1e-6)
    if not checks["a2_G_primitive_of_g"]:
        failures.append(f"(A2): G' != g (max relative mismatch {np.max(err):.3e})")

    a2_vals = model.alpha_d2(r)
    checks["a3_alpha_convex"] = bool(np.min(a2_vals) >= -1e-12)
    if not checks["a3_alpha_convex"]:
        failures.append(f"(A3): alpha'' < 0 somewhere (min {np.min(a2_vals):.3e})")

    a_vals = model.alpha(r)
    checks["a3_alpha_nonnegative"] = bool(np.min(a_vals) >= 0.0)
    if not checks["a3_alpha_nonnegative"]:
        failures.append(f"(A3): alpha attains negative values (min {np.min(a_vals):.3e})")

    a0_vals = model.alpha0(r)
    delta_alpha = float(np.min(a0_vals))
    checks["a3_delta_alpha_positive"] = bool(delta_alpha > 0.0)
    if not checks["a3_delta_alpha_positive"]:
        failures.append(f"(A3): inf alpha0 = {delta_alpha:.3e} is not positive")

    a1_abs = np.abs(model.alpha_d1(r))
    inner = np.abs(r) <= 0.5 * max(abs(lo), abs(hi))
    if np.any(inner) and np.max(a1_abs) > 1.02 * max(np.max(a1_abs[inner]), 1e-300):
        warnings.append("|alpha'| still grows near the ends of the sample range; "
                        "treat the recorded sup as a lower estimate")

    bounds = ModelBounds(
        g_d1_sup=float(np.max(np.abs(_central_diff(model.g, r, h)))),
        alpha_d1_sup=float(np.max(a1_abs)),
        alpha_d2_sup=float(np.max(np.abs(a2_vals))),
        alpha0_sup=float(np.max(np.abs(a0_vals))),
        alpha0_d1_sup=float(np.max(np.abs(model.alpha0_d1(r)))),
        delta_alpha=delta_alpha,
        sample_range=(lo, hi),
        n_samples=int(n_samples),
    )
    model.bounds = bounds

    return AssumptionReport(
        passed=not failures,
        checks=checks,
        failures=failures,
        warnings=warnings,
        bounds=bounds,
    )
