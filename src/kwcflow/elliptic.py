"""Elliptic resolvent solvers on Neumann grids.

Two problems are solved here, both with homogeneous Neumann walls:

* the linear resolvent ``(-lam * lap + m) w = z`` with a positive weight
  field ``m`` (pointwise division when ``lam = 0``);
* the weighted singular-diffusion resolvent

      -div( beta * grad_gamma_eps(grad w) + kappa_eff * grad w ) + m w = z,

  the Euler-Lagrange equation of a strictly convex functional.  The
  nonlinear flux is evaluated at cells (cell-averaged gradient) and
  redistributed to faces by the adjoint averaging, so the discrete
  operator is exactly the gradient of the discrete energy.

The linear resolvent is solved directly.  Its matrix ``lam*K + diag(m)``
is factorized by sparse LU and the last factor is kept, keyed on
``(grid, lam, m)``, so a time stepper that solves the same matrix every
step back-substitutes only.

The nonlinear solve is Newton with an exact Hessian and Armijo line
search; on failure it falls back to damped lagged-diffusivity fixed-point
iteration (freeze the gamma weight), which is globally convergent for
this convex problem.  Both matrices are SPD and share the grid's fixed
sparsity pattern (:attr:`Grid.jacobian_pattern`), so an iteration only
refills a data array.  In 1D they are banded (bandwidth 2) and solved by
banded Cholesky; in 2D by Jacobi-preconditioned conjugate gradients,
which at these sizes is faster than a fresh sparse factorization per
iteration.  Residuals reported back are re-evaluated from the stencil
operators, independent of the solver's matrix algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solveh_banded
from scipy.sparse.linalg import cg, splu

from .grid import Grid
from .model import gamma_eps, grad_gamma_eps, hess_gamma_eps, interfacial_flux

__all__ = [
    "SolveReport",
    "SolverError",
    "LinearResolventProblem",
    "linear_resolvent",
    "SingularResolventProblem",
    "singular_resolvent",
    "check_h2_bound",
]

CG_RTOL = 1e-12
MAX_NEWTON = 50
MAX_FIXED_POINT = 500


@dataclass
class SolveReport:
    iterations: int
    final_residual_h: float
    converged: bool
    method: str = ""
    inner_iterations: int = 0


class SolverError(RuntimeError):
    """Raised when the nonlinear solver and its fallback both fail."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


def _as_weight(grid: Grid, m) -> np.ndarray:
    if np.isscalar(m):
        return grid.constant(float(m))
    return grid.check_scalar(np.asarray(m, dtype=float), "m")


def _cg_solve(A: sp.csr_matrix, b: np.ndarray, x0: Optional[np.ndarray] = None,
              rtol: float = CG_RTOL):
    """Jacobi-preconditioned CG; returns (x, n_iter, ok)."""
    diag = A.diagonal()
    M = sp.diags(1.0 / diag)
    count = [0]

    def cb(_):
        count[0] += 1

    maxiter = max(1000, A.shape[0])
    x, info = cg(A, b, x0=x0, rtol=rtol, atol=0.0, maxiter=maxiter, M=M, callback=cb)
    return x, count[0], info == 0


# -- linear resolvent ------------------------------------------------------------


_factor_key = None       # (grid, lam, m bytes) of the factor kept below
_factor_solve = None


def _resolvent_factor(grid: Grid, lam: float, m: np.ndarray):
    """Solve function of ``lam*K + diag(m)``; the last factor is kept and
    reused while the same matrix is asked for again."""
    global _factor_key, _factor_solve
    key = (grid, lam, m.tobytes())
    if key != _factor_key:
        A = lam * grid.stiffness_matrix + sp.diags(m.ravel())
        # a symmetric ordering: on 2D grids about half the fill of splu's default
        _factor_key, _factor_solve = key, splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A").solve
    return _factor_solve


@dataclass
class LinearResolventProblem:
    """(-lam * lap_N + m) w = z with inf m > 0 and lam >= 0."""

    grid: Grid
    lam: float
    m: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.m = _as_weight(self.grid, self.m)
        self.z = self.grid.check_scalar(np.asarray(self.z, dtype=float), "z")
        if self.lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
        if np.min(self.m) <= 0:
            raise ValueError(f"inf m must be positive, got {np.min(self.m)}")


def linear_resolvent(problem: LinearResolventProblem) -> tuple[np.ndarray, SolveReport]:
    """Solve the linear resolvent problem; non-convergence is flagged, not raised.

    For ``lam = 0`` the solution is the pointwise quotient ``z / m``;
    otherwise it is a direct solve with the cached factor.  The reported
    residual is recomputed from the stencil Laplacian.
    """
    grid = problem.grid
    if problem.lam == 0.0:
        w = problem.z / problem.m
        res = grid.norm_h(problem.m * w - problem.z)
        return w, SolveReport(0, res, True, method="pointwise")

    solve = _resolvent_factor(grid, problem.lam, problem.m)
    w = solve(problem.z.ravel()).reshape(grid.shape)
    res = grid.norm_h(-problem.lam * grid.laplacian(w) + problem.m * w - problem.z)
    tol = 1e-10 * grid.norm_h(problem.z) + 1e-14
    return w, SolveReport(0, res, bool(res <= tol), method="direct")


# -- singular-diffusion resolvent --------------------------------------------------


@dataclass
class SingularResolventProblem:
    """-div(beta*grad_gamma(grad w) + kappa_eff*grad w) + m w = z, eps > 0."""

    grid: Grid
    beta: np.ndarray
    kappa_eff: float
    m: np.ndarray
    z: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.beta = self.grid.check_scalar(np.asarray(self.beta, dtype=float), "beta")
        self.m = _as_weight(self.grid, self.m)
        self.z = self.grid.check_scalar(np.asarray(self.z, dtype=float), "z")
        if np.min(self.beta) < 0:
            raise ValueError(f"beta must be nonnegative, min = {np.min(self.beta)}")
        if not self.kappa_eff > 0:
            raise ValueError(f"kappa_eff must be positive, got {self.kappa_eff}")
        if np.min(self.m) <= 0:
            raise ValueError(f"inf m must be positive, got {np.min(self.m)}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


class _SingularSystem:
    """Flat-vector view of the discrete convex functional and its derivatives."""

    def __init__(self, p: SingularResolventProblem):
        self.p = p
        g = p.grid
        self.dim = g.dim
        self.nc = g.n_cells
        self.vol = g.cell_volume
        self.G = g.cell_gradient_matrix          # (dim*nc, nc)
        self.Lpos = g.stiffness_matrix           # -laplacian, PSD
        self.pattern = g.jacobian_pattern
        self.beta = p.beta.ravel()
        self.m = p.m.ravel()
        self.z = p.z.ravel()
        # kappa_eff*K + diag(m): the part of every system matrix that w leaves alone
        self.fixed_data = p.kappa_eff * self.pattern.stiffness_data
        self.fixed_data[self.pattern.diagonal] += self.m

    def grad_cells(self, w: np.ndarray) -> np.ndarray:
        return (self.G @ w).reshape(self.dim, self.nc)

    def energy(self, w: np.ndarray) -> float:
        y = self.grad_cells(w)
        nl = np.sum(self.beta * gamma_eps(y, self.p.epsilon))
        quad = 0.5 * self.p.kappa_eff * float(w @ (self.Lpos @ w))
        zero = 0.5 * np.sum(self.m * w * w) - np.sum(self.z * w)
        return self.vol * (nl + quad + zero)

    def residual(self, w: np.ndarray) -> np.ndarray:
        y = self.grad_cells(w)
        flux = self.beta * grad_gamma_eps(y, self.p.epsilon)
        r = self.G.T @ flux.ravel()
        r += self.p.kappa_eff * (self.Lpos @ w)
        r += self.m * w - self.z
        return r

    def hnorm(self, r: np.ndarray) -> float:
        return float(np.sqrt(self.vol * np.sum(r * r)))

    def matrix_data(self, B: np.ndarray) -> np.ndarray:
        """Data of ``G^T B G + kappa_eff*K + diag(m)`` on the fixed pattern;
        ``B`` has shape ``(dim, dim, nc)``."""
        return self.pattern.coupling @ B.ravel() + self.fixed_data

    def jacobian_data(self, w: np.ndarray) -> np.ndarray:
        H = hess_gamma_eps(self.grad_cells(w), self.p.epsilon)    # (dim, dim, nc)
        return self.matrix_data(self.beta * H)

    def lagged_data(self, w: np.ndarray) -> np.ndarray:
        B = np.zeros((self.dim, self.dim, self.nc))
        B[range(self.dim), range(self.dim)] = (
            self.beta / gamma_eps(self.grad_cells(w), self.p.epsilon))
        return self.matrix_data(B)

    def backtrack(self, w: np.ndarray, direction: np.ndarray, tries: int, accept):
        """Halve ``t`` from 1 until ``accept(t, w_t, |r(w_t)|_H)``, ``w_t = w + t*direction``;
        returns ``(w_t, r(w_t), |r(w_t)|_H)``, or None after ``tries`` steps."""
        t = 1.0
        for _ in range(tries):
            wt = w + t * direction
            rt = self.residual(wt)
            rht = self.hnorm(rt)
            if accept(t, wt, rht):
                return wt, rt, rht
            t *= 0.5
        return None

    def solve(self, data: np.ndarray, b: np.ndarray, x0: Optional[np.ndarray] = None):
        """Solve the SPD system with matrix data ``data``; returns (x, cg_iters, ok)."""
        if self.dim == 1:    # bandwidth 2: a direct solve is cheapest
            try:
                return solveh_banded(self.pattern.upper_band(data), b), 0, True
            except np.linalg.LinAlgError:
                return b, 0, False
        return _cg_solve(self.pattern.matrix(data), b, x0=x0)


def _stencil_residual_h(problem: SingularResolventProblem, w: np.ndarray) -> float:
    """Residual of the quasilinear equation, evaluated with the grid stencils."""
    g = problem.grid
    flux = interfacial_flux(g, problem.beta, w, problem.epsilon, problem.kappa_eff)
    return g.norm_h(-g.div(flux) + problem.m * w - problem.z)


def singular_resolvent(problem: SingularResolventProblem,
                       tol_abs: Optional[float] = None,
                       initial_guess: Optional[np.ndarray] = None,
                       max_newton: int = MAX_NEWTON,
                       max_fixed_point: int = MAX_FIXED_POINT,
                       ) -> tuple[np.ndarray, SolveReport]:
    """Solve the singular-diffusion resolvent to a tight absolute residual.

    The default tolerance is ``1e-10 * (|z|_H + 1)``.  Newton runs first;
    if it stalls, the damped lagged-diffusivity iteration takes over.  If
    both fail a :class:`SolverError` is raised with the report attached.
    """
    grid = problem.grid
    sys = _SingularSystem(problem)
    tol = 1e-10 * (grid.norm_h(problem.z) + 1.0) if tol_abs is None else float(tol_abs)

    if initial_guess is not None:
        w = grid.check_scalar(np.asarray(initial_guess, dtype=float), "initial_guess").ravel().copy()
    else:
        lin = LinearResolventProblem(grid, problem.kappa_eff, problem.m, problem.z)
        w0, _ = linear_resolvent(lin)
        w = w0.ravel()

    inner_total = 0

    def _done(n_iter: int, method: str):
        final = _stencil_residual_h(problem, w.reshape(grid.shape))
        return w.reshape(grid.shape), SolveReport(n_iter, final, True, method=method,
                                                  inner_iterations=inner_total)

    # Newton with backtracking.  Acceptance is sufficient decrease of either
    # the convex objective or the residual norm; near convergence the energy
    # differences fall below evaluation noise and the residual test takes over.
    r = sys.residual(w)
    rh = sys.hnorm(r)
    for it in range(max_newton):
        if rh <= tol:
            return _done(it, "newton")
        delta, n_cg, ok = sys.solve(sys.jacobian_data(w), -r)
        inner_total += n_cg
        if not ok:
            break
        slope = sys.vol * float(r @ delta)   # directional derivative of the energy
        e0 = sys.energy(w)
        step = sys.backtrack(w, delta, 30, lambda t, wt, rht: rht <= (1.0 - 1e-4 * t) * rh
                             or (slope < 0 and sys.energy(wt) <= e0 + 1e-4 * t * slope))
        if step is None:
            break
        w, r, rh = step
    if rh <= tol:
        return _done(max_newton, "newton")

    # Fallback: damped lagged diffusivity (frozen gamma weight)
    for it in range(max_fixed_point):
        if rh <= tol:
            return _done(it, "lagged")
        w_new, n_cg, ok = sys.solve(sys.lagged_data(w), sys.z, x0=w)
        inner_total += n_cg
        if not ok:
            break
        step = sys.backtrack(w, w_new - w, 25, lambda t, wt, rht: rht < rh)
        if step is None:
            break
        w, r, rh = step

    if rh <= tol:
        return _done(max_fixed_point, "lagged")
    report = SolveReport(max_newton + max_fixed_point, rh, False, method="failed",
                         inner_iterations=inner_total)
    raise SolverError(
        f"singular resolvent did not reach residual {tol:.3e} (got {rh:.3e})", report)


def check_h2_bound(grid: Grid, w: np.ndarray, z: np.ndarray, beta: np.ndarray,
                   epsilon: float, kappa: float, verify_solution: bool = True) -> float:
    """Ratio |w|_H2^2 / (|z|_H^2 + |beta|_V^2) for a unit-weight resolvent solution.

    The epsilon-uniformity experiment tracks this ratio over a decreasing
    epsilon ladder; the bound it discretizes is epsilon-independent.  When
    ``verify_solution`` is set, the quasilinear residual is re-evaluated
    and a mismatch raises, guarding against passing a stale field.
    """
    w = grid.check_scalar(np.asarray(w, dtype=float), "w")
    z = grid.check_scalar(np.asarray(z, dtype=float), "z")
    beta = grid.check_scalar(np.asarray(beta, dtype=float), "beta")
    if verify_solution:
        problem = SingularResolventProblem(grid, beta, kappa, grid.constant(1.0), z, epsilon)
        res = _stencil_residual_h(problem, w)
        if res > 1e-6 * (grid.norm_h(z) + 1.0):
            raise ValueError(f"w does not solve the resolvent problem (residual {res:.3e})")
    denom = grid.norm_h(z) ** 2 + grid.norm_v(beta) ** 2
    if denom == 0.0:
        raise ValueError("z and beta are both identically zero")
    return grid.norm_h2(w) ** 2 / denom
