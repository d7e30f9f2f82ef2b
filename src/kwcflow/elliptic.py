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
is factorized (1D: LAPACK's tridiagonal LDLᵀ, ``dpttrf``; 2D: sparse LU) and
the last factor is kept in a :class:`~kwcflow.grid.KeepLast`, keyed on
``(grid, lam, m)``, ``m`` a number or its field's bytes, so a time stepper that
solves the same matrix every step back-substitutes only.  A number ``m`` stays
a number: ``+ 1.0`` and ``1.0*w`` give the bits of a field of ones.

The nonlinear solve is primal-dual Newton (Chan, Golub & Mulet) with an
Armijo line search.  Beside ``w`` it carries a dual flux ``p`` (the
cell-wise ``grad gamma_eps(grad w)``, kept in the unit ball; it starts at
the start's own or at one the caller hands in) and solves with the
linearization of the pair: its weight ``beta*(I - sym(p y^T)/gam)/gam`` at the
cell gradient ``y``, ``gam = gamma_eps(y)``, is what
:func:`~kwcflow.model.hess_gamma_eps` gives for the dual ``p``, one formula for
1D and 2D.  At ``p = y/gam`` the matrix is the exact Hessian.  It stays SPD
with smallest eigenvalue at least ``min m`` for every ``|p| <= 1``, also where
the primal Hessian degenerates at small eps on step-like data.  The dual
update and the next matrix take the cell gradient and ``gamma_eps`` that the
accepted trial's residual used.  Sparse products call scipy's kernels directly (what ``A @ x``
runs, without its dispatch): a residual starts as ``m*w - z``, ``csc_matvec``
adds ``G^T flux`` from the cell-gradient matrix's CSR arrays (the CSC arrays of
``G^T``) and ``csr_matvec`` adds ``kappa_eff*K w``.  Each iteration writes
the matrix's lower diagonals with one sparse product, from the map the grid
builds from its cell-gradient stencil (:attr:`Grid.newton_diagonals`), in 1D
and 2D alike; only the solve reads the dimension.  In 1D they are LAPACK's
lower band (bandwidth 2), solved in place by the banded Cholesky ``dpbsv``,
which on the lower band scales and updates each column with unit stride (on
the upper band, with stride LDAB - 1); in 2D, mirrored into DIA arrays, they are
solved by this module's CG, preconditioned by their main diagonal (at these sizes
faster than a direct solve); its dot products take no BLAS, so a 2D run's bits do
not depend on the BLAS thread count.
The line search's energy is the model's interfacial energy of the checked
``beta`` plus ``(m w, w)/2 - (z, w)``.  Residuals are re-evaluated from the
stencil operators, independent of the solver's matrix algebra, and every solve
has one outcome: a solution that met its tolerance (named once, by the
constants below), or a :class:`SolverError` with the report attached.  A
tolerance or a Newton system that is not finite, and a non-finite direct solve
of the linear resolvent, raise before any re-check, with the report of no
iterations; arrays are tested by :func:`~kwcflow.grid.all_finite`, each
weight once, where its problem is made.  A Newton direction that is not finite
shows where the line search first needs the energy's slope along it, which is
then not finite; the solve ends there, naming that exit.  The re-checks take
the grid's unchecked kernels on the arrays the solve has made: the linear
resolvent's the divergence of the solution's face gradient, the singular
resolvent's the flux's divergence from the model's unchecked
``_interfacial_force``, which keeps it beside the flux: the time stepper's
step check at nu = 0 asks for the same.
``kappa_eff*K``, as the CSR kernel's entries and as a band, is kept per
``(grid, kappa_eff)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbsv, dpttrf, dpttrs
from scipy.sparse._sparsetools import csc_matvec, csr_matvec, dia_matvec
from scipy.sparse.linalg import cg, splu

from .grid import Grid, KeepLast, all_finite
# cg, gamma_eps and grad_gamma_eps are not called here; they stay bound because the
# benchmark's tracer wraps them by name
from .model import (_checked_weight, _component_sum, _interfacial_energy, _interfacial_force,
                    angle_gradient, gamma_eps, grad_gamma_eps, hess_gamma_eps)

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
RESIDUAL_RTOL = 1e-10
LINEAR_RESIDUAL_ATOL = 1e-14
MAX_NEWTON = 50


@dataclass
class SolveReport:
    iterations: int
    final_residual_h: float
    converged: bool
    method: str = ""
    inner_iterations: int = 0


class SolverError(RuntimeError):
    """Raised when a solve fails; without a report, it carries that of no iterations."""

    def __init__(self, message: str, report: Optional[SolveReport] = None):
        super().__init__(message)
        self.report = SolveReport(0, math.nan, False, method="failed") if report is None else report


# -- linear resolvent ------------------------------------------------------------


_last_factor = KeepLast()    # keyed on (grid, lam, m or m's bytes)


def _factorize(grid: Grid, lam: float, m):
    """Solve function of ``lam*K + diag(m)``, ``m`` a number or a field."""
    if grid.dim == 1:    # tridiagonal: LDL^T, solved without BLAS for n >= 2
        band = grid.newton_diagonals[2]    # K in the Newton band: offsets 0, 1, 2
        d, e, info = dpttrf(lam * band[0] + m, lam * band[1, :-1],
                            overwrite_d=1, overwrite_e=1)
        if info != 0:
            raise SolverError(f"linear resolvent: the LDL^T factorization (dpttrf) of "
                              f"lam*K + diag(m) failed with info {info}")
        return lambda b: dpttrs(d, e, b)[0]
    # lam*K + diag(m) on the pattern of K, which is symmetric with sorted indices:
    # its CSR arrays are its CSC arrays.
    K = grid.stiffness_matrix
    data = lam * K.data
    data[K.indices == np.repeat(np.arange(K.shape[0]), np.diff(K.indptr))] += np.ravel(m)
    A = sp.csc_matrix((data, K.indices, K.indptr), shape=K.shape)
    # a symmetric ordering: on 2D grids about half the fill of splu's default
    return splu(A, permc_spec="MMD_AT_PLUS_A").solve


def _resolvent_factor(grid: Grid, lam: float, m):
    """Solve function of ``lam*K + diag(m)``; the last factor is kept and
    reused while the same matrix is asked for again."""
    key = m if isinstance(m, float) else m.tobytes()
    return _last_factor.get((grid, lam, key), _factorize, grid, lam, m)


def _positive_weight(grid: Grid, m):
    """``m`` checked finite with inf m > 0; a number stays a float."""
    if isinstance(m, np.ndarray) or not np.isscalar(m):    # an array is never a scalar
        m = grid.check_scalar(m, "m")
    else:
        m = float(m)
    m_min = m if isinstance(m, float) else np.minimum.reduce(m, axis=None)
    if not math.isfinite(m_min):      # a number; a field was checked
        raise ValueError("m: contains non-finite values")
    if m_min <= 0:
        raise ValueError(f"inf m must be positive, got {m_min}")
    return m


@dataclass
class LinearResolventProblem:
    """(-lam * lap_N + m) w = z with inf m > 0 and finite lam >= 0; a number ``m`` is
    kept as a float."""

    grid: Grid
    lam: float
    m: np.ndarray | float
    z: np.ndarray

    def __post_init__(self):
        self.m = _positive_weight(self.grid, self.m)
        self.z = self.grid.check_scalar(np.asarray(self.z, dtype=float), "z")
        if self.lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
        if not math.isfinite(self.lam):
            raise ValueError(f"lambda must be finite, got {self.lam}")


def linear_resolvent(problem: LinearResolventProblem) -> tuple[np.ndarray, SolveReport]:
    """Solve the linear resolvent problem to ``RESIDUAL_RTOL * |z|_H + LINEAR_RESIDUAL_ATOL``.

    For ``lam = 0`` the solution is the pointwise quotient ``z / m``;
    otherwise it is a direct solve with the cached factor.  The residual is
    recomputed from the stencil Laplacian; one that misses the tolerance, NaN
    included, raises :class:`SolverError` with the report attached.
    """
    grid, lam, m, z = problem.grid, problem.lam, problem.m, problem.z
    if lam == 0.0:
        w, method = z / m, "pointwise"
        res = grid._norm_h(m * w - z)
    else:
        w, method = _resolvent_factor(grid, lam, m)(z.ravel()).reshape(grid.shape), "direct"
        if not all_finite(w):
            raise SolverError("linear resolvent: the direct solve is not finite")
        r = m * w            # m*w - lam*lap(w) - z sums as -lam*lap(w) + m*w - z does
        r -= lam * grid._div(grid._grad(w))     # w was tested finite
        r -= z
        res = grid._norm_h(r)
    tol = RESIDUAL_RTOL * grid._norm_h(z) + LINEAR_RESIDUAL_ATOL
    if not res <= tol:
        raise SolverError(f"linear resolvent did not reach residual {tol:.3e} (got {res:.3e})",
                          SolveReport(0, res, False, method="failed"))
    return w, SolveReport(0, res, True, method=method)


# -- singular-diffusion resolvent --------------------------------------------------


@dataclass
class SingularResolventProblem:
    """-div(beta*grad_gamma(grad w) + kappa_eff*grad w) + m w = z with kappa_eff and
    eps finite and positive."""

    grid: Grid
    beta: np.ndarray
    kappa_eff: float
    m: np.ndarray
    z: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.beta = _checked_weight(self.grid, self.beta)
        # the solver reads m per cell, so a number becomes its field
        m = self.m
        if not isinstance(m, np.ndarray) and np.isscalar(m):    # an array is never a scalar
            m = self.grid.constant(float(m))
        self.m = _positive_weight(self.grid, m)
        self.z = self.grid.check_scalar(np.asarray(self.z, dtype=float), "z")
        for name, value in (("kappa_eff", self.kappa_eff), ("epsilon", self.epsilon)):
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


_last_scaled_stiffness = KeepLast()    # keyed on (grid, kappa_eff)


def _scaled_stiffness(grid: Grid, kappa_eff: float):
    """The CSR kernel's arguments for ``kappa_eff*K`` and the band of ``kappa_eff*K``
    in the layout of :attr:`Grid.newton_diagonals`, both read-only."""
    K = grid.stiffness_matrix
    data, band = kappa_eff * K.data, kappa_eff * grid.newton_diagonals[2]
    data.flags.writeable = band.flags.writeable = False
    return (grid.n_cells, grid.n_cells, K.indptr, K.indices, data), band


class _SingularSystem:
    """Flat-vector view of the discrete convex functional and its derivatives."""

    def __init__(self, p: SingularResolventProblem):
        self.p = p
        g = p.grid
        self.dim = g.dim
        self.nc = g.n_cells
        self.vol = g.cell_volume
        self.eps2 = p.epsilon**2
        G = g.cell_gradient_matrix               # (dim*nc, nc)
        self.G_csr = (G.shape[0], self.nc, G.indptr, G.indices, G.data)
        self.GT_csc = (self.nc, G.shape[0], G.indptr, G.indices, G.data)   # G^T's CSC arrays
        # kappa_eff*K, K = -laplacian (PSD), kept while the grid and kappa_eff are
        self.kappa_K_csr, kappa_band = _last_scaled_stiffness.get(
            (g, p.kappa_eff), _scaled_stiffness, g, p.kappa_eff)
        self.beta = p.beta.ravel()
        self.m = p.m.ravel()
        self.z = p.z.ravel()
        self.offsets, C, _ = g.newton_diagonals
        self.coupling_csr = (C.shape[0], C.shape[1], C.indptr, C.indices, C.data)
        # kappa_eff*K + diag(m): the part of every system matrix that w leaves alone
        self.fixed = kappa_band.copy(order="F")
        self.fixed[0] += self.m

    def grad_cells(self, w: np.ndarray) -> np.ndarray:
        y = np.zeros(self.dim * self.nc)    # csr_matvec adds into it, as G @ w does
        csr_matvec(*self.G_csr, w, y)
        return y.reshape(self.dim, self.nc)

    def energy(self, w: np.ndarray) -> float:
        """The minimized functional; :meth:`residual_parts` is its gradient over the cell
        volume.  A trial ``w`` is checked when its gradient is not kept."""
        p, g = self.p, self.p.grid
        w = w.reshape(g.shape)
        return (_interfacial_energy(g, p.beta, angle_gradient(g, w, p.epsilon), p.kappa_eff)
                + 0.5 * g.inner(p.m * w, w) - g.inner(p.z, w))

    def residual_parts(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Residual at ``w`` with the cell gradient ``y`` and ``gam = gamma_eps(y)``
        it used; ``y/gam`` is the expression ``grad_gamma_eps(y)`` evaluates."""
        y = self.grad_cells(w)
        gam = np.sqrt(self.eps2 + _component_sum(y * y))     # gamma_eps(y)
        flux = y / gam           # beta*(y/gam), formed in place
        flux *= self.beta
        r = self.m * w
        r -= self.z
        csc_matvec(*self.GT_csc, flux.ravel(), r)
        csr_matvec(*self.kappa_K_csr, w, r)
        return r, y, gam

    def hnorm(self, r: np.ndarray) -> float:
        return math.sqrt(self.vol * np.add.reduce(r * r, axis=None))

    def matrix(self, B: np.ndarray) -> np.ndarray:
        """``G^T B G + kappa_eff*K + diag(m)`` for ``B`` of shape ``(dim, dim, nc)``: its
        lower diagonals at :attr:`offsets`, written from :attr:`Grid.newton_diagonals`
        (in 1D, LAPACK's lower band).  A system that is not finite raises
        :class:`SolverError`."""
        ab = np.zeros(self.fixed.size)     # csr_matvec adds into it, as A @ x does
        csr_matvec(*self.coupling_csr, B.ravel(), ab)
        ab = ab.reshape(self.fixed.shape, order="F")
        ab += self.fixed
        if not all_finite(ab):
            raise SolverError("singular resolvent: the Newton system is not finite")
        return ab

    def jacobian(self, y: np.ndarray, p: np.ndarray, gam: np.ndarray):
        """Primal-dual Newton matrix: :meth:`matrix` of ``B = beta*(I - sym(p y^T)/gam)/gam``
        at cell gradient ``y``, dual flux ``p`` and ``gam = gamma_eps(y)``, which the
        residual at ``y`` evaluated and :func:`~kwcflow.model.hess_gamma_eps` reads; the
        exact Hessian at ``p = y/gam``."""
        B = hess_gamma_eps(y, self.p.epsilon, p, gam)
        B *= self.beta
        return self.matrix(B)

    def solve(self, A: np.ndarray, b: np.ndarray):
        """Solve the SPD system whose lower band :meth:`matrix` gives; returns
        (x, cg_iters, ok).  A 1D band is overwritten."""
        if self.dim == 1:    # bandwidth 2: a direct solve is cheapest
            _, x, info = dpbsv(A, b, lower=1, overwrite_ab=1)
            if info < 0:
                raise ValueError(f"illegal value in {-info}th argument of internal pbsv")
            return (x, 0, True) if info == 0 else (b, 0, False)
        return _jacobi_pcg(A, self.offsets, b)


def _jacobi_pcg(ab: np.ndarray, offsets: tuple[int, ...], b: np.ndarray):
    """CG from 0, preconditioned by the main diagonal, on the symmetric matrix whose lower
    diagonals at ``offsets`` ``ab`` holds (:meth:`_SingularSystem.matrix`), mirrored into
    DIA arrays, to ``|r|_2 <= CG_RTOL*|b|_2`` or ``max(1000, n)`` iterations; returns
    (x, iterations, ok).  Its dot products are einsum's, which take no BLAS."""
    k, n = ab.shape
    data = np.zeros((2 * k - 1, n))
    data[k - 1:] = ab
    for row, o in enumerate(offsets[1:], start=1):
        data[k - 1 - row, o:] = ab[row, :n - o]
    dia = (n, n, 2 * k - 1, n,
           np.array(offsets[:0:-1] + tuple(-o for o in offsets), dtype=np.int32), data)
    inv_diag = 1.0 / ab[0]
    tol = CG_RTOL * math.sqrt(np.einsum("i,i->", b, b))
    x, r, p = np.zeros(n), b.copy(), np.zeros(n)
    z, q, t = np.empty(n), np.empty(n), np.empty(n)
    rho_old = math.inf       # p = 0*p + z on the first iteration
    for it in range(max(1000, n)):
        if math.sqrt(np.einsum("i,i->", r, r)) <= tol:
            return x, it, True
        np.multiply(r, inv_diag, out=z)
        rho = np.einsum("i,i->", r, z)
        p *= rho / rho_old
        p += z
        q.fill(0.0)          # dia_matvec adds into it, as A @ p does
        dia_matvec(*dia, p, q)
        alpha = rho / np.einsum("i,i->", p, q)
        x += np.multiply(p, alpha, out=t)
        r -= np.multiply(q, alpha, out=t)
        rho_old = rho
    return x, max(1000, n), False


def _stencil_residual_h(problem: SingularResolventProblem, w: np.ndarray) -> float:
    """Residual of the quasilinear equation, evaluated with the grid stencils."""
    r = problem.m * w        # m*w - force - z sums as -force + m*w - z does
    r -= _interfacial_force(problem.grid, problem.beta, w, problem.epsilon, problem.kappa_eff)
    r -= problem.z
    return problem.grid._norm_h(r)


def _dual_step(p: np.ndarray, y: np.ndarray, gam: np.ndarray, y_new: np.ndarray) -> np.ndarray:
    """Dual flux after a primal step from cell gradient ``y`` (``gam = gamma_eps(y)``) to
    ``y_new``: ``y/gam`` linearized at the old pair, projected onto the unit ball."""
    # + 0.0 turns a lone -0.0 component into +0.0, as np.add.reduce does
    return _unit_ball((y_new - p * ((_component_sum(y * (y_new - y)) + 0.0) / gam)) / gam)


def _unit_ball(p: np.ndarray) -> np.ndarray:
    """The cell-wise dual flux ``p``, its components on axis 0, projected in place onto
    the unit ball, where the Newton matrix is SPD."""
    p /= np.maximum(1.0, np.sqrt(_component_sum(p * p)))
    return p


def singular_resolvent(problem: SingularResolventProblem,
                       tol_abs: Optional[float] = None,
                       initial_guess: Optional[np.ndarray] = None,
                       initial_dual: Optional[np.ndarray] = None,
                       ) -> tuple[np.ndarray, SolveReport]:
    """Solve the singular-diffusion resolvent to a tight absolute residual.

    The default tolerance is ``RESIDUAL_RTOL * (|z|_H + 1)``, the default start
    the linear resolvent with ``lam = kappa_eff``.  The dual flux starts at
    ``initial_dual``, of shape ``(dim,) + grid.shape`` and in the unit ball
    (the Newton matrix is SPD for such a dual), or by default at
    ``grad_gamma_eps`` of the start's cell gradient.
    The solver is primal-dual Newton with an Armijo line search, at most
    ``MAX_NEWTON`` iterations.  A missed tolerance raises :class:`SolverError` with
    the report attached, naming the loop's exit and the Newton steps taken.
    """
    grid = problem.grid
    sys = _SingularSystem(problem)
    tol = RESIDUAL_RTOL * (grid._norm_h(problem.z) + 1.0) if tol_abs is None else float(tol_abs)
    if not math.isfinite(tol):
        raise SolverError(f"singular resolvent: the residual tolerance {tol} is not finite")

    if initial_guess is not None:
        w = grid.check_scalar(np.asarray(initial_guess, dtype=float), "initial_guess").ravel().copy()
    else:
        w = _resolvent_factor(grid, problem.kappa_eff, problem.m)(problem.z.ravel())

    r, y, gam = sys.residual_parts(w)
    rh = sys.hnorm(r)
    if initial_dual is None:
        p = y / gam                  # the dual flux, grad_gamma_eps(y)
    else:
        p = np.asarray(initial_dual, dtype=float)
        if p.shape != (grid.dim,) + grid.shape:
            raise ValueError(f"initial_dual: expected shape {(grid.dim,) + grid.shape}, "
                             f"got {p.shape}")
        if not all_finite(p):
            raise ValueError("initial_dual: contains non-finite values")
        p = p.reshape(grid.dim, -1)
    it = inner_total = 0
    stop = None    # the exit a break below takes; none: the cap MAX_NEWTON was reached
    while not rh <= tol and it < MAX_NEWTON:
        if it:
            # Dual step of the last accepted primal step, made here, not after the
            # step, so that a solve that has converged skips it.  (y_new, gam_new)
            # are those the accepted trial's residual used.
            p = _dual_step(p, y, gam, y_new)
            y, gam = y_new, gam_new
        delta, n_cg, ok = sys.solve(sys.jacobian(y, p, gam), -r)
        inner_total += n_cg
        if not ok:
            stop = "the linear solve failed"
            break
        # Backtracking.  Acceptance is sufficient decrease of either the residual
        # norm or the convex objective; near convergence the energy differences
        # fall below evaluation noise and the residual test takes over.  The energy
        # at w and its slope along delta are needed only after a rejection.
        slope = e0 = None
        t, wt = 1.0, w + delta
        for _ in range(30):
            rt, yt, gamt = sys.residual_parts(wt)
            rht = sys.hnorm(rt)
            if rht <= (1.0 - 1e-4 * t) * rh:
                break
            if slope is None:    # the energy's directional derivative
                slope = sys.vol * float(np.add.reduce(r * delta))
                if not math.isfinite(slope):    # no trial along delta can be measured
                    stop = "the Newton direction is not finite"
                    break
            if slope < 0:
                if e0 is None:
                    e0 = sys.energy(w)
                if sys.energy(wt) <= e0 + 1e-4 * t * slope:
                    break
            t *= 0.5
            wt = w + t * delta
        else:
            stop = "the line search found no step length"
        if stop:
            break
        w, r, rh, y_new, gam_new = wt, rt, rht, yt, gamt
        it += 1
    if not rh <= tol:
        report = SolveReport(it, rh, False, method="failed", inner_iterations=inner_total)
        raise SolverError(f"singular resolvent did not reach residual {tol:.3e} (got {rh:.3e}): "
                          f"{stop or 'the cap MAX_NEWTON was reached'} after {it} Newton steps",
                          report)
    w = w.reshape(grid.shape)
    return w, SolveReport(it, _stencil_residual_h(problem, w), True, method="newton",
                          inner_iterations=inner_total)


def check_h2_bound(grid: Grid, w: np.ndarray, z: np.ndarray, beta: np.ndarray,
                   epsilon: float, kappa: float) -> float:
    """Ratio |w|_H2^2 / (|z|_H^2 + |beta|_V^2) for a unit-weight resolvent solution.

    The epsilon-uniformity experiment tracks this ratio over a decreasing
    epsilon ladder; the bound it discretizes is epsilon-independent.  The
    quasilinear residual is re-evaluated and a mismatch raises, guarding
    against passing a stale field.
    """
    w = grid.check_scalar(np.asarray(w, dtype=float), "w")
    problem = SingularResolventProblem(grid, beta, kappa, grid.constant(1.0), z, epsilon)
    res = _stencil_residual_h(problem, w)
    if not res <= 1e-6 * (grid.norm_h(problem.z) + 1.0):
        raise ValueError(f"w does not solve the resolvent problem (residual {res:.3e})")
    denom = grid.norm_h(problem.z) ** 2 + grid.norm_v(problem.beta) ** 2
    if denom == 0.0:
        raise ValueError("z and beta are both identically zero")
    return grid.norm_h2(w) ** 2 / denom
