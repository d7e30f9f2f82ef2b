import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solveh_banded
from scipy.sparse._sparsetools import csc_matvec, csr_matvec
from scipy.sparse.linalg import splu, spsolve

import kwcflow.elliptic as elliptic
import kwcflow.evolution as evolution
from kwcflow import (Forcings, LinearResolventProblem, Parameters,
                     SingularResolventProblem, SolverError, SystemState, build_grid,
                     check_h2_bound, gamma_eps, grad_gamma_eps, hess_gamma_eps,
                     interfacial_flux, linear_resolvent, reference_model,
                     singular_resolvent)
from kwcflow.elliptic import (_dual_step, _factorize, _SingularSystem,
                              _stencil_residual_h)
from kwcflow.grid import Grid, all_finite, random_smooth_field


def minimize_by_gradient_descent(grid, beta, kappa_eff, m, z, epsilon,
                                 tol=1e-12, max_iter=60000):
    """Independent oracle: gradient descent on the discrete convex functional.

    Uses Barzilai-Borwein step sizes with a reset safeguard; the gradient is
    assembled from the stencil operators, never from the solver's matrices.
    """
    def grad_psi(w):
        y = grid.grad_cell(w)
        flux = beta * grad_gamma_eps(y, epsilon)
        F = grid.cell_to_face(flux)
        G = grid.grad(w)
        total = tuple(F[d] + kappa_eff * G[d] for d in range(grid.dim))
        return -grid.div(total) + m * w - z

    w = z / m
    g = grad_psi(w)
    step = 1.0 / (np.max(m) + 8.0 * (kappa_eff + np.max(beta) / epsilon)
                  / min(grid.spacing) ** 2)
    target = tol * (grid.norm_h(z) + 1.0)
    for _ in range(max_iter):
        if grid.norm_h(g) <= target:
            break
        w_new = w - step * g
        g_new = grad_psi(w_new)
        dw = w_new - w
        dg = g_new - g
        denom = float(np.sum(dw * dg))
        w, g = w_new, g_new
        step = float(np.sum(dw * dw)) / denom if denom > 0 else step
    return w


@pytest.fixture
def grid1d():
    return build_grid(1, [64], [1.0])


def test_linear_resolvent_constant_fixed_point(grid1d):
    w, report = linear_resolvent(LinearResolventProblem(grid1d, 0.25, 1.0,
                                                        grid1d.constant(3.0)))
    assert np.max(np.abs(w - 3.0)) <= 1e-12
    assert report.converged


def test_linear_resolvent_eigenfunction_accuracy():
    lam = 0.1
    errs = []
    for n in (32, 64, 128):
        g = build_grid(1, [n], [1.0])
        x = g.centers(0)
        z = np.cos(np.pi * x)
        w, report = linear_resolvent(LinearResolventProblem(g, lam, 1.0, z))
        assert report.converged
        errs.append(g.norm_h(w - z / (1.0 + lam * np.pi**2)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_linear_resolvent_nonexpansive(grid1d):
    rng = np.random.default_rng(0)
    for _ in range(20):
        lam = rng.uniform(0.01, 1.0)
        z1 = rng.standard_normal(grid1d.shape)
        z2 = rng.standard_normal(grid1d.shape)
        w1, _ = linear_resolvent(LinearResolventProblem(grid1d, lam, 1.0, z1))
        w2, _ = linear_resolvent(LinearResolventProblem(grid1d, lam, 1.0, z2))
        assert grid1d.norm_h(w1 - w2) <= (1 + 1e-10) * grid1d.norm_h(z1 - z2)
        assert grid1d.norm_v(w1 - w2) <= (1 + 1e-10) * grid1d.norm_v(z1 - z2)


def test_linear_resolvent_lambda_zero_pointwise(grid1d):
    # lam = 0 takes the direct solve as every lam does; in 1D LAPACK's LDL^T of
    # diag(m) has off-diagonal -0.0, so the solve is bitwise the quotient z/m
    rng = np.random.default_rng(1)
    z = rng.standard_normal(grid1d.shape)
    m = 1.0 + rng.uniform(0.0, 2.0, size=grid1d.shape)
    w, report = linear_resolvent(LinearResolventProblem(grid1d, 0.0, m, z))
    assert w.tobytes() == (z / m).tobytes()
    assert report.method == "direct" and report.converged


def test_linear_resolvent_residual_contract(grid1d):
    rng = np.random.default_rng(2)
    z = rng.standard_normal(grid1d.shape)
    m = 1.0 + rng.uniform(0.0, 1.0, size=grid1d.shape)
    w, report = linear_resolvent(LinearResolventProblem(grid1d, 0.7, m, z))
    res = grid1d.norm_h(-0.7 * grid1d.laplacian(w) + m * w - z)
    assert res <= 1e-10 * grid1d.norm_h(z)
    assert report.final_residual_h == pytest.approx(res)


def test_linear_resolvent_raises_on_a_missed_residual(grid1d, monkeypatch):
    """A direct solve off by 1% misses the residual tolerance and raises with its
    report attached; nothing is returned for a caller to re-check."""
    factor = elliptic._resolvent_factor
    monkeypatch.setattr(elliptic, "_resolvent_factor",
                        lambda *args: lambda b: 1.01 * factor(*args)(b))
    z = random_smooth_field(grid1d, np.random.default_rng(3), 0.0, 1.0)
    with pytest.raises(SolverError) as excinfo:
        linear_resolvent(LinearResolventProblem(grid1d, 0.7, 1.0, z))
    report = excinfo.value.report
    assert not report.converged and report.method == "failed"
    w = 1.01 * factor(grid1d, 0.7, grid1d.constant(1.0))(z.ravel()).reshape(grid1d.shape)
    missed = grid1d.norm_h(-0.7 * grid1d.laplacian(w) + w - z)
    assert report.final_residual_h == missed > 1e-10 * grid1d.norm_h(z) + 1e-14


def test_linear_resolvent_raises_on_a_nan_residual(grid1d, monkeypatch):
    # the re-check takes the divergence kernel of the solve's face gradient
    monkeypatch.setattr(Grid, "_div", lambda self, F: np.full(self.shape, np.nan))
    with pytest.raises(SolverError) as excinfo:
        linear_resolvent(LinearResolventProblem(grid1d, 0.7, 1.0, grid1d.constant(1.0)))
    assert np.isnan(excinfo.value.report.final_residual_h)


def test_linear_resolvent_raises_on_a_non_finite_solve(grid1d, monkeypatch):
    # A NaN solution must not reach the stencil re-check, whose Laplacian rejects
    # non-finite fields with a ValueError instead of the solver's SolverError.
    monkeypatch.setattr(elliptic, "_resolvent_factor",
                        lambda *args: lambda b: np.full(b.shape, np.nan))
    with pytest.raises(SolverError) as excinfo:
        linear_resolvent(LinearResolventProblem(grid1d, 0.7, 1.0, grid1d.constant(1.0)))
    report = excinfo.value.report
    assert not report.converged and report.method == "failed"
    assert np.isnan(report.final_residual_h)


def test_linear_resolvent_pointwise_overflow_raises(grid1d):
    """z / m overflows to inf for a tiny weight: the direct solve is not finite."""
    with pytest.raises(SolverError, match="^linear resolvent: the direct solve is not finite$") \
            as excinfo:
        linear_resolvent(LinearResolventProblem(grid1d, 0.0, 1e-300, grid1d.constant(1e10)))
    report = excinfo.value.report
    assert not report.converged and report.method == "failed"


def dipped(grid, value, at=5):
    """A field of twos with ``value`` at cell ``at``."""
    f = grid.constant(2.0)
    f.flat[at] = value
    return f


def test_linear_resolvent_problem_validation(grid1d):
    with pytest.raises(ValueError, match=r"^lambda must be nonnegative, got -0.1$"):
        LinearResolventProblem(grid1d, -0.1, 1.0, grid1d.zeros())
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"^lambda must be finite, got {lam}$"):
            LinearResolventProblem(grid1d, lam, 1.0, grid1d.zeros())
    for m, least in ((0.0, "0.0"), (dipped(grid1d, -0.5), "-0.5")):
        with pytest.raises(ValueError, match=rf"^inf m must be positive, got {least}$"):
            LinearResolventProblem(grid1d, 0.1, m, grid1d.zeros())


def test_singular_resolvent_constant_fixed_points(grid1d):
    m = grid1d.constant(1.0)
    for beta in (grid1d.zeros(), grid1d.constant(2.0)):
        w, report = singular_resolvent(
            SingularResolventProblem(grid1d, beta, 1.0, m, grid1d.constant(2.5), 0.5))
        assert np.max(np.abs(w - 2.5)) <= 1e-12
        assert report.converged


def test_singular_resolvent_beta_zero_matches_linear(grid1d):
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = rng.standard_normal(grid1d.shape)
        kappa = rng.uniform(0.3, 2.0)
        ws, _ = singular_resolvent(
            SingularResolventProblem(grid1d, grid1d.zeros(), kappa, grid1d.constant(1.0), z, 0.5))
        wl, _ = linear_resolvent(LinearResolventProblem(grid1d, kappa, 1.0, z))
        assert grid1d.norm_h(ws - wl) <= 1e-10


def test_singular_resolvent_euler_lagrange_residual(grid1d):
    # residual re-evaluated with the stencil operators, independent of the solver
    x = grid1d.centers(0)
    beta = 1.0 + 0.5 * np.cos(2 * np.pi * x)
    z = np.tanh((x - 0.5) / 0.1)
    problem = SingularResolventProblem(grid1d, beta, 1.0, grid1d.constant(1.0), z, 0.3)
    w, report = singular_resolvent(problem)
    flux = grid1d.cell_to_face(beta * grad_gamma_eps(grid1d.grad_cell(w), 0.3))
    G = grid1d.grad(w)
    total = tuple(flux[d] + 1.0 * G[d] for d in range(1))
    res = grid1d.norm_h(-grid1d.div(total) + w - z)
    assert res <= 1e-10 * (grid1d.norm_h(z) + 1.0)
    assert report.final_residual_h == pytest.approx(res, rel=1e-6, abs=1e-15)


def test_singular_resolvent_monotone_contraction(grid1d):
    rng = np.random.default_rng(4)
    x = grid1d.centers(0)
    beta = 1.0 + 0.5 * np.cos(2 * np.pi * x)
    m_val = 2.0
    m = grid1d.constant(m_val)

    def S(z):
        return singular_resolvent(
            SingularResolventProblem(grid1d, beta, 1.0, m, z, 0.3))[0]

    for _ in range(5):
        z1 = rng.standard_normal(grid1d.shape)
        z2 = rng.standard_normal(grid1d.shape)
        lhs = grid1d.norm_h(S(z1) - S(z2))
        assert lhs <= (1.0 / m_val) * grid1d.norm_h(z1 - z2) * (1 + 1e-8)


@pytest.mark.parametrize("n", [64, 128])
def test_singular_resolvent_approaches_the_facet_law_at_first_order_in_eps(n):
    # As eps and kappa_eff go to 0 the resolvent of a step z = m*z_d is total-variation
    # flow's: each plateau of z_d keeps its shape and moves by beta*k/(m*L), L its
    # length, k = +1 on the lower plateau and -1 on the upper one (Kobayashi & Giga,
    # J. Stat. Phys. 95, 1999).  With the jump on a face the closed form is the discrete
    # eps = 0 solution, so the distance to it is the eps error alone: first order, with
    # a ratio of distance to eps of 0.085-0.120 measured at n = 64 and 128.
    m, c = 100.0, 0.375
    g = build_grid(1, [n], [1.0])
    left = g.centers(0) < c
    z = m * np.where(left, -0.5, 0.5)
    exact = np.where(left, -0.5 + 1.0 / (m * c), 0.5 - 1.0 / (m * (1.0 - c)))
    dist = []
    for eps in (2.0**-4, 2.0**-6, 2.0**-8, 2.0**-10):
        w, _ = singular_resolvent(SingularResolventProblem(g, g.constant(1.0), 1e-9, m, z, eps))
        dist.append(g.norm_h(w - exact))
        assert dist[-1] <= 0.15 * eps
    orders = [math.log(a / b) / math.log(4.0) for a, b in zip(dist, dist[1:])]
    assert min(orders) >= 0.8, orders


def test_singular_resolvent_2d():
    g = build_grid(2, [16, 16], [1.0, 1.0])
    X, Y = g.meshgrid()
    beta = 0.5 + 0.25 * np.cos(2 * np.pi * X) * np.cos(np.pi * Y)
    z = 1.0 + 0.5 * np.cos(np.pi * X) * np.cos(np.pi * Y)
    w, report = singular_resolvent(
        SingularResolventProblem(g, beta, 1.0, g.constant(1.0), z, 0.25))
    assert report.converged
    w_oracle = minimize_by_gradient_descent(g, beta, 1.0, g.constant(1.0), z, 0.25)
    assert g.norm_h(w - w_oracle) <= 1e-8


def test_singular_resolvent_validation(grid1d):
    with pytest.raises(ValueError, match=r"^beta must be nonnegative, min = -1.0$"):
        SingularResolventProblem(grid1d, grid1d.constant(-1.0), 1.0,
                                 grid1d.constant(1.0), grid1d.zeros(), 0.5)
    with pytest.raises(ValueError, match=r"^kappa_eff must be positive, got 0.0$"):
        SingularResolventProblem(grid1d, grid1d.zeros(), 0.0,
                                 grid1d.constant(1.0), grid1d.zeros(), 0.5)
    with pytest.raises(ValueError, match=r"^epsilon must be positive, got 0.0$"):
        SingularResolventProblem(grid1d, grid1d.zeros(), 1.0,
                                 grid1d.constant(1.0), grid1d.zeros(), 0.0)
    for kappa_eff, eps, message in ((math.nan, 0.5, "kappa_eff must be positive, got nan"),
                                    (math.inf, 0.5, "kappa_eff must be finite, got inf"),
                                    (1.0, math.inf, "epsilon must be finite, got inf")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SingularResolventProblem(grid1d, grid1d.zeros(), kappa_eff,
                                     grid1d.constant(1.0), grid1d.zeros(), eps)
    for m, least in ((0.0, "0.0"), (dipped(grid1d, -0.5), "-0.5")):
        with pytest.raises(ValueError, match=rf"^inf m must be positive, got {least}$"):
            SingularResolventProblem(grid1d, grid1d.zeros(), 1.0, m, grid1d.zeros(), 0.5)
    # check_h2_bound checks z and beta through the problem it builds
    with pytest.raises(ValueError, match=r"^beta must be nonnegative, min = -0.25$"):
        check_h2_bound(grid1d, grid1d.zeros(), grid1d.zeros(), dipped(grid1d, -0.25), 0.5, 1.0)
    for k, name in enumerate(("w", "z", "beta")):
        fields = [grid1d.zeros() for _ in range(3)]
        fields[k][2] = np.inf
        with pytest.raises(ValueError, match=rf"^{name}: contains non-finite values$"):
            check_h2_bound(grid1d, *fields, 0.5, 1.0)


def test_check_h2_bound_rejects_a_nan_residual(grid1d, monkeypatch):
    monkeypatch.setattr(elliptic, "_stencil_residual_h", lambda problem, w: np.nan)
    with pytest.raises(ValueError, match=r"^w does not solve the resolvent problem \(residual nan\)$"):
        check_h2_bound(grid1d, grid1d.constant(1.0), grid1d.constant(1.0), grid1d.zeros(),
                       0.5, 1.0)


def test_check_h2_bound_constant_case(grid1d):
    z = grid1d.constant(2.0)
    w, _ = singular_resolvent(
        SingularResolventProblem(grid1d, grid1d.zeros(), 1.0, grid1d.constant(1.0), z, 0.5))
    ratio = check_h2_bound(grid1d, w, z, grid1d.zeros(), 0.5, 1.0)
    assert ratio == pytest.approx(1.0, abs=1e-10)


def test_check_h2_bound_positive_and_verifies(grid1d):
    x = grid1d.centers(0)
    beta = 0.5 + 0.25 * np.cos(2 * np.pi * x)
    z = 1.0 + 0.5 * np.cos(np.pi * x)
    w, _ = singular_resolvent(
        SingularResolventProblem(grid1d, beta, 1.0, grid1d.constant(1.0), z, 0.25))
    ratio = check_h2_bound(grid1d, w, z, beta, 0.25, 1.0)
    assert ratio > 0.0
    with pytest.raises(ValueError):
        check_h2_bound(grid1d, w + 0.5 * np.cos(3 * np.pi * x), z, beta, 0.25, 1.0)


# -- factorized linear algebra ------------------------------------------------------


def pattern_matrix(system, B):
    """Dense ``G^T B G + kappa_eff*K + diag(m)`` summed entry by entry from the cell-gradient
    stencil: cell c's stencil entries (d, i) and (e, j) add ``w[d, i]*w[e, j]*B[d, e, c]``
    at ``(cols[d, i, c], cols[e, j, c])``, each entry from 0.0 and lower cell first, then
    ``kappa_eff*K + diag(m)`` is added.  That order fixes the bits of the 1D band."""
    g = system.p.grid
    cols, w = g.cell_gradient_stencil
    A = np.zeros((g.n_cells, g.n_cells))
    for c in range(g.n_cells):
        for d, i, e, j in itertools.product(range(g.dim), range(2), range(g.dim), range(2)):
            A[cols[d, i, c], cols[e, j, c]] += (w[d, i] * w[e, j]) * B[d, e, c]
    return A + (system.p.kappa_eff * g.stiffness_matrix.toarray() + np.diag(system.m))


def lower_band(A: np.ndarray) -> np.ndarray:
    """LAPACK's lower band form ``ab[i - j, j] = A[i, j]`` of a bandwidth-2 matrix."""
    n = A.shape[0]
    ab = np.zeros((3, n))
    for k in range(3):
        ab[k, :n - k] = np.diagonal(A, -k)
    return ab


def lower_triangle(system, A) -> np.ndarray:
    """The lower triangle of a system matrix: its lower diagonals at ``system.offsets``."""
    n = A.shape[1]
    return sum(np.diag(A[k, :n - o], -o) for k, o in enumerate(system.offsets))


def dense(system, A) -> np.ndarray:
    """Full matrix of a system matrix: the lower diagonals at ``system.offsets``."""
    lower = lower_triangle(system, A)
    return lower + np.tril(lower, -1).T


def newton_weight(system, y, p):
    """``B`` of the primal-dual Newton matrix, as :meth:`_SingularSystem.jacobian` forms it."""
    return system.beta * hess_gamma_eps(y, system.p.epsilon, p)


@pytest.mark.parametrize("cells,extents", [([32], [1.0]), ([6, 5], [1.0, 0.7])])
def test_fixed_pattern_matrices_match_explicit_assembly(cells, extents):
    g = build_grid(len(cells), cells, extents)
    rng = np.random.default_rng(5)
    beta = rng.uniform(0.5, 1.5, g.shape)
    m = rng.uniform(1.0, 2.0, g.shape)
    kappa_eff, eps = 0.3, 0.1
    system = _SingularSystem(SingularResolventProblem(g, beta, kappa_eff, m, g.zeros(), eps))
    w = rng.standard_normal(g.n_cells)
    G = g.cell_gradient_matrix
    y = (G @ w).reshape(g.dim, g.n_cells)
    rest = kappa_eff * g.stiffness_matrix + sp.diags(m.ravel())

    gam = gamma_eps(y, eps)
    H = hess_gamma_eps(y, eps)
    p = rng.uniform(-1.0, 1.0, y.shape)
    p /= np.maximum(1.0, np.linalg.norm(p, axis=0))
    p[:, ::3] /= np.linalg.norm(p[:, ::3], axis=0)     # some on the unit sphere
    q = (y / gam - p) / gam**2
    Bpd = [[H[i, j] + 0.5 * (q[i] * y[j] + q[j] * y[i]) for j in range(g.dim)]
           for i in range(g.dim)]
    B_ref = sp.bmat([[sp.diags(beta.ravel() * Bpd[i][j]) for j in range(g.dim)]
                     for i in range(g.dim)])
    explicit = (G.T @ B_ref @ G + rest).toarray()
    err = np.max(np.abs(dense(system, system.jacobian(y, p, gam)) - explicit))
    assert err <= 1e-14 * np.max(np.abs(explicit))
    # At p = y/gam the primal-dual matrix is the exact Hessian, up to rounding.
    hessian = dense(system, system.matrix(beta.ravel() * H))
    err = np.max(np.abs(dense(system, system.jacobian(y, grad_gamma_eps(y, eps), gam))
                        - hessian))
    assert err <= 1e-14 * np.max(np.abs(hessian))

    # SPD with smallest eigenvalue >= min m for any |p| <= 1, down to eps = 2^-11.
    if g.dim == 2:
        for eps_small in (eps, 2.0**-6, 2.0**-11):
            system = _SingularSystem(SingularResolventProblem(g, beta, kappa_eff, m, g.zeros(),
                                                              eps_small))
            band = system.jacobian(y, p, gamma_eps(y, system.p.epsilon))
            A = dense(system, band)    # the matrix the 2D solve mirrors its band into
            smallest = np.linalg.eigvalsh(A)[0]
            assert smallest >= np.min(m) - 1e-12 * np.max(np.abs(A))


def assembled_eta_factors(g, rng, lam_field):
    """(lam, m, splu solve of lam*K + diag(m) as the sparse sum gives it, in CSC)
    for the unit weight at lam = 1e-3 and a random weight at ``lam_field``."""
    for lam, m in ((1e-3, g.constant(1.0)), (lam_field, rng.uniform(0.5, 2.0, g.shape))):
        A = (lam * g.stiffness_matrix + sp.diags(m.ravel())).tocsc()
        yield lam, m, splu(A, permc_spec="MMD_AT_PLUS_A").solve


def test_eta_factor_solves_bitwise_like_the_assembled_matrix():
    # In 2D the factor is made from lam*K + diag(m) written on K's pattern; its
    # solves must be those of the assembled matrix.
    g = build_grid(2, [6, 5], [1.0, 0.7])
    rng = np.random.default_rng(13)
    for lam, m, reference in assembled_eta_factors(g, rng, 0.5):
        z = rng.standard_normal(g.n_cells)
        assert _factorize(g, lam, m)(z).tobytes() == reference(z).tobytes()


@pytest.mark.parametrize("n", [48, 128])
def test_eta_factor_in_1d_agrees_with_the_assembled_matrix(n):
    # In 1D the factor is LAPACK's tridiagonal LDL^T, which rounds otherwise than
    # the sparse LU of the assembled matrix.  Both are backward stable, so they
    # differ by about cond(A) ulps; lam stays in the eta step's range, dt <= 1e-2
    # (at lam = 0.5 and n = 128, cond(A) is 2.5e4 and the gap 1.7e-14).
    g = build_grid(1, [n], [1.0])
    rng = np.random.default_rng(13)
    for lam, m, reference in assembled_eta_factors(g, rng, 1e-2):
        z = rng.standard_normal(g.n_cells)
        w, w_ref = _factorize(g, lam, m)(z), reference(z)
        assert np.max(np.abs(w - w_ref)) <= 1e-14 * np.max(np.abs(w_ref))


def test_a_failed_eta_factorization_raises_solver_error(monkeypatch):
    monkeypatch.setattr(elliptic, "dpttrf", lambda d, e, **kw: (d, e, 3))
    g = build_grid(1, [16], [1.0])
    with pytest.raises(SolverError, match=r"LDL\^T factorization \(dpttrf\).* info 3$") as excinfo:
        linear_resolvent(LinearResolventProblem(g, 0.5, 1.0, g.constant(1.0)))
    assert not excinfo.value.report.converged and excinfo.value.report.method == "failed"


@pytest.mark.parametrize("cells", [[64], [12, 10]])
def test_a_number_weight_solves_bitwise_like_its_field(cells):
    # Adding the number 1.0 rounds as adding a field of ones, and 1.0*w is w.
    g = build_grid(len(cells), cells, [1.0] * len(cells))
    z = random_smooth_field(g, np.random.default_rng(5), 0.0, 1.0)
    for lam in (0.0, 1e-3, 0.5):
        w, report = linear_resolvent(LinearResolventProblem(g, lam, 1.0, z))
        w_field, report_field = linear_resolvent(LinearResolventProblem(g, lam, g.constant(1.0), z))
        assert w.tobytes() == w_field.tobytes()
        assert report.final_residual_h == report_field.final_residual_h


@pytest.mark.parametrize("cells,extents", [([48], [1.0]), ([6, 5], [1.0, 0.7])])
def test_direct_csr_product_is_bitwise_the_operator_product(cells, extents):
    # The solver's products call scipy's CSR kernel directly, which adds into a
    # zeroed output.
    g = build_grid(len(cells), cells, extents)
    rng = np.random.default_rng(12)
    for A in (g.cell_gradient_matrix, g.stiffness_matrix, g.newton_diagonals[1]):
        x = rng.standard_normal(A.shape[1])
        out = np.zeros(A.shape[0])
        csr_matvec(A.shape[0], A.shape[1], A.indptr, A.indices, A.data, x, out)
        assert out.tobytes() == (A @ x).tobytes()


@pytest.mark.parametrize("eps", [2.0**-2, 2.0**-8], ids=["eps=2^-2", "eps=2^-8"])
@pytest.mark.parametrize("cells,extents", [([37], [1.0]), ([12, 10], [1.0, 0.8])])
def test_line_search_energy_has_the_residual_as_gradient(cells, extents, eps):
    # The line search's energy is the model's interfacial energy plus the resolvent's
    # quadratic terms; its derivative along d must be vol * r.d with the residual r
    # the Newton loop drives to zero.  Smooth directions keep the truncation error small.
    g = build_grid(len(cells), cells, extents)
    rng = np.random.default_rng(3)
    problem = SingularResolventProblem(g, rng.uniform(0.5, 2.0, g.shape), 0.05,
                                       rng.uniform(0.5, 2.0, g.shape),
                                       rng.standard_normal(g.shape), eps)
    system = _SingularSystem(problem)
    w = random_smooth_field(g, rng).ravel()
    r = system.residual_parts(w)[0]
    h = 1e-5
    for _ in range(3):
        d = random_smooth_field(g, rng).ravel()
        slope = (system.energy(w + h * d) - system.energy(w - h * d)) / (2.0 * h)
        assert slope == pytest.approx(system.vol * float(r @ d), rel=1e-7, abs=0.0)


@pytest.mark.parametrize("dim", [1, 2])
def test_dual_step_is_bitwise_the_projected_linearized_flux(dim):
    # In 1D the dual step takes its one component where the generic expression
    # reduces over an axis of length one; the bits must be the same, also for
    # signed zeros (flat cells) and where the projection onto the unit ball acts.
    rng = np.random.default_rng(dim)
    n = 400
    y, y_new = rng.standard_normal((2, dim, n))
    y[:, ::7] = 0.0
    y_new[:, ::7] = -0.0                        # y*(y_new - y) is -0.0 there
    y_new[:, 3::11] = y[:, 3::11]               # unchanged cells: y*0.0
    gam = gamma_eps(y, 2.0**-6)
    p = rng.uniform(-1.0, 1.0, (dim, n))
    p[:, ::5] *= 50.0                           # pushes the linearized flux past |p| = 1
    linearized = (y_new - p * (np.add.reduce(y * (y_new - y), axis=0) / gam)) / gam
    scale = np.maximum(1.0, np.sqrt(np.add.reduce(linearized * linearized, axis=0)))
    assert np.count_nonzero(scale > 1.0) > n // 10
    expected = linearized / scale
    assert _dual_step(p.copy(), y, gam, y_new).tobytes() == expected.tobytes()


def random_newton_system(g, rng):
    """A system on ``g`` with some zero mobilities, a random cell gradient, and a
    dual flux with |p| < 1 and |p| = 1."""
    beta = rng.uniform(0.0, 2.0, g.shape)
    beta.flat[::4] = 0.0
    eps = 2.0 ** -int(rng.integers(2, 11))
    system = _SingularSystem(SingularResolventProblem(g, beta, rng.uniform(0.01, 1.0),
                                                      rng.uniform(0.5, 3.0, g.shape),
                                                      g.zeros(), eps))
    y = system.grad_cells(10.0 * rng.standard_normal(g.n_cells))
    p = rng.uniform(-1.0, 1.0, y.shape)
    p[:, ::3] /= np.sqrt(np.add.reduce(p[:, ::3] ** 2, axis=0))    # some on the unit sphere
    return system, y, p


@pytest.mark.parametrize("cells", [[4], [5], [37], [128], [12, 10], [5, 7], [4, 9]],
                         ids=lambda c: "x".join(map(str, c)))
def test_newton_matrix_matches_the_operator_product(cells):
    # The diagonals written from the grid's map against G^T bmat(diags(B)) G + kappa*K
    # + diags(m) from scipy's sparse products, which round differently; the lower
    # entries are bit for bit those summed entry by entry in the map's order.
    g = build_grid(len(cells), cells, [0.7, 1.3][:len(cells)])
    rng = np.random.default_rng(sum(cells))
    for _ in range(3):
        system, y, p = random_newton_system(g, rng)
        B = newton_weight(system, y, p)
        G = g.cell_gradient_matrix
        oracle = (G.T @ sp.bmat([[sp.diags(B[d, e]) for e in range(g.dim)] for d in range(g.dim)])
                  @ G + system.p.kappa_eff * g.stiffness_matrix + sp.diags(system.m)).toarray()
        A = system.jacobian(y, p, gamma_eps(y, system.p.epsilon))
        assert A.shape == (len(system.offsets), g.n_cells)
        assert np.max(np.abs(dense(system, A) - oracle)) <= 1e-15 * np.max(np.abs(oracle))
        assert (lower_triangle(system, A).tobytes()
                == np.tril(pattern_matrix(system, B)).tobytes())


@pytest.mark.parametrize("cells", [[5], [128], [12, 10], [4, 9]],
                         ids=lambda c: "x".join(map(str, c)))
def test_lower_band_expands_bit_for_bit_to_the_lower_triangle(cells):
    # Any symmetric weight B of diagonal blocks, not only a Newton weight: the lower
    # diagonals written from the grid's map, put back in place, are the lower triangle
    # of G^T B G + kappa_eff*K + diag(m) summed entry by entry, bit for bit.
    g = build_grid(len(cells), cells, [0.7, 1.3][:len(cells)])
    rng = np.random.default_rng(7 * sum(cells))
    system = random_newton_system(g, rng)[0]
    B = rng.standard_normal((g.dim, g.dim, g.n_cells))
    B = B + B.transpose(1, 0, 2)
    A = system.matrix(B)
    assert A.shape == (len(system.offsets), g.n_cells) and system.offsets[0] == 0
    assert not any(A[k, g.n_cells - o:].any() for k, o in enumerate(system.offsets))
    assert lower_triangle(system, A).tobytes() == np.tril(pattern_matrix(system, B)).tobytes()


@pytest.mark.parametrize("cells", [[12, 10], [48, 48]], ids=lambda c: "x".join(map(str, c)))
def test_2d_newton_solve_matches_the_dense_solve(cells):
    # The 2D solve, Jacobi-PCG on the band mirrored into DIA arrays, against LAPACK's dense
    # solve of the full matrix: a residual |r|_2 <= CG_RTOL*|b|_2 puts x within
    # cond(A)*CG_RTOL of it, relative, and cond(A) is at most the largest absolute row
    # sum (Gershgorin) over min m, the least eigenvalue's bound.  The band is left as it was.
    g = build_grid(2, cells, [1.0, 0.8])
    rng = np.random.default_rng(sum(cells))
    for _ in range(3):
        system, y, p = random_newton_system(g, rng)
        A = system.jacobian(y, p, gamma_eps(y, system.p.epsilon))
        band, full, b = A.copy(), dense(system, A), rng.standard_normal(g.n_cells)
        x, n_cg, ok = system.solve(A, b)
        assert ok and 0 < n_cg < max(1000, g.n_cells)
        assert A.tobytes() == band.tobytes()
        assert np.linalg.norm(full @ x - b) <= 2 * elliptic.CG_RTOL * np.linalg.norm(b)
        x_ref = np.linalg.solve(full, b)
        cond = np.max(np.add.reduce(np.abs(full), axis=1)) / np.min(system.m)
        assert np.linalg.norm(x - x_ref) <= 2 * elliptic.CG_RTOL * cond * np.linalg.norm(x_ref)


def test_2d_newton_solve_of_zero_is_zero_after_no_iterations():
    g = build_grid(2, [12, 10], [1.0, 0.8])
    system, y, p = random_newton_system(g, np.random.default_rng(4))
    x, n_cg, ok = system.solve(system.jacobian(y, p, gamma_eps(y, system.p.epsilon)),
                               np.zeros(g.n_cells))
    assert ok and n_cg == 0 and x.tobytes() == np.zeros(g.n_cells).tobytes()


def test_2d_newton_solve_that_misses_its_tolerance_fails_at_its_cap(monkeypatch):
    # No residual meets a relative tolerance of 0.  Long past convergence the residual
    # underflows and p.Ap with it; the solve stops there, before the cap of
    # max(1000, n) iterations and before any iterate turns NaN, and reports the failure,
    # which ends the Newton loop with its own exit.
    monkeypatch.setattr(elliptic, "CG_RTOL", 0.0)
    g = build_grid(2, [12, 10], [1.0, 0.8])
    system, y, p = random_newton_system(g, np.random.default_rng(4))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        x, n_cg, ok = system.solve(system.jacobian(y, p, gamma_eps(y, system.p.epsilon)),
                                   np.ones(g.n_cells))
        assert not ok and 0 < n_cg < 1000 and all_finite(x)
        problem = SingularResolventProblem(g, g.constant(1.0), 0.01, g.constant(1.0),
                                           step_at_half(g, 0.5), 2.0**-6)
        with pytest.raises(SolverError,
                           match=r": the linear solve failed after 0 Newton steps$") as excinfo:
            singular_resolvent(problem)
    assert 0 < excinfo.value.report.inner_iterations < 1000


@pytest.mark.parametrize("n", [4, 5, 37, 128])
def test_1d_band_is_bitwise_the_band_of_the_pattern_matrix(n):
    # The 1D band is written from the grid's map; it must hold the bits of the lower
    # band of the matrix summed entry by entry from the stencil in the map's order,
    # for |p| < 1 and |p| = 1.
    g = build_grid(1, [n], [0.7])
    rng = np.random.default_rng(n)
    for _ in range(5):
        system, y, p = random_newton_system(g, rng)
        band = system.jacobian(y, p, gamma_eps(y, system.p.epsilon))
        assert band.flags.f_contiguous          # dpbsv takes it without a copy
        reference = lower_band(pattern_matrix(system, newton_weight(system, y, p)))
        assert band.tobytes() == reference.tobytes()


def test_banded_newton_solve_matches_spsolve(grid1d):
    rng = np.random.default_rng(6)
    x = grid1d.centers(0)
    problem = SingularResolventProblem(grid1d, 1.0 + 0.5 * np.cos(2 * np.pi * x), 0.01,
                                       grid1d.constant(1e3), grid1d.zeros(), 2.0**-8)
    system = _SingularSystem(problem)
    y = system.grad_cells(0.5 * np.tanh((x - 0.5) / 0.01))
    b = rng.standard_normal(grid1d.n_cells)
    p = -grad_gamma_eps(y, 2.0**-8)
    band = system.jacobian(y, p, gamma_eps(y, system.p.epsilon))
    assert band.shape == (3, grid1d.n_cells)
    x_ref = spsolve(sp.csc_matrix(pattern_matrix(system, newton_weight(system, y, p))), b)
    x_banded, n_cg, ok = system.solve(band, b)
    assert ok and n_cg == 0
    assert np.max(np.abs(x_banded - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))


def test_direct_banded_solve_matches_solveh_banded(grid1d):
    # The 1D solve calls LAPACK's dpbsv directly; it must behave as the
    # solveh_banded wrapper did: same bits, failure reported, NaN rejected (where
    # the band is written, before the solve).
    x = grid1d.centers(0)
    problem = SingularResolventProblem(grid1d, 1.0 + 0.5 * np.cos(2 * np.pi * x), 0.01,
                                       grid1d.constant(1e3), grid1d.zeros(), 2.0**-8)
    system = _SingularSystem(problem)
    y = system.grad_cells(0.5 * np.tanh((x - 0.5) / 0.01))
    b = np.random.default_rng(13).standard_normal(grid1d.n_cells)
    band = system.jacobian(y, grad_gamma_eps(y, 2.0**-8), gamma_eps(y, system.p.epsilon))
    expected = solveh_banded(band, b, lower=True)
    x_direct, n_cg, ok = system.solve(band.copy(order="F"), b)   # the solve overwrites it
    assert ok and n_cg == 0
    assert x_direct.tobytes() == expected.tobytes()
    assert not system.solve(-band, b)[2]
    B = hess_gamma_eps(y, 2.0**-8) * system.beta
    B[0, 0, 2] = np.nan
    with pytest.raises(SolverError, match="the Newton system is not finite"):
        system.matrix(B)


def step_at_half(g, height):
    """``height`` on the cells past x = 1/2, zero before them."""
    return np.where(g.meshgrid()[0] > 0.5, height, 0.0)


def test_a_non_finite_newton_direction_ends_the_solve_with_its_own_exit(monkeypatch):
    # An infinite direction entry along -r makes the line search's slope -inf.  The solve
    # ends there with its own exit and report, before the energy of a trial that is not
    # finite is asked for, and a run's step fails with the partial trajectory.
    solve = _SingularSystem.solve

    def infinite(self, A, b):
        x, n_cg, ok = solve(self, A, b)
        k = np.argmax(np.abs(b))
        x[k] = math.copysign(math.inf, b[k])
        return x, n_cg, ok

    monkeypatch.setattr(_SingularSystem, "solve", infinite)
    g = build_grid(1, [64], [1.0])
    step = step_at_half(g, 1.0)
    exit_name = "the Newton direction is not finite after 0 Newton steps$"
    problem = SingularResolventProblem(g, g.constant(1.0), 1e-2, g.constant(1e3), 1e3 * step,
                                       2.0**-6)
    with pytest.raises(SolverError, match=exit_name) as excinfo, np.errstate(invalid="ignore"):
        singular_resolvent(problem, initial_guess=g.zeros())
    report = excinfo.value.report
    assert (report.iterations, report.converged, report.method) == (0, False, "failed")

    params = Parameters(kappa=1e-2, epsilon=2.0**-6, T=3e-3, dt=1e-3)    # kappa_eff 1e-2
    with pytest.raises(evolution.StepFailedError, match="^theta solve failed at t=0.001: .*"
                       + exit_name) as excinfo, np.errstate(invalid="ignore"):
        evolution.run(SystemState(g, g.constant(1.0), step), reference_model(), params,
                      Forcings(g))
    assert excinfo.value.report.method == "failed" and excinfo.value.report.iterations == 0
    trajectory = excinfo.value.trajectory
    assert trajectory.times == [0.0] and not trajectory.solve_reports


# -- the residuals and the Newton matrix against their earlier definitions -----------
# Each was rewritten to evaluate less or copy less; the earlier definitions are kept
# here as the reference, whose bytes the rewritten ones must give.


def old_newton_weight(beta, y, eps, p):
    """``B`` as the Newton matrix took it before it reused the residual's gamma: the
    dual linearization with ``s = eps^2 + |y|^2`` and ``gam = sqrt(s)`` evaluated anew."""
    n = y.shape[0]
    s = eps**2 + (y[0] * y[0] if n == 1 else np.add.reduce(y * y, axis=0))
    gam = np.sqrt(s)
    out = np.empty((n, n) + y.shape[1:])
    for i in range(n):
        for j in range(n):
            sym = p[i] * y[i] if i == j else 0.5 * (p[i] * y[j] + p[j] * y[i])
            out[i, j] = ((1.0 if i == j else 0.0) - sym / gam) / gam
    return beta * out


def old_residual(system, w):
    """The Newton residual as :meth:`_SingularSystem.residual_parts` formed it before it
    formed the flux and ``m*w - z`` in place."""
    y = system.grad_cells(w)
    flux = system.beta * (y / gamma_eps(y, system.p.epsilon))
    r = system.m * w - system.z
    csc_matvec(*system.GT_csc, flux.ravel(), r)
    csr_matvec(*system.kappa_K_csr, w, r)
    return r


@pytest.mark.parametrize("eps", [2.0**-2, 2.0**-10], ids=["eps=2^-2", "eps=2^-10"])
@pytest.mark.parametrize("cells,extents", [([37], [1.0]), ([128], [1.0]), ([6, 5], [1.0, 0.7])])
def test_newton_matrix_and_residuals_give_the_bytes_of_their_old_definitions(cells, extents,
                                                                             eps):
    g = build_grid(len(cells), cells, extents)
    rng = np.random.default_rng(14)
    beta = rng.uniform(0.0, 1.5, g.shape)
    beta.flat[::4] = 0.0
    m = rng.uniform(1.0, 2.0, g.shape)
    z = step_at_half(g, 0.5) + 0.1 * rng.standard_normal(g.shape)
    problem = SingularResolventProblem(g, beta, 0.01, m, z, eps)
    system = _SingularSystem(problem)
    for w in (step_at_half(g, 0.5), step_at_half(g, -0.0), rng.standard_normal(g.shape)):
        r, y, gam = system.residual_parts(w.ravel())
        assert r.tobytes() == old_residual(system, w.ravel()).tobytes()
        p = rng.uniform(-1.0, 1.0, y.shape)
        p /= np.maximum(1.0, np.linalg.norm(p, axis=0))
        p[:, ::5] = -0.0
        assert (hess_gamma_eps(y, eps, p, gam).tobytes()
                == (old_newton_weight(1.0, y, eps, p)).tobytes())
        assert (system.jacobian(y, p, gam).tobytes()
                == system.matrix(old_newton_weight(system.beta, y, eps, p)).tobytes())
        force = g.div(interfacial_flux(g, beta, w, eps, 0.01))
        old = g.norm_h(-force + m * w - z)
        assert np.float64(_stencil_residual_h(problem, w)).tobytes() == np.float64(old).tobytes()
    for lam, weight in ((0.3, 1.0), (1e-3, m)):
        w, report = linear_resolvent(LinearResolventProblem(g, lam, weight, z))
        old = g.norm_h(-lam * g.laplacian(w) + weight * w - z)
        assert np.float64(report.final_residual_h).tobytes() == np.float64(old).tobytes()


@pytest.mark.parametrize("cells", [[64], [12, 10]])
def test_singular_resolvent_rejects_a_tolerance_that_is_not_finite(cells):
    # |z|_H overflows for a finite 1e160 step in z, so the default tolerance is inf,
    # which any residual meets at once; a tolerance given as inf or NaN is no better.
    g = build_grid(len(cells), cells, [1.0] * len(cells))
    z = step_at_half(g, 1e160)
    problem = SingularResolventProblem(g, g.constant(1.0), 0.1, g.constant(1.0), z, 0.25)
    for tol_abs in (None, math.inf, math.nan):
        with pytest.raises(SolverError, match=r"the residual tolerance (inf|nan) is not finite") \
                as excinfo, np.errstate(over="ignore"):
            singular_resolvent(problem, tol_abs=tol_abs, initial_guess=z)
        assert not excinfo.value.report.converged


@pytest.mark.parametrize("cells", [[64], [12, 10]])
def test_prepare_initial_theta_rejects_a_tolerance_that_is_not_finite(cells):
    g = build_grid(len(cells), cells, [1.0] * len(cells))
    with pytest.raises(SolverError, match="is not finite"), np.errstate(over="ignore"):
        evolution.prepare_initial_theta(g, g.constant(1.0), step_at_half(g, 1e160),
                                        reference_model(), 0.25, 1.0)


@pytest.mark.parametrize("cells", [[64], [12, 10]])
def test_singular_resolvent_raises_on_a_non_finite_newton_system(cells, monkeypatch):
    # A NaN Newton system fails with the solver's own error in both dimensions, so
    # that a time step reports it; neither the band solve nor CG sees it.
    monkeypatch.setattr(elliptic, "hess_gamma_eps",
                        lambda y, eps, dual=None, gam=None: np.full((y.shape[0],) + y.shape,
                                                                    np.nan))
    g = build_grid(len(cells), cells, [1.0] * len(cells))
    problem = SingularResolventProblem(g, g.constant(1.0), 0.01, g.constant(1.0),
                                       step_at_half(g, 0.5), 2.0**-6)
    with pytest.raises(SolverError, match="^singular resolvent: the Newton system is not "
                                          "finite$") as excinfo:
        singular_resolvent(problem)
    assert excinfo.value.report.method == "failed"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("cells", [[64], [12, 10]])
def test_singular_resolvent_rejects_a_non_finite_initial_dual(cells, value):
    g = build_grid(len(cells), cells, [1.0] * len(cells))
    problem = SingularResolventProblem(g, g.constant(1.0), 0.01, g.constant(1.0),
                                       step_at_half(g, 0.5), 2.0**-6)
    for index in (0, g.dim * g.n_cells // 2, g.dim * g.n_cells - 1):
        dual = np.zeros((g.dim,) + g.shape)
        dual.flat[index] = value
        with pytest.raises(ValueError, match="^initial_dual: contains non-finite values$"):
            singular_resolvent(problem, initial_dual=dual)


@pytest.mark.parametrize("cells", [[64], [12, 10]])
def test_singular_resolvent_failure_reports_the_newton_steps_taken(cells, monkeypatch):
    # A linear solve that fails at once stops Newton before its first step.
    monkeypatch.setattr(_SingularSystem, "solve", lambda self, A, b: (b, 0, False))
    g = build_grid(len(cells), cells, [1.0] * len(cells))
    problem = SingularResolventProblem(g, g.constant(1.0), 0.01, g.constant(1.0),
                                       step_at_half(g, 0.5), 2.0**-6)
    with pytest.raises(SolverError, match="did not reach residual") as excinfo:
        singular_resolvent(problem)
    assert excinfo.value.report.iterations == 0
    assert excinfo.value.report.method == "failed"


@pytest.mark.parametrize("exit_", ["linear-solve", "line-search", "cap"])
@pytest.mark.parametrize("cells", [[64], [12, 10]])
def test_singular_resolvent_failure_names_the_newton_exit(cells, exit_, monkeypatch):
    # Each way the Newton loop can end short of the tolerance is named after the
    # missed residual, with the Newton steps taken.
    g = build_grid(len(cells), cells, [1.0] * len(cells))
    problem = SingularResolventProblem(g, g.constant(1.0), 0.01, g.constant(1.0),
                                       step_at_half(g, 0.5), 2.0**-6)
    solve, calls, tol_abs = _SingularSystem.solve, [], None
    if exit_ == "linear-solve":        # the second linear solve fails
        steps, text = 1, "the linear solve failed"

        def patched(self, A, b):
            calls.append(b)
            return solve(self, A, b) if len(calls) == 1 else (b, 0, False)
    elif exit_ == "line-search":       # an ascent direction: neither residual nor energy falls
        steps, text = 0, "the line search found no step length"

        def patched(self, A, b):
            return -b, 0, True
    else:                              # a tolerance no iterate meets
        steps, text, patched, tol_abs = 2, "the cap MAX_NEWTON was reached", solve, 0.0
        monkeypatch.setattr(elliptic, "MAX_NEWTON", 2)
    monkeypatch.setattr(_SingularSystem, "solve", patched)
    with pytest.raises(SolverError, match=rf"^singular resolvent did not reach residual \S+ "
                                          rf"\(got \S+\): {text} after {steps} Newton steps$") as excinfo:
        singular_resolvent(problem, tol_abs=tol_abs)
    assert excinfo.value.report.iterations == steps


@pytest.mark.parametrize("weight", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("lam", [0.0, 0.5], ids=["lam=0", "lam>0"])
@pytest.mark.parametrize("kind", ["linear", "singular"])
def test_non_finite_scalar_weight_is_rejected(kind, lam, weight):
    # A scalar weight is checked as its constant field is; for the singular
    # problem lam is the weight of the singular diffusion, beta.
    g = build_grid(1, [16], [1.0])
    z = g.constant(1.0)
    with pytest.raises(ValueError, match="^m: contains non-finite values$"):
        if kind == "linear":
            LinearResolventProblem(g, lam, weight, z)
        else:
            SingularResolventProblem(g, g.constant(lam), 0.01, weight, z, 2.0**-6)


@pytest.mark.parametrize("cells", [[64], [12, 10]])
def test_singular_resolvent_initial_dual(cells):
    g = build_grid(len(cells), cells, [1.0] * len(cells))
    problem = SingularResolventProblem(g, g.constant(1.0), 0.01, g.constant(1.0),
                                       step_at_half(g, 0.5), 2.0**-6)
    start = 0.5 * step_at_half(g, 0.5)
    w, report = singular_resolvent(problem, initial_guess=start)
    # the default dual, handed in, gives the same bits
    y = _SingularSystem(problem).grad_cells(start.ravel())
    dual = (y / gamma_eps(y, problem.epsilon)).reshape((g.dim,) + g.shape)
    w_dual, report_dual = singular_resolvent(problem, initial_guess=start, initial_dual=dual)
    assert w_dual.tobytes() == w.tobytes() and report_dual == report
    # another dual in the unit ball leads to the same solution up to the residuals
    w_far, report_far = singular_resolvent(problem, initial_guess=start,
                                           initial_dual=-0.5 * dual)
    bound = (report.final_residual_h + report_far.final_residual_h) / problem.m.min()
    assert g.norm_h(w_far - w) <= bound
    with pytest.raises(ValueError, match="initial_dual: expected shape"):
        singular_resolvent(problem, initial_dual=dual[:1, :-1])
    dual[0].flat[3] = np.nan
    with pytest.raises(ValueError, match="initial_dual: contains non-finite values"):
        singular_resolvent(problem, initial_dual=dual)


@pytest.mark.parametrize("cells", [[64], [12, 10]])
def test_linear_resolvent_alternating_factors_stay_fresh(cells):
    g = build_grid(len(cells), cells, [1.0] * len(cells))
    rng = np.random.default_rng(7)
    pairs = [(0.3, g.constant(1.0)), (0.05, 1.0 + rng.uniform(0.0, 2.0, g.shape))]
    for k in range(6):
        lam, m = pairs[k % 2]
        z = rng.standard_normal(g.shape)
        w, report = linear_resolvent(LinearResolventProblem(g, lam, m, z))
        res = g.norm_h(-lam * g.laplacian(w) + m * w - z)
        assert report.converged and res <= 1e-10 * g.norm_h(z)


# -- one theta operator: stencil form and matrix form ---------------------------------


@pytest.mark.parametrize("cells,extents,grain", [
    ([32], [1.0], False), ([12, 10], [1.0, 0.8], False),
    ([128], [1.0], True), ([48, 48], [1.0, 1.0], True),
], ids=["cells0-extents0", "cells1-extents1", "grain-1d-128", "grain-2d-48x48"])
def test_theta_operator_stencil_and_matrix_forms_agree(cells, extents, grain, monkeypatch):
    # Grain inputs (a tanh step of width 0.01 at eps 2^-10) check the forms where
    # y/gamma saturates at the unit sphere.  In the step's tails the matrix form's
    # cell gradient, a sum of two rounded products w*(+-1/(2h)), is off by up to an
    # ulp of |w|/h where the stencil's difference is exact; the flux takes that over
    # gamma ~ eps and its divergence over h.  Where 1/(2h) is not a power of two
    # (48 cells) this round-off floor, not the 1e-12 relative bound, separates them.
    g = build_grid(len(cells), cells, extents)
    rng = np.random.default_rng(11)
    beta = rng.uniform(0.5, 1.5, g.shape)
    m = rng.uniform(0.5, 2.0, g.shape)
    z = rng.standard_normal(g.shape)
    if grain:
        r = np.sqrt(sum((x - 0.5) ** 2 for x in g.meshgrid())) if g.dim == 2 else g.meshgrid()[0]
        w, kappa_eff, eps = 0.5 * np.tanh((r - (0.3 if g.dim == 2 else 0.5)) / 0.01), 1e-2, 2.0**-10
    else:
        w, kappa_eff, eps = rng.standard_normal(g.shape), 0.7, 0.1
    problem = SingularResolventProblem(g, beta, kappa_eff, m, z, eps)
    stencil = -g.div(interfacial_flux(g, beta, w, eps, kappa_eff)) + m * w - z
    matrix = _SingularSystem(problem).residual_parts(w.ravel())[0].reshape(g.shape)
    h = min(g.spacing)
    inexact = grain and any(math.frexp(0.5 / s)[0] != 0.5 for s in g.spacing)
    floor = beta.max() * np.spacing(np.abs(w).max() / h) / (eps * h) if inexact else 0.0
    assert g.norm_h(stencil - matrix) <= 1e-12 * g.norm_h(matrix) + floor * g.norm_h(g.constant(1.0))

    # The step check of a damped step and the residual of the resolvent problem
    # that _advance hands to the solver are the same equation.
    model = reference_model()
    params = Parameters(kappa=0.5, epsilon=eps, T=1e-2, dt=1e-3, mu=0.1, nu=0.1)
    state = SystemState(g, random_smooth_field(g, rng, mean=1.0, amplitude=0.25),
                        random_smooth_field(g, rng, mean=0.0, amplitude=0.5))
    forcings = Forcings(g, v="cos(3*t)*cos(2*pi*x)")
    problems = []

    def recording_solve(problem, **kwargs):
        problems.append(problem)
        return singular_resolvent(problem, **kwargs)

    monkeypatch.setattr(evolution, "singular_resolvent", recording_solve)
    new = evolution._advance(state, model, params, forcings)[0]
    theta_trial = new.theta + 0.01 * rng.standard_normal(g.shape)   # not a solution
    pde = evolution._theta_pde_residual(g, params, state.theta, model.alpha0(new.eta),
                                        model.alpha(new.eta), theta_trial,
                                        forcings.v(new.time), params.dt, g.grad(state.theta))
    assert pde > 1.0
    assert pde == pytest.approx(_stencil_residual_h(problems[0], theta_trial), rel=1e-10)
