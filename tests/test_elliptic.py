import re

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solveh_banded
from scipy.sparse.linalg import spsolve

import kwcflow.evolution as evolution
from kwcflow import (Forcings, LinearResolventProblem, Parameters,
                     SingularResolventProblem, SystemState, build_grid,
                     check_h2_bound, gamma_eps, grad_gamma_eps, hess_gamma_eps,
                     interfacial_flux, linear_resolvent, reference_model,
                     singular_resolvent, step_pseudo_parabolic)
from kwcflow.elliptic import _matvec, _SingularSystem, _stencil_residual_h
from kwcflow.grid import random_smooth_field


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
    rng = np.random.default_rng(1)
    z = rng.standard_normal(grid1d.shape)
    m = 1.0 + rng.uniform(0.0, 2.0, size=grid1d.shape)
    w, report = linear_resolvent(LinearResolventProblem(grid1d, 0.0, m, z))
    assert np.array_equal(w, z / m)
    assert report.method == "pointwise" and report.converged


def test_linear_resolvent_residual_contract(grid1d):
    rng = np.random.default_rng(2)
    z = rng.standard_normal(grid1d.shape)
    m = 1.0 + rng.uniform(0.0, 1.0, size=grid1d.shape)
    w, report = linear_resolvent(LinearResolventProblem(grid1d, 0.7, m, z))
    res = grid1d.norm_h(-0.7 * grid1d.laplacian(w) + m * w - z)
    assert res <= 1e-10 * grid1d.norm_h(z)
    assert report.final_residual_h == pytest.approx(res)


def test_linear_resolvent_problem_validation(grid1d):
    with pytest.raises(ValueError):
        LinearResolventProblem(grid1d, -0.1, 1.0, grid1d.zeros())
    with pytest.raises(ValueError):
        LinearResolventProblem(grid1d, 0.1, 0.0, grid1d.zeros())


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


@pytest.mark.parametrize("case", [
    ("uniform", 0.5),
    ("varying", 0.25),
    ("small_eps", 2.0**-6),
])
def test_singular_resolvent_matches_descent_oracle(grid1d, case):
    name, eps = case
    x = grid1d.centers(0)
    if name == "uniform":
        beta, z = grid1d.constant(1.0), np.tanh((x - 0.5) / 0.1)
    elif name == "varying":
        beta = 1.0 + 0.5 * np.cos(2 * np.pi * x)
        z = np.cos(np.pi * x) + 0.3 * np.cos(3 * np.pi * x)
    else:
        beta, z = grid1d.constant(0.5), 1.0 + 0.8 * np.tanh((x - 0.5) / 0.15)
    m = grid1d.constant(1.0)
    w, report = singular_resolvent(
        SingularResolventProblem(grid1d, beta, 1.0, m, z, eps))
    w_oracle = minimize_by_gradient_descent(grid1d, beta, 1.0, m, z, eps)
    assert grid1d.norm_h(w - w_oracle) <= 1e-8
    assert report.converged


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
    with pytest.raises(ValueError):
        SingularResolventProblem(grid1d, grid1d.constant(-1.0), 1.0,
                                 grid1d.constant(1.0), grid1d.zeros(), 0.5)
    with pytest.raises(ValueError):
        SingularResolventProblem(grid1d, grid1d.zeros(), 0.0,
                                 grid1d.constant(1.0), grid1d.zeros(), 0.5)
    with pytest.raises(ValueError):
        SingularResolventProblem(grid1d, grid1d.zeros(), 1.0,
                                 grid1d.constant(1.0), grid1d.zeros(), 0.0)


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
    err = np.max(np.abs(system.pattern.matrix(system.jacobian_data(y, gam, p)).toarray()
                        - explicit))
    assert err <= 1e-14 * np.max(np.abs(explicit))
    # At p = y/gam the primal-dual matrix is the exact Hessian, bit for bit.
    hessian = system.matrix_data(beta.ravel() * H)
    assert np.array_equal(system.jacobian_data(y, gam, grad_gamma_eps(y, eps)), hessian)

    # SPD with smallest eigenvalue >= min m for any |p| <= 1, down to eps = 2^-11.
    if g.dim == 2:
        for eps_small in (eps, 2.0**-6, 2.0**-11):
            system = _SingularSystem(SingularResolventProblem(g, beta, kappa_eff, m, g.zeros(),
                                                              eps_small))
            A = system.pattern.matrix(system.jacobian_data(y, gamma_eps(y, eps_small), p))
            A = A.toarray()
            assert np.max(np.abs(A - A.T)) <= 1e-14 * np.max(np.abs(A))
            smallest = np.linalg.eigvalsh(0.5 * (A + A.T))[0]
            assert smallest >= np.min(m) - 1e-12 * np.max(np.abs(A))


@pytest.mark.parametrize("cells,extents", [([48], [1.0]), ([6, 5], [1.0, 0.7])])
def test_direct_csr_product_is_bitwise_the_operator_product(cells, extents):
    # The solver's products call scipy's CSR kernel directly; the kernel adds
    # into its output, so a NaN-filled buffer shows that it is zeroed first.
    g = build_grid(len(cells), cells, extents)
    rng = np.random.default_rng(12)
    pattern = g.jacobian_pattern
    for A in (g.cell_gradient_matrix, g.cell_gradient_transpose, g.stiffness_matrix,
              pattern.coupling):
        x = rng.standard_normal(A.shape[1])
        out = np.full(A.shape[0], np.nan)
        assert _matvec(A, x, out) is out
        assert out.tobytes() == (A @ x).tobytes()


def test_banded_newton_solve_matches_spsolve(grid1d):
    rng = np.random.default_rng(6)
    x = grid1d.centers(0)
    problem = SingularResolventProblem(grid1d, 1.0 + 0.5 * np.cos(2 * np.pi * x), 0.01,
                                       grid1d.constant(1e3), grid1d.zeros(), 2.0**-8)
    system = _SingularSystem(problem)
    y = system.grad_cells(0.5 * np.tanh((x - 0.5) / 0.01))
    b = rng.standard_normal(grid1d.n_cells)
    data = system.jacobian_data(y, gamma_eps(y, 2.0**-8), -grad_gamma_eps(y, 2.0**-8))
    assert system.pattern.bandwidth == 2
    x_banded, n_cg, ok = system.solve(data, b)
    assert ok and n_cg == 0
    x_ref = spsolve(system.pattern.matrix(data).tocsc(), b)
    assert np.max(np.abs(x_banded - x_ref)) <= 1e-12 * np.max(np.abs(x_ref))


def test_direct_banded_solve_matches_solveh_banded(grid1d):
    # The 1D solve calls LAPACK's dpbsv directly; it must behave as the
    # solveh_banded wrapper did: same bits, failure reported, NaN rejected.
    x = grid1d.centers(0)
    problem = SingularResolventProblem(grid1d, 1.0 + 0.5 * np.cos(2 * np.pi * x), 0.01,
                                       grid1d.constant(1e3), grid1d.zeros(), 2.0**-8)
    system = _SingularSystem(problem)
    y = system.grad_cells(0.5 * np.tanh((x - 0.5) / 0.01))
    b = np.random.default_rng(13).standard_normal(grid1d.n_cells)
    data = system.jacobian_data(y, gamma_eps(y, 2.0**-8), grad_gamma_eps(y, 2.0**-8))
    x_direct, n_cg, ok = system.solve(data, b)
    assert ok and n_cg == 0
    assert x_direct.tobytes() == solveh_banded(system.pattern.upper_band(data), b).tobytes()
    assert not system.solve(-data, b)[2]
    bad = data.copy()
    bad[5] = np.nan
    with pytest.raises(ValueError) as wrapper:
        solveh_banded(system.pattern.upper_band(bad), b)
    with pytest.raises(ValueError, match=re.escape(str(wrapper.value))):
        system.solve(bad, b)


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


@pytest.mark.parametrize("cells,extents", [([32], [1.0]), ([12, 10], [1.0, 0.8])])
def test_theta_operator_stencil_and_matrix_forms_agree(cells, extents, monkeypatch):
    g = build_grid(len(cells), cells, extents)
    rng = np.random.default_rng(11)
    beta = rng.uniform(0.5, 1.5, g.shape)
    m = rng.uniform(0.5, 2.0, g.shape)
    z = rng.standard_normal(g.shape)
    w = rng.standard_normal(g.shape)
    kappa_eff, eps = 0.7, 0.1
    problem = SingularResolventProblem(g, beta, kappa_eff, m, z, eps)
    stencil = -g.div(interfacial_flux(g, beta, w, eps, kappa_eff)) + m * w - z
    matrix = _SingularSystem(problem).residual(w.ravel()).reshape(g.shape)
    assert g.norm_h(stencil - matrix) <= 1e-12 * g.norm_h(matrix)

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
    new = step_pseudo_parabolic(state, model, params, forcings)
    theta_trial = new.theta + 0.01 * rng.standard_normal(g.shape)   # not a solution
    pde = evolution._theta_pde_residual(g, model, params, state.theta, new.eta, theta_trial,
                                        forcings.v(new.time), params.dt)
    assert pde > 1.0
    assert pde == pytest.approx(_stencil_residual_h(problems[0], theta_trial), rel=1e-10)
