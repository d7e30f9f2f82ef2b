import re

import numpy as np
import pytest

from dataclasses import asdict, replace

from kwcflow import (LinearResolventProblem, Parameters, SingularResolventProblem, build_grid,
                     gamma_eps, grad_gamma_eps, hess_gamma_eps, interfacial_energy,
                     interfacial_flux, interfacial_force, kwc_energy, reference_model,
                     validate_assumptions)
from kwcflow import model as model_module
from kwcflow.model import ModelFunctions, angle_gradient

# value of the arc-length-style oracle integral int_0^1 sqrt(1 + pi^2 sin^2(pi x)) dx,
# computed with scipy.integrate.quad (epsabs=1e-14) and cross-checked with mpmath
COS_PROFILE_INTERFACIAL = 2.3048926613536911


def test_parameters_validation():
    Parameters(kappa=1.0, epsilon=0.5, T=1.0, dt=1e-3)
    with pytest.raises(ValueError, match=r"\(A1\)"):
        Parameters(kappa=-1.0, epsilon=0.5, T=1.0, dt=1e-3)
    with pytest.raises(ValueError):
        Parameters(kappa=1.0, epsilon=0.0, T=1.0, dt=1e-3)
    with pytest.raises(ValueError):
        Parameters(kappa=1.0, epsilon=0.5, T=1.0, dt=2.0)
    with pytest.raises(ValueError):
        Parameters(kappa=1.0, epsilon=0.5, T=1.0, dt=1e-3, mu=1.0)


def test_gamma_eps_values():
    assert gamma_eps(np.zeros(2), 0.5) == pytest.approx(0.5)
    assert gamma_eps(np.array([3.0, 4.0]), 0.0) == pytest.approx(5.0)
    assert gamma_eps(np.array([1.0, 0.0]), 1.0) == pytest.approx(np.sqrt(2.0))
    assert gamma_eps(0.7, 0.0) == pytest.approx(0.7)   # scalar promoted to 1-vector


def test_gamma_eps_lower_bound_and_lipschitz_in_eps():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((2, 500)) * 3.0
    e1, e2 = 0.3, 0.8
    g1, g2 = gamma_eps(y, e1), gamma_eps(y, e2)
    assert np.all(g1 >= np.maximum(e1, np.sqrt(np.sum(y * y, axis=0))) - 1e-14)
    assert np.max(np.abs(g1 - g2)) <= abs(e1 - e2) + 1e-14


def test_grad_gamma_eps_bound_and_origin():
    assert np.all(grad_gamma_eps(np.zeros(2), 0.3) == 0.0)
    rng = np.random.default_rng(1)
    y = rng.standard_normal((2, 2000)) * 10.0 ** rng.uniform(-3, 3, size=2000)
    norms = np.sqrt(np.sum(grad_gamma_eps(y, 1.0) ** 2, axis=0))
    assert np.max(norms) <= 1.0 + 1e-12
    for e in (0.1, 0.5):
        n = np.sqrt(np.sum(grad_gamma_eps(y, e) ** 2, axis=0))
        assert np.max(n) < 1.0


def test_grad_and_hess_reject_eps_zero():
    with pytest.raises(ValueError):
        grad_gamma_eps(np.array([3.0, 4.0]), 0.0)
    with pytest.raises(ValueError):
        hess_gamma_eps(np.array([1.0, 1.0]), 0.0)


def test_hess_gamma_eps_origin_and_spd():
    e = 0.4
    H = hess_gamma_eps(np.zeros(2), e)
    assert np.allclose(H, np.eye(2) / e)
    rng = np.random.default_rng(2)
    for _ in range(50):
        y = rng.standard_normal(2) * 2.0
        eps = rng.uniform(0.1, 1.0)
        H = hess_gamma_eps(y, eps)
        eigs = np.linalg.eigvalsh(H)
        assert np.all(eigs > 0)


def gradients_and_duals(rng, dim, eps, n=2000):
    """Cell gradients with |y| from 1e-4 to 1e2, and dual fluxes in the unit ball:
    some on its sphere and some at ``y/gamma_eps(y)``."""
    y = rng.standard_normal((dim, n))
    y *= 10.0 ** rng.uniform(-4.0, 2.0, n) / np.sqrt(np.add.reduce(y * y, axis=0))
    p = rng.uniform(-1.0, 1.0, (dim, n))
    p /= np.maximum(1.0, np.sqrt(np.add.reduce(p * p, axis=0)))
    p[:, 1::3] /= np.sqrt(np.add.reduce(p[:, 1::3] ** 2, axis=0))
    p[:, ::3] = grad_gamma_eps(y[:, ::3], eps)
    return y, p


EPS_LADDER = [2.0**-k for k in range(2, 11)]


@pytest.mark.parametrize("dim", [1, 2])
def test_hess_gamma_eps_without_a_dual_is_bitwise_the_hessian_formula(dim):
    rng = np.random.default_rng(dim)
    for eps in EPS_LADDER:
        y, _ = gradients_and_duals(rng, dim, eps)
        s = eps**2 + np.add.reduce(y * y, axis=0)
        expected = (s * np.eye(dim)[:, :, None] - y[:, None] * y[None, :]) / s**1.5
        assert hess_gamma_eps(y, eps).tobytes() == expected.tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_hess_gamma_eps_dual_form_is_the_split_primal_dual_weight(dim):
    # (I - sym(p y^T)/gam)/gam is the Hessian plus sym((y/gam - p) y^T)/gam^2, the
    # primal-dual correction; the two forms round differently
    rng = np.random.default_rng(10 + dim)
    for eps in EPS_LADDER:
        y, p = gradients_and_duals(rng, dim, eps)
        gam = gamma_eps(y, eps)
        q = (y / gam - p) / gam**2
        split = hess_gamma_eps(y, eps) + 0.5 * (q[:, None] * y[None, :] + q[None, :] * y[:, None])
        err = np.max(np.abs(hess_gamma_eps(y, eps, p) - split))
        assert err <= 1e-15 * np.max(np.abs(split))


def test_hess_gamma_eps_dual_form_is_spd_in_the_unit_ball():
    # sym(p y^T) has eigenvalues (p.y -+ |p||y|)/2, so the smallest eigenvalue of
    # (I - sym(p y^T)/gam)/gam is at least (1 - |y|/gam)/gam for |p| <= 1
    rng = np.random.default_rng(7)
    for eps in EPS_LADDER:
        y, p = gradients_and_duals(rng, 2, eps)
        gam = gamma_eps(y, eps)
        B = hess_gamma_eps(y, eps, p)
        assert B[0, 1].tobytes() == B[1, 0].tobytes()
        smallest = np.linalg.eigvalsh(np.moveaxis(B, 2, 0))[:, 0]
        lower = (1.0 - np.sqrt(np.add.reduce(y * y, axis=0)) / gam) / gam
        rounding = 4.0 * np.finfo(float).eps / gam
        assert np.all(smallest >= lower - rounding)
        assert np.all(smallest > 0)


def test_hess_matches_finite_differences():
    y = np.array([0.3, -0.7])
    eps = 0.5
    H = hess_gamma_eps(y, eps)
    h = 1e-5
    fd = np.zeros((2, 2))
    for j in range(2):
        dy = np.zeros(2)
        dy[j] = h
        fd[:, j] = (grad_gamma_eps(y + dy, eps) - grad_gamma_eps(y - dy, eps)) / (2 * h)
    assert np.max(np.abs(fd - H)) <= 1e-6 * np.max(np.abs(H))


def test_subgradient_inequality():
    rng = np.random.default_rng(3)
    n = 20000
    y = rng.standard_normal((2, n)) * 5.0
    yp = rng.standard_normal((2, n)) * 5.0
    slack = (gamma_eps(yp, 1.0) - gamma_eps(y, 1.0)
             - np.sum(grad_gamma_eps(y, 1.0) * (yp - y), axis=0))
    assert np.min(slack) >= -1e-12


def test_interfacial_energy_trivials():
    g = build_grid(1, [64], [1.0])
    assert interfacial_energy(g, g.constant(1.0), g.constant(2.0), 0.5, 1.0) == pytest.approx(0.5)
    x = g.centers(0)
    theta = np.cos(np.pi * x)
    G = g.grad(theta)
    val = interfacial_energy(g, g.zeros(), theta, 0.5, 2.0)
    assert val == pytest.approx(1.0 * g.inner_faces(G, G))
    with pytest.raises(ValueError):
        interfacial_energy(g, g.constant(-0.1), theta, 0.5, 1.0)


def test_interfacial_energy_against_quadrature_oracle():
    g = build_grid(1, [512], [1.0])
    x = g.centers(0)
    val = interfacial_energy(g, g.constant(1.0), np.cos(np.pi * x), 1.0, 0.0)
    assert abs(val - COS_PROFILE_INTERFACIAL) < 5e-5


def test_interfacial_energy_monotone_in_eps_and_kappa():
    g = build_grid(1, [64], [1.0])
    x = g.centers(0)
    beta = 1.0 + 0.5 * np.cos(2 * np.pi * x)
    theta = np.cos(np.pi * x)
    vals_eps = [interfacial_energy(g, beta, theta, e, 1.0) for e in (0.1, 0.3, 0.6, 1.0)]
    assert all(b > a for a, b in zip(vals_eps, vals_eps[1:]))
    vals_kap = [interfacial_energy(g, beta, theta, 0.5, k) for k in (0.1, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(vals_kap, vals_kap[1:]))


def test_kwc_energy_constant_fields():
    g = build_grid(1, [64], [1.0])
    model = reference_model()
    params = Parameters(kappa=1.0, epsilon=0.5, T=1.0, dt=1e-3)
    e = kwc_energy(g, g.constant(1.0), g.zeros(), model, params)
    alpha_1 = 0.1 + np.sqrt(1.01)
    assert e.dirichlet == 0.0
    assert e.potential == pytest.approx(0.0, abs=1e-15)
    assert e.total == pytest.approx(0.5 * alpha_1)

    e = kwc_energy(g, g.zeros(), g.zeros(), model, params)
    assert e.dirichlet == 0.0
    assert e.potential == pytest.approx(0.5)            # G(0) = 1/2 on |domain| = 1
    assert e.interfacial == pytest.approx(0.5 * model.alpha(0.0))
    assert e.total == pytest.approx(e.dirichlet + e.potential + e.interfacial)


def test_kwc_energy_nonnegative_and_shift_invariant():
    g = build_grid(2, [8, 8], [1.0, 1.0])
    model = reference_model()
    params = Parameters(kappa=0.7, epsilon=0.3, T=1.0, dt=1e-3)
    rng = np.random.default_rng(4)
    for _ in range(5):
        eta = 1.0 + 0.3 * rng.standard_normal(g.shape)
        theta = 0.5 * rng.standard_normal(g.shape)
        e = kwc_energy(g, eta, theta, model, params)
        assert e.total >= 0.0 and e.dirichlet >= 0.0 and e.potential >= 0.0
        e2 = kwc_energy(g, eta, theta + 3.7, model, params)
        assert e2.total == pytest.approx(e.total, rel=1e-12)
    with pytest.raises(ValueError):
        bad = g.zeros()
        bad.flat[3] = np.inf
        kwc_energy(g, bad, g.zeros(), model, params)


def test_validate_reference_model():
    model = reference_model()
    report = validate_assumptions(model)
    assert report.passed
    assert 1.0 <= report.bounds.delta_alpha <= 1.02
    assert report.bounds.g_d1_sup == pytest.approx(1.0, rel=1e-6)
    assert report.bounds.alpha_d1_sup <= 1.0 + 1e-9
    assert model.bounds is report.bounds   # recorded on the model


def test_validate_flags_alpha0_zero():
    model = reference_model(alpha0_offset=0.0, alpha0_scale=0.0)
    report = validate_assumptions(model)
    assert not report.passed
    assert not report.checks["a3_delta_alpha_positive"]


def negative_primitive_model():
    # G(r) = r can be negative: only (A2) fails
    return ModelFunctions(
        g=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        G=lambda r: np.asarray(r, dtype=float),
        alpha=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        alpha_d1=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        alpha_d2=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        alpha0=lambda r: np.ones_like(np.asarray(r, dtype=float)),
        alpha0_d1=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
    )


def growing_alpha_model():
    model = reference_model()
    model.alpha = lambda r: r**2
    model.alpha_d1 = lambda r: 2.0 * np.asarray(r, dtype=float)
    model.alpha_d2 = lambda r: 2.0 * np.ones_like(np.asarray(r, dtype=float))
    return model


def test_validate_flags_bad_primitive():
    report = validate_assumptions(negative_primitive_model())
    assert not report.passed
    assert not report.checks["a2_G_nonnegative"]


def test_validate_warns_on_growing_alpha_derivative():
    report = validate_assumptions(growing_alpha_model())
    assert report.warnings


VALIDATION_MODELS = {
    "reference": reference_model,
    "a2_fails": negative_primitive_model,
    "a3_fails": lambda: reference_model(alpha0_offset=0.0, alpha0_scale=0.0),
    "warns": growing_alpha_model,
}


@pytest.mark.parametrize("name", sorted(VALIDATION_MODELS))
@pytest.mark.parametrize("n_samples,block", [(3, 2), (777, 100), (100_000, None)])
def test_blocked_validation_equals_one_block(monkeypatch, name, n_samples, block):
    # Every statistic is a min or a max, so the blocks must not change the report.
    def report(block_size):
        if block_size is not None:
            monkeypatch.setattr(model_module, "_VALIDATION_BLOCK", block_size)
        r = validate_assumptions(VALIDATION_MODELS[name](), n_samples=n_samples)
        return r.passed, r.checks, r.failures, r.warnings, asdict(r.bounds)

    blocked = report(block)
    assert report(10**9) == blocked
    assert blocked[0] == (name in ("reference", "warns"))
    assert blocked[3] or name != "warns"


@pytest.mark.parametrize("make_model,assumption", [
    (negative_primitive_model, "(A2)"),
    (lambda: reference_model(alpha0_offset=0.0, alpha0_scale=0.0), "(A3)"),
])
def test_a_failed_model_fails_every_ensure_bounds(make_model, assumption):
    model = make_model()
    assert not validate_assumptions(model).passed
    assert model.bounds is None
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(assumption)):
            model.ensure_bounds()


def test_a_model_is_validated_on_its_own_sample_range():
    model = replace(reference_model(alpha0_offset=-0.05), sample_range=(-2.0, 2.0),
                    n_samples=1000)
    bounds = model.ensure_bounds()      # inf alpha0 is -0.04 on [-10, 10], 0.15 on [-2, 2]
    assert (bounds.sample_range, bounds.n_samples) == ((-2.0, 2.0), 1000)
    assert bounds.delta_alpha == pytest.approx(0.15)
    # an explicit range still overrides the model's own
    report = validate_assumptions(model, (-10.0, 10.0), 2001)
    assert not report.passed and model.bounds is None
    assert validate_assumptions(model).bounds == bounds


# -- memos of the angle gradient and the flux ---------------------------------------


@pytest.mark.parametrize("dim,cells", [(1, [40]), (2, [9, 7])])
def test_memo_hits_are_fresh_bits_and_read_only(dim, cells):
    g = build_grid(dim, cells, [1.0] * dim)
    rng = np.random.default_rng(11)

    def fresh(beta, theta, eps, kappa):
        # G, gc, gamma_eps(gc) and the flux from the grid and gamma primitives
        G = g.grad(theta)
        gc = g.face_to_cell(G)
        F = g.cell_to_face(beta * grad_gamma_eps(gc, eps))
        flux = tuple(F[d] + kappa * G[d] for d in range(dim))
        return (*G, gc, gamma_eps(gc, eps), *flux, g.div(flux))

    def kept(beta, theta, eps, kappa):
        G, gc, gam = angle_gradient(g, theta, eps)
        return (*G, gc, gam, *interfacial_flux(g, beta, theta, eps, kappa),
                interfacial_force(g, beta, theta, eps, kappa))

    args = [1.0 + rng.random(g.shape), rng.standard_normal(g.shape), 0.3, 0.7]
    first = kept(*args)
    hit = kept(args[0].copy(), args[1].copy(), *args[2:])
    for got, want in zip(hit, fresh(*args)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the gradients and the flux are the kept arrays, read-only; the public force is
    # taken of the kept flux at each call, a new writable array
    assert all(a is b for a, b in zip(hit[:-1], first[:-1])) and hit[-1] is not first[-1]
    for got in hit[:-1]:
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 0.0
    hit[-1][...] = 0.0
    # Each input is part of the key; the key holds copies of the input bytes, so
    # writing to an input afterwards is a miss too.
    args[1][(0,) * dim] += 1e-3
    for i, changed in ((1, args[1]), (0, 2.0 * args[0]), (2, 0.4), (3, 1.1)):
        args[i] = changed
        assert [a.tobytes() for a in kept(*args)] == [a.tobytes() for a in fresh(*args)]


@pytest.mark.parametrize("dim,cells", [(1, [40]), (2, [9, 7])])
def test_public_functions_check_what_enters(dim, cells):
    # The package takes the unchecked kernels on arrays it has made or checked; each
    # public function still checks its caller's arrays, with the message it always gave.
    g = build_grid(dim, cells, [1.0] * dim)
    rng = np.random.default_rng(13)
    beta, theta = 1.0 + rng.random(g.shape), rng.standard_normal(g.shape)
    nan = g.constant(1.0)
    nan.flat[3] = np.nan
    last = dim - 1      # the axis whose faces hold the NaN
    nan_faces = tuple(np.zeros(s) for s in g.face_shapes())
    nan_faces[last].flat[3] = np.nan
    step = np.where(g.meshgrid()[0] < 0.5, 1e307, -1e307)
    field = "^field: contains non-finite values$"
    faces = f"^vector field: non-finite values on axis-{last} faces$"
    calls = [
        (lambda: g.grad(nan), field),
        (lambda: g.laplacian(nan), field),
        (lambda: g.div(nan_faces), faces),
        (lambda: g.face_to_cell(nan_faces), faces),
        (lambda: angle_gradient(g, nan, 0.3), field),
        (lambda: interfacial_flux(g, beta, nan, 0.3, 0.7), field),
        (lambda: interfacial_force(g, beta, nan, 0.3, 0.7), field),
        # the weight, as interfacial_energy checks it
        (lambda: interfacial_flux(g, nan, theta, 0.3, 0.7), "^beta: contains non-finite values$"),
        (lambda: interfacial_force(g, nan, theta, 0.3, 0.7), "^beta: contains non-finite values$"),
        # a finite angle whose face gradient overflows: the force checks the flux's faces
        (lambda: interfacial_force(g, beta, step, 0.3, 0.7),
         "^vector field: non-finite values on axis-0 faces$"),
        (lambda: interfacial_flux(g, -beta, theta, 0.3, 0.7),
         r"^beta must be nonnegative, min = -\d"),
        (lambda: interfacial_force(g, g.constant(-1.0), theta, 0.3, 0.7),
         r"^beta must be nonnegative, min = -1\.0$"),
        (lambda: interfacial_energy(g, nan, theta, 0.3, 0.7), "^beta: contains non-finite values$"),
        (lambda: interfacial_energy(g, beta, nan, 0.3, 0.7), "^theta: contains non-finite values$"),
        (lambda: LinearResolventProblem(g, 0.5, nan, theta), "^m: contains non-finite values$"),
        (lambda: LinearResolventProblem(g, 0.5, np.nan, theta), "^m: contains non-finite values$"),
        (lambda: LinearResolventProblem(g, 0.5, 1.0, nan), "^z: contains non-finite values$"),
        (lambda: SingularResolventProblem(g, nan, 0.7, 1.0, theta, 0.3),
         "^beta: contains non-finite values$"),
        (lambda: SingularResolventProblem(g, beta, 0.7, nan, theta, 0.3),
         "^m: contains non-finite values$"),
        (lambda: SingularResolventProblem(g, beta, 0.7, 1.0, nan, 0.3),
         "^z: contains non-finite values$"),
    ]
    # once with nothing kept, and once after the same functions were asked for the
    # finite fields, so that the kept results hold checked arrays
    for warm in (False, True):
        if warm:
            interfacial_force(g, beta, theta, 0.3, 0.7)
            interfacial_energy(g, beta, theta, 0.3, 0.7)
        for call, message in calls:
            with pytest.raises(ValueError, match=message), \
                    np.errstate(invalid="ignore", over="ignore"):
                call()
