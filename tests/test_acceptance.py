"""Acceptance suite: one test per criterion, at full desk scale.

Each test prints a single PASS line (visible with ``pytest -v -s`` or in
the captured output) and asserts its stated tolerance and runtime budget.
"""

import time

import numpy as np
import pytest

from kwcflow import (Forcings, LinearResolventProblem, Parameters,
                     SingularResolventProblem, SystemState, build_grid,
                     gamma_eps, grad_gamma_eps, hess_gamma_eps,
                     linear_resolvent, reference_model, run, singular_resolvent)
from kwcflow.config import parse_config_dict
from kwcflow.experiments import (exp_continuous_dependence,
                                 exp_energy_dissipation, exp_epsilon_limit,
                                 exp_h2_uniformity,
                                 exp_manufactured_convergence, exp_munu_limit)
from tests.test_elliptic import minimize_by_gradient_descent


class Budget:
    """Context manager asserting the criterion's wall-clock budget."""

    def __init__(self, number, label, seconds):
        self.number, self.label, self.seconds = number, label, seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget "
                f"({elapsed:.1f}s)")
            print(f"ACCEPTANCE {self.number:02d} ({self.label}): PASS "
                  f"[{elapsed:.2f}s]")
        else:
            print(f"ACCEPTANCE {self.number:02d} ({self.label}): FAIL")
        return False


def desk_config(cells=None, stepper="parabolic", seed=1234, **params):
    """The parsed 1D unit-interval config with ``cells`` cells and the given
    ``params`` entries; everything else keeps its default."""
    grid = {} if cells is None else {"grid": {"dim": 1, "cells": [cells], "extents": [1.0]}}
    return parse_config_dict({**grid, "params": params, "stepper": stepper, "seed": seed})


def test_criterion_01_gradient_bound():
    with Budget(1, "gradient bound of the smoothed norm", 1.0):
        rng = np.random.default_rng(101)
        n = 100_000
        y = rng.standard_normal((2, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=n)
        eps = rng.uniform(1e-12, 1.0, size=n)
        g = y / np.sqrt(eps**2 + np.sum(y * y, axis=0))
        norms = np.sqrt(np.sum(g * g, axis=0))
        assert np.max(norms) <= 1.0 + 1e-12
        # same bound through the public API on a subsample
        for k in range(0, n, 5000):
            v = grad_gamma_eps(y[:, k], float(eps[k]))
            assert np.linalg.norm(v) <= 1.0 + 1e-12


def test_criterion_02_convexity_and_hessian():
    with Budget(2, "convexity and Hessian consistency", 5.0):
        rng = np.random.default_rng(102)
        n = 100_000
        y = rng.standard_normal((2, n)) * 3.0
        yp = rng.standard_normal((2, n)) * 3.0
        eps = rng.uniform(1e-6, 1.0, size=n)
        gam = np.sqrt(eps**2 + np.sum(y * y, axis=0))
        gam_p = np.sqrt(eps**2 + np.sum(yp * yp, axis=0))
        slack = gam_p - gam - np.sum((y / gam) * (yp - y), axis=0)
        assert np.min(slack) >= -1e-12

        h = 1e-5
        for _ in range(50):
            yy = rng.standard_normal(2) * 2.0
            ee = rng.uniform(0.1, 1.0)
            H = hess_gamma_eps(yy, ee)
            fd = np.zeros((2, 2))
            for j in range(2):
                dy = np.zeros(2)
                dy[j] = h
                fd[:, j] = (grad_gamma_eps(yy + dy, ee)
                            - grad_gamma_eps(yy - dy, ee)) / (2 * h)
            assert np.max(np.abs(fd - H)) <= 1e-6 * max(np.max(np.abs(H)), 1.0)


def test_criterion_03_linear_resolvent_nonexpansive():
    with Budget(3, "linear resolvent non-expansive in H and V", 10.0):
        rng = np.random.default_rng(103)
        grids = [build_grid(1, [64], [1.0]), build_grid(2, [32, 32], [1.0, 1.0])]
        for grid in grids:
            for _ in range(50):
                lam = rng.uniform(0.01, 1.0)
                z1 = rng.standard_normal(grid.shape)
                z2 = rng.standard_normal(grid.shape)
                w1, r1 = linear_resolvent(LinearResolventProblem(grid, lam, 1.0, z1))
                w2, r2 = linear_resolvent(LinearResolventProblem(grid, lam, 1.0, z2))
                assert r1.converged and r2.converged
                assert grid.norm_h(w1 - w2) <= (1 + 1e-10) * grid.norm_h(z1 - z2)
                assert grid.norm_v(w1 - w2) <= (1 + 1e-10) * grid.norm_v(z1 - z2)


def test_criterion_04_neumann_eigenfunction_accuracy():
    with Budget(4, "resolvent h^2 accuracy on the cosine eigenfunction", 5.0):
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


def test_criterion_05_singular_resolvent_correctness():
    with Budget(5, "singular resolvent against the descent oracle", 30.0):
        g = build_grid(1, [64], [1.0])
        x = g.centers(0)
        one = g.constant(1.0)

        # beta = 0 reduces to the linear path
        rng = np.random.default_rng(105)
        for _ in range(5):
            z = rng.standard_normal(g.shape)
            ws, _ = singular_resolvent(
                SingularResolventProblem(g, g.zeros(), 1.0, one, z, 0.5))
            wl, _ = linear_resolvent(LinearResolventProblem(g, 1.0, 1.0, z))
            assert g.norm_h(ws - wl) <= 1e-10

        # constant fixed points are exact
        for beta in (g.zeros(), g.constant(2.0)):
            w, _ = singular_resolvent(
                SingularResolventProblem(g, beta, 1.0, one, g.constant(1.7), 0.5))
            assert np.max(np.abs(w - 1.7)) <= 1e-12

        # battery of three problems against the independent minimization oracle
        battery = [
            (g.constant(1.0), np.tanh((x - 0.5) / 0.1), 0.5),
            (1.0 + 0.5 * np.cos(2 * np.pi * x),
             np.cos(np.pi * x) + 0.3 * np.cos(3 * np.pi * x), 0.25),
            (g.constant(0.5), 1.0 + 0.8 * np.tanh((x - 0.5) / 0.15), 2.0**-6),
        ]
        for beta, z, eps in battery:
            w, report = singular_resolvent(
                SingularResolventProblem(g, beta, 1.0, one, z, eps))
            assert report.converged
            w_oracle = minimize_by_gradient_descent(g, beta, 1.0, one, z, eps)
            assert g.norm_h(w - w_oracle) <= 1e-8


def test_criterion_06_h2_epsilon_uniformity():
    with Budget(6, "H2 bound uniform over the epsilon ladder", 60.0):
        report = exp_h2_uniformity(desk_config(cells=128),
                                   eps_values=tuple(2.0**-k for k in range(9)),
                                   trajectory_check=False)
        assert report.passed
        for name, spread in report.spread.items():
            assert spread <= 2.0, f"battery entry {name} spread {spread}"


@pytest.mark.parametrize("stepper,mu,nu", [("parabolic", 0.0, 0.0),
                                           ("pseudo_parabolic", 0.1, 0.1)])
def test_criterion_07_energy_dissipation(stepper, mu, nu):
    with Budget(7, f"energy dissipation ({stepper})", 60.0):
        config = desk_config(cells=64, T=1.0, dt=1e-3, epsilon=0.25, kappa=1.0,
                             mu=mu, nu=nu, stepper=stepper, seed=1234)
        report = exp_energy_dissipation(config)
        assert report.monotone
        assert report.max_energy_increase <= 1e-9
        assert report.worst_residual >= -report.fitted_C * 1e-3
        assert 1.5 <= report.residual_ratio <= 2.5
        assert report.passed


def test_criterion_08_stationary_preservation():
    with Budget(8, "stationary states preserved over 100 steps", 10.0):
        g = build_grid(1, [64], [1.0])
        model = reference_model()
        c, tc, eps = 1.3, 0.7, 0.25
        u = float(model.g(c) + model.alpha_d1(c) * gamma_eps(np.zeros(1), eps))
        forcings = Forcings(g, u=u, v=None)
        runs = [("parabolic", 0.0, 0.0)]
        runs += [("pseudo_parabolic", mu, nu) for mu in (0.0, 0.1) for nu in (0.0, 0.1)]
        for stepper, mu, nu in runs:
            params = Parameters(kappa=1.0, epsilon=eps, T=0.1, dt=1e-3, mu=mu, nu=nu)
            initial = SystemState(g, g.constant(c), g.constant(tc))
            s = run(initial, model, params, forcings, stepper=stepper,
                    snapshot_stride=100).snapshots[-1]
            assert s.time == pytest.approx(0.1)
            assert np.max(np.abs(s.eta - c)) <= 1e-10, (stepper, mu, nu)
            assert np.max(np.abs(s.theta - tc)) <= 1e-10, (stepper, mu, nu)


def test_criterion_09_continuous_dependence():
    with Budget(9, "Gronwall continuous-dependence bound", 120.0):
        config = desk_config(cells=64, T=1.0, dt=1e-3, epsilon=0.25, kappa=1.0, seed=1234)
        report = exp_continuous_dependence(config, delta=1e-3, perturb="eta")
        assert np.isfinite(report.C_hat)
        assert report.details["envelope_ok"]
        assert 1.6 <= report.details["delta_scaling_ratio"] <= 2.4
        assert report.details["delta_zero_J_identically_zero"]
        assert report.passed


def test_criterion_10_epsilon_limit():
    with Budget(10, "epsilon-limit convergence tables", 180.0):
        config = desk_config(cells=64, T=1.0, dt=1e-3, kappa=1.0, seed=1234)
        table = exp_epsilon_limit(config, eps_values=(0.5, 0.3, 0.2, 0.15, 0.11), eps0=0.1)
        assert all(b < a for a, b in zip(table.errors, table.errors[1:]))
        init = table.extra["init_error_V"]
        assert all(b < a for a, b in zip(init, init[1:]))
        assert table.passed


def test_criterion_11_munu_limit():
    with Budget(11, "pseudo-parabolic damping limit", 180.0):
        config = desk_config(cells=64, T=1.0, dt=1e-3, epsilon=0.25, kappa=1.0, seed=1234)
        table = exp_munu_limit(config, munu_values=(0.2, 0.1, 0.05, 0.025))
        assert all(b < a for a, b in zip(table.errors, table.errors[1:]))
        assert table.extra["zero_damping_identical"]
        assert table.passed


def test_criterion_12_manufactured_orders():
    with Budget(12, "manufactured-solution convergence orders", 120.0):
        report = exp_manufactured_convergence(desk_config(epsilon=0.25, kappa=1.0))
        for r in report.spatial.extra["ratios"]:
            assert 3.5 <= r <= 4.5
        for r in report.temporal.extra["ratios"]:
            assert 1.7 <= r <= 2.3
        assert report.passed
