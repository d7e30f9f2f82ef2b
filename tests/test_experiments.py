import numpy as np
import pytest

from kwcflow import build_grid, reference_model
from kwcflow.config import ConfigError, parse_config_dict
from kwcflow.experiments import (EXPERIMENTS, _manufactured_forcings,
                                 estimate_embedding_constant,
                                 exp_continuous_dependence,
                                 exp_energy_dissipation, exp_epsilon_limit,
                                 exp_h2_uniformity, exp_munu_limit,
                                 report_to_jsonable)

def config(cells=48, T=0.05, dt=1e-3, dim=1, **top):
    """A parsed smoke-scale config on the unit square of ``dim`` dimensions; the
    full desk-scale versions run in the acceptance suite."""
    return parse_config_dict({
        "grid": {"dim": dim, "cells": [cells] * dim, "extents": [1.0] * dim},
        "params": {"T": T, "dt": dt}, **top})


def test_embedding_estimate_properties():
    g = build_grid(1, [64], [1.0])
    est = estimate_embedding_constant(g, n_samples=1000, seed=0)
    assert est.raw_max >= 1.0          # the constant field's ratio, 1 on the unit domain
    assert est.c_v_l4 == pytest.approx(1.5 * est.raw_max)
    g2 = build_grid(1, [128], [1.0])
    est2 = estimate_embedding_constant(g2, n_samples=1000, seed=0)
    assert abs(est2.raw_max - est.raw_max) <= 0.1 * est.raw_max
    with pytest.raises(ValueError):
        estimate_embedding_constant(g, n_samples=10)


@pytest.mark.parametrize("cells,extents", [([64], [2.0]), ([64], [0.5]), ([12, 10], [1.0, 0.8])])
def test_embedding_estimate_takes_the_constant_fields_ratio_on_its_domain(cells, extents):
    # |1|_L4 / |1|_V is |Omega|^(-1/4): below 1 on a domain larger than the unit one,
    # above it on a smaller one.  On these domains it beats every sampled field.
    g = build_grid(len(cells), cells, extents)
    est = estimate_embedding_constant(g, n_samples=1000, seed=0)
    assert est.best_witness == "constant"
    assert est.raw_max == pytest.approx(float(np.prod(extents)) ** -0.25, rel=1e-14)


def test_energy_dissipation_short():
    r = exp_energy_dissipation(config())
    assert r.passed and r.monotone
    assert r.max_energy_increase <= 1e-9
    assert 1.5 <= r.residual_ratio <= 2.5


def test_energy_dissipation_stationary_residuals():
    # constant initial data is already a minimizer up to the potential term;
    # use an equilibrium state so all residual terms vanish
    r = exp_energy_dissipation(config(cells=32, T=0.02, seed=99))
    assert np.isfinite(r.worst_residual)


def test_energy_dissipation_2d_smoke():
    # desk-scale 2D smoke run: 32^2 cells, T = 0.25
    r = exp_energy_dissipation(config(dim=2, cells=32, T=0.25))
    assert r.passed and r.monotone


def test_epsilon_limit_short():
    table = exp_epsilon_limit(config(), eps_values=(0.5, 0.3, 0.2), eps0=0.1)
    assert table.passed
    assert all(b < a for a, b in zip(table.errors, table.errors[1:]))
    assert all(b < a for a, b in zip(table.extra["init_error_V"],
                                     table.extra["init_error_V"][1:]))


def test_epsilon_limit_identical_at_eps0():
    table = exp_epsilon_limit(config(cells=32, T=0.02), eps_values=(0.3, 0.1), eps0=0.1)
    # the eps = eps0 member coincides with the reference run exactly
    assert table.errors[-1] == 0.0
    assert table.extra["init_error_V"][-1] == 0.0


def test_munu_limit_short():
    table = exp_munu_limit(config(), munu_values=(0.2, 0.1, 0.05))
    assert table.passed
    assert table.extra["zero_damping_identical"]


def test_continuous_dependence_short():
    r = exp_continuous_dependence(config(), delta=1e-3)
    assert r.passed
    assert np.isfinite(r.C_hat)
    assert r.details["delta_zero_J_identically_zero"]
    assert r.J[0] == pytest.approx(r.details["expected_J0"], rel=1e-12)
    assert 1.6 <= r.details["delta_scaling_ratio"] <= 2.4
    assert r.C1_formula > 0


def test_h2_uniformity_short():
    r = exp_h2_uniformity(config(cells=64), eps_values=(1.0, 0.25, 2.0**-8),
                          trajectory_check=False)
    assert r.passed
    assert r.ratios["constant"] == pytest.approx([1.0, 1.0, 1.0], abs=1e-9)
    for spread in r.spread.values():
        assert spread <= 2.0


@pytest.mark.parametrize("study,top,options,key", [
    (exp_energy_dissipation, {"forcings": {"u": "0.1*cos(pi*x)"}}, {}, "forcings.u"),
    (exp_h2_uniformity, {"forcings": {"v": 0.2}}, {"eps_values": (1.0,)}, "forcings.v"),
    (exp_epsilon_limit, {"initial": {"prepare_theta": True}}, {}, "initial.prepare_theta"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_config_values_a_study_cannot_honour_are_refused(study, top, options, key):
    # a forcing would falsify the unforced checks; the epsilon ladder prepares
    # theta0 itself
    with pytest.raises(ConfigError) as excinfo:
        study(config(**top), **options)
    assert [v.partition(":")[0] for v in excinfo.value.violations] == [key]


def test_h2_battery_alone_takes_a_forced_config():
    r = exp_h2_uniformity(config(cells=32, forcings={"v": 0.2}), eps_values=(1.0, 0.5),
                          trajectory_check=False)
    assert r.passed and r.trajectory == {}


def test_experiment_registry_and_reports(tmp_path):
    assert EXPERIMENTS["h2_uniformity"] is exp_h2_uniformity
    EXPERIMENTS["h2_uniformity"](config(cells=64), outdir=str(tmp_path),
                                 eps_values=(1.0, 0.5), trajectory_check=False)
    assert (tmp_path / "h2_ratios.csv").exists()


def test_reports_deterministic_given_seed():
    a = exp_epsilon_limit(config(cells=32, T=0.02, seed=5), eps_values=(0.3, 0.2), eps0=0.1)
    b = exp_epsilon_limit(config(cells=32, T=0.02, seed=5), eps_values=(0.3, 0.2), eps0=0.1)
    assert report_to_jsonable(a) == report_to_jsonable(b)


def _d1(f, s, h):
    """Fourth-order central first difference of ``f`` at ``s``."""
    return (f(s - 2 * h) - 8 * f(s - h) + 8 * f(s + h) - f(s + 2 * h)) / (12 * h)


def _d2(f, s, h):
    """Fourth-order central second difference of ``f`` at ``s``."""
    return (-f(s - 2 * h) + 16 * f(s - h) - 30 * f(s) + 16 * f(s + h)
            - f(s + 2 * h)) / (12 * h * h)


@pytest.mark.parametrize("epsilon", [0.25, 2.0**-6])
@pytest.mark.parametrize("kappa", [1.0, 1e-2])
def test_manufactured_forcings_solve_the_strong_equations(epsilon, kappa):
    # The closed-form u and v against the strong equations evaluated by
    # finite differences of the returned eta and theta.  The flux varies on
    # the scale eps where theta_x vanishes, so its steps shrink with eps.
    model = reference_model()

    def feta(t, x):
        return _manufactured_forcings(model, epsilon, kappa, t, x)[2]

    def ftheta(t, x):
        return _manufactured_forcings(model, epsilon, kappa, t, x)[3]

    x = np.linspace(0.0, 1.0, 41)
    h, h_flux = 1e-3, epsilon / 500
    for t in (0.0, 0.17, 0.4):
        fu, fv, eta, _ = _manufactured_forcings(model, epsilon, kappa, t, x)
        eta_t = _d1(lambda s: feta(s, x), t, h)
        eta_xx = _d2(lambda s: feta(t, s), x, h)

        def theta_x(s):
            return _d1(lambda r: ftheta(t, r), s, h_flux)

        def flux(s):
            tx = theta_x(s)
            return model.alpha(feta(t, s)) * tx / np.sqrt(epsilon**2 + tx**2) + kappa * tx

        gam = np.sqrt(epsilon**2 + theta_x(x) ** 2)
        u = eta_t - eta_xx + model.g(eta) + model.alpha_d1(eta) * gam
        v = model.alpha0(eta) * _d1(lambda s: ftheta(s, x), t, h) - _d1(flux, x, h_flux)
        np.testing.assert_allclose(fu, u, rtol=0, atol=1e-8 * np.max(np.abs(u)))
        np.testing.assert_allclose(fv, v, rtol=0, atol=1e-7 * np.max(np.abs(v)))


def test_munu_limit_note_names_failed_zero_damping_identity(monkeypatch):
    from kwcflow import experiments
    real_run = experiments.run

    def nudged_run(initial, model, params, forcings, stepper="parabolic", **kwargs):
        traj = real_run(initial, model, params, forcings, stepper=stepper, **kwargs)
        if stepper == "pseudo_parabolic" and params.mu == 0.0 and params.nu == 0.0:
            traj.snapshots[-1].eta = traj.snapshots[-1].eta + 1e-15
        return traj

    monkeypatch.setattr(experiments, "run", nudged_run)
    table = exp_munu_limit(config(), munu_values=(0.2, 0.1, 0.05))
    assert table.extra["zero_damping_identical"] is False
    assert table.passed is False
    assert "zero-damping" in table.notes
    assert "decreasing" not in table.notes
