import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import kwcflow
from kwcflow import evolution
from kwcflow.cli import main
from kwcflow.config import ConfigError, parse_config_dict, serialize_config
from kwcflow.elliptic import SolveReport, SolverError
from kwcflow.experiments import EXPERIMENTS
from kwcflow.grid import build_grid, save_field


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# -- parsing ------------------------------------------------------------------


def test_minimal_config_fills_defaults():
    cfg = parse_config_dict({})
    assert cfg.params.dt == pytest.approx(1e-3 * cfg.params.T)
    assert cfg.model.name == "reference"
    assert cfg.stepper == "parabolic"


def test_round_trip_identity():
    cfg = parse_config_dict({"params": {"kappa": 2.0, "T": 0.5},
                             "grid": {"cells": [32]}})
    again = parse_config_dict(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)


def test_kappa_violation_names_assumption():
    with pytest.raises(ConfigError) as excinfo:
        parse_config_dict({"params": {"kappa": -1.0}})
    assert any("(A1)" in v for v in excinfo.value.violations)


def test_unknown_key_suggestion():
    with pytest.raises(ConfigError) as excinfo:
        parse_config_dict({"params": {"kapa": 1.0}})
    assert any("did you mean 'kappa'" in v for v in excinfo.value.violations)


def test_all_violations_collected():
    with pytest.raises(ConfigError) as excinfo:
        parse_config_dict({"params": {"kappa": -1.0},
                           "grid": {"dim": 5, "cells": [4], "extents": [1.0]},
                           "stepper": "magic",
                           "initial": {"eta": {"profile": "wiggle"}}})
    assert len(excinfo.value.violations) >= 4


def test_experiment_options_validated():
    with pytest.raises(ConfigError) as excinfo:
        parse_config_dict({"experiment": {"epsilon_limit": {"eps_value": [0.5]}}})
    assert any("did you mean 'eps_values'" in v for v in excinfo.value.violations)
    with pytest.raises(ConfigError):
        parse_config_dict({"experiment": {"enery_dissipation": {}}})
    # the grid, the parameters and the seed of a study are the config's own sections
    with pytest.raises(ConfigError) as excinfo:
        parse_config_dict({"experiment": {"energy_dissipation": {"cells": 32, "seed": 5}}})
    assert excinfo.value.violations == ["experiment.energy_dissipation.cells: unknown key",
                                        "experiment.energy_dissipation.seed: unknown key"]


def test_initial_field_from_file(tmp_path):
    g = build_grid(1, [64], [1.0])
    rng = np.random.default_rng(0)
    field = rng.standard_normal(g.shape)
    fpath = tmp_path / "eta0.csv"
    save_field(fpath, g, field)
    cfg = parse_config_dict({"initial": {"eta": {"file": str(fpath)}}})
    state = cfg.make_initial_state()
    assert np.array_equal(state.eta, field)


def test_initial_profiles_and_prepare():
    cfg = parse_config_dict({
        "grid": {"cells": [32]},
        "params": {"T": 0.01},
        "initial": {
            "eta": {"profile": "constant", "value": 1.0},
            "theta": {"profile": "cosine", "mean": 0.0, "amplitude": 0.3, "mode": 1},
            "prepare_theta": True,
        },
    })
    state = cfg.make_initial_state()
    assert np.all(state.eta == 1.0)
    # prepared angle solves the unit-weight resolvent: smoother than the raw profile
    assert cfg.grid.norm_v(state.theta) < cfg.grid.norm_v(
        0.3 * np.cos(np.pi * cfg.grid.centers(0)))


def test_manifest_accepted_as_config():
    cfg = parse_config_dict({"params": {"kappa": 1.5}})
    manifest = {"config": serialize_config(cfg), "versions": {"kwcflow": "0"}}
    cfg2 = parse_config_dict(manifest)
    assert cfg2 == cfg


# -- CLI ----------------------------------------------------------------------


def run_config(tmp_path, **overrides):
    doc = {
        "grid": {"dim": 1, "cells": [32], "extents": [1.0]},
        "params": {"kappa": 1.0, "epsilon": 0.25, "T": 0.02, "dt": 1e-3},
        "initial": {
            "eta": {"profile": "cosine", "mean": 1.0, "amplitude": 0.2, "mode": 1},
            "theta": {"profile": "cosine", "mean": 0.0, "amplitude": 0.3, "mode": 2},
        },
        "snapshot_stride": 10,
        "seed": 42,
    }
    doc.update(overrides)
    return write_json(tmp_path / "cfg.json", doc)


def test_cli_run_and_bitwise_rerun(tmp_path):
    cfg = run_config(tmp_path)
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["passed"] is True
    assert (out1 / "timeseries.csv").exists()
    assert (out1 / "snapshots" / "eta_000000.csv").exists()
    # re-running from the manifest reproduces the timeseries bit-for-bit
    assert main(["run", "--config", str(out1 / "manifest.json"),
                 "--out", str(out2)]) == 0
    assert (out1 / "timeseries.csv").read_bytes() == (out2 / "timeseries.csv").read_bytes()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores for two BLAS threads")
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="scipy's cg takes its dot products through BLAS, whose threads "
                   "change the order of summation on a 128x128 grid")
def test_run_replays_bit_for_bit_under_another_blas_thread_count(tmp_path):
    # 2 steps of a circular grain (radius 0.3, tanh width 0.01) on a 128x128 grid
    grid = build_grid(2, [128, 128], [1.0, 1.0])
    x, y = grid.meshgrid()
    theta = tmp_path / "theta0.csv"
    save_field(theta, grid, 0.5 * np.tanh((np.hypot(x - 0.5, y - 0.5) - 0.3) / 0.01))
    cfg = write_json(tmp_path / "cfg.json", {
        "grid": {"dim": 2, "cells": [128, 128], "extents": [1.0, 1.0]},
        "params": {"kappa": 1e-2, "epsilon": 2.0**-6, "T": 2e-3, "dt": 1e-3},
        "initial": {"eta": {"profile": "constant", "value": 1.0}, "theta": {"file": str(theta)}},
        "snapshot_stride": 1})
    src = str(Path(kwcflow.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-m", "kwcflow.cli", "run", "--config", cfg,
                        "--out", str(out)], env=env, check=True, capture_output=True)
        outputs.append({p.relative_to(out): p.read_bytes()
                        for p in (out / "snapshots").iterdir()})
        outputs[-1]["timeseries.csv"] = (out / "timeseries.csv").read_bytes()
    assert outputs[0] == outputs[1]


def test_manifest_names_the_blas_and_lapack_builds(tmp_path, capsys):
    # numpy and scipy each report the BLAS and LAPACK they were built with, offline
    assert main(["run", "--config", run_config(tmp_path), "--out", str(tmp_path / "out")]) == 0
    versions = json.loads((tmp_path / "out" / "manifest.json").read_text())["versions"]
    for module in (np, scipy):
        deps = module.show_config(mode="dicts")["Build Dependencies"]
        for lib in ("blas", "lapack"):
            name, version = deps[lib]["name"], deps[lib]["version"]
            assert versions[f"{module.__name__}_{lib}"] == f"{name} {version}"
    out = capsys.readouterr().out       # the summary line alone: the query prints nothing
    assert out.startswith("run finished") and out.count("\n") == 1


def test_manifest_records_the_blas_thread_setting(tmp_path, monkeypatch):
    # Beside the builds: each BLAS thread variable, null where it is unset, and the core
    # count.  Only the environment is read; no thread is started.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert main(["run", "--config", run_config(tmp_path), "--out", str(tmp_path / "out")]) == 0
    versions = json.loads((tmp_path / "out" / "manifest.json").read_text())["versions"]
    assert versions["blas_threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                                        "MKL_NUM_THREADS": None, "cpu_count": os.cpu_count()}


def test_cli_run_stationary_flat_energy(tmp_path):
    from kwcflow import reference_model
    model = reference_model()
    u = float(model.g(1.0) + model.alpha_d1(1.0) * 0.25)
    cfg = run_config(
        tmp_path,
        initial={"eta": {"profile": "constant", "value": 1.0},
                 "theta": {"profile": "constant", "value": 0.5}},
        forcings={"u": f"{u!r} + 0*x", "v": None},
    )
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "timeseries.csv").read_text().strip().splitlines()[1:]
    totals = [float(r.split(",")[4]) for r in rows]
    assert max(totals) - min(totals) <= 1e-9


def test_cli_experiment(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "grid": {"cells": [64]},
        "experiment": {"h2_uniformity": {"eps_values": [1.0, 0.5], "trajectory_check": False}},
    })
    out = tmp_path / "exp"
    assert main(["experiment", "h2_uniformity", "--config", cfg,
                 "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["passed"] is True
    assert payload["report"]["passed"] == payload["passed"]
    assert payload["experiment"] == "h2_uniformity"
    assert main(["experiment", "nope", "--config", cfg]) == 2


def test_cli_validate(tmp_path):
    good = run_config(tmp_path)
    assert main(["validate", "--config", good]) == 0
    bad = write_json(tmp_path / "bad.json",
                     {"model": {"alpha0_offset": 0.0, "alpha0_scale": 0.0}})
    assert main(["validate", "--config", bad]) == 1


def test_cli_config_error_exit_code(tmp_path):
    cfg = write_json(tmp_path / "broken.json", {"params": {"kapa": 1.0}})
    assert main(["run", "--config", cfg]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    assert main(["run", "--config", str(notjson)]) == 2


@pytest.mark.parametrize("doc,key", [
    ({"forcings": {"u": "foo(x)"}}, "forcings.u"),
    ({"forcings": {"v": "'abc'"}}, "forcings.v"),
    ({"params": {"T": 0.01, "dt": 0.003}}, "params.dt"),
    ({"params": {"mu": 0.1}, "stepper": "parabolic"}, "stepper"),
    ({"params": {"T": math.inf, "dt": 0.001}}, "params"),
    ({"params": {"kappa": math.inf}}, "params"),
])
def test_inputs_run_cannot_start_are_config_violations(tmp_path, doc, key):
    with pytest.raises(ConfigError) as excinfo:
        parse_config_dict(doc)
    assert any(v.startswith(key + ": ") for v in excinfo.value.violations)
    cfg = write_json(tmp_path / "bad.json", doc)
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg]) == 2
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("doc,key,message", [
    ({"initial": {"wstar": "/nonexistent.csv"}}, "initial.wstar",
     "read only when initial.prepare_theta is true"),
    ({"experiment": {"epsilon_limit": {"eps_values": [0.5, 2.0]}}},
     "experiment.epsilon_limit.eps_values", "epsilon must lie in (0, 1], got 2.0"),
    ({"experiment": {"epsilon_limit": {"eps0": 0.0}}},
     "experiment.epsilon_limit.eps0", "epsilon must lie in (0, 1], got 0.0"),
    ({"experiment": {"munu_limit": {"munu_values": [1.5, 0.1]}}},
     "experiment.munu_limit.munu_values", "mu must lie in [0, 1), got 1.5"),
    ({"experiment": {"h2_uniformity": {"eps_values": [-1.0, 0.5], "trajectory_check": False}}},
     "experiment.h2_uniformity.eps_values", "epsilon must be positive, got -1.0"),
    ({"experiment": {"manufactured_convergence": {"T_spatial": -0.1}}},
     "experiment.manufactured_convergence.T_spatial", "T must be positive, got -0.1"),
    ({"experiment": {"manufactured_convergence": {"T_temporal": math.inf}}},
     "experiment.manufactured_convergence.T_temporal", "T must be finite, got inf"),
    ({"experiment": {"manufactured_convergence": {"base_dt": 0.0}}},
     "experiment.manufactured_convergence.base_dt", "dt must satisfy 0 < dt < T, got dt=0.0"),
    ({"experiment": {"manufactured_convergence": {"spatial_cells": [2, 4]}}},
     "experiment.manufactured_convergence.spatial_cells", "need at least 4 cells per axis"),
    ({"experiment": {"manufactured_convergence": {"spatial_cells": [0, 8]}}},
     "experiment.manufactured_convergence.spatial_cells", "need at least 4 cells per axis"),
    # each value alone sets up, but 0.04 / 0.03 rounds to one step, dt = T
    ({"experiment": {"manufactured_convergence": {"base_dt": 0.03, "T_spatial": 0.04}}},
     "experiment.manufactured_convergence.base_dt and T_spatial",
     "dt must satisfy 0 < dt < T, got dt=0.04, T=0.04"),
    # an option that sets up is not named with the pair that fails
    ({"experiment": {"manufactured_convergence": {"base_dt": 0.03, "T_spatial": 0.04,
                                                  "T_temporal": 1.0}}},
     "experiment.manufactured_convergence.base_dt and T_spatial",
     "dt must satisfy 0 < dt < T, got dt=0.04, T=0.04"),
], ids=["wstar", "eps_values", "eps0", "munu_values", "h2_eps_values", "T_spatial",
        "infinite_T_temporal", "base_dt",
        "spatial_cells", "zero_spatial_cells", "base_dt_and_T_spatial",
        "base_dt_and_T_spatial_among_others"])
def test_values_a_run_or_study_would_drop_or_reject_are_config_violations(
        tmp_path, capsys, doc, key, message):
    cfg = write_json(tmp_path / "bad.json", doc)
    out = ["--out", str(tmp_path / "out")]
    for command in (["validate"], ["run", *out], ["experiment", "epsilon_limit", *out]):
        assert main(command + ["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"  - {key}: {message}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("options", [
    {"base_dt": 0.02, "T_spatial": 0.04, "spatial_cells": [4, 8],
     "temporal_dts": [0.1, 0.05], "T_temporal": 0.2},
    # each pair sets up only together: one value alone on the other's default
    # gives a dt that does not fit below T
    {"T_spatial": 0.002, "base_dt": 1e-4},
    {"T_temporal": 0.008, "temporal_dts": [4e-4, 2e-4]},
    {"temporal_dts": [0.8, 0.4], "T_temporal": 2.0},
], ids=["small", "T_spatial_and_base_dt", "T_temporal_small", "temporal_dts_large"])
def test_study_values_that_set_up_are_accepted(options):
    # h2's resolvent takes any positive epsilon, the limit ladders' Parameters (0, 1]
    parse_config_dict({"experiment": {"h2_uniformity": {"eps_values": [2.0, 0.5]},
                                      "manufactured_convergence": options}})


def test_cli_seed_override(tmp_path):
    cfg = run_config(tmp_path, initial={
        "eta": {"profile": "random_smooth", "mean": 1.0, "amplitude": 0.2},
        "theta": {"profile": "random_smooth", "mean": 0.0, "amplitude": 0.3},
    })
    outA, outB, outC = (tmp_path / n for n in ("A", "B", "C"))
    assert main(["run", "--config", cfg, "--out", str(outA)]) == 0
    assert main(["run", "--config", cfg, "--out", str(outB), "--seed", "7"]) == 0
    assert main(["run", "--config", cfg, "--out", str(outC), "--seed", "7"]) == 0
    tsA = (outA / "timeseries.csv").read_bytes()
    tsB = (outB / "timeseries.csv").read_bytes()
    tsC = (outC / "timeseries.csv").read_bytes()
    assert tsB != tsA    # different seed, different initial data
    assert tsB == tsC    # same seed reproduces


def smoke_config(name, T=0.02, **options):
    """A smoke-scale config of study ``name``: 32 cells, dt 1e-3, the given options."""
    return {"grid": {"cells": [32]}, "params": {"T": T, "dt": 1e-3},
            "experiment": {name: options}}


_SMOKE_EXPERIMENTS = {
    "energy_dissipation": smoke_config("energy_dissipation", T=0.05),
    "epsilon_limit": smoke_config("epsilon_limit", eps_values=[0.5, 0.3], eps0=0.2),
    "munu_limit": smoke_config("munu_limit", munu_values=[0.2, 0.1]),
    "continuous_dependence": smoke_config("continuous_dependence"),
    "h2_uniformity": smoke_config("h2_uniformity", eps_values=[1.0, 0.5]),
    "manufactured_convergence": smoke_config(
        "manufactured_convergence", spatial_cells=[16, 32], base_dt=4e-3, T_spatial=0.04,
        temporal_cells=32, temporal_dts=[8e-3, 4e-3], T_temporal=0.08),
}

# per experiment: CSV file -> the report columns it holds, in order (None: not read back)
_ARTIFACT_COLUMNS = {
    "energy_dissipation": lambda r: {"timeseries.csv": None},
    "epsilon_limit": lambda r: {"epsilon_limit.csv": [r["values"], r["errors"]]},
    "munu_limit": lambda r: {"munu_limit.csv": [r["values"], r["errors"]]},
    "continuous_dependence": lambda r: {"gronwall.csv": [r["times"], r["J"]]},
    "h2_uniformity": lambda r: {"h2_ratios.csv": [r["epsilons"], *r["ratios"].values()]},
    "manufactured_convergence": lambda r: {
        f"mms_{kind}.csv": [r[kind]["values"], r[kind]["errors"]]
        for kind in ("spatial", "temporal")},
}


@pytest.mark.parametrize("name", sorted(_SMOKE_EXPERIMENTS))
def test_cli_every_experiment_writes_report_and_exact_tables(tmp_path, name):
    cfg = write_json(tmp_path / "cfg.json", _SMOKE_EXPERIMENTS[name])
    out = tmp_path / "exp"
    code = main(["experiment", name, "--config", cfg, "--out", str(out)])
    payload = json.loads((out / "report.json").read_text())
    assert code == int(not payload["passed"])
    artifacts = _ARTIFACT_COLUMNS[name](payload["report"])
    assert sorted(p.name for p in out.iterdir()) == sorted(["report.json", *artifacts])
    for filename, columns in artifacts.items():
        if columns is None:
            continue
        rows = [line.split(",") for line in (out / filename).read_text().splitlines()[1:]]
        for i, expected in enumerate(columns):
            assert [float(row[i]) for row in rows] == expected
    # the report records the config the study ran on: fed back, it gives the same tables
    again = tmp_path / "again"
    assert main(["experiment", name, "--config", str(out / "report.json"),
                 "--out", str(again)]) == code
    for filename in artifacts:
        assert (again / filename).read_bytes() == (out / filename).read_bytes()


def test_experiment_tables_follow_the_config_grid_and_params(tmp_path):
    base = {"grid": {"cells": [16]}, "params": {"T": 0.02, "dt": 1e-3, "epsilon": 0.25}}
    docs = {"base": base, "cells": {**base, "grid": {"cells": [24]}},
            "epsilon": {**base, "params": {**base["params"], "epsilon": 0.5}}}
    tables = {}
    for name, doc in docs.items():
        out = tmp_path / name
        main(["experiment", "energy_dissipation", "--config",
              write_json(tmp_path / f"{name}.json", doc), "--out", str(out)])
        tables[name] = (out / "timeseries.csv").read_bytes()
    assert tables["cells"] != tables["base"]
    assert tables["epsilon"] != tables["base"]


def test_experiment_refuses_a_config_value_it_cannot_honour(tmp_path, capsys):
    cfg = run_config(tmp_path, forcings={"u": "0.1*cos(pi*x)", "v": None})
    out = tmp_path / "out"
    assert main(["experiment", "energy_dissipation", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "  - forcings.u: energy_dissipation runs unforced" in err and "Traceback" not in err
    assert not out.exists()


# the reference model's inf alpha0 is 1 + 1/101 on [-10, 10] and 1.2 on [-2, 2]
NARROW_RANGE = {"grid": {"cells": [16]}, "params": {"T": 0.005, "dt": 0.001},
                "snapshot_stride": 1, "model": {"sample_range": [-2.0, 2.0], "n_samples": 1000}}


def test_run_and_study_validate_the_model_on_the_config_range(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", NARROW_RANGE)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert main(["experiment", "energy_dissipation", "--config", cfg,
                 "--out", str(tmp_path / "exp")]) == 0
    bounds = json.loads((tmp_path / "run" / "manifest.json").read_text())["model_bounds"]
    assert (bounds["sample_range"], bounds["n_samples"], bounds["delta_alpha"]) == (
        [-2.0, 2.0], 1000, 1.2)
    # the slack's delta_alpha is the one of the config's range in both
    assert ((tmp_path / "run" / "timeseries.csv").read_bytes()
            == (tmp_path / "exp" / "timeseries.csv").read_bytes())


@pytest.mark.parametrize("name", ["energy_dissipation", "continuous_dependence"])
def test_a_study_samples_the_model_on_the_config_range(name):
    config = parse_config_dict(NARROW_RANGE)
    EXPERIMENTS[name](config)
    bounds = config.model.bounds
    assert (bounds.sample_range, bounds.n_samples) == ((-2.0, 2.0), 1000)


def test_a_model_valid_on_the_config_range_runs_in_every_command(tmp_path):
    # alpha0_offset -0.05: inf alpha0 is 0.15 on [-2, 2], -0.04 on [-10, 10]
    cfg = write_json(tmp_path / "cfg.json", {
        **NARROW_RANGE, "model": {**NARROW_RANGE["model"], "alpha0_offset": -0.05}})
    assert main(["validate", "--config", cfg]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    assert main(["experiment", "energy_dissipation", "--config", cfg,
                 "--out", str(tmp_path / "exp")]) == 0


def fail_the_theta_solve_from_call(monkeypatch, first):
    """Make the theta solve of every step from the ``first``-th on raise a SolverError."""
    original, calls = evolution.singular_resolvent, []

    def flaky(problem, **kwargs):
        calls.append(1)
        if len(calls) >= first:
            raise SolverError("synthetic failure", SolveReport(0, 1.0, False))
        return original(problem, **kwargs)

    monkeypatch.setattr(evolution, "singular_resolvent", flaky)


def test_a_failed_run_writes_the_steps_before_it(tmp_path, monkeypatch, capsys):
    fail_the_theta_solve_from_call(monkeypatch, 4)
    out = tmp_path / "out"
    assert main(["run", "--config", run_config(tmp_path, snapshot_stride=1),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "run failed: theta solve failed at t=0.004: synthetic failure" in err
    assert "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is False
    assert manifest["failures"] == ["theta solve failed at t=0.004: synthetic failure"]
    assert manifest["steps"]["count"] == 3
    # the step fields that can vary from run to run; each list has one entry per step
    assert sorted(manifest["steps"]) == ["count", "theta_iterations", "theta_residuals"]
    assert len(manifest["steps"]["theta_iterations"]) == 3
    assert len(manifest["steps"]["theta_residuals"]) == 3
    rows = (out / "timeseries.csv").read_text().splitlines()[1:]
    assert len(rows) == 4                # the initial state and three steps
    assert float(rows[0].split(",")[4]) == manifest["energy_start"]
    assert float(rows[-1].split(",")[4]) == manifest["energy_end"]
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == sorted(
        f"{field}_{k:06d}.csv" for field in ("eta", "theta") for k in range(4))


def test_a_run_failing_between_snapshots_keeps_its_last_state(tmp_path, monkeypatch, capsys):
    # Stride 10 and a failure at step 14: the snapshots are steps 0 and 10 of the
    # stride and step 13, the last completed one, which a run that ends there writes too.
    params = {"kappa": 1.0, "epsilon": 0.25, "T": 0.02, "dt": 1e-3}
    ended = tmp_path / "ended"
    assert main(["run", "--config", run_config(tmp_path, params=dict(params, T=0.013)),
                 "--out", str(ended)]) == 0
    fail_the_theta_solve_from_call(monkeypatch, 14)
    out = tmp_path / "out"
    assert main(["run", "--config", run_config(tmp_path, params=params),
                 "--out", str(out)]) == 1
    assert "run failed: theta solve failed at t=0.014: synthetic failure" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["steps"]["count"] == 13
    rows = (out / "timeseries.csv").read_text().splitlines()
    assert [float(row.split(",")[0]) for row in rows[1:]] == pytest.approx([0.0, 0.01, 0.013])
    assert float(rows[-1].split(",")[4]) == manifest["energy_end"]
    assert rows == (ended / "timeseries.csv").read_text().splitlines()
    names = sorted(f"{field}_{k:06d}.csv" for field in ("eta", "theta") for k in range(3))
    assert sorted(p.name for p in (out / "snapshots").iterdir()) == names
    for name in names:
        assert (out / "snapshots" / name).read_bytes() == (ended / "snapshots" / name).read_bytes()


def test_a_failed_study_writes_its_report(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    bad_model = write_json(tmp_path / "bad.json",
                           {"model": {"alpha0_offset": 0.0, "alpha0_scale": 0.0}})
    assert main(["experiment", "h2_uniformity", "--config", bad_model,
                 "--out", str(out)]) == 1
    payload = json.loads((out / "report.json").read_text())
    assert payload["passed"] is False and "report" not in payload
    assert payload["failures"] == ["(A3): inf alpha0 = 0.000e+00 is not positive"]
    fail_the_theta_solve_from_call(monkeypatch, 2)
    assert main(["experiment", "energy_dissipation", "--config", run_config(tmp_path),
                 "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    payload = json.loads((out / "report.json").read_text())
    assert payload["passed"] is False and "report" not in payload
    assert payload["failures"] == ["theta solve failed at t=0.002: synthetic failure"]


@pytest.mark.parametrize("cells,extents", [([32], [1.0]), ([64], [2.0])])
def test_wstar_file_on_another_grid_is_a_config_error(tmp_path, capsys, cells, extents):
    other = build_grid(1, cells, extents)
    wstar = tmp_path / "wstar.csv"
    save_field(wstar, other, other.constant(0.1))
    cfg = run_config(tmp_path, grid={"dim": 1, "cells": [64], "extents": [1.0]}, initial={
        "eta": {"profile": "constant", "value": 1.0},
        "theta": {"profile": "cosine", "mean": 0.0, "amplitude": 0.3, "mode": 1},
        "prepare_theta": True,
        "wstar": str(wstar),
    })
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(wstar) in err
    assert (f"file: cells {other.cells}, extents {other.extents}; "
            "config: cells (64,), extents (1.0,)") in err


def run_with_broken_field_file(tmp_path, capsys, break_rows):
    """stderr of a ``run`` whose theta0 file has its rows changed by ``break_rows``,
    after checking that the run exits 2 and names the file."""
    g = build_grid(1, [32], [1.0])
    theta = tmp_path / "theta0.csv"
    save_field(theta, g, g.constant(0.1))
    rows = theta.read_text().splitlines()
    theta.write_text("\n".join(break_rows(rows)) + "\n")
    cfg = run_config(tmp_path, initial={"eta": {"profile": "constant", "value": 1.0},
                                        "theta": {"file": str(theta)}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(theta) in err and "Traceback" not in err
    return err


def test_field_file_with_a_repeated_row_is_a_config_error(tmp_path, capsys):
    err = run_with_broken_field_file(tmp_path, capsys,
                                     lambda rows: rows[:2] + [rows[1]] + rows[3:])   # cell 1 lost
    assert "line 3: cell index 0" in err

    def bad_index(rows):
        rows[3] = "x2" + rows[3][1:]
        return rows
    err = run_with_broken_field_file(tmp_path, capsys, bad_index)
    assert "line 4: invalid literal for int() with base 10: 'x2'" in err


def test_field_file_with_a_non_finite_value_is_a_config_error(tmp_path, capsys):
    for value, message in (("nan", "line 6: value nan is not finite"),
                           ("abc", "line 6: could not convert string to float: 'abc'")):
        def bad_value(rows):
            rows[5] = rows[5].rpartition(",")[0] + "," + value
            return rows
        assert message in run_with_broken_field_file(tmp_path, capsys, bad_value)


def test_missing_field_file_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    cfg = run_config(tmp_path, initial={"eta": {"profile": "constant", "value": 1.0},
                                        "theta": {"file": str(missing)}})
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert str(missing) in err and "Traceback" not in err


@pytest.mark.parametrize("doc,key", [
    ({"model": {"alpha_offset": "x"}}, "model.alpha_offset"),
    ({"model": {"n_samples": "many"}}, "model.n_samples"),
    ({"model": {"sample_range": 3}}, "model.sample_range"),
    ({"model": {"sample_range": [1.0, -1.0]}}, "model.sample_range"),
    ({"initial": {"eta": {"profile": "constant", "value": "x"}}}, "initial.eta.value"),
    ({"initial": {"theta": {"profile": "cosine", "mode": "x"}}}, "initial.theta.mode"),
    ({"initial": {"theta": {"profile": "cosine", "mode": [1, 2]}}}, "initial.theta.mode"),
    ({"initial": {"prepare_theta": "yes"}}, "initial.prepare_theta"),
    ({"initial": {"wstar": 3}}, "initial.wstar"),
    ({"params": {"kappa": True}}, "params.kappa"),
    ({"snapshot_stride": True}, "snapshot_stride"),
    ({"seed": True}, "seed"),
    ({"model": {"n_samples": 0}}, "model.n_samples"),
    ({"model": {"n_samples": -3}}, "model.n_samples"),
    ({"grid": {"dim": 1, "cells": [4.5], "extents": [1.0]}}, "grid.cells"),
    ({"grid": {"dim": 1, "cells": [4], "extents": ["1.0"]}}, "grid.extents"),
    ({"experiment": {"epsilon_limit": {"eps_values": "abc"}}},
     "experiment.epsilon_limit.eps_values"),
    ({"experiment": {"continuous_dependence": {"perturb": "nothing"}}},
     "experiment.continuous_dependence.perturb"),
    ({"experiment": {"h2_uniformity": {"eps_values": []}}}, "experiment.h2_uniformity.eps_values"),
    ({"experiment": {"munu_limit": {"munu_values": [0.1]}}}, "experiment.munu_limit.munu_values"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_wrong_typed_values_are_config_violations(tmp_path, capsys, doc, key):
    cfg = write_json(tmp_path / "bad.json", doc)
    out = ["--out", str(tmp_path / "out")]
    for command in (["validate"], ["run", *out], ["experiment", "continuous_dependence", *out]):
        assert main(command + ["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"  - {key}: expected" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_per_axis_mode_and_center_are_accepted():
    cfg = parse_config_dict({
        "grid": {"dim": 2, "cells": [8, 6], "extents": [1.0, 0.75]},
        "initial": {"eta": {"profile": "bump", "center": [0.5, 0.25], "baseline": 1},
                    "theta": {"profile": "cosine", "mode": [1, 2]}}})
    state = cfg.make_initial_state()
    x, y = cfg.grid.meshgrid()
    assert np.array_equal(state.theta, np.cos(np.pi * x) * np.cos(2 * np.pi * y / 0.75))
