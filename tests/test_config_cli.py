import json

import numpy as np
import pytest

from kwcflow.cli import main
from kwcflow.config import ConfigError, parse_config_dict, serialize_config
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
        parse_config_dict({"experiment": {"energy_dissipation": {"dtt": 1e-3}}})
    assert any("did you mean 'dt'" in v for v in excinfo.value.violations)
    with pytest.raises(ConfigError):
        parse_config_dict({"experiment": {"enery_dissipation": {}}})


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
        "experiment": {"h2_uniformity": {"cells": 64, "eps_values": [1.0, 0.5],
                                         "trajectory_check": False}},
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


_SMOKE_EXPERIMENTS = {
    "energy_dissipation": {"T": 0.05, "cells": 32},
    "epsilon_limit": {"T": 0.02, "cells": 32, "eps_values": [0.5, 0.3], "eps0": 0.2},
    "munu_limit": {"T": 0.02, "cells": 32, "munu_values": [0.2, 0.1]},
    "continuous_dependence": {"T": 0.02, "cells": 32},
    "h2_uniformity": {"cells": 32, "eps_values": [1.0, 0.5], "T": 0.02},
    "manufactured_convergence": {"spatial_cells": [16, 32], "base_dt": 4e-3,
                                 "T_spatial": 0.04, "temporal_cells": 32,
                                 "temporal_dts": [8e-3, 4e-3], "T_temporal": 0.08},
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
    cfg = write_json(tmp_path / "cfg.json", {"experiment": {name: _SMOKE_EXPERIMENTS[name]}})
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
