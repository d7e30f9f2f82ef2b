"""Run configuration: strict JSON schema, defaults, and field realization.

Configs are plain JSON documents.  Parsing is strict: unknown keys are
rejected with a nearest-match suggestion, every violation is collected
(not just the first), and defaults are filled so that serializing a
parsed config and parsing it again is the identity.  A run manifest
(which embeds its config under the ``config`` key) can be passed anywhere
a config is accepted, which is how runs are reproduced bit-for-bit.
"""

from __future__ import annotations

import difflib
import inspect
import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (Grid, build_grid, bump_field, cosine_field, load_field,
                   random_smooth_field)
from .model import ModelFunctions, Parameters, reference_model
from .evolution import (Forcings, SystemState, check_expression, prepare_initial_theta,
                        run_preconditions)
from .experiments import EXPERIMENTS

__all__ = ["ConfigError", "RunConfig", "parse_config", "parse_config_dict",
           "serialize_config", "default_config_dict"]


class ConfigError(ValueError):
    """Carries the full list of violations found while parsing."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))


_PROFILE_DEFAULTS = {
    "constant": {"value": 0.0},
    "cosine": {"mean": 0.0, "amplitude": 1.0, "mode": 1},
    "random_smooth": {"mean": 0.0, "amplitude": 1.0, "max_mode": 6, "seed_offset": 0},
    "bump": {"center": 0.5, "width": 0.1, "amplitude": 1.0, "baseline": 0.0},
}


def default_config_dict() -> dict:
    return {
        "grid": {"dim": 1, "cells": [64], "extents": [1.0]},
        "params": {"kappa": 1.0, "epsilon": 0.25, "T": 1.0, "dt": None,
                   "mu": 0.0, "nu": 0.0},
        "model": {"name": "reference", "alpha_offset": 0.1, "alpha0_offset": 1.0,
                  "alpha_scale": 1.0, "alpha0_scale": 1.0,
                  "sample_range": [-10.0, 10.0], "n_samples": 100000},
        "initial": {
            "eta": {"profile": "random_smooth", "mean": 1.0, "amplitude": 0.25,
                    "max_mode": 6, "seed_offset": 0},
            "theta": {"profile": "random_smooth", "mean": 0.0, "amplitude": 0.5,
                      "max_mode": 6, "seed_offset": 1},
            "prepare_theta": False,
            "wstar": None,
        },
        "forcings": {"u": None, "v": None},
        "stepper": "parabolic",
        "snapshot_stride": 100,
        "seed": 1234,
        "output_dir": None,
        "experiment": {},
    }


def _check_keys(doc: dict, allowed, path: str, violations: list) -> None:
    for key in doc:
        if key not in allowed:
            hint = difflib.get_close_matches(key, list(allowed), n=1)
            suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
            violations.append(f"{path}{key}: unknown key{suggestion}")


def _merge_section(user: dict, defaults: dict, path: str, violations: list) -> dict:
    if not isinstance(user, dict):
        violations.append(f"{path.rstrip('.')}: expected an object")
        return dict(defaults)
    _check_keys(user, defaults.keys(), path, violations)
    out = dict(defaults)
    out.update({k: v for k, v in user.items() if k in defaults})
    return out


def _normalize_field_spec(spec, path: str, violations: list):
    if not isinstance(spec, dict):
        violations.append(f"{path}: expected an object with 'profile' or 'file'")
        return {"profile": "constant", "value": 0.0}
    if "file" in spec:
        _check_keys(spec, {"file"}, path + ".", violations)
        if not isinstance(spec.get("file"), str):
            violations.append(f"{path}.file: expected a path string")
        return {"file": spec.get("file", "")}
    profile = spec.get("profile")
    if profile not in _PROFILE_DEFAULTS:
        hint = difflib.get_close_matches(str(profile), list(_PROFILE_DEFAULTS), n=1)
        suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
        violations.append(f"{path}.profile: expected one of {sorted(_PROFILE_DEFAULTS)}, "
                          f"got {profile!r}{suggestion}")
        return {"profile": "constant", "value": 0.0}
    defaults = _PROFILE_DEFAULTS[profile]
    _check_keys(spec, defaults.keys() | {"profile"}, path + ".", violations)
    out = {"profile": profile}
    out.update(defaults)
    out.update({k: v for k, v in spec.items() if k in defaults})
    return out


@dataclass
class RunConfig:
    raw: dict
    grid: Grid
    params: Parameters
    model: ModelFunctions
    stepper: str
    snapshot_stride: int
    seed: int
    output_dir: object
    experiment: dict = dc_field(default_factory=dict)

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.raw == other.raw

    # -- realization -------------------------------------------------------

    def _realize_field(self, spec: dict, seed_base: int) -> np.ndarray:
        grid = self.grid
        if "file" in spec:
            fgrid, values = load_field(spec["file"])
            if fgrid != grid:
                raise ConfigError([f"field file {spec['file']}: grid mismatch (file: cells "
                                   f"{fgrid.cells}, extents {fgrid.extents}; config: cells "
                                   f"{grid.cells}, extents {grid.extents})"])
            return values
        profile = spec["profile"]
        if profile == "constant":
            return grid.constant(spec["value"])
        if profile == "cosine":
            return cosine_field(grid, spec["mean"], spec["amplitude"], spec["mode"])
        if profile == "bump":
            return bump_field(grid, spec["center"], spec["width"],
                              spec["amplitude"], spec["baseline"])
        rng = np.random.default_rng(seed_base + int(spec["seed_offset"]))
        return random_smooth_field(grid, rng, spec["mean"], spec["amplitude"],
                                   int(spec["max_mode"]))

    def make_initial_state(self) -> SystemState:
        init = self.raw["initial"]
        eta0 = self._realize_field(init["eta"], self.seed)
        theta0 = self._realize_field(init["theta"], self.seed)
        if init["prepare_theta"]:
            wstar = None
            if init["wstar"] is not None:
                wstar = self._realize_field({"file": init["wstar"]}, self.seed)
            theta0 = prepare_initial_theta(self.grid, eta0, theta0, self.model,
                                           self.params.epsilon, self.params.kappa,
                                           wstar=wstar)
        return SystemState(self.grid, eta0, theta0)

    def make_forcings(self) -> Forcings:
        f = self.raw["forcings"]
        return Forcings(self.grid, u=f["u"], v=f["v"])


def parse_config_dict(doc: dict) -> RunConfig:
    """Validate a config document; raises ConfigError listing all violations."""
    if not isinstance(doc, dict):
        raise ConfigError(["top level: expected a JSON object"])
    if "config" in doc and "versions" in doc:
        doc = doc["config"]   # a manifest was passed; reuse its embedded config

    defaults = default_config_dict()
    violations: list[str] = []
    _check_keys(doc, defaults.keys(), "", violations)

    grid_doc = _merge_section(doc.get("grid", {}), defaults["grid"], "grid.", violations)
    params_doc = _merge_section(doc.get("params", {}), defaults["params"], "params.", violations)
    model_doc = _merge_section(doc.get("model", {}), defaults["model"], "model.", violations)
    forcings_doc = _merge_section(doc.get("forcings", {}), defaults["forcings"],
                                  "forcings.", violations)
    init_doc = _merge_section(doc.get("initial", {}), defaults["initial"], "initial.", violations)
    init_doc["eta"] = _normalize_field_spec(init_doc["eta"], "initial.eta", violations)
    init_doc["theta"] = _normalize_field_spec(init_doc["theta"], "initial.theta", violations)

    if params_doc["dt"] is None:
        try:
            params_doc["dt"] = 1e-3 * float(params_doc["T"])
        except (TypeError, ValueError):
            violations.append("params.T: expected a number")

    grid = None
    try:
        grid = build_grid(grid_doc["dim"], grid_doc["cells"], grid_doc["extents"])
    except (ValueError, TypeError) as exc:
        violations.append(f"grid: {exc}")

    params = None
    try:
        params = Parameters(kappa=params_doc["kappa"], epsilon=params_doc["epsilon"],
                            T=params_doc["T"], dt=params_doc["dt"],
                            mu=params_doc["mu"], nu=params_doc["nu"])
    except (ValueError, TypeError) as exc:
        violations.append(f"params: {exc}")

    model = None
    if model_doc["name"] != "reference":
        violations.append(f"model.name: unknown model {model_doc['name']!r} "
                          "(available: 'reference')")
    else:
        model = reference_model(alpha_offset=model_doc["alpha_offset"],
                                alpha0_offset=model_doc["alpha0_offset"],
                                alpha_scale=model_doc["alpha_scale"],
                                alpha0_scale=model_doc["alpha0_scale"])

    stepper = doc.get("stepper", defaults["stepper"])
    if stepper not in ("parabolic", "pseudo_parabolic"):
        violations.append(f"stepper: expected 'parabolic' or 'pseudo_parabolic', got {stepper!r}")

    if params is not None:
        violations.extend(f"{key}: {msg}" for key, msg in run_preconditions(params, stepper))

    stride = doc.get("snapshot_stride", defaults["snapshot_stride"])
    if not (isinstance(stride, int) and stride >= 1):
        violations.append(f"snapshot_stride: expected a positive integer, got {stride!r}")

    seed = doc.get("seed", defaults["seed"])
    if not (isinstance(seed, int) and seed >= 0):
        violations.append(f"seed: expected a nonnegative integer, got {seed!r}")

    experiment = doc.get("experiment", {})
    if not isinstance(experiment, dict):
        violations.append("experiment: expected an object keyed by experiment name")
        experiment = {}
    else:
        for name, opts in experiment.items():
            if name not in EXPERIMENTS:
                hint = difflib.get_close_matches(name, list(EXPERIMENTS), n=1)
                suggestion = f" (did you mean {hint[0]!r}?)" if hint else ""
                violations.append(f"experiment.{name}: unknown experiment{suggestion}")
                continue
            if not isinstance(opts, dict):
                violations.append(f"experiment.{name}: expected an object of options")
                continue
            allowed = set(inspect.signature(EXPERIMENTS[name]).parameters) - {"outdir"}
            _check_keys(opts, allowed, f"experiment.{name}.", violations)

    for key, expr in (("u", forcings_doc["u"]), ("v", forcings_doc["v"])):
        if expr is not None and not isinstance(expr, (int, float, str)):
            violations.append(f"forcings.{key}: expected null, a number, or an expression string")
        elif isinstance(expr, str) and grid is not None:
            try:
                check_expression(expr, grid.dim)
            except (SyntaxError, ValueError) as exc:
                violations.append(f"forcings.{key}: {exc}")

    if violations:
        raise ConfigError(violations)

    normalized = {
        "grid": grid_doc, "params": params_doc, "model": model_doc,
        "initial": init_doc, "forcings": forcings_doc, "stepper": stepper,
        "snapshot_stride": stride, "seed": seed,
        "output_dir": doc.get("output_dir", None),
        "experiment": experiment,
    }
    return RunConfig(raw=normalized, grid=grid, params=params, model=model,
                     stepper=stepper, snapshot_stride=stride, seed=seed,
                     output_dir=normalized["output_dir"], experiment=experiment)


def parse_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError([f"{path}: not valid JSON ({exc})"]) from exc
    return parse_config_dict(doc)


def serialize_config(config: RunConfig) -> dict:
    return json.loads(json.dumps(config.raw))
