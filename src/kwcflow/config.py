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
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .grid import (Grid, build_grid, bump_field, cosine_field, load_field,
                   random_smooth_field)
from .model import ModelFunctions, Parameters, reference_model
from .evolution import (Forcings, SystemState, check_expression, prepare_initial_theta,
                        run_preconditions)
from .experiments import EXPERIMENTS, PERTURBATIONS, option_problems

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

# reference_model's numeric overrides and their defaults, in its signature's order
_REFERENCE_DEFAULTS = {name: parameter.default for name, parameter
                       in inspect.signature(reference_model).parameters.items()}


def default_config_dict() -> dict:
    return {
        "grid": {"dim": 1, "cells": [64], "extents": [1.0]},
        "params": {"kappa": 1.0, "epsilon": 0.25, "T": 1.0, "dt": None,
                   "mu": 0.0, "nu": 0.0},
        "model": {"name": "reference", **_REFERENCE_DEFAULTS,
                  "sample_range": list(ModelFunctions.sample_range),
                  "n_samples": ModelFunctions.n_samples},
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


def _fits(value, default) -> bool:
    """A bool stands only for a bool, an int for an int or a float, a float only for a float."""
    kinds = (int, float) if type(default) is float else type(default)
    return isinstance(value, kinds) and isinstance(value, bool) == isinstance(default, bool)


_KINDS = {bool: ("a boolean", "booleans"), int: ("an integer", "integers"),
          float: ("a number", "numbers")}


def _check_leaves(doc: dict, defaults: dict, path: str, violations: list, axes=None) -> bool:
    """Check by :func:`_fits` each value whose default is a bool, an int or a float,
    and each element of a list whose default is a list, against the default's first
    element; ``mode`` and ``center`` also take one per axis.  True when every one fits."""
    ok = True
    for key, default in defaults.items():
        value, listed = doc[key], isinstance(default, list)
        per_axis = key in ("mode", "center")
        if listed:          # None stands for a value that is not a list: it fits no default
            default, values = default[0], value if isinstance(value, list) else [None]
        else:
            several = per_axis and isinstance(value, list) and len(value) == (axes or len(value))
            values = value if several else [value]
        if type(default) in (bool, int, float) and not all(_fits(v, default) for v in values):
            one, many = _KINDS[type(default)]
            kind = f"a list of {many}" if listed else one + (" or one per axis" if per_axis else "")
            violations.append(f"{path}{key}: expected {kind}, got {value!r}")
            ok = False
    return ok


def _normalize_field_spec(spec, path: str, violations: list, axes):
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
    _check_leaves(out, defaults, path + ".", violations, axes)
    return out


def _check_options(opts: dict, name: str, grid, params, path: str, violations: list) -> None:
    """Check study ``name``'s options by name and by :func:`_check_leaves` against its
    keyword defaults after ``config`` and ``outdir``; a tuple default is a ladder and
    takes a list of two values or more.  With a valid ``grid`` and ``params``, what
    :func:`~kwcflow.experiments.option_problems` finds the study's setup would reject
    is a violation naming its option."""
    defaults = {p.name: list(p.default) if isinstance(p.default, tuple) else p.default
                for p in list(inspect.signature(EXPERIMENTS[name]).parameters.values())[2:]}
    _check_keys(opts, defaults, path, violations)
    given = {key: default for key, default in defaults.items() if key in opts}
    ok = _check_leaves(opts, given, path, violations)
    for key, default in given.items():
        if isinstance(default, list) and isinstance(opts[key], list) and len(opts[key]) < 2:
            violations.append(f"{path}{key}: expected a ladder of two values or more, "
                              f"got {opts[key]!r}")
            ok = False
    if "perturb" in given and opts["perturb"] not in PERTURBATIONS:
        violations.append(f"{path}perturb: expected one of {list(PERTURBATIONS)}, "
                          f"got {opts['perturb']!r}")
    if ok and grid is not None and params is not None:
        violations.extend(f"{path}{key}: {msg}"
                          for key, msg in option_problems(name, grid, params, defaults, opts))


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
            try:
                fgrid, values = load_field(spec["file"])
            except (OSError, ValueError) as exc:
                raise ConfigError([f"field file {spec['file']}: {exc}"]) from exc
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

    grid = None
    try:
        if _check_leaves(grid_doc, defaults["grid"], "grid.", violations):
            grid = build_grid(grid_doc["dim"], grid_doc["cells"], grid_doc["extents"])
    except (ValueError, TypeError) as exc:
        violations.append(f"grid: {exc}")
    for name in ("eta", "theta"):
        init_doc[name] = _normalize_field_spec(init_doc[name], f"initial.{name}", violations,
                                               grid and grid.dim)
    _check_leaves(init_doc, defaults["initial"], "initial.", violations)
    if not (init_doc["wstar"] is None or isinstance(init_doc["wstar"], str)):
        violations.append(f"initial.wstar: expected null or a path, got {init_doc['wstar']!r}")
    elif init_doc["wstar"] is not None and init_doc["prepare_theta"] is False:
        violations.append("initial.wstar: read only when initial.prepare_theta is true; "
                          "set that or leave wstar null")

    if params_doc["dt"] is None:
        try:
            params_doc["dt"] = 1e-3 * float(params_doc["T"])
        except (TypeError, ValueError):
            violations.append("params.T: expected a number")

    params = None
    try:
        if _check_leaves(params_doc, defaults["params"], "params.", violations):
            params = Parameters(kappa=params_doc["kappa"], epsilon=params_doc["epsilon"],
                                T=params_doc["T"], dt=params_doc["dt"],
                                mu=params_doc["mu"], nu=params_doc["nu"])
    except (ValueError, TypeError) as exc:
        violations.append(f"params: {exc}")

    model = None
    model_leaves_ok = _check_leaves(model_doc, defaults["model"], "model.", violations)
    lo_hi, n_samples = model_doc["sample_range"], model_doc["n_samples"]
    if model_leaves_ok and not (len(lo_hi) == 2 and lo_hi[0] < lo_hi[1]):
        violations.append(f"model.sample_range: expected two numbers lo < hi, got {lo_hi!r}")
    if model_leaves_ok and n_samples < 1:
        violations.append(f"model.n_samples: expected a positive integer, got {n_samples!r}")
    if model_doc["name"] != "reference":
        violations.append(f"model.name: unknown model {model_doc['name']!r} "
                          "(available: 'reference')")
    elif model_leaves_ok:
        try:
            model = replace(reference_model(**{key: model_doc[key] for key in _REFERENCE_DEFAULTS}),
                            sample_range=tuple(lo_hi), n_samples=n_samples)
        except (ValueError, TypeError) as exc:
            violations.append(f"model: {exc}")

    stepper = doc.get("stepper", defaults["stepper"])
    if stepper not in ("parabolic", "pseudo_parabolic"):
        violations.append(f"stepper: expected 'parabolic' or 'pseudo_parabolic', got {stepper!r}")

    if params is not None:
        violations.extend(f"{key}: {msg}" for key, msg in run_preconditions(params, stepper))

    stride = doc.get("snapshot_stride", defaults["snapshot_stride"])
    if not (_fits(stride, defaults["snapshot_stride"]) and stride >= 1):
        violations.append(f"snapshot_stride: expected a positive integer, got {stride!r}")

    seed = doc.get("seed", defaults["seed"])
    if not (_fits(seed, defaults["seed"]) and seed >= 0):
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
            _check_options(opts, name, grid, params, f"experiment.{name}.", violations)

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
