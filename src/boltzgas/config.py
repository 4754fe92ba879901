"""Run configuration: a single JSON tree validated before any work.

A config names a mode, a collision kernel, usually a background model
and simulation window, and one section of mode-specific parameters.
Configs are meant to be kept as the record of an experiment, so flags
can override only the seed and the output directory.

Every section is a table mapping each key to a field
``(kind, default, check)``:

* ``kind``: ``number``, ``integer``, ``boolean``, ``string``,
  ``mapping``, ``choice``, or a list, ``numbers`` or ``nonempty numbers``;
* ``default``: the value of a missing key, ``_REQUIRED``, or
  ``_OPTIONAL`` for a section that may be left out; a ``None`` default
  also accepts an explicit ``null``;
* ``check``: ``_POSITIVE``, a minimum, the allowed values of a
  ``choice``, or ``None``; a list applies it to every entry.

:func:`_fields` checks a section against its table: unknown keys are
rejected with their path, every value is type- and range-checked, and
nothing is computed until the whole tree is known to be well formed.
A mode's row in ``_MODES`` gives its section name, the sections it
requires and its fields; a model family's row in ``_FAMILIES`` gives
its constructor and its fields.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass, field

from .densities import (
    BKWModel,
    BoxMaxwellianModel,
    GaussianProductModel,
    MollifiedEmpiricalModel,
)
from .engine import SimConfig
from .kernels import HARD_SPHERE, POWER_LAW, KernelSpec

__all__ = ["ConfigError", "RunConfig", "MODES", "load_config", "validate_config"]

_REQUIRED = object()
_OPTIONAL = object()
_POSITIVE = "positive"

_Mode = namedtuple("_Mode", "section requires fields")
_MODEL_SIM = ("model", "sim")

_MODES = {
    "Simulate": _Mode(
        "simulate",
        _MODEL_SIM,
        {"n_paths": ("integer", 1, 1), "log_events": ("boolean", True, None)},
    ),
    "Particles": _Mode(
        "particles",
        ("sim",),
        {
            "n": ("integer", _REQUIRED, 2),
            "h_x": ("number", None, _POSITIVE),
            "h_v": ("number", None, _POSITIVE),
            "dt": ("number", _REQUIRED, _POSITIVE),
            "mode": ("choice", "one_sided", ("one_sided", "symmetric_pair")),
            "box_side": ("number", 1.0, _POSITIVE),
            "vel_var": ("number", 1.0, _POSITIVE),
        },
    ),
    "Picard": _Mode(
        "picard",
        _MODEL_SIM,
        {"n_iterates": ("integer", 6, 2), "n_realizations": ("integer", 100, 2)},
    ),
    # a fixed-time quadrature: the one mode that needs no window
    "CheckInvariants": _Mode(
        "check_invariants",
        ("model",),
        {"t": ("number", 0.0, 0.0), "tolerance": ("number", 1e-6, _POSITIVE)},
    ),
    "Entropy": _Mode(
        "entropy",
        _MODEL_SIM,
        {
            "n_paths": ("integer", _REQUIRED, 10),
            "reference_variance": ("number", None, _POSITIVE),
        },
    ),
    "ExitProb": _Mode(
        "exit_prob",
        _MODEL_SIM,
        {
            "n_paths": ("integer", _REQUIRED, 2),
            "thresholds": ("nonempty numbers", [2.0, 4.0, 8.0, 16.0], _POSITIVE),
        },
    ),
    "Certify": _Mode(
        "certify",
        _MODEL_SIM,
        {"n_time": ("integer", 5, 2), "n_side": ("integer", 4, 1)},
    ),
}

MODES = tuple(_MODES)

_TOP = {
    "mode": ("choice", _REQUIRED, MODES),
    "seed": ("integer", 0, 0),
    "out_dir": ("string", None, None),
    "kernel": ("mapping", _REQUIRED, None),
    "model": ("mapping", _OPTIONAL, None),
    "sim": ("mapping", _OPTIONAL, None),
    "output_times": ("numbers", [], 0.0),
}

_SIM = {
    "horizon": ("number", _REQUIRED, _POSITIVE),
    "level": ("number", 4.0, None),
    "level_step": ("number", 4.0, None),
    "escalate": ("boolean", True, None),
    "collisions": ("boolean", True, None),
    "max_events": ("integer", 1_000_000, 1),
}

# KernelSpec checks the ranges and picks the family's default cutoff
_KERNEL = {
    "gamma": ("number", _REQUIRED, None),
    "c": ("number", _REQUIRED, None),
    "angular": ("choice", _REQUIRED, (HARD_SPHERE, POWER_LAW)),
    "nu": ("number", None, None),
    "epsilon": ("number", None, None),
}

_SIDE = ("number", 1.0, _POSITIVE)
_VEL_VAR = ("number", 1.0, _POSITIVE)
_WIDTH = ("number", _REQUIRED, _POSITIVE)

_FAMILIES = {
    "box_maxwellian": (BoxMaxwellianModel, {"side": _SIDE, "vel_var": _VEL_VAR}),
    "gaussian_product": (
        GaussianProductModel,
        {
            "vel_var": _VEL_VAR,
            "pos_var": ("number", 1.0, _POSITIVE),
            "drift": ("choice", "static", ("static", "free_transport")),
        },
    ),
    "bkw": (
        BKWModel,
        {
            "side": _SIDE,
            "vel_var": _VEL_VAR,
            "c0": ("number", 0.4, _POSITIVE),
            "rate": ("number", 1.0, _POSITIVE),
        },
    ),
    "empirical": (
        lambda snapshot, **kw: MollifiedEmpiricalModel.from_csv(snapshot, **kw),
        {
            "snapshot": ("string", _REQUIRED, None),
            "h_x": _WIDTH,
            "h_v": _WIDTH,
            "side": ("number", None, None),
        },
    ),
}

_FAMILY = ("choice", _REQUIRED, tuple(_FAMILIES))

_TYPES = {
    "number": ((int, float), "a number"),
    "integer": (int, "an integer"),
    "boolean": (bool, "true or false"),
    "string": (str, "a string"),
    "mapping": (dict, "a mapping"),
}


class ConfigError(ValueError):
    """A config violates the schema; the message names the path."""


@dataclass
class RunConfig:
    """Validated run description ready for execution."""

    mode: str
    seed: int
    out_dir: str | None
    kernel: KernelSpec
    model: object | None
    sim: SimConfig | None
    output_times: list[float]
    params: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _value(value, kind, check, where):
    """Type-check one value, apply its range rule and return it parsed."""
    if kind == "choice":
        if value not in check:
            raise ConfigError(
                f"{where}: expected one of {list(check)}, got {value!r}"
            )
        return value
    if kind.endswith("numbers"):
        if not isinstance(value, list) or kind.startswith("nonempty") and not value:
            expected = kind.replace("numbers", "list of numbers")
            raise ConfigError(f"{where}: expected a {expected}, got {value!r}")
        return [
            _value(entry, "number", check, f"{where}[{k}]")
            for k, entry in enumerate(value)
        ]
    types, expected = _TYPES[kind]
    if not isinstance(value, types) or isinstance(value, bool) and kind != "boolean":
        raise ConfigError(f"{where}: expected {expected}, got {value!r}")
    if kind == "number":
        value = float(value)
        # json reads NaN and Infinity, and NaN passes every comparison below
        if not math.isfinite(value):
            raise ConfigError(f"{where}: must be finite, got {value}")
    if check is _POSITIVE and value <= 0.0:
        raise ConfigError(f"{where}: must be positive, got {value}")
    if isinstance(check, (int, float)) and value < check:
        raise ConfigError(f"{where}: must be >= {check}, got {value}")
    return value


def _field(mapping, key, spec, where):
    """Fetch one key of a section, fill in its default and check it."""
    kind, default, check = spec
    if key not in mapping and default is _REQUIRED:
        raise ConfigError(f"{where}: missing required key '{key}'")
    value = mapping.get(key, default)
    if value is _OPTIONAL or value is None and default is None:
        return None
    return _value(value, kind, check, f"{where}.{key}")


def _fields(mapping, fields, where):
    """Validate a section against its field table; return the parsed values."""
    unknown = sorted(set(mapping) - set(fields))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    return {key: _field(mapping, key, spec, where) for key, spec in fields.items()}


def _build(where, make, *args, **kwargs):
    """Call a constructor, reporting its ValueError or OSError at ``where``."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_model(section, base_dir):
    family = _field(section, "family", _FAMILY, "model")
    make, fields = _FAMILIES[family]
    params = _fields(section, {"family": _FAMILY, **fields}, "model")
    del params["family"]
    if "snapshot" in params:
        # a snapshot path is read relative to the config file
        params["snapshot"] = os.path.join(base_dir, params["snapshot"])
    return _build("model", make, **params)


def validate_config(mapping, base_dir="."):
    """Validate a parsed config tree and build the runtime objects.

    Raises :class:`ConfigError` naming the offending path on the first
    violation; on success returns a :class:`RunConfig`.
    """
    if not isinstance(mapping, dict):
        raise ConfigError("config: top level must be a mapping")
    name = _field(mapping, "mode", _TOP["mode"], "config")
    mode = _MODES[name]
    top = _fields(mapping, {**_TOP, mode.section: ("mapping", {}, None)}, "config")
    for key in mode.requires:
        if top[key] is None:
            raise ConfigError(f"config: mode {name} requires a {key} section")
    kernel = _build("kernel", KernelSpec, **_fields(top["kernel"], _KERNEL, "kernel"))
    model = None if top["model"] is None else _build_model(top["model"], base_dir)
    sim = None
    if top["sim"] is not None:
        sim = _build("sim", SimConfig, **_fields(top["sim"], _SIM, "sim"))
    times = top["output_times"]
    if times != sorted(times):
        raise ConfigError("config.output_times: must be nondecreasing")
    for k, t in enumerate(times):
        if sim is not None and t > sim.horizon:
            raise ConfigError(
                f"config.output_times[{k}]: must be <= sim.horizon "
                f"{sim.horizon}, got {t}"
            )
    return RunConfig(
        mode=name,
        seed=top["seed"],
        out_dir=top["out_dir"],
        kernel=kernel,
        model=model,
        sim=sim,
        output_times=times,
        params=_fields(top[mode.section], mode.fields, mode.section),
        raw=mapping,
    )


def load_config(path):
    """Parse and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            mapping = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    return validate_config(mapping, base_dir=os.path.dirname(os.path.abspath(path)))
