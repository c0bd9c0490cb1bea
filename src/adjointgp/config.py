"""Strict INI-style experiment configuration.

The format is deliberately small: full-line ``#`` comments, ``[section]``
headers, and ``key = value`` pairs.  Parsing is strict: unknown sections,
unknown keys, duplicates, type errors, and missing required keys all raise
ConfigError naming the offending field.  Which keys are required depends on
the system kind (ode, pde, shift) and the sensor rule.  Each sign bound is
stated once, in `_SIGNS`, and checked before the rules that compare values
or take their roots; every grid axis needs at least 2 cells, as in `Grid`.

`canonical_text` re-emits a parsed configuration with defaults filled in,
sections and keys in a fixed order, and floats in shortest round-trip form,
so `config_hash` is stable across cosmetic rewrites of the same experiment.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["Config", "parse_config", "load_config", "canonical_text", "config_hash"]

KINDS = ("ode", "pde", "shift")
SENSOR_RULES = ("tile", "span", "list", "grid")
SYNTH_MODES = ("forward", "linear")
SIGMA_MAX = 1e100  # [noise] sigma; from about 1e154 on the MCMC target overflows

# value kinds: int, float, str, int_list, float_list; a list entry parses as
# its scalar kind.  Sections are listed in canonical_text's order.
_SECTIONS = {
    "system": {
        "kind": "str",
        "p0": "float", "p1": "float", "p2": "float",
        "velocity_x": "float", "velocity_y": "float", "diffusivity": "float",
        "x_min": "float", "x_max": "float", "y_min": "float", "y_max": "float",
        "a": "float",
        "T": "float",
    },
    "grid": {
        "cells": "int",
        "cells_t": "int", "cells_y": "int", "cells_x": "int",
    },
    "kernel": {
        "lengthscale": "float",
        "variance": "float",
        "lengthscale_per_axis": "float_list",
    },
    "features": {"count": "int", "truth_count": "int"},
    "sensors": {
        "rule": "str", "count": "int", "size": "float",
        "t_start": "float", "t_end": "float",
        "time_windows": "int", "times": "float_list",
        "heldout_count": "int",
    },
    "noise": {"sigma": "float"},
    "seeds": {"data": "int", "basis": "int", "noise": "int"},
    "inference": {"method": "str", "samples": "int", "ridge": "float", "synth": "str"},
    "mcmc": {
        "steps": "int", "burn_in": "int", "batch_size": "int",
        "proposal_scale": "float", "seed": "int",
    },
    "sweep": {"sensors": "int_list", "features": "int_list", "replicates": "int"},
    "scan": {"lengthscale": "float_list", "variance": "float_list", "samples": "int"},
}

_KIND_SYSTEM_KEYS = {
    "ode": ("p0", "p1", "p2", "T"),
    "pde": ("velocity_x", "velocity_y", "diffusivity",
            "x_min", "x_max", "y_min", "y_max", "T"),
    "shift": ("a", "T"),
}

_DEFAULTS = {
    ("features", "truth_count"): 1000,
    ("sensors", "size"): 0.0,
    ("sensors", "time_windows"): 1,
    ("sensors", "heldout_count"): 0,
    ("seeds", "data"): 0,
    ("seeds", "basis"): 1,
    ("seeds", "noise"): 2,
    # method, samples and ridge are ignored (one estimator; predictive scores
    # are exact), but kept: canonical_text writes them into every bundle's
    # config.txt and hash, so old bundles keep loading
    ("inference", "method"): "bayes",
    ("inference", "samples"): 100,
    ("inference", "ridge"): 0.0,
    ("inference", "synth"): "forward",
    ("mcmc", "steps"): 20000,
    ("mcmc", "burn_in"): 4000,
    ("mcmc", "batch_size"): 5,
    ("mcmc", "proposal_scale"): 0.0,  # 0 means tune automatically
    ("mcmc", "seed"): 0,
    ("scan", "samples"): 100,  # ignored, kept for the same reason
}

# a scalar kind's parser and its name, one and many, in error messages
_NUMBERS = {"int": (int, "an integer", "integers"), "float": (float, "a number", "numbers")}

# keys that, when present, must be positive (True) or nonnegative (False)
_SIGNS = {
    ("system", "T"): True, ("system", "diffusivity"): True,
    ("kernel", "lengthscale"): True, ("kernel", "variance"): True,
    ("features", "count"): True, ("features", "truth_count"): True,
    ("sensors", "count"): True, ("sensors", "time_windows"): True,
    ("sensors", "size"): False, ("sensors", "heldout_count"): False,
    ("noise", "sigma"): False, ("seeds", "basis"): False, ("mcmc", "seed"): False,
    ("inference", "samples"): True,
    ("mcmc", "steps"): True, ("mcmc", "batch_size"): True, ("mcmc", "proposal_scale"): False,
    ("sweep", "replicates"): True,
    ("scan", "samples"): True,
}

# keys of the removed maximum-likelihood route: each accepts only its default
_RETIRED = (("inference", "method"), ("inference", "ridge"))


@dataclass(frozen=True)
class Config:
    """Validated experiment configuration with defaults applied."""

    data: dict

    def __getitem__(self, section: str) -> dict:
        return self.data[section]

    def __contains__(self, section: str) -> bool:
        return section in self.data

    @property
    def kind(self) -> str:
        return self.data["system"]["kind"]


def _coerce(section: str, key: str, raw: str):
    kind = _SECTIONS[section][key]
    if kind == "str":
        return raw
    listed = kind.endswith("_list")
    parse, one, many = _NUMBERS[kind.removesuffix("_list")]
    where = f"'{key}' in [{section}]"
    try:
        value = tuple(map(parse, raw.split(","))) if listed else parse(raw)
    except ValueError:
        want = f"comma-separated {many}" if listed else one
        raise ConfigError(f"value for {where} must be {want} (got {raw!r})") from None
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"value for {where} must be finite (got {raw!r})")
    return value


def _parse_lines(text: str) -> dict:
    sections: dict[str, dict] = {}
    current: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}] (line {lineno})")
            if name in sections:
                raise ConfigError(f"duplicate section [{name}] (line {lineno})")
            sections[name] = {}
            current = name
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value' (line {lineno}: {stripped!r})")
        if current is None:
            raise ConfigError(f"key outside any section (line {lineno})")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SECTIONS[current]:
            raise ConfigError(f"unknown key '{key}' in [{current}] (line {lineno})")
        if key in sections[current]:
            raise ConfigError(f"duplicate key '{key}' in [{current}] (line {lineno})")
        if raw == "":
            raise ConfigError(f"empty value for '{key}' in [{current}] (line {lineno})")
        sections[current][key] = _coerce(current, key, raw)
    return sections


def _require(sections: dict, section: str, key: str, context: str = ""):
    tail = f" {context}" if context else ""
    if section not in sections:
        raise ConfigError(f"missing required section [{section}]{tail}")
    if key not in sections[section]:
        raise ConfigError(f"missing required key '{key}' in [{section}]{tail}")
    return sections[section][key]


def _forbid(sections: dict, section: str, key: str, why: str):
    if key in sections.get(section, {}):
        raise ConfigError(f"key '{key}' in [{section}] {why}")


def _positive(sections: dict, section: str, key: str, strict: bool = True) -> None:
    """Refuse `key` in `section` unless it is positive (nonnegative when not
    `strict`); an absent key passes."""
    value = sections.get(section, {}).get(key)
    if value is not None and not (value > 0 if strict else value >= 0):
        bound = "positive" if strict else "nonnegative"
        raise ConfigError(f"'{key}' in [{section}] must be {bound} (got {value})")


def _one_of(value, allowed: tuple, section: str, key: str):
    if value not in allowed:
        raise ConfigError(f"'{key}' in [{section}] must be one of {allowed} (got {value!r})")
    return value


def _validate(sections: dict) -> dict:
    # signs first: the rules below compare, take roots of and divide these values
    for (section, key), strict in _SIGNS.items():
        _positive(sections, section, key, strict)

    kind = _one_of(_require(sections, "system", "kind"), KINDS, "system", "kind")
    allowed_system = set(_KIND_SYSTEM_KEYS[kind]) | {"kind"}
    for key in sections["system"]:
        if key not in allowed_system:
            raise ConfigError(f"key '{key}' in [system] does not apply to kind '{kind}'")
    for key in _KIND_SYSTEM_KEYS[kind]:
        _require(sections, "system", key, f"for kind '{kind}'")
    system = sections["system"]
    if kind == "pde":
        for lo_key, hi_key in (("x_min", "x_max"), ("y_min", "y_max")):
            if system[lo_key] >= system[hi_key]:
                raise ConfigError(f"'{lo_key}' must be below '{hi_key}' in [system]")
    if kind == "ode" and system["p2"] == 0.0:
        raise ConfigError("'p2' in [system] must be nonzero for kind 'ode'")
    if kind == "shift" and abs(system["a"]) >= system["T"]:
        raise ConfigError("'a' in [system] must satisfy |a| < T")

    cell_keys = ("cells_t", "cells_y", "cells_x")
    if kind == "pde":
        _forbid(sections, "grid", "cells", "applies only to one-dimensional kinds")
    else:
        for key in cell_keys:
            _forbid(sections, "grid", key, "applies only to kind 'pde'")
        cell_keys = ("cells",)
    for key in cell_keys:
        cells = _require(sections, "grid", key, f"for kind '{kind}'")
        if cells < 2:  # the bound `Grid` puts on every axis
            raise ConfigError(f"'{key}' in [grid] must be at least 2: every grid axis "
                              f"needs 2 cells (got {cells})")

    _forbid(sections, "kernel", "lengthscale_per_axis",
            "is reserved and not implemented; use a single 'lengthscale'")
    _require(sections, "kernel", "lengthscale")
    _require(sections, "kernel", "variance")
    _require(sections, "features", "count")

    rule = _one_of(_require(sections, "sensors", "rule"), SENSOR_RULES, "sensors", "rule")
    sensors = sections["sensors"]
    if rule == "list":
        _require(sections, "sensors", "times", "for rule 'list'")
        _forbid(sections, "sensors", "count", "conflicts with rule 'list'")
        if sensors.get("heldout_count", 0) != 0:
            raise ConfigError(
                "'heldout_count' in [sensors] requires rule 'tile', 'span', or 'grid'"
            )
        if kind == "pde":
            raise ConfigError("rule 'list' applies only to one-dimensional kinds")
    else:
        _require(sections, "sensors", "count", f"for rule '{rule}'")
        _forbid(sections, "sensors", "times", f"conflicts with rule '{rule}'")
    if rule == "grid":
        if kind != "pde":
            raise ConfigError("rule 'grid' applies only to kind 'pde'")
        for key in ("count", "heldout_count"):
            value = sensors.get(key, 0)
            if math.isqrt(value) ** 2 != value:
                raise ConfigError(f"'{key}' in [sensors] must be a perfect square for rule 'grid'")
    elif kind == "pde":
        raise ConfigError("kind 'pde' requires sensor rule 'grid'")
    t_start = sensors.setdefault("t_start", 0.0)
    t_end = sensors.setdefault("t_end", system["T"])
    if not 0.0 <= t_start < t_end <= system["T"]:
        raise ConfigError(
            "'t_start' and 't_end' in [sensors] must satisfy 0 <= t_start < t_end <= T"
        )

    if (sigma := _require(sections, "noise", "sigma")) > SIGMA_MAX:
        raise ConfigError(f"'sigma' in [noise] must be at most {SIGMA_MAX:g} (got {sigma})")
    for section, key in _RETIRED:
        value, only = sections.get(section, {}).get(key), _DEFAULTS[(section, key)]
        if value is not None and value != only:
            raise ConfigError(f"'{key}' in [{section}] must be {only!r}: the maximum-"
                              f"likelihood route was removed (got {value!r})")
    _one_of(sections.get("inference", {}).get("synth", _DEFAULTS[("inference", "synth")]),
            SYNTH_MODES, "inference", "synth")

    if "mcmc" in sections:
        steps = sections["mcmc"].get("steps", _DEFAULTS[("mcmc", "steps")])
        if not 0 <= sections["mcmc"].get("burn_in", 0) < steps:  # a missing one is filled below
            raise ConfigError("'burn_in' in [mcmc] must lie in [0, steps)")

    if "sweep" in sections:
        for key in ("sensors", "features", "replicates"):
            _require(sections, "sweep", key, "for a sweep run")
        for key in ("sensors", "features"):
            values = sections["sweep"][key]
            if min(values) < 1:
                raise ConfigError(f"'{key}' in [sweep] must be positive integers")
            if len(set(values)) < len(values):  # one lattice point, one cell directory
                raise ConfigError(f"'{key}' in [sweep] repeats a value")
        if kind == "pde" and any(math.isqrt(v) ** 2 != v for v in sections["sweep"]["sensors"]):
            raise ConfigError("'sensors' in [sweep] must be perfect squares for kind 'pde'")

    if "scan" in sections:
        for key in ("lengthscale", "variance"):
            triple = _require(sections, "scan", key, "for a hyperparameter scan")
            if len(triple) != 3 or not 0 < triple[0] <= triple[1] < math.inf or not (
                    triple[2] >= 1 and triple[2] % 1 == 0):
                raise ConfigError(f"'{key}' in [scan] must be 'lo,hi,steps' with "
                                  "0 < lo <= hi and steps a whole number >= 1")
            if triple[0] == triple[1] and triple[2] > 1:
                raise ConfigError(f"'{key}' in [scan] has lo == hi, so steps must be 1")

    # fill remaining defaults
    filled = {name: dict(body) for name, body in sections.items()}
    for (section, key), default in _DEFAULTS.items():
        if section in ("mcmc", "sweep", "scan") and section not in filled:
            continue
        filled.setdefault(section, {})
        filled[section].setdefault(key, default)
    if "mcmc" in filled:
        steps = filled["mcmc"]["steps"]
        if filled["mcmc"]["burn_in"] >= steps:
            filled["mcmc"]["burn_in"] = steps // 5
        if steps - filled["mcmc"]["burn_in"] < 4:  # batch means and split R-hat need 4
            raise ConfigError("[mcmc] must keep at least 4 draws: steps - burn_in >= 4")
    return filled


def parse_config(text: str) -> Config:
    """Parse and validate configuration text."""
    return Config(_validate(_parse_lines(text)))


def load_config(path) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config(text)


def _format_value(value) -> str:
    if isinstance(value, bool):
        raise TypeError("no boolean config values exist")
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def canonical_text(config: Config) -> str:
    """Fixed-order rendering of the validated configuration."""
    lines = []
    for section, keys in _SECTIONS.items():
        if section not in config.data:
            continue
        body = config.data[section]
        lines.append(f"[{section}]")
        for key in keys:
            if key in body:
                lines.append(f"{key} = {_format_value(body[key])}")
        lines.append("")
    return "\n".join(lines)


def config_hash(config: Config) -> str:
    """Hash of the canonical text; equal for semantically equal configs."""
    return hashlib.sha256(canonical_text(config).encode("utf-8")).hexdigest()
