"""Strict INI-style experiment configuration.

The format is deliberately small: full-line ``#`` comments, ``[section]``
headers, and ``key = value`` pairs.  Parsing is strict: unknown sections,
unknown keys, duplicates, type errors, and missing required keys all raise
ConfigError naming the offending field.  Which keys are required depends on
the system kind (ode, pde, shift) and the sensor rule.

`canonical_text` re-emits a parsed configuration with defaults filled in,
sections and keys in a fixed order, and floats in shortest round-trip form,
so `config_hash` is stable across cosmetic rewrites of the same experiment.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import ConfigError

__all__ = ["Config", "parse_config", "load_config", "canonical_text", "config_hash"]

KINDS = ("ode", "pde", "shift")
SENSOR_RULES = ("tile", "span", "list", "grid")
METHODS = ("bayes", "ml", "both")
SYNTH_MODES = ("forward", "linear")

# value kinds: int, float, str, int_list, float_list
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
    ("inference", "method"): "bayes",
    # ignored (predictive scores are exact), but kept: canonical_text writes
    # it into every bundle's config.txt and hash, so old bundles keep loading
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

# emission order for canonical text
_SECTION_ORDER = ("system", "grid", "kernel", "features", "sensors", "noise",
                  "seeds", "inference", "mcmc", "sweep", "scan")


@dataclass(frozen=True)
class Config:
    """Validated experiment configuration with defaults applied."""

    data: dict

    def __getitem__(self, section: str) -> dict:
        return self.data[section]

    def __contains__(self, section: str) -> bool:
        return section in self.data

    def get(self, section: str, key: str, default=None):
        return self.data.get(section, {}).get(key, default)

    @property
    def kind(self) -> str:
        return self.data["system"]["kind"]


def _coerce(section: str, key: str, raw: str):
    kind = _SECTIONS[section][key]
    where = f"'{key}' in [{section}]"
    if kind == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"value for {where} must be an integer (got {raw!r})") from None
    if kind == "float":
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"value for {where} must be a number (got {raw!r})") from None
        if value != value or value in (float("inf"), float("-inf")):
            raise ConfigError(f"value for {where} must be finite (got {raw!r})")
        return value
    if kind == "int_list":
        try:
            return tuple(int(part) for part in raw.split(","))
        except ValueError:
            raise ConfigError(
                f"value for {where} must be comma-separated integers (got {raw!r})"
            ) from None
    if kind == "float_list":
        try:
            return tuple(float(part) for part in raw.split(","))
        except ValueError:
            raise ConfigError(
                f"value for {where} must be comma-separated numbers (got {raw!r})"
            ) from None
    return raw


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


def _positive(value, section, key, strict=True):
    ok = value > 0 if strict else value >= 0
    if not ok:
        bound = "positive" if strict else "nonnegative"
        raise ConfigError(f"'{key}' in [{section}] must be {bound} (got {value})")
    return value


def _validate(sections: dict) -> dict:
    kind = _require(sections, "system", "kind")
    if kind not in KINDS:
        raise ConfigError(f"'kind' in [system] must be one of {KINDS} (got {kind!r})")

    allowed_system = set(_KIND_SYSTEM_KEYS[kind]) | {"kind"}
    for key in sections["system"]:
        if key not in allowed_system:
            raise ConfigError(f"key '{key}' in [system] does not apply to kind '{kind}'")
    for key in _KIND_SYSTEM_KEYS[kind]:
        _require(sections, "system", key, f"for kind '{kind}'")
    _positive(sections["system"]["T"], "system", "T")
    if kind == "pde":
        _positive(sections["system"]["diffusivity"], "system", "diffusivity")
        for lo_key, hi_key in (("x_min", "x_max"), ("y_min", "y_max")):
            if sections["system"][lo_key] >= sections["system"][hi_key]:
                raise ConfigError(
                    f"'{lo_key}' must be below '{hi_key}' in [system]"
                )
    if kind == "ode" and sections["system"]["p2"] == 0.0:
        raise ConfigError("'p2' in [system] must be nonzero for kind 'ode'")
    if kind == "shift" and abs(sections["system"]["a"]) >= sections["system"]["T"]:
        raise ConfigError("'a' in [system] must satisfy |a| < T")

    if kind == "pde":
        _forbid(sections, "grid", "cells", "applies only to one-dimensional kinds")
        for key in ("cells_t", "cells_y", "cells_x"):
            _positive(_require(sections, "grid", key, "for kind 'pde'"), "grid", key)
    else:
        for key in ("cells_t", "cells_y", "cells_x"):
            _forbid(sections, "grid", key, "applies only to kind 'pde'")
        _positive(_require(sections, "grid", "cells"), "grid", "cells")

    _forbid(sections, "kernel", "lengthscale_per_axis",
            "is reserved and not implemented; use a single 'lengthscale'")
    _positive(_require(sections, "kernel", "lengthscale"), "kernel", "lengthscale")
    _positive(_require(sections, "kernel", "variance"), "kernel", "variance")

    _positive(_require(sections, "features", "count"), "features", "count")
    if "truth_count" in sections.get("features", {}):
        _positive(sections["features"]["truth_count"], "features", "truth_count")

    rule = _require(sections, "sensors", "rule")
    if rule not in SENSOR_RULES:
        raise ConfigError(f"'rule' in [sensors] must be one of {SENSOR_RULES} (got {rule!r})")
    if rule == "list":
        times = _require(sections, "sensors", "times", "for rule 'list'")
        if len(times) == 0:
            raise ConfigError("'times' in [sensors] must not be empty")
        _forbid(sections, "sensors", "count", "conflicts with rule 'list'")
        if sections["sensors"].get("heldout_count", 0) != 0:
            raise ConfigError(
                "'heldout_count' in [sensors] requires rule 'tile', 'span', or 'grid'"
            )
        if kind == "pde":
            raise ConfigError("rule 'list' applies only to one-dimensional kinds")
    else:
        _positive(_require(sections, "sensors", "count", f"for rule '{rule}'"),
                  "sensors", "count")
        _forbid(sections, "sensors", "times", f"conflicts with rule '{rule}'")
    if rule == "grid":
        if kind != "pde":
            raise ConfigError("rule 'grid' applies only to kind 'pde'")
        for key in ("count", "heldout_count"):
            value = sections["sensors"].get(key, 0)
            root = int(round(value ** 0.5))
            if value and root * root != value:
                raise ConfigError(f"'{key}' in [sensors] must be a perfect square for rule 'grid'")
    elif kind == "pde":
        raise ConfigError("kind 'pde' requires sensor rule 'grid'")
    if "time_windows" in sections.get("sensors", {}):
        _positive(sections["sensors"]["time_windows"], "sensors", "time_windows")
    if "size" in sections.get("sensors", {}):
        _positive(sections["sensors"]["size"], "sensors", "size", strict=False)
    if "heldout_count" in sections.get("sensors", {}):
        _positive(sections["sensors"]["heldout_count"], "sensors", "heldout_count",
                  strict=False)
    hi_default = sections["system"]["T"]
    t_start = sections.get("sensors", {}).get("t_start", 0.0)
    t_end = sections.get("sensors", {}).get("t_end", hi_default)
    if not 0.0 <= t_start < t_end <= hi_default:
        raise ConfigError(
            "'t_start' and 't_end' in [sensors] must satisfy 0 <= t_start < t_end <= T"
        )
    sections.setdefault("sensors", {})
    sections["sensors"].setdefault("t_start", t_start)
    sections["sensors"].setdefault("t_end", t_end)

    sigma = _require(sections, "noise", "sigma")
    _positive(sigma, "noise", "sigma", strict=False)

    method = sections.get("inference", {}).get("method", _DEFAULTS[("inference", "method")])
    if method not in METHODS:
        raise ConfigError(f"'method' in [inference] must be one of {METHODS} (got {method!r})")
    synth = sections.get("inference", {}).get("synth", _DEFAULTS[("inference", "synth")])
    if synth not in SYNTH_MODES:
        raise ConfigError(f"'synth' in [inference] must be one of {SYNTH_MODES} (got {synth!r})")
    if sections.get("inference", {}).get("ridge", 0.0) < 0:
        raise ConfigError("'ridge' in [inference] must be nonnegative")
    if sections.get("inference", {}).get("samples", 100) < 1:
        raise ConfigError("'samples' in [inference] must be positive")

    if "mcmc" in sections:
        mc = sections["mcmc"]
        steps = mc.get("steps", _DEFAULTS[("mcmc", "steps")])
        _positive(steps, "mcmc", "steps")
        if not 0 <= mc.get("burn_in", 0) < steps:  # a missing one is filled below
            raise ConfigError("'burn_in' in [mcmc] must lie in [0, steps)")
        if "batch_size" in mc:
            _positive(mc["batch_size"], "mcmc", "batch_size")
        if mc.get("proposal_scale", 0.0) < 0:
            raise ConfigError("'proposal_scale' in [mcmc] must be nonnegative")

    if "sweep" in sections:
        for key in ("sensors", "features", "replicates"):
            _require(sections, "sweep", key, "for a sweep run")
        for key in ("sensors", "features"):
            values = sections["sweep"][key]
            if len(values) == 0 or any(v < 1 for v in values):
                raise ConfigError(f"'{key}' in [sweep] must be positive integers")
            if kind == "pde" and key == "sensors":
                for v in values:
                    root = int(round(v ** 0.5))
                    if root * root != v:
                        raise ConfigError(
                            "'sensors' in [sweep] must be perfect squares for kind 'pde'"
                        )
        _positive(sections["sweep"]["replicates"], "sweep", "replicates")

    if "scan" in sections:
        for key in ("lengthscale", "variance"):
            triple = _require(sections, "scan", key, "for a hyperparameter scan")
            if len(triple) != 3 or triple[0] <= 0 or triple[1] < triple[0] or not (
                    triple[2] >= 1 and triple[2] % 1 == 0):
                raise ConfigError(f"'{key}' in [scan] must be 'lo,hi,steps' with "
                                  "0 < lo <= hi and steps a whole number >= 1")
            if triple[0] == triple[1] and triple[2] > 1:
                raise ConfigError(f"'{key}' in [scan] has lo == hi, so steps must be 1")
        if sections["scan"].get("samples", 100) < 1:
            raise ConfigError("'samples' in [scan] must be positive")

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
    for section in _SECTION_ORDER:
        if section not in config.data:
            continue
        body = config.data[section]
        lines.append(f"[{section}]")
        for key in _SECTIONS[section]:
            if key in body:
                lines.append(f"{key} = {_format_value(body[key])}")
        lines.append("")
    return "\n".join(lines)


def config_hash(config: Config) -> str:
    """Hash of the canonical text; equal for semantically equal configs."""
    return hashlib.sha256(canonical_text(config).encode("utf-8")).hexdigest()
