"""Run-configuration files: JSON schema, overrides, and object assembly.

A run configuration is a single JSON document naming the root system, the
multiplicities, the start point, and the simulation grid.  Documents are
validated against a closed schema (unknown keys are rejected) before any
computation; violations raise ``ConfigError`` carrying the JSON pointer
of the offending entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import jsonschema
import numpy as np

from .errors import ConfigError
from .radial import SimulationConfig
from .root_systems import (
    Multiplicity,
    RootSystem,
    build_root_system,
    build_type_a,
    build_type_b,
    multiplicity,
)

_MULT = {
    "oneOf": [
        {"type": "number", "minimum": 0},
        {"type": "array", "minItems": 1,
         "items": {"type": "number", "minimum": 0}},
    ]
}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["system", "k", "x0", "sim"],
    "properties": {
        "system": {
            "type": "object",
            "additionalProperties": False,
            "required": ["type"],
            "properties": {
                "type": {"enum": ["A", "B", "custom"]},
                "n": {"type": "integer", "minimum": 1},
                "roots": {
                    "type": "array",
                    "minItems": 2,
                    "items": {"type": "array", "minItems": 1,
                              "items": {"type": "number"}},
                },
            },
        },
        "k": _MULT,
        "k_prime": _MULT,
        "enumeration": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
        },
        "x0": {"type": "array", "minItems": 1, "items": {"type": "number"}},
        "sim": {
            "type": "object",
            "additionalProperties": False,
            "required": ["T", "dt", "paths", "seed"],
            "properties": {
                "T": {"type": "number", "exclusiveMinimum": 0},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "paths": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "required": ["path"],
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["csv"]},
            },
        },
    },
}


@dataclass
class RunConfig:
    """Everything a batch command needs, assembled from one document."""

    system: RootSystem
    k: Multiplicity
    k_prime: Optional[Multiplicity]
    enumeration: Optional[tuple]
    x0: np.ndarray
    sim: SimulationConfig
    output: Optional[dict]


def _pointer(path_iterable):
    return "/" + "/".join(str(p) for p in path_iterable)


def parse_override(text):
    """Split a ``key.path=value`` override; values parse as JSON or string."""
    if "=" not in text:
        raise ConfigError("override must look like key.path=value", "")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def apply_override(doc, key, value):
    """Set ``doc`` at the dotted ``key`` to ``value``, adding objects on the
    way.  A key that does not fit the document, through a list index that
    is not one of the list's or into a scalar, raises ``ConfigError`` at the
    key's JSON pointer."""
    parts = key.split(".")
    node = doc
    for n, part in enumerate(parts, start=1):
        if isinstance(node, list):
            if not (part.isdecimal() and int(part) < len(node)):
                raise ConfigError(f"no index {part!r} in a list of {len(node)}", _pointer(parts))
            part = int(part)
        elif not isinstance(node, dict):
            raise ConfigError(f"{_pointer(parts[:n - 1])} is a {type(node).__name__}, "
                              "not an object or a list", _pointer(parts))
        if n == len(parts):
            node[part] = value
        else:
            node = node[part] if isinstance(part, int) else node.setdefault(part, {})


def validate_document(doc):
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        raise ConfigError(e.message, _pointer(e.absolute_path))


def build_system(doc):
    kind = doc["type"]
    if kind in ("A", "B"):
        if "n" not in doc:
            raise ConfigError("'n' is required for built-in systems", "/system/n")
        if "roots" in doc:
            raise ConfigError("'roots' only applies to custom systems",
                              "/system/roots")
        builder = build_type_a if kind == "A" else build_type_b
        try:
            return builder(doc["n"])
        except Exception as exc:
            raise ConfigError(str(exc), "/system/n") from exc
    if "roots" not in doc:
        raise ConfigError("'roots' is required for custom systems",
                          "/system/roots")
    try:
        return build_root_system(doc["roots"])
    except Exception as exc:
        raise ConfigError(str(exc), "/system/roots") from exc


def assemble(doc, seed_override=None):
    """Validate a document and build the run objects."""
    validate_document(doc)
    system = build_system(doc["system"])
    try:
        k = multiplicity(system, doc["k"])
    except Exception as exc:
        raise ConfigError(str(exc), "/k") from exc
    k_prime = None
    if "k_prime" in doc:
        try:
            k_prime = multiplicity(system, doc["k_prime"])
        except Exception as exc:
            raise ConfigError(str(exc), "/k_prime") from exc
    x0 = np.asarray(doc["x0"], dtype=float)
    if x0.shape != (system.dimension,):
        raise ConfigError(
            f"x0 must have {system.dimension} coordinates", "/x0")
    enumeration = None
    if "enumeration" in doc:
        enumeration = tuple(doc["enumeration"])
        m = system.n_positive
        if sorted(enumeration) != list(range(m)):
            raise ConfigError(
                f"enumeration must be a permutation of 0..{m - 1}",
                "/enumeration")
    sim_doc = doc["sim"]
    seed = int(sim_doc["seed"]) if seed_override is None else int(seed_override)
    try:
        sim = SimulationConfig(
            horizon=float(sim_doc["T"]),
            dt=float(sim_doc["dt"]),
            n_paths=int(sim_doc["paths"]),
            seed=seed,
        )
    except Exception as exc:
        raise ConfigError(str(exc), "/sim") from exc
    return RunConfig(system=system, k=k, k_prime=k_prime,
                     enumeration=enumeration, x0=x0, sim=sim,
                     output=doc.get("output"))


def load_run_config(path, overrides=(), seed_override=None):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", "") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}", "") from exc
    for text in overrides:
        key, value = parse_override(text)
        apply_override(doc, key, value)
    return assemble(doc, seed_override=seed_override)
