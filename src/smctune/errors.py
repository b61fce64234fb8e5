"""Exception types shared across the toolkit, and the shared input checks."""
from __future__ import annotations

import json
import math
from numbers import Real
from pathlib import Path

__all__ = ["ConfigError", "NumericalError", "InfeasibleDesignError", "InfeasibleTuningError",
           "finite_number", "read_text", "read_json_object"]


class ConfigError(ValueError):
    """Invalid input data or configuration (bad JSON, missing keys, out-of-range values)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (uncontrollable plant, solver divergence, ...)."""


class InfeasibleDesignError(RuntimeError):
    """A candidate sliding design is degenerate (zero components make its zeros undefined)."""


class InfeasibleTuningError(RuntimeError):
    """The tuning scan produced no feasible candidate for the given initialization."""


def finite_number(name: str, value) -> float:
    """``value`` as a float, or ConfigError unless it is a finite real number.

    Strings and booleans are rejected rather than coerced. Every comparison
    with NaN is false, so a NaN that got past this check would switch off the
    bound it stands for instead of failing.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {number}")
    return number


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``, or ConfigError.

    A file that cannot be opened (missing, a directory, no permission) or
    holds bytes that are not UTF-8 fails like any other bad input.
    """
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def read_json_object(path) -> dict:
    """The JSON object in the file at ``path``; ConfigError for an unreadable
    file, malformed or too deeply nested JSON, or a top level that is not an
    object."""
    text = read_text(path)
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return value
