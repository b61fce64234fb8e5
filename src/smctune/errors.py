"""The three failure types of the toolkit, and the checks and readers of its
input files. The writers of its output files are in ``output``.

Each failure type has one exit code of the command line: ConfigError 2,
InfeasibleTuningError 3, NumericalError 4.
"""
from __future__ import annotations

import json
import math
from itertools import islice
from numbers import Real
from pathlib import Path

__all__ = ["ConfigError", "NumericalError", "InfeasibleTuningError", "finite_number",
           "positive_number", "nonnegative_number", "finite_numbers", "read_text",
           "read_json_object", "keyed"]


class ConfigError(ValueError):
    """Invalid input data or configuration (bad JSON, missing keys, out-of-range values)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (uncontrollable plant, solver divergence, ...)."""


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
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be finite, got a number too large for a float") from None
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {number}")
    return number


def positive_number(name: str, value) -> float:
    """``finite_number(name, value)``, or ConfigError unless it is above zero."""
    number = finite_number(name, value)
    if number <= 0:
        raise ConfigError(f"{name} must be positive, got {number}")
    return number


def nonnegative_number(name: str, value) -> float:
    """``finite_number(name, value)``, or ConfigError unless it is at least zero."""
    number = finite_number(name, value)
    if number < 0:
        raise ConfigError(f"{name} must be non-negative, got {number}")
    return number


def finite_numbers(names, value) -> tuple[float, ...]:
    """``value`` as a tuple of floats, entry i by ``finite_number(names[i], ...)``; ConfigError
    unless it is an iterable of exactly ``len(names)`` entries (at most one more is read)."""
    try:
        entries = list(islice(value, len(names) + 1))
    except TypeError:  # not iterable
        entries = []
    if len(entries) != len(names):
        raise ConfigError(f"expected {len(names)} numbers ({', '.join(dict.fromkeys(names))}), "
                          f"got {value!r}")
    return tuple(finite_number(name, entry) for name, entry in zip(names, entries))


def read_text(path) -> str:
    """The UTF-8 text of the file at ``path``, without a leading byte-order mark, or ConfigError.

    A file that cannot be opened (missing, a directory, no permission) or
    holds bytes that are not UTF-8 fails like any other bad input.
    """
    path = Path(path)
    try:
        return path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def read_json_object(path) -> dict:
    """The JSON object in the file at ``path``; ConfigError for an unreadable
    file, malformed or too deeply nested JSON or an int past its digit limit,
    a key repeated within one object at any level, or a top level that is
    not an object."""
    text = read_text(path)

    def unique(pairs):
        value = {}
        for key, item in pairs:
            if key in value:    # json.loads would keep the last and drop the first
                raise ConfigError(f"{path}: key {key!r} repeated in one object")
            value[key] = item
        return value

    try:
        value = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    except ConfigError:  # a repeated key, from unique
        raise
    except ValueError as exc:  # an integer past Python's int digit limit
        raise ConfigError(f"{path}: invalid JSON number: {str(exc).partition(';')[0]}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return value


def keyed(value, context: str, required, optional=()) -> dict:
    """``value``, or ConfigError unless it is an object (dict) with every
    ``required`` key and no key outside ``required`` and ``optional``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context} must be an object")
    for key in required:
        if key not in value:
            raise ConfigError(f"missing key '{key}' in {context}")
    for key in value:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {key!r} in {context}")
    return value
