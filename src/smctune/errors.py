"""Exception types shared across the toolkit, and the shared file I/O: the
input checks and readers, and ``write_table``, the writer of every float CSV."""
from __future__ import annotations

import json
import math
from numbers import Real
from pathlib import Path

import numpy as np

__all__ = ["ConfigError", "NumericalError", "InfeasibleDesignError", "InfeasibleTuningError",
           "finite_number", "read_text", "read_json_object", "keyed", "write_table"]

#: rows converted to Python floats at a time. As Python floats a row costs
#: about 300 bytes more than in the trace: a whole 30 000-row trace at once
#: would add about 12 MB to the peak memory of a run, 4096-row blocks 3 MB;
#: 512-row blocks add none measurably and write as fast.
CSV_BLOCK_ROWS = 512


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


def write_table(path, header: str, columns, footer: str = "") -> None:
    """Write a float table as CSV with LF line endings: the ``header`` line,
    one row per entry of the ``columns`` (1-D or 2-D arrays of one length,
    side by side), each cell the shortest repr that reads back to the same
    float, then ``footer`` as given."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            rows = np.column_stack([column[block] for column in columns]).tolist()
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
        fh.write(footer)
