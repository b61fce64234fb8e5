"""Exception types shared across the toolkit, and the shared number check."""
from __future__ import annotations

import math
from numbers import Real

__all__ = ["ConfigError", "NumericalError", "InfeasibleDesignError", "InfeasibleTuningError",
           "finite_number"]


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
