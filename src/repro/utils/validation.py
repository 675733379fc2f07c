"""Argument validation helpers with consistent error messages.

These helpers keep user-facing constructors short while producing actionable
errors (the offending parameter name and value are always included).
"""

from __future__ import annotations

import math
from typing import Any

__all__ = [
    "check_type",
    "check_finite",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_fraction",
    "check_minority",
    "check_choice",
    "check_in_range",
]


def check_type(name: str, value: Any, expected: type | tuple[type, ...]) -> Any:
    """Raise ``TypeError`` unless ``value`` is an instance of ``expected``."""
    if not isinstance(value, expected):
        expected_names = (
            expected.__name__
            if isinstance(expected, type)
            else " or ".join(t.__name__ for t in expected)
        )
        raise TypeError(f"{name} must be {expected_names}, got {type(value).__name__}")
    return value


def check_finite(name: str, value: float) -> float:
    """Raise ``ValueError`` when ``value`` is NaN or infinite."""
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return v


def check_positive(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is strictly positive and finite."""
    v = float(value)
    if not (v > 0.0) or v != v or v == float("inf"):
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return v


def check_non_negative(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` is ``>= 0`` and finite."""
    v = float(value)
    if not (v >= 0.0) or v == float("inf"):
        raise ValueError(f"{name} must be a non-negative finite number, got {value!r}")
    return v


def check_probability(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` lies in ``[0, 1]``."""
    v = float(value)
    if not (0.0 <= v <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return v


def check_fraction(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` lies in ``(0, 1]`` (a non-empty share)."""
    v = float(value)
    if not (0.0 < v <= 1.0):
        raise ValueError(f"{name} must lie in (0, 1], got {value!r}")
    return v


def check_minority(name: str, value: float) -> float:
    """Raise ``ValueError`` unless ``value`` lies in ``[0, 0.5)`` (a strict minority)."""
    v = float(value)
    if not (0.0 <= v < 0.5):
        raise ValueError(f"{name} must lie in [0, 0.5), got {value!r}")
    return v


def check_choice(name: str, value: Any, choices: tuple[str, ...]) -> Any:
    """Raise ``ValueError`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    return value


def check_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> float:
    """Raise ``ValueError`` unless ``value`` lies within ``[low, high]`` (or ``(low, high)``)."""
    v = float(value)
    ok = (low <= v <= high) if inclusive else (low < v < high)
    if not ok:
        bracket = "[]" if inclusive else "()"
        raise ValueError(
            f"{name} must lie in {bracket[0]}{low}, {high}{bracket[1]}, got {value!r}"
        )
    return v
