"""Argument validation helpers with consistent error messages.

These helpers keep user-facing constructors short while producing actionable
errors (the offending parameter name and value are always included).
"""

from __future__ import annotations

import math
from typing import Any

__all__ = [
    "check_finite",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_fraction",
    "check_minority",
    "check_choice",
]


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
