"""Shared utilities for the FAIR-BFL reproduction.

This subpackage provides the small, dependency-free building blocks used by
every other subsystem:

* :mod:`repro.utils.rng` -- deterministic random-number-generator management so
  that every experiment in the paper can be replayed bit-for-bit.
* :mod:`repro.utils.vectors` -- flat-vector packing helpers used to move model
  parameters/gradients between the learning substrate, the incentive
  mechanism, and the blockchain.
* :mod:`repro.utils.validation` -- argument-checking helpers with consistent
  error messages.
* :mod:`repro.utils.timer` -- the simulated clock.
"""

from repro.utils.rng import new_rng
from repro.utils.timer import SimulatedClock
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)
from repro.utils.vectors import flatten_arrays, unflatten_array

__all__ = [
    "new_rng",
    "SimulatedClock",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "flatten_arrays",
    "unflatten_array",
]
