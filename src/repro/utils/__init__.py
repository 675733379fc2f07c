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
