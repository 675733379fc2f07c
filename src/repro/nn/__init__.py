"""From-scratch NumPy neural-network substrate.

The paper trains small MNIST models with mini-batch SGD on every federated
client (Algorithm 1, Procedure I).  This package provides the minimal deep
learning framework needed for that: composable modules with explicit
forward/backward passes (``Flatten``, ``Linear``, ``ReLU`` — what the shipped
models build), the softmax cross-entropy loss, a constant-rate SGD optimizer,
and flat parameter-vector access used by the incentive mechanism and the
blockchain.

Design notes
------------
* All math is vectorised NumPy on ``float64`` (batch dimension first).
* Modules own their parameters as :class:`repro.nn.module.Parameter` objects
  holding both the value and a gradient buffer.  ``backward`` writes every
  gradient (nothing accumulates, so nothing is zeroed) and a model's backward
  returns no input gradient: Procedure I steps after every backward and reads
  only the parameter gradients.
* ``get_flat_parameters`` / ``set_flat_parameters`` give the single-vector
  view of a model used throughout FAIR-BFL (clients upload it, Algorithm 2
  clusters it, Equation (1) averages it).
"""
