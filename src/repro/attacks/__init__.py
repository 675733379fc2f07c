"""Attack models.

Section 5.4 of the paper evaluates security by designating 1-3 random clients
per round as malicious nodes that "modify the actual local gradients to skew
the global model".  This package provides:

* :mod:`repro.attacks.gradient_attacks` — concrete gradient-forging attacks
  (sign flipping, scaling, additive Gaussian noise, zeroing);
* :mod:`repro.attacks.label_flip` — label flipping, approximated in
  direction space (a partial reversal of the honest direction plus noise);
* :mod:`repro.attacks.scheduler` — per-round random attacker designation
  reproducing Table 2's protocol, plus detection-rate accounting.
"""
