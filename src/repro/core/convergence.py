"""Convergence: the empirical criterion and the Theorem 3.1 bound.

* :class:`ConvergenceCriterion` implements the paper's empirical rule:
  "We consider the model as converged when the accuracy in change is within
  0.5% for 5 consecutive communication rounds" (Section 5.2).
* :func:`theorem31_bound` evaluates the right-hand side of Theorem 3.1,

  .. math::

     \\mathbb{E}[F(w_r)] - F^* \\le \\frac{\\kappa}{\\gamma + r}
     \\left( \\frac{2(B + C)}{\\mu} + \\frac{\\mu (\\gamma + 1)}{2}
     \\lVert w_1 - w^* \\rVert^2 \\right),

  with κ = L/μ, γ = max(8κ, E) and C = 4G²E²/K.  The theory benchmark checks
  that SGD on a strongly convex objective stays under this bound and that the
  bound itself decreases in ``r``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["ConvergenceCriterion", "theorem31_constants", "theorem31_bound"]


class ConvergenceCriterion:
    """The paper's accuracy-plateau convergence detector: an accuracy change
    of at most :attr:`TOLERANCE` (0.5%) for :attr:`WINDOW` (5) consecutive
    rounds."""

    TOLERANCE = 0.005
    WINDOW = 5

    def converged_at(self, accuracies: np.ndarray | list[float]) -> int | None:
        """Index of the first round at which the criterion is met (None if never).

        The returned index is the last round of the qualifying window.
        """
        acc = np.asarray(accuracies, dtype=np.float64).ravel()
        if acc.shape[0] < self.WINDOW + 1:
            return None
        diffs = np.abs(np.diff(acc))
        run = 0
        for i, d in enumerate(diffs):
            run = run + 1 if d <= self.TOLERANCE else 0
            if run >= self.WINDOW:
                return i + 1
        return None

    def has_converged(self, accuracies: np.ndarray | list[float]) -> bool:
        """True when the criterion is met anywhere in the series."""
        return self.converged_at(accuracies) is not None


def theorem31_constants(
    *,
    smoothness: float,
    strong_convexity: float,
    gradient_bound: float,
    local_epochs: int,
    num_selected: int,
    variance_bound: float = 0.0,
) -> dict[str, float]:
    """Derive the constants of Theorem 3.1 from the assumption parameters.

    Parameters
    ----------
    smoothness:
        L of Assumption 3.
    strong_convexity:
        μ of Assumption 4.
    gradient_bound:
        G of Assumption 6 (expected squared norm bound is G²).
    local_epochs:
        E, the number of local epochs between aggregations.
    num_selected:
        K, the number of clients sampled per round.
    variance_bound:
        Aggregate of the per-client σ_i² terms of Assumption 5 entering B.
    """
    L = check_positive("smoothness", smoothness)
    mu = check_positive("strong_convexity", strong_convexity)
    if L < mu:
        raise ValueError(f"smoothness L ({L}) must be >= strong convexity mu ({mu})")
    G = check_positive("gradient_bound", gradient_bound)
    if local_epochs < 1:
        raise ValueError(f"local_epochs must be >= 1, got {local_epochs}")
    if num_selected < 1:
        raise ValueError(f"num_selected must be >= 1, got {num_selected}")
    kappa = L / mu
    gamma = max(8.0 * kappa, float(local_epochs))
    c_const = 4.0 / num_selected * (local_epochs**2) * (G**2)
    b_const = float(variance_bound) + 8.0 * (local_epochs - 1) ** 2 * G**2
    return {
        "kappa": kappa,
        "gamma": gamma,
        "B": b_const,
        "C": c_const,
        "mu": mu,
        "L": L,
    }


def theorem31_bound(
    round_index: int,
    *,
    constants: dict[str, float],
    initial_distance_sq: float,
) -> float:
    """Evaluate the Theorem 3.1 upper bound on ``E[F(w_r)] - F*`` at ``round_index``.

    Parameters
    ----------
    round_index:
        The communication round r (>= 1).
    constants:
        Output of :func:`theorem31_constants`.
    initial_distance_sq:
        ``||w_1 - w*||²``.
    """
    if round_index < 1:
        raise ValueError(f"round_index must be >= 1, got {round_index}")
    if initial_distance_sq < 0:
        raise ValueError(f"initial_distance_sq must be >= 0, got {initial_distance_sq}")
    kappa = constants["kappa"]
    gamma = constants["gamma"]
    mu = constants["mu"]
    b_plus_c = constants["B"] + constants["C"]
    return (kappa / (gamma + round_index)) * (
        2.0 * b_plus_c / mu + mu * (gamma + 1.0) / 2.0 * initial_distance_sq
    )
