"""Error types shared across the package, and the rule for conditioning on an outcome."""

import math
from typing import Callable

# Born weight at or below which an outcome counts as impossible.
PROB_FLOOR = 1e-12


class ImpossibleOutcomeError(ValueError):
    """Raised when a projection or post-selection targets an outcome whose
    probability is below the 1e-12 floor. Never produces a silent NaN."""


class ParameterError(ValueError):
    """Raised for invalid scenario parameters or CLI parameter overrides."""


def conditioning_scale(weight: float, outcome: str | Callable[[], str], *, floor: float = PROB_FLOOR) -> float:
    """Factor 1/sqrt(weight) that renormalizes the unnormalized image of an outcome.

    Every projection, post-selection, partial readout, pointer collapse and
    window cut conditions through here: an outcome whose Born weight is at
    or below the floor raises ImpossibleOutcomeError naming the outcome, used
    verbatim. `outcome` may be a function that returns the name; it is
    called only on that refusal.
    """
    if weight <= floor:
        if callable(outcome):
            outcome = outcome()
        raise ImpossibleOutcomeError(f"{outcome} has Born weight {weight:g}; cannot condition on it")
    return 1.0 / math.sqrt(weight)
