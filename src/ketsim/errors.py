"""Error types, and conditioning_scale: the one rule that refuses a weight (NaN,
infinite, or at most PROB_FLOOR or NORM_FLOOR) before ketsim scales or samples by it."""

import math
from typing import Callable

# Born weight at or below which an outcome counts as impossible.
PROB_FLOOR = 1e-12
# Norm squared at or below which a grid array or a drawn pointer reading's density is zero.
NORM_FLOOR = 1e-300


class ImpossibleOutcomeError(ValueError):
    """Raised for an outcome that cannot be conditioned on, in place of a silent NaN."""


class ParameterError(ValueError):
    """Raised for invalid scenario parameters or CLI parameter overrides."""


def conditioning_scale(weight: float, outcome: str | Callable[[], str], *, floor: float = PROB_FLOOR) -> float:
    """Factor 1/sqrt(weight) that renormalizes the unnormalized image of an outcome.

    Every projection, post-selection, partial readout, pointer sample and
    collapse, window cut and grid normalization conditions through here: a
    weight at or below the floor, infinite or NaN raises ImpossibleOutcomeError
    naming the outcome, used verbatim. `outcome` may be a function that returns the
    name; it is called only on that refusal.
    """
    if not floor < weight < math.inf:
        if callable(outcome):
            outcome = outcome()
        raise ImpossibleOutcomeError(f"{outcome} has Born weight {weight:g}; cannot condition on it")
    return 1.0 / math.sqrt(weight)
