"""Explicit per-attempt SIR reference that the tests hold the production kernel to.

``simulator.downlink_delay`` is the package's only SIR code: it folds the
pathloss into one gain vector, takes a dot product and compares without a
division. The helpers here recompute the same decision from the model's
definition, one point and one attempt at a time in scalar Python, from
Cartesian coordinates rather than the stored radii.
"""

import math

import numpy as np

from hetsim.geometry import Tier


def sir_brute_force(serving_tier, serving_index, macro, small, fading, radio):
    """Direct re-computation from the definition, scalar Python throughout."""
    alpha = radio.pathloss_exponent
    terms = []
    for tier_set, power in ((macro, radio.power_macro), (small, radio.power_small)):
        for i in range(len(tier_set)):
            point = tier_set.point(i)
            terms.append(power * math.hypot(point.x, point.y) ** -alpha)
    terms = [g * h for g, h in zip(terms, fading)]
    flat = serving_index if serving_tier is Tier.MACRO else len(macro) + serving_index
    signal = terms[flat]
    interference = sum(terms[:flat]) + sum(terms[flat + 1 :])
    return math.inf if interference == 0 else signal / interference


def reference_downlink(serving_tier, serving_index, macro, small, radio, max_attempts, rng):
    """(attempts, outage) of the retransmission protocol, one brute-force SIR per attempt.

    Draws one Exp(1) vector per attempt over all points, macro block
    first, exactly as the production kernel does, so the same ``rng``
    state yields the same fading.
    """
    n = len(macro) + len(small)
    for attempt in range(1, max_attempts + 1):
        fading = rng.standard_exponential(n)
        sir = sir_brute_force(serving_tier, serving_index, macro, small, fading, radio)
        if sir >= radio.target_sir:
            return attempt, False
    return max_attempts, True


class FixedFading:
    """Stands in for the generator: hands the kernel the given fading vectors in turn."""

    def __init__(self, *draws):
        self._draws = iter(draws)

    def standard_exponential(self, size):
        fading = np.asarray(next(self._draws), dtype=float)
        assert fading.shape == (size,), f"kernel asked for {size} coefficients"
        return fading
