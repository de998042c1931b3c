"""Explicit SIR references that the tests hold the production kernel to.

``simulator.downlink_delay`` is the package's SIR model on one fixed
geometry, every point sampled: it averages the Rayleigh fading out of the
retransmission protocol, summing ``log1p`` terms over a gain vector per
tier, and runs ``simulator._downlink``, the recurrence the kernel runs with
the far field averaged out. The helpers here recompute
the model from its definition, one point at a time in scalar Python, from
Cartesian coordinates rather than the stored radii: the per-attempt SIR,
the protocol itself with fading drawn on every attempt, and the exact
per-attempt success probability given the geometry.
"""

import math
from fractions import Fraction

from hetsim.geometry import Tier


def unit_fading_gains(macro, small, radio):
    """Received power of every point under unit fading, macro block first."""
    alpha = radio.pathloss_exponent
    gains = []
    for tier_set, power in ((macro, radio.power_macro), (small, radio.power_small)):
        for r, theta in zip(tier_set.r.tolist(), tier_set.theta.tolist()):
            x, y = r * math.cos(theta), r * math.sin(theta)
            gains.append(power * math.hypot(x, y) ** -alpha)
    return gains


def _flat(serving_tier, serving_index, macro):
    return serving_index if serving_tier is Tier.MACRO else len(macro) + serving_index


def sir_brute_force(serving_tier, serving_index, macro, small, fading, radio):
    """Direct re-computation from the definition, scalar Python throughout."""
    terms = [g * h for g, h in zip(unit_fading_gains(macro, small, radio), fading)]
    flat = _flat(serving_tier, serving_index, macro)
    signal = terms[flat]
    interference = sum(terms[:flat]) + sum(terms[flat + 1 :])
    return math.inf if interference == 0 else signal / interference


def reference_downlink(serving_tier, serving_index, macro, small, radio, max_attempts, rng):
    """(attempts, outage) of the retransmission protocol, one brute-force SIR per attempt.

    Draws one Exp(1) fading vector per attempt over all points, macro block
    first, and stops at the first attempt whose SIR clears the target.
    """
    n = len(macro) + len(small)
    for attempt in range(1, max_attempts + 1):
        fading = rng.standard_exponential(n)
        sir = sir_brute_force(serving_tier, serving_index, macro, small, fading, radio)
        if sir >= radio.target_sir:
            return attempt, False
    return max_attempts, True


def success_probability(serving_tier, serving_index, macro, small, radio):
    """Exact per-attempt success probability given the geometry, as a Fraction.

    Under i.i.d. Exp(1) fading, P(SIR >= gamma) is the product over
    interferers j of 1 / (1 + gamma g_j / g_0). It is evaluated in exact
    rational arithmetic on the float gains, so ``1 - q`` and its powers
    carry no cancellation error even when q is within an ulp of 1.
    """
    gains = [Fraction(g) for g in unit_fading_gains(macro, small, radio)]
    flat = _flat(serving_tier, serving_index, macro)
    gamma = Fraction(radio.target_sir)
    q = Fraction(1)
    for j, g in enumerate(gains):
        if j != flat:
            q *= gains[flat] / (gains[flat] + gamma * g)
    return q


def truncated_geometric(q, max_attempts):
    """(expected attempts, outage probability) when each attempt succeeds with q."""
    miss = 1 - q
    return sum(miss**k for k in range(max_attempts)), miss**max_attempts
