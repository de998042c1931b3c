"""Convenience forms of simulator calls for tests: one cell, or one downlink from point sets."""

from hetsim.channel import RadioParams
from hetsim.simulator import Cell, _gains, downlink_delay, estimate, run_replication


def estimate_one(scenario, params, cache, window, replications, master_seed, workers=None):
    """The estimate of one (scenario, params, cache) cell."""
    return estimate([Cell(scenario, params, cache)], window, replications, master_seed, workers)[0]


def replicate_one(scenario, params, cache, window, rng):
    """One replication of one (scenario, params, cache) cell."""
    return run_replication([Cell(scenario, params, cache)], params, window, rng)[0]


def kernel(serving_tier, serving_index, macro, small, radio=RadioParams(), max_attempts=4):
    """(expected attempts, outage probability, delay) of ``downlink_delay``, 0.1 ms slots."""
    macro_gains = _gains(macro.radii(), radio.power_macro, radio.pathloss_exponent)
    small_gains = _gains(small.radii(), radio.power_small, radio.pathloss_exponent)
    return downlink_delay(
        serving_tier, serving_index, macro_gains, small_gains, radio.target_sir, 0.1, max_attempts
    )
