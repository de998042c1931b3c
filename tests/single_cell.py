"""One-cell forms of the multi-cell simulator calls, for tests of a single scenario."""

from hetsim.simulator import Cell, estimate, run_replication


def estimate_one(scenario, params, cache, window, replications, master_seed, workers=None):
    """The estimate of one (scenario, params, cache) cell."""
    return estimate([Cell(scenario, params, cache)], window, replications, master_seed, workers)[0]


def replicate_one(scenario, params, cache, window, rng):
    """One replication of one (scenario, params, cache) cell."""
    return run_replication([Cell(scenario, params, cache)], params, window, rng)[0]
