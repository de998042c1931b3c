"""Convenience forms of simulator calls for tests: one cell, or one downlink from point sets;
and a record of the process pools ``estimate`` enters."""

from hetsim import simulator
from hetsim.channel import RadioParams
from hetsim.simulator import Cell, downlink_delay, estimate, run_replication


def estimate_one(scenario, params, cache, replications, master_seed, workers=None):
    """The estimate of one (scenario, params, cache) cell."""
    return estimate([Cell(scenario, params, cache)], replications, master_seed, workers)[0]


def replicate_one(scenario, params, cache, rng):
    """One replication of one (scenario, params, cache) cell."""
    return run_replication([Cell(scenario, params, cache)], params, rng)[0]


def kernel(serving_tier, serving_index, macro, small, radio=RadioParams(), max_attempts=4):
    """(expected attempts, outage probability, delay) of ``downlink_delay``, 0.1 ms slots.

    Each tier's gains under unit fading come from its stored radii with numpy; ``sir_reference``
    recomputes them from Cartesian coordinates."""
    alpha = radio.pathloss_exponent
    return downlink_delay(
        serving_tier,
        serving_index,
        radio.power_macro * macro.r**-alpha,
        radio.power_small * small.r**-alpha,
        radio.target_sir,
        0.1,
        max_attempts,
    )


def pool_entries(monkeypatch):
    """Every real process pool that ``estimate`` enters from now on, in order."""
    entered = []

    class Pool(simulator.ProcessPoolExecutor):
        def __enter__(self):
            entered.append(self)
            return super().__enter__()

    monkeypatch.setattr(simulator, "ProcessPoolExecutor", Pool)
    return entered
