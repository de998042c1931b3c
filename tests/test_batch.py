"""The batch kernel: every replication of a batch equals that replication
run alone, as a batch of one, on the same draws.

``stream_script`` splits the draws of one batch into the share of each
replication, so the replication can be rerun through ``run_replication``
on exactly the nearest distances and interferers it had inside the batch:
its pair of lattice levels is served as the shift of a batch of one. The
comparison is ``==``.
"""

import math

import numpy as np
import pytest

from hetsim import simulator
from hetsim.analytics import DelayParams
from hetsim.caching import CacheConfig, CachePolicy
from hetsim.geometry import Window, nearest_distance
from hetsim.popularity import DistanceDependent, LoadDependent
from hetsim.simulator import (
    BATCH_SIZE,
    Cell,
    DelaySample,
    DistanceMode,
    MacroUser,
    SmallUser,
    _lattice_generator,
    _simulate,
    replication_rng,
    run_replication,
)
from lattice_reference import korobov_generator, lattice
from stream_script import Recorder, draw, levels, replication_streams
from test_far_field import EDGE_CASES, MIXED_FORMS, MIXPOP, near_radii, tail_rows

NOCACHE = SmallUser(policy=CachePolicy.NO_CACHE)
PER_USER = SmallUser(
    policy=CachePolicy.MIX_POP, model=DistanceDependent(), distance_mode=DistanceMode.PER_USER
)
LOAD = SmallUser(policy=CachePolicy.MIX_POP, model=LoadDependent())
EVERY_KIND = [MacroUser(), NOCACHE, MIXPOP, PER_USER, LOAD]

CASES = {
    "5km-every-kind": (DelayParams(), 5000.0, EVERY_KIND),
    "20km-every-kind": (DelayParams(), 20_000.0, EVERY_KIND),
    "5km-no-cache": (DelayParams(), 5000.0, [MacroUser(), NOCACHE]),
    "20km-macro-only": (DelayParams(), 20_000.0, [MacroUser()]),
    # the edges of the near-radius rule, caching cells beside: configs that sample the whole
    # window, batches whose far field takes the tail form in some rows and the head form in the
    # rest, sparse routers, which move no near radius, and a nearest macro cell beyond the window
    **{
        f"edge-{case}": (params, 20_000.0, [*scenarios, NOCACHE, PER_USER])
        for case, (params, scenarios) in EDGE_CASES.items()
    },
}


def split_batch(cells, params, window, seed, size):
    """(batch result, per-replication results as batches of one, whether
    each (tier, serving tier, replication) row of the far field takes the
    tail form).

    Each tier's recorded Poisson mean must cover exactly ``(r_t, R_t)``,
    with ``R_t`` the tier's near radius by the kernel's rule."""
    recorder = Recorder(replication_rng(seed, 0))
    batch = _simulate(cells, params, window, recorder, size)
    alone = []
    for script in replication_streams(recorder.log, size):
        alone.append(run_replication(cells, params, window, script))
        assert not script.draws  # the replication read all of its share
    lambdas = (params.lambda_mc, params.lambda_sc)
    closest = np.array([nearest_distance(lam, levels(recorder.log, t, size)) for t, lam in enumerate(lambdas)])
    radii = near_radii(closest, params, window.radius)
    for t, lam in enumerate(lambdas):
        means = draw(recorder.log, "counts", t)[1]
        assert np.array_equal(means, lam * math.pi * (radii[t] ** 2 - np.minimum(closest[t], radii[t]) ** 2))
    serving = sorted({0 if isinstance(cell.scenario, MacroUser) else 1 for cell in cells})
    return batch, alone, tail_rows(closest, params, window.radius, serving)


@pytest.mark.parametrize("case", list(CASES))
def test_batch_equals_its_replications_run_alone(case):
    params, radius, scenarios = CASES[case]
    cells = [Cell(scenario, params, CacheConfig()) for scenario in scenarios]
    batch, alone, tails = split_batch(cells, params, Window(radius), 97, BATCH_SIZE)
    for k, samples in enumerate(alone):
        assert samples == [DelaySample(*batch[c, :, k].tolist()) for c in range(len(cells))], k
    if case[5:] in MIXED_FORMS:
        assert 3 <= tails.sum() <= tails.size - 3  # tail-form and head-form rows mix in one batch


def test_a_short_batch_reads_a_prefix_of_the_same_pattern():
    """The last batch of an estimate may be short; it is split the same way."""
    params = DelayParams()
    cells = [Cell(scenario, params, CacheConfig()) for scenario in EVERY_KIND]
    batch, alone, _ = split_batch(cells, params, Window(20_000.0), 5, 5)
    assert batch.shape == (len(cells), 5, 5)
    for k, samples in enumerate(alone):
        assert samples == [DelaySample(*batch[c, :, k].tolist()) for c in range(len(cells))], k


def test_every_batch_size_has_the_korobov_generator():
    """The kernel's generator for each batch size, 1 to 64, is the one the
    brute-force reference finds by the unweighted Korobov figure of merit."""
    assert [_lattice_generator(n) for n in range(1, BATCH_SIZE + 1)] == [
        korobov_generator(n) for n in range(1, BATCH_SIZE + 1)
    ]
    assert (_lattice_generator(64), _lattice_generator(52)) == (19, 11)


@pytest.mark.parametrize("size", [BATCH_SIZE, 44, 1])
def test_a_batch_draws_its_levels_from_a_shifted_lattice(size, monkeypatch):
    """The levels of the macro and small-cell nearest distances in a batch of
    ``size`` are ``frac(k (1, a) / size + shift)`` for the batch's recorded
    shift: a batch of one has the shift as its levels."""
    seen = []

    def spy(intensity, levels):
        seen.append(levels.copy())
        return nearest_distance(intensity, levels)

    monkeypatch.setattr(simulator, "nearest_distance", spy)
    params = DelayParams()
    recorder = Recorder(replication_rng(31, 2))
    _simulate([Cell(MacroUser(), params, CacheConfig())], params, Window(20_000.0), recorder, size)
    shift = draw(recorder.log, "shift", None)[3]
    assert np.array_equal(np.array(seen), lattice(shift, size))
    if size == 1:
        assert np.array_equal(np.array(seen)[:, 0], shift)
