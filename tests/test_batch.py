"""The batch kernel: every replication of a batch equals that replication
run alone, as a batch of one, on the same draws.

``stream_script`` splits the draws of one batch into the share of each
replication, so the replication can be rerun through ``run_replication``
on exactly the nearest distances and interferers it had inside the batch:
its stratified level is served as a batch of one's uniform draw. The
comparison is ``==``.
"""

import math

import numpy as np
import pytest

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
    _simulate,
    replication_rng,
    run_replication,
)
from stream_script import Recorder, draw, levels, replication_streams
from test_far_field import ALL_PUSHED, EDGE_CASES, MIXPOP, WHOLE_WINDOW, near_radii, pushed

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
    # window, fences pushed past the nearest point in some replications of a batch or in all,
    # sparse routers, which push no fence, and a nearest macro cell beyond the window
    **{
        f"edge-{case}": (params, 20_000.0, [*scenarios, NOCACHE, PER_USER])
        for case, (params, scenarios) in EDGE_CASES.items()
    },
}


def split_batch(cells, params, window, seed, size):
    """(batch result, per-replication results as batches of one, count of
    (tier, replication) pairs whose fence pushes the near radius out).

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
    return batch, alone, int(pushed(closest, radii, params).sum())


@pytest.mark.parametrize("case", list(CASES))
def test_batch_equals_its_replications_run_alone(case):
    params, radius, scenarios = CASES[case]
    cells = [Cell(scenario, params, CacheConfig()) for scenario in scenarios]
    batch, alone, moved = split_batch(cells, params, Window(radius), 97, BATCH_SIZE)
    for k, samples in enumerate(alone):
        assert samples == [DelaySample(*batch[c, :, k].tolist()) for c in range(len(cells))], k
    if case[5:] in WHOLE_WINDOW:
        assert moved == 0
    elif case[5:] in ALL_PUSHED:
        assert moved == 2 * BATCH_SIZE
    else:
        assert 3 <= moved <= 2 * BATCH_SIZE - 3  # pushed and unpushed near radii mix in one batch


def test_a_short_batch_reads_a_prefix_of_the_same_pattern():
    """The last batch of an estimate may be short; it is split the same way."""
    params = DelayParams()
    cells = [Cell(scenario, params, CacheConfig()) for scenario in EVERY_KIND]
    batch, alone, _ = split_batch(cells, params, Window(20_000.0), 5, 5)
    assert batch.shape == (len(cells), 5, 5)
    for k, samples in enumerate(alone):
        assert samples == [DelaySample(*batch[c, :, k].tolist()) for c in range(len(cells))], k
