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
    NEAR_RADIUS_M,
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
from test_far_field import FALLBACKS, MIXPOP

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
    # each reason the near points can leave a serving tier unsettled, caching cells beside;
    # sparse routers ("router-beyond") are averaged out, and a nearest macro cell beyond the
    # near disc ("empty-serving-tier") starts its far field, so both leave every replication settled
    **{
        f"fallback-{reason}": (params, 20_000.0, [*scenarios, NOCACHE, PER_USER])
        for reason, (params, scenarios) in FALLBACKS.items()
    },
}


SETTLED = ("fallback-router-beyond", "fallback-empty-serving-tier")


def split_batch(cells, params, window, seed, size):
    """(batch result, per-replication results as batches of one, fallback
    count, settled replications without a near macro cell).

    A replication fell back where a tier's recorded Poisson mean covers
    ``(r_t, W)``, the whole window beyond its nearest point, and not only the
    near disc ``(r_t, NEAR_RADIUS_M)``; the two are told apart only where
    they differ."""
    recorder = Recorder(replication_rng(seed, 0))
    batch = _simulate(cells, params, window, recorder, size)
    alone = []
    for script in replication_streams(recorder.log, size):
        alone.append(run_replication(cells, params, window, script))
        assert not script.draws  # the replication read all of its share
    fell_back = np.zeros(size, dtype=bool)
    for t, lam in enumerate((params.lambda_mc, params.lambda_sc)):
        closest = nearest_distance(lam, levels(recorder.log, t, size))
        means = draw(recorder.log, "counts", t)[1]
        near, whole = (
            lam * math.pi * (radius**2 - np.minimum(closest, radius) ** 2)
            for radius in (min(NEAR_RADIUS_M, window.radius), window.radius)
        )
        assert np.all((means == near) | (means == whole))
        fell_back |= (means == whole) & (near != whole)
    macro_means = draw(recorder.log, "counts", 0)[1]
    return batch, alone, int(fell_back.sum()), int((macro_means == 0).sum())


@pytest.mark.parametrize("case", list(CASES))
def test_batch_equals_its_replications_run_alone(case):
    params, radius, scenarios = CASES[case]
    cells = [Cell(scenario, params, CacheConfig()) for scenario in scenarios]
    batch, alone, fallbacks, beyond = split_batch(cells, params, Window(radius), 97, BATCH_SIZE)
    for k, samples in enumerate(alone):
        assert samples == [DelaySample(*batch[c, :, k].tolist()) for c in range(len(cells))], k
    if case.startswith("fallback-") and case not in SETTLED:
        assert fallbacks >= 3
        if case not in ("fallback-attempts-above-j-max", "fallback-pathloss-near-two"):
            assert fallbacks < BATCH_SIZE  # near-settled and fallback replications mix in one batch
    else:
        assert fallbacks == 0
    if case == "fallback-empty-serving-tier":
        assert beyond >= 3  # far fields that start at a nearest macro cell beyond the near disc


def test_a_short_batch_reads_a_prefix_of_the_same_pattern():
    """The last batch of an estimate may be short; it is split the same way."""
    params = DelayParams()
    cells = [Cell(scenario, params, CacheConfig()) for scenario in EVERY_KIND]
    batch, alone, _, _ = split_batch(cells, params, Window(20_000.0), 5, 5)
    assert batch.shape == (len(cells), 5, 5)
    for k, samples in enumerate(alone):
        assert samples == [DelaySample(*batch[c, :, k].tolist()) for c in range(len(cells))], k
