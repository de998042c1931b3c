"""The batch kernel: every replication of a batch equals that replication
run alone, as a batch of one, on the same draws.

``stream_script`` splits the draws of one batch into the share of each
replication, so the replication can be rerun through ``run_replication``
on exactly the nearest distances and interferers it had inside the batch:
its pair of lattice levels is served as the shift of a batch of one. The
comparison is ``==``. In turn, a run of batches that one kernel call takes
together equals its batches run one at a time, each on its own stream.
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
    J_MAX,
    Cell,
    DelaySample,
    DistanceMode,
    MacroUser,
    SmallUser,
    _lattice_generator,
    _run_batch,
    _simulate,
    replication_rng,
    run_replication,
)
from lattice_reference import korobov_generator, lattice
from stream_script import Recorder, draw, levels, replication_streams
from test_far_field import EDGE_CASES, MIXED_FORMS, MIXPOP, WHOLE_WINDOW, near_radii, tail_rows

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


def batch_by_batch(cells, params, window, seed, start, stop):
    """``_run_batch``'s rows from one ``_simulate`` per batch, each on its own stream."""
    rows = []
    for first in range(start, stop, BATCH_SIZE):
        rng = replication_rng(seed, first // BATCH_SIZE)
        size = min(first + BATCH_SIZE, stop) - first
        downlink, tail, _, outage, hit = _simulate(cells, params, window, rng, size).swapaxes(0, 1)
        rows.append(np.stack((downlink + tail, outage, hit), axis=-1))
    return np.concatenate(rows, axis=1)


def spy_kernel(monkeypatch):
    """Record, for every kernel call, the (replications, sampled interferers) of each of its batches."""
    calls = []
    kernel = simulator._kernel

    def spy(cells, params, window, draws):
        calls.append([(draw.closest.shape[1], int(draw.counts.sum())) for draw in draws])
        return kernel(cells, params, window, draws)

    monkeypatch.setattr(simulator, "_kernel", spy)
    return calls


# the second to fifth batches of a stream: three full batches and a short one
START, STOP = BATCH_SIZE, 4 * BATCH_SIZE + 23


@pytest.mark.parametrize("case", list(CASES))
def test_a_span_equals_its_batches_run_one_at_a_time(case, monkeypatch):
    params, radius, scenarios = CASES[case]
    cells = [Cell(scenario, params, CacheConfig()) for scenario in scenarios]
    calls = spy_kernel(monkeypatch)
    span = _run_batch(cells, params, Window(radius), 43, START, STOP)
    # an averaged config samples no interferer, so its whole span is one kernel call; a
    # whole-window batch at 20 km alone holds more sampled points than the budget
    assert len(calls) == (4 if case[5:] in WHOLE_WINDOW else 1)
    assert span.shape == (len(cells), STOP - START, 3)
    assert np.array_equal(span, batch_by_batch(cells, params, Window(radius), 43, START, STOP))


@pytest.mark.parametrize("case", WHOLE_WINDOW)
def test_a_budget_that_splits_a_whole_window_span_changes_no_number(case, monkeypatch):
    """At a budget of about one and a half batches' sampled points, the
    span runs as several kernel calls that each hold more than one batch."""
    params, scenarios = EDGE_CASES[case]
    cells = [Cell(scenario, params, CacheConfig()) for scenario in scenarios]
    window = Window(20_000.0)
    calls = spy_kernel(monkeypatch)
    _run_batch(cells, params, window, 43, START, START + BATCH_SIZE)
    monkeypatch.setattr(simulator, "KERNEL_BUDGET", 3 * sum(calls[0][0]) // 2)
    calls.clear()
    span = _run_batch(cells, params, window, 43, START, STOP)
    assert [len(batches) for batches in calls] == [2, 2]
    assert np.array_equal(span, batch_by_batch(cells, params, window, 43, START, STOP))


@pytest.mark.parametrize("radius", [1000.0, 2000.0, 20_000.0])
def test_whole_window_kernel_calls_hold_at_most_the_budget_and_one_batch(radius, monkeypatch):
    """Every kernel call holds batches until their replications and sampled
    interferers reach the budget, so all but its last batch stay below it.
    On a 1 km window, where a batch samples about 1 150 points, calls take
    several batches; from 2 km on, one batch alone exceeds the budget."""
    params = DelayParams(max_attempts=J_MAX + 1)
    cells = [Cell(scenario, params, CacheConfig()) for scenario in [MacroUser(), MIXPOP]]
    calls = spy_kernel(monkeypatch)
    _run_batch(cells, params, Window(radius), 7, 0, 40 * BATCH_SIZE)
    assert sum(len(batches) for batches in calls) == 40
    for batches in calls:
        assert sum(reps + points for reps, points in batches[:-1]) < simulator.KERNEL_BUDGET
        assert sum(points for _, points in batches) <= simulator.KERNEL_BUDGET + batches[-1][1]
    assert (max(len(batches) for batches in calls) > 1) == (radius < 2000.0)


def test_an_averaged_task_runs_as_one_kernel_call(monkeypatch):
    """An averaged config samples no interferer, so a task of 20 batches,
    1 280 replications within the budget, is one kernel call."""
    params = DelayParams()
    cells = [Cell(scenario, params, CacheConfig()) for scenario in EVERY_KIND]
    calls = spy_kernel(monkeypatch)
    _run_batch(cells, params, Window(20_000.0), 7, 0, 20 * BATCH_SIZE)
    assert calls == [[(BATCH_SIZE, 0)] * 20]
