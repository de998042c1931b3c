"""The batch kernel: every replication of a batch equals that replication
run alone, as a batch of one, on the same draws.

``stream_script`` splits the draws of one batch into the share of each
replication, so the replication can be rerun through ``run_replication``
on exactly the nearest distances and interferers it had inside the batch:
its pair of lattice levels is served as the shift of a batch of one. The
comparison is ``==``. In turn, a run of batches that one kernel call takes
together equals its batches run one at a time, each on its own stream, and
the config alone fixes which batches share a call.
"""

import math
from concurrent.futures import Executor, Future

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
from stream_script import DRAWS, Recorder, draw, layout, levels, replication_streams
from test_far_field import EDGE_CASES, MIXPOP, whole_window

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
    # the edges of the far field, caching cells beside: configs that sample the whole window,
    # batches whose far field starts at z spanning decades, sparse routers, which move no far
    # field, and a nearest macro cell beyond the window
    **{
        f"edge-{case}": (params, 20_000.0, [*scenarios, NOCACHE, PER_USER])
        for case, (params, scenarios) in EDGE_CASES.items()
    },
}


def split_batch(cells, params, window, seed, size):
    """(batch result, per-replication results as batches of one).

    A whole-window batch's recorded Poisson mean of each tier must cover
    exactly ``(r_t, W)``; an averaged batch draws its lattice's shift alone."""
    recorder = Recorder(replication_rng(seed, 0))
    batch = _simulate(cells, params, window, recorder, size)
    alone = []
    for script in replication_streams(recorder.log, size):
        alone.append(run_replication(cells, params, window, script))
        assert not script.draws  # the replication read all of its share
    lambdas = (params.lambda_mc, params.lambda_sc)
    closest = np.array([nearest_distance(lam, levels(recorder.log, t, size)) for t, lam in enumerate(lambdas)])
    assert layout(recorder.log) == (DRAWS if whole_window(params) else DRAWS[:1])
    if whole_window(params):
        radius = window.radius
        for t, lam in enumerate(lambdas):
            means = draw(recorder.log, "counts", t)[1]
            assert np.array_equal(means, lam * math.pi * (radius**2 - np.minimum(closest[t], radius) ** 2))
    return batch, alone


@pytest.mark.parametrize("case", list(CASES))
def test_batch_equals_its_replications_run_alone(case):
    params, radius, scenarios = CASES[case]
    cells = [Cell(scenario, params, CacheConfig()) for scenario in scenarios]
    batch, alone = split_batch(cells, params, Window(radius), 97, BATCH_SIZE)
    for k, samples in enumerate(alone):
        assert samples == [DelaySample(*batch[c, :, k].tolist()) for c in range(len(cells))], k


def test_a_short_batch_reads_a_prefix_of_the_same_pattern():
    """The last batch of an estimate may be short; it is split the same way."""
    params = DelayParams()
    cells = [Cell(scenario, params, CacheConfig()) for scenario in EVERY_KIND]
    batch, alone = split_batch(cells, params, Window(20_000.0), 5, 5)
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

    def spy(cells, params, draws):
        calls.append([(draw.closest.shape[1], int(draw.counts.sum())) for draw in draws])
        return kernel(cells, params, draws)

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
    assert [len(batches) for batches in calls] == [4]  # one kernel call, whatever its sampled points
    assert span.shape == (len(cells), STOP - START, 3)
    assert np.array_equal(span, batch_by_batch(cells, params, Window(radius), 43, START, STOP))


def test_an_averaged_task_runs_as_one_kernel_call(monkeypatch):
    """An averaged config samples no interferer, so a task of 20 batches,
    1 280 replications within the budget, is one kernel call."""
    params = DelayParams()
    cells = [Cell(scenario, params, CacheConfig()) for scenario in EVERY_KIND]
    calls = spy_kernel(monkeypatch)
    _run_batch(cells, params, Window(20_000.0), 7, 0, 20 * BATCH_SIZE)
    assert calls == [[(BATCH_SIZE, 0)] * 20]


def spy_spans(monkeypatch):
    """Record the (parameter set, start, stop) of every task ``estimate`` hands ``_run_batch``."""
    spans = []
    run_batch = simulator._run_batch

    def spy(cells, params, window, master_seed, start, stop):
        spans.append((params, start, stop))
        return run_batch(cells, params, window, master_seed, start, stop)

    monkeypatch.setattr(simulator, "_run_batch", spy)
    return spans


class InProcessPool(Executor):
    """Runs each task as it is submitted, in this process, so a spy sees the tasks a pool would get."""

    started = []  # the max_workers of every pool, in order

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def submit(self, fn, /, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


# the call size each config fixes: 32 batches where nothing is sampled, else as many as bring a
# call's replications and expected sampled points to the budget of 2 048; at the default
# intensities the whole 20 km window holds about 8 000 points per replication, a 1 km window 20
WHOLE = DelayParams(max_attempts=J_MAX + 1)
CALL_SIZES = {
    "averaged": (DelayParams(), 20_000.0, 32),
    "whole-20km": (WHOLE, 20_000.0, 1),
    "whole-1km": (WHOLE, 1000.0, 2),
}


@pytest.mark.parametrize("case", list(CALL_SIZES))
def test_a_kernel_call_holds_the_batches_its_config_fixes(case, monkeypatch):
    params, radius, batches = CALL_SIZES[case]
    spans = spy_spans(monkeypatch)
    # no batch is drawn or run: each stands for its size
    monkeypatch.setattr(simulator, "_draw", lambda params, window, rng, size: size)
    monkeypatch.setattr(simulator, "_kernel", lambda cells, params, sizes: np.zeros((1, 5, sum(sizes))))
    step = batches * BATCH_SIZE
    simulator.estimate([Cell(MacroUser(), params, CacheConfig())], Window(radius), 2 * step + 5, 3, workers=1)
    assert spans == [(params, 0, step), (params, step, 2 * step), (params, 2 * step, 2 * step + 5)]


def test_the_tasks_do_not_depend_on_the_worker_count(monkeypatch):
    """Two parameter sets of three kernel calls each, the last of two batches:
    every worker count hands ``_run_batch`` the same spans, and from two
    workers on a pool schedules them."""
    cells = [
        Cell(scenario, params, CacheConfig())
        for params in (DelayParams(), DelayParams(lambda_mc=2e-6))
        for scenario in [MacroUser(), MIXPOP]
    ]
    monkeypatch.setattr(simulator, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "started", [])
    spans = spy_spans(monkeypatch)
    seen, results = [], []
    for workers in (1, 2, 3):
        results.append(simulator.estimate(cells, Window(5000.0), 2 * simulator.KERNEL_BUDGET + 70, 13, workers))
        seen.append(spans.copy())
        spans.clear()
    assert InProcessPool.started == [2, 3]
    assert seen[0] == seen[1] == seen[2] and len(seen[0]) == 6
    assert results[0] == results[1] == results[2]
