"""The batch kernel: every replication of a batch equals that replication
run alone, as a batch of one, on the same draws.

``stream_script`` splits the one draw of a batch into the share of each
replication, so the replication can be rerun through ``run_replication``
on exactly the nearest points it had inside the batch: its pair of
lattice levels is served as the shift of a batch of one. The comparison is
``==``. In turn, a run of batches that one kernel call takes
together equals its batches run one at a time, each on its own stream, and
the config alone fixes which batches share a call.
"""

from concurrent.futures import Executor, Future

import numpy as np
import pytest

from hetsim import simulator
from hetsim.analytics import DelayParams
from hetsim.caching import CacheConfig, CachePolicy
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
from stream_script import Recorder, replication_streams, shift
from test_far_field import EDGE_CASES, MIXPOP

NOCACHE = SmallUser(policy=CachePolicy.NO_CACHE)
PER_USER = SmallUser(
    policy=CachePolicy.MIX_POP, model=DistanceDependent(), distance_mode=DistanceMode.PER_USER
)
LOAD = SmallUser(policy=CachePolicy.MIX_POP, model=LoadDependent())
EVERY_KIND = [MacroUser(), NOCACHE, MIXPOP, PER_USER, LOAD]

CASES = {
    "every-kind": (DelayParams(), EVERY_KIND),
    "no-cache": (DelayParams(), [MacroUser(), NOCACHE]),
    "macro-only": (DelayParams(), [MacroUser()]),
    # the edges of the far field, caching cells beside: far moments from the coverage chain,
    # batches whose far field starts at z spanning decades, sparse routers, which move no far
    # field, and a nearest macro cell kilometres out
    **{f"edge-{case}": (params, [*scenarios, NOCACHE, PER_USER]) for case, (params, scenarios) in EDGE_CASES.items()},
}


def split_batch(cells, params, seed, size):
    """(batch result, per-replication results as batches of one); every batch draws its lattice's
    shift alone."""
    recorder = Recorder(replication_rng(seed, 0))
    batch = _simulate(cells, params, recorder, size)
    alone = []
    for script in replication_streams(recorder.log, size):
        alone.append(run_replication(cells, params, script))
        assert not script.draws  # the replication read all of its share
    return batch, alone


@pytest.mark.parametrize("case", list(CASES))
def test_batch_equals_its_replications_run_alone(case):
    params, scenarios = CASES[case]
    cells = [Cell(scenario, params, CacheConfig()) for scenario in scenarios]
    batch, alone = split_batch(cells, params, 97, BATCH_SIZE)
    for k, samples in enumerate(alone):
        assert samples == [DelaySample(*batch[c, :, k].tolist()) for c in range(len(cells))], k


def test_a_short_batch_reads_a_prefix_of_the_same_pattern():
    """The last batch of an estimate may be short; it is split the same way."""
    params = DelayParams()
    cells = [Cell(scenario, params, CacheConfig()) for scenario in EVERY_KIND]
    batch, alone = split_batch(cells, params, 5, 5)
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
    """The levels ``U`` of the macro and small-cell nearest points in a batch
    of ``size`` are ``frac(k (1, a) / size + shift)`` for the batch's recorded
    shift, and the kernel runs on the counts ``-log(1 - U)``: a batch of one
    has the shift as its levels."""
    seen = []
    kernel = simulator._kernel

    def spy(cells, params, counts):
        seen.append(counts.copy())
        return kernel(cells, params, counts)

    monkeypatch.setattr(simulator, "_kernel", spy)
    params = DelayParams()
    recorder = Recorder(replication_rng(31, 2))
    _simulate([Cell(MacroUser(), params, CacheConfig())], params, recorder, size)
    assert np.array_equal(seen[0], -np.log1p(-lattice(shift(recorder.log), size)))
    if size == 1:
        assert np.array_equal(seen[0][:, 0], -np.log1p(-shift(recorder.log)))


def batch_by_batch(cells, params, seed, start, stop):
    """``_run_batch``'s rows from one ``_simulate`` per batch, each on its own stream."""
    rows = []
    for first in range(start, stop, BATCH_SIZE):
        rng = replication_rng(seed, first // BATCH_SIZE)
        size = min(first + BATCH_SIZE, stop) - first
        downlink, tail, _, outage, hit = _simulate(cells, params, rng, size).swapaxes(0, 1)
        rows.append(np.stack((downlink + tail, outage, hit), axis=-1))
    return np.concatenate(rows, axis=1)


def spy_kernel(monkeypatch):
    """Record the replications of every kernel call."""
    calls = []
    kernel = simulator._kernel

    def spy(cells, params, counts):
        calls.append(counts.shape[1])
        return kernel(cells, params, counts)

    monkeypatch.setattr(simulator, "_kernel", spy)
    return calls


# the second to fifth batches of a stream: three full batches and a short one
START, STOP = BATCH_SIZE, 4 * BATCH_SIZE + 23


@pytest.mark.parametrize("case", list(CASES))
def test_a_span_equals_its_batches_run_one_at_a_time(case, monkeypatch):
    params, scenarios = CASES[case]
    cells = [Cell(scenario, params, CacheConfig()) for scenario in scenarios]
    calls = spy_kernel(monkeypatch)
    span = _run_batch(cells, params, 43, START, STOP)
    assert calls == [STOP - START]  # one kernel call
    assert span.shape == (len(cells), STOP - START, 3)
    assert np.array_equal(span, batch_by_batch(cells, params, 43, START, STOP))


@pytest.mark.parametrize("max_attempts", [4, J_MAX + 1])
def test_a_task_draws_each_batch_once_and_runs_one_kernel_call(max_attempts, monkeypatch):
    """No config samples an interferer, so a task of 20 batches, 1 280
    replications within the budget, reads one draw from each batch's stream,
    the shift of its lattice, and is one kernel call, whichever side of
    ``J_MAX`` its far moments come from."""
    params = DelayParams(max_attempts=max_attempts)
    cells = [Cell(scenario, params, CacheConfig()) for scenario in EVERY_KIND]
    calls = spy_kernel(monkeypatch)
    streams = []

    def recorded_stream(master_seed, index):
        streams.append(Recorder(replication_rng(master_seed, index)))
        return streams[-1]

    monkeypatch.setattr(simulator, "replication_rng", recorded_stream)
    _run_batch(cells, params, 7, 0, 20 * BATCH_SIZE)
    assert calls == [20 * BATCH_SIZE]
    assert len(streams) == 20
    for stream in streams:
        shift(stream.log)  # the shift alone


def test_a_kernel_call_takes_the_serving_tiers_terms_once(monkeypatch):
    """A call of ``KERNEL_BUDGET`` replications of a macro and a small-cell cell takes ``rho_terms``
    at 2 x (2 048 + 1) values of ``z``: per serving tier, the rival's nearest point in every
    replication and the SIR target, where the serving tier's own far field starts in all of them."""
    seen = []
    rho_terms = simulator.rho_terms

    def spy(z, alpha, m):
        seen.append(np.size(z))
        return rho_terms(z, alpha, m)

    monkeypatch.setattr(simulator, "rho_terms", spy)
    params = DelayParams()
    cells = [Cell(scenario, params, CacheConfig()) for scenario in (MacroUser(), NOCACHE)]
    _run_batch(cells, params, 3, 0, simulator.KERNEL_BUDGET)
    assert sorted(seen) == [1, 1, simulator.KERNEL_BUDGET, simulator.KERNEL_BUDGET]


def spy_spans(monkeypatch):
    """Record the (parameter set, start, stop) of every task ``estimate`` hands ``_run_batch``."""
    spans = []
    run_batch = simulator._run_batch

    def spy(cells, params, master_seed, start, stop):
        spans.append((params, start, stop))
        return run_batch(cells, params, master_seed, start, stop)

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


@pytest.mark.parametrize("max_attempts", [4, J_MAX, J_MAX + 1, 60])
def test_a_kernel_call_holds_the_budget_at_every_max_attempts(max_attempts, monkeypatch):
    """Every config's kernel calls hold ``KERNEL_BUDGET`` replications, 32 batches, and the last
    call the rest: the chain builds its matrices one batch at a time, so no config needs smaller
    calls."""
    params = DelayParams(max_attempts=max_attempts)
    spans = spy_spans(monkeypatch)
    # no batch is drawn or run: each stands for its size
    monkeypatch.setattr(simulator, "_draw", lambda rng, size: np.zeros((2, size)))
    monkeypatch.setattr(simulator, "_kernel", lambda cells, params, counts: np.zeros((1, 5, counts.shape[1])))
    step = simulator.KERNEL_BUDGET
    assert step == 32 * BATCH_SIZE
    simulator.estimate([Cell(MacroUser(), params, CacheConfig())], 2 * step + 5, 3, workers=1)
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
        results.append(simulator.estimate(cells, 2 * simulator.KERNEL_BUDGET + 70, 13, workers))
        seen.append(spans.copy())
        spans.clear()
    assert InProcessPool.started == [2, 3]
    assert seen[0] == seen[1] == seen[2] and len(seen[0]) == 6
    assert results[0] == results[1] == results[2]
