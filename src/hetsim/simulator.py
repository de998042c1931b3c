"""Monte Carlo estimation of the average content-delivery delay.

One replication draws fresh network geometry (routers, macro and small
cells), takes the expected retransmission delay from the nearest base
station of the scenario's tier given that geometry, and then appends the
expected tail delay: the mean backhaul delay for macro users, and for
small-cell users a cache read with the request's hit probability and the
mean backhaul delay otherwise. The Rayleigh fading, the exponential
backhaul and cache-read delays and the random cache slice are averaged
out exactly, not sampled (conditional Monte Carlo); only the geometry and
the request are drawn.

A cell is one (scenario, cache config) pair at one parameter set.
Replication ``i`` consumes the random stream derived from (master_seed, i):
the geometry first, then, if any of its cells caches, one uniform ``u``.
Cells that share a parameter set see the same geometry in replication
``i``, and every caching cell maps the same ``u`` to its request through
its own steepness, so scenarios and storage values are paired (common
random numbers). Macro and no-cache cells draw nothing after the
geometry, and a cell's samples do not depend on which other cells are
estimated alongside it.

Replications are embarrassingly parallel. Partial results are placed by
index, so an estimate is bit-identical regardless of worker count or
execution order. One process pool, capped by HETSIM_THREADS, serves all
cells of an ``estimate`` call.
"""

from __future__ import annotations

import enum
import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .caching import CacheConfig, CachePolicy, is_hit, require_valid
from .errors import InvalidConfigError, InvalidParameterError
from .geometry import PointSet, Tier, Window, nearest, sample_ppp
from .popularity import DistanceDependent, Fixed, PopularityModel, effective_eta, sample_request
from .analytics import DelayParams

BATCH_SIZE = 256  # fixed so results never depend on worker count
CI_Z = 1.959963984540054  # two-sided 95% normal quantile


class DistanceMode(str, enum.Enum):
    AVERAGED = "averaged"
    PER_USER = "per-user"


@dataclass(frozen=True)
class MacroUser:
    pass


@dataclass(frozen=True)
class SmallUser:
    policy: CachePolicy = CachePolicy.NO_CACHE
    model: PopularityModel = Fixed(1.45)
    distance_mode: DistanceMode = DistanceMode.AVERAGED


Scenario = MacroUser | SmallUser


def _caches(scenario: Scenario) -> bool:
    """Whether the scenario's user has a cache, so its cell draws a request."""
    return isinstance(scenario, SmallUser) and scenario.policy is not CachePolicy.NO_CACHE


@dataclass(frozen=True)
class Cell:
    """One (scenario, cache config) pair at one parameter set: one simulated CSV row."""

    scenario: Scenario
    params: DelayParams
    cache: CacheConfig


@dataclass(frozen=True)
class DelaySample:
    """One replication of one cell: expectations given its geometry and request.

    ``hit`` is the request's hit probability, ``tail_ms`` the mean
    backhaul or cache-read delay it implies.
    """

    downlink_ms: float
    tail_ms: float
    attempts: float
    outage: float
    hit: float

    @property
    def total_ms(self) -> float:
        return self.downlink_ms + self.tail_ms


@dataclass(frozen=True)
class DelayEstimate:
    mean_ms: float
    ci_low_ms: float
    ci_high_ms: float
    replications: int
    outage_rate: float
    hit_rate: float


def _gains(radius: np.ndarray, power: float, alpha: float) -> np.ndarray:
    """Received-power coefficients power * r^(-alpha) for unit fading."""
    if alpha == 4.0:  # dominant case; avoids a large pow() bill
        r2 = radius * radius
        return power / (r2 * r2)
    return power * radius**-alpha


def downlink_delay(
    serving_tier: Tier,
    serving_index: int,
    macro_gains: np.ndarray,
    small_gains: np.ndarray,
    target_sir: float,
    slot_ms: float,
    max_attempts: int,
) -> tuple[float, float, float]:
    """The retransmission protocol over one fixed geometry, fading averaged out exactly.

    This is the package's SIR model of the typical user at the origin. The
    gain arrays hold each point's received power under unit fading
    (``_gains``). The network is interference-limited: an attempt succeeds
    when the serving power over the summed power of every other point of
    both tiers clears ``target_sir``. Fading powers are i.i.d. Exp(1) per
    point and attempt, so given the geometry every attempt succeeds with
    ``q = prod_{j != serving} 1 / (1 + target_sir * g_j / g_serving)``.
    Returns (expected attempts ``sum_{k<M} (1-q)^k``, outage probability
    ``(1-q)^M``, ``slot_ms * attempts``) for M = ``max_attempts``; every
    attempt costs a slot. Draws no random number.
    """
    own = macro_gains if serving_tier is Tier.MACRO else small_gains
    if not 0 <= serving_index < own.size:
        raise InvalidParameterError(f"serving index {serving_index} outside its tier")
    scale = target_sir / own[serving_index]
    minus_log_q = 0.0
    for gains in (macro_gains, small_gains):
        terms = gains * scale
        if gains is own:
            terms[serving_index] = 0.0  # the signal is no interferer: log1p(0) = 0
        minus_log_q += float(np.log1p(terms, out=terms).sum())
    miss = -math.expm1(-minus_log_q)
    # term by term, so q -> 0 and q -> 1 need no division and no branch
    attempts, term = 0.0, 1.0
    for _ in range(max_attempts):
        attempts += term
        term *= miss
    return attempts, term, slot_ms * attempts


def _serve(
    tier: Tier,
    routers: PointSet,
    macro: PointSet,
    small: PointSet,
    gains: tuple[np.ndarray, np.ndarray],
    params: DelayParams,
) -> tuple[float, float, tuple[float, float, float]]:
    """(serving distance, mean backhaul delay, downlink_delay) of one serving tier."""
    if tier is Tier.MACRO:
        serving_set, lambda_tier = macro, params.lambda_mc
    else:
        serving_set, lambda_tier = small, params.lambda_sc
    serving_index, serving_distance = nearest(serving_set)

    downlink = downlink_delay(
        tier, serving_index, *gains, params.radio.target_sir, params.slot_ms, params.max_attempts
    )
    _, router_distance = nearest(routers, reference=serving_set.point(serving_index))
    backhaul_mean = params.backhaul_beta * router_distance * (lambda_tier / params.lambda_cr)
    return serving_distance, backhaul_mean, downlink


def run_replication(
    cells: Sequence[Cell],
    params: DelayParams,
    window: Window,
    rng: np.random.Generator,
) -> list[DelaySample]:
    """Sample one end-to-end delay of the typical user for every cell.

    All cells must carry ``params``. They share one geometry, its received
    powers and one downlink per serving tier. After the geometry, one
    uniform is drawn if some cell caches, and every caching cell maps that
    uniform to its request; macro and no-cache cells draw nothing.
    """
    routers = sample_ppp(params.lambda_cr, window, rng, Tier.CENTRAL_ROUTER)
    macro = sample_ppp(params.lambda_mc, window, rng, Tier.MACRO)
    small = sample_ppp(params.lambda_sc, window, rng, Tier.SMALL_CELL)
    u = rng.random() if any(_caches(cell.scenario) for cell in cells) else None
    radio = params.radio
    gains = (
        _gains(macro.r, radio.power_macro, radio.pathloss_exponent),
        _gains(small.r, radio.power_small, radio.pathloss_exponent),
    )

    links = {}  # serving tier -> _serve's outcome, shared by every cell of that tier
    samples = []
    for cell in cells:
        scenario = cell.scenario
        tier = Tier.MACRO if isinstance(scenario, MacroUser) else Tier.SMALL_CELL
        if tier not in links:
            links[tier] = _serve(tier, routers, macro, small, gains, params)
        serving_distance, backhaul_mean, (attempts, outage, downlink) = links[tier]

        hit = 0.0
        if _caches(scenario):
            override = (
                serving_distance
                if scenario.distance_mode is DistanceMode.PER_USER
                and isinstance(scenario.model, DistanceDependent)
                else None
            )
            eta = effective_eta(scenario.model, params.lambda_sc, params.lambda_ut, override)
            hit = is_hit(sample_request(eta, u), scenario.policy, cell.cache)

        tail = hit * params.cache_read_mean_ms + (1.0 - hit) * backhaul_mean
        samples.append(DelaySample(downlink, tail, attempts, outage, hit))
    return samples


def replication_rng(master_seed: int, index: int) -> np.random.Generator:
    """The stream replication ``index`` consumes, independent of execution order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


def _run_batch(cells, params, window, master_seed, start, stop):
    """Replications [start, stop) of cells sharing ``params``: (total, outage, hit) per (cell, rep)."""
    out = np.empty((len(cells), stop - start, 3))
    for i, rep in enumerate(range(start, stop)):
        samples = run_replication(cells, params, window, replication_rng(master_seed, rep))
        for c, sample in enumerate(samples):
            out[c, i] = sample.total_ms, sample.outage, sample.hit
    return out


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        env = os.environ.get("HETSIM_THREADS")
        if env is not None:
            try:
                workers = int(env)
            except ValueError:
                raise InvalidConfigError(
                    f"HETSIM_THREADS must be an integer worker count, got {env!r}"
                ) from None
        else:
            workers = min(os.cpu_count() or 1, 8)
    return max(1, workers)


def _check_cell(cell: Cell) -> None:
    """Fail fast on an invalid cache or an unresolvable steepness, not inside a worker."""
    scenario = cell.scenario
    if _caches(scenario):
        require_valid(scenario.policy, cell.cache)
        if scenario.distance_mode is DistanceMode.AVERAGED or not isinstance(
            scenario.model, DistanceDependent
        ):
            effective_eta(scenario.model, cell.params.lambda_sc, cell.params.lambda_ut)


def _summarize(samples: np.ndarray) -> DelayEstimate:
    """Estimate from one cell's (total, outage, hit) rows."""
    totals, outages, hits = samples.T
    replications = totals.size
    mean = float(np.mean(totals))
    if replications > 1:
        half = CI_Z * float(np.std(totals, ddof=1)) / math.sqrt(replications)
    else:
        half = 0.0
    return DelayEstimate(
        mean_ms=mean,
        ci_low_ms=mean - half,
        ci_high_ms=mean + half,
        replications=replications,
        outage_rate=float(np.mean(outages)),
        hit_rate=float(np.mean(hits)),
    )


def estimate(
    cells: Sequence[Cell],
    window: Window,
    replications: int,
    master_seed: int,
    workers: int | None = None,
) -> list[DelayEstimate]:
    """Mean delay of every cell with a 95% normal-approximation confidence interval.

    Cells that share a parameter set are simulated together (see
    run_replication). Every (parameter set, batch of replications) pair
    is one task, and one process pool runs them all. Pure function of its
    arguments: the per-replication streams and the index-ordered reduction
    make the result independent of ``workers`` (default: HETSIM_THREADS,
    else the CPU count) and of which other cells are estimated alongside.
    """
    if replications < 1:
        raise InvalidParameterError(f"replications must be >= 1, got {replications}")
    groups: dict[DelayParams, list[int]] = {}
    for index, cell in enumerate(cells):
        _check_cell(cell)
        groups.setdefault(cell.params, []).append(index)

    workers = _resolve_workers(workers)
    spans = [(start, min(start + BATCH_SIZE, replications)) for start in range(0, replications, BATCH_SIZE)]
    keys = [
        (params, members, start, stop)
        for params, members in groups.items()
        for start, stop in spans
    ]
    tasks = [
        ([cells[i] for i in members], params, window, master_seed, start, stop)
        for params, members, start, stop in keys
    ]
    if workers == 1 or len(tasks) <= 1:
        results = (_run_batch(*task) for task in tasks)
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = [pool.submit(_run_batch, *task) for task in tasks]
            results = [f.result() for f in futures]

    samples = np.empty((len(cells), replications, 3))
    for (_, members, start, stop), batch in zip(keys, results):
        samples[members, start:stop] = batch
    return [_summarize(samples[c]) for c in range(len(cells))]
