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

The geometry is sampled in a near disc of radius
``min(NEAR_RADIUS_M, window.radius)``. The points of the annulus between
it and the window are an independent PPP, so given the near points their
interference is averaged out exactly through its probability generating
functional (``far_log_moments``). The estimand stays the model on the
whole window. A serving tier that the near points cannot settle (it has
no near point, an annulus router could be nearer to its server than every
near router, or ``max_attempts > J_MAX``), or whose far moments would leave
the checked domain of their closed form (``FAR_ALPHA_MIN``,
``FAR_Z_MAX``), falls back to sampling the annulus and running the same
kernel on the union of both point sets.

A cell is one (scenario, cache config) pair at one parameter set.
Replication ``i`` consumes the random stream derived from (master_seed, i):
the near points first, then one uniform ``u``, then, only if some serving
tier falls back, the annulus points. When the window fits in the near disc
there is no annulus, nothing is drawn after ``u``, and ``u`` itself is
drawn only if some cell caches. Otherwise ``u`` is always drawn, so the
annulus starts at the same stream position whichever cells run together.
Cells that share a parameter set see the same geometry in replication
``i``, and every caching cell maps the same ``u`` to its request through
its own steepness, so scenarios and storage values are paired (common
random numbers). A cell's samples do not depend on which other cells are
estimated alongside it.

Replications are embarrassingly parallel. Partial results are placed by
index, so an estimate is bit-identical regardless of worker count or
execution order. One process pool, capped by HETSIM_THREADS, serves all
cells of an ``estimate`` call.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import mul

import numpy as np
from scipy.special import hyp2f1

from .caching import CacheConfig, CachePolicy, is_hit, require_valid
from .errors import InvalidConfigError, InvalidParameterError
from .geometry import PointSet, Tier, Window, nearest, sample_ppp
from .popularity import DistanceDependent, Fixed, PopularityModel, effective_eta, sample_request
from .analytics import DelayParams
from .channel import RadioParams

BATCH_SIZE = 256  # fixed so results never depend on worker count
NEAR_RADIUS_M = 5000.0  # points beyond it are sampled only when the near field falls back
J_MAX = 12  # largest max_attempts whose far-field expansion stays accurate
# the domain where far_log_moments' hyp2f1 closed form is checked against quadrature;
# as alpha nears 2 its two terms cancel, and at large arguments hyp2f1 loses digits
FAR_ALPHA_MIN = 2.1
FAR_Z_MAX = 1e4  # largest s_t R^-alpha
_LOG_2 = math.log(2.0)
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


def far_log_moments(
    scales: Sequence[float],
    intensities: Sequence[float],
    alpha: float,
    inner: float,
    outer: float,
    max_attempts: int,
) -> list[float]:
    """``Lambda_i = -log E[Q^i]`` for i = 1..max_attempts, exactly.

    ``Q = prod_j 1 / (1 + s_t r_j^-alpha)`` runs over the points of
    independent PPPs of the given intensities on the annulus
    ``inner <= r < outer``, tier ``t`` scaled by ``scales[t]``. By the PGFL,
    ``Lambda_i = sum_t 2 pi lambda_t int (1 - (1 + s_t r^-alpha)^-i) r dr``
    over the annulus, which is
    ``pi lambda_t [r^2 (F_i(s_t r^-alpha) - 1)]`` from ``outer`` to ``inner``
    with ``F_i(z) = 2F1(i, -2/alpha; 1 - 2/alpha; -z)``.
    """
    delta = 2.0 / alpha
    ends = ((inner, 1.0), (outer, -1.0))
    z = np.array([-s * r**-alpha for s in scales for r, _ in ends])
    weights = [math.pi * lam * sign * r * r for lam in intensities for r, sign in ends]
    excess = hyp2f1(np.arange(1, max_attempts + 1), -delta, 1.0 - delta, z[:, None]) - 1.0
    return np.dot(weights, excess).tolist()


@functools.cache
def _binomials(m: int) -> tuple[tuple[int, ...], ...]:
    """Row k holds ``C(k, j)`` for j = 0..k, k = 0..m."""
    return tuple(tuple(math.comb(k, j) for j in range(k + 1)) for k in range(m + 1))


@functools.cache
def _signed_binomials(m: int) -> tuple[tuple[int, ...], ...]:
    """Row j - 1 holds ``C(j, i) (-1)^i`` for i = 1..j, j = 1..m."""
    return tuple(tuple((-1) ** i * c for i, c in enumerate(row) if i) for row in _binomials(m)[1:])


def far_z_moments(log_moments: Sequence[float]) -> list[float]:
    """``E[Z^j]`` for ``Z = 1 - Q`` and j = 1..len, from ``Lambda_i = -log E[Q^i]``.

    ``E[Z^j] = sum_{i>=1} C(j, i) (-1)^i (E[Q^i] - 1)``. Each ``E[Q^i] - 1``
    enters as ``expm1(-Lambda_i)`` when ``Lambda_i <= log 2``, else as
    ``exp(-Lambda_i)`` with the ``-1`` moved into an integer offset, so no
    float term exceeds 1/2 in magnitude. A Veltkamp split makes every
    product with a binomial exact, and ``math.fsum`` adds them exactly.
    """
    hi, lo, above = [], [], []
    for lam in log_moments:
        above.append(lam > _LOG_2)
        x = math.exp(-lam) if above[-1] else math.expm1(-lam)
        t = x * 134217729.0  # 2^27 + 1: both halves carry at most 26 bits
        hi.append(t - (t - x))
        lo.append(x - hi[-1])
    return [
        math.fsum([*map(mul, row, hi), *map(mul, row, lo), -sum(c for c, a in zip(row, above) if a)])
        for row in _signed_binomials(len(hi))
    ]


def downlink_delay(
    serving_tier: Tier,
    serving_index: int,
    macro_gains: np.ndarray,
    small_gains: np.ndarray,
    target_sir: float,
    slot_ms: float,
    max_attempts: int,
    far: Sequence[float] | None = None,
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

    ``far``, if given, holds ``Lambda_i = -log E[Q^i]`` for i = 1..M
    (``far_log_moments``) of an unsampled annulus whose factor ``Q``
    multiplies the sampled ``q``. Its powers are then averaged out exactly
    in ``Z = 1 - Q``, where every term is positive:
    ``E[(1 - q Q)^k] = sum_j C(k, j) (1 - q)^(k-j) q^j E[Z^j]``.
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
    if far is not None:
        if not len(far) == max_attempts <= J_MAX:
            raise InvalidParameterError(f"far field needs {max_attempts} <= {J_MAX} moments")
        q = math.exp(-minus_log_q)
        scaled, misses, q_j = [1.0], [1.0], 1.0  # q^j E[Z^j] and (1 - q)^j for j = 0..M
        for z in far_z_moments(far):
            q_j *= q
            scaled.append(q_j * z)
            misses.append(misses[-1] * miss)
        moments = [
            sum(map(mul, row, map(mul, misses[k::-1], scaled)))
            for k, row in enumerate(_binomials(max_attempts))
        ]
        attempts = sum(moments[:-1])
        return attempts, moments[-1], slot_ms * attempts
    # term by term, so q -> 0 and q -> 1 need no division and no branch
    attempts, term = 0.0, 1.0
    for _ in range(max_attempts):
        attempts += term
        term *= miss
    return attempts, term, slot_ms * attempts


Geometry = tuple[PointSet, PointSet, PointSet]  # routers, macro cells, small cells


def _serve(
    tier: Tier,
    geometry: Geometry,
    gains: tuple[np.ndarray, np.ndarray],
    params: DelayParams,
    annulus: tuple[float, float] | None = None,
) -> tuple[float, float, tuple[float, float, float]] | None:
    """(serving distance, mean backhaul delay, downlink_delay) of one serving tier.

    With ``annulus = (inner, outer)`` the geometry holds only the points
    inside ``inner``, and the annulus's interference is averaged out. The
    result is None when those points cannot settle the tier exactly, or
    when its far moments would leave the checked domain of their closed form.
    """
    routers, macro, small = geometry
    if tier is Tier.MACRO:
        serving_set, lambda_tier = macro, params.lambda_mc
    else:
        serving_set, lambda_tier = small, params.lambda_sc
    radio = params.radio
    if annulus is not None and (
        not len(serving_set)
        or not len(routers)
        or params.max_attempts > J_MAX
        or radio.pathloss_exponent < FAR_ALPHA_MIN
    ):
        return None
    serving_index, serving_distance = nearest(serving_set)
    _, router_distance = nearest(routers, reference=serving_set.point(serving_index))

    far = None
    if annulus is not None:
        inner, outer = annulus
        if router_distance > inner - serving_distance:  # an annulus router could be nearer
            return None
        scale = radio.target_sir / (gains[0] if tier is Tier.MACRO else gains[1])[serving_index]
        if scale * radio.power_macro * inner**-radio.pathloss_exponent > FAR_Z_MAX:
            return None
        far = far_log_moments(
            (scale * radio.power_macro, scale * radio.power_small),
            (params.lambda_mc, params.lambda_sc),
            radio.pathloss_exponent,
            inner,
            outer,
            params.max_attempts,
        )
    downlink = downlink_delay(
        tier, serving_index, *gains, radio.target_sir, params.slot_ms, params.max_attempts, far
    )
    backhaul_mean = params.backhaul_beta * router_distance * (lambda_tier / params.lambda_cr)
    return serving_distance, backhaul_mean, downlink


def _tier_gains(geometry: Geometry, radio: RadioParams) -> tuple[np.ndarray, np.ndarray]:
    """Macro and small-cell gains (``_gains``) of one geometry."""
    _, macro, small = geometry
    return (
        _gains(macro.r, radio.power_macro, radio.pathloss_exponent),
        _gains(small.r, radio.power_small, radio.pathloss_exponent),
    )


def _merge(near: PointSet, far: PointSet) -> PointSet:
    """The points of both sets, near ones first."""
    return PointSet(np.concatenate((near.r, far.r)), np.concatenate((near.theta, far.theta)), near.tier)


def run_replication(
    cells: Sequence[Cell],
    params: DelayParams,
    window: Window,
    rng: np.random.Generator,
) -> list[DelaySample]:
    """Sample one end-to-end delay of the typical user for every cell.

    All cells must carry ``params``. They share one geometry, its received
    powers and one downlink per serving tier. The near points come first;
    after them one uniform is drawn if some cell caches or the window
    reaches beyond the near disc, and every caching cell maps that uniform
    to its request. The annulus is drawn last, once, only if a serving tier
    falls back to it (see the module docstring).
    """
    lambdas = (params.lambda_cr, params.lambda_mc, params.lambda_sc)
    tiers = (Tier.CENTRAL_ROUTER, Tier.MACRO, Tier.SMALL_CELL)
    inner = min(NEAR_RADIUS_M, window.radius)
    near = tuple(sample_ppp(lam, Window(inner), rng, t) for lam, t in zip(lambdas, tiers))
    annulus = (inner, window.radius) if inner < window.radius else None
    # with an annulus, u is drawn even when unused so the annulus's stream position is fixed
    u = rng.random() if annulus or any(_caches(cell.scenario) for cell in cells) else None
    near_gains = _tier_gains(near, params.radio)
    union = None  # (geometry, gains) of near and annulus points, once drawn

    links = {}  # serving tier -> _serve's outcome, shared by every cell of that tier
    samples = []
    for cell in cells:
        scenario = cell.scenario
        tier = Tier.MACRO if isinstance(scenario, MacroUser) else Tier.SMALL_CELL
        if tier not in links:
            link = _serve(tier, near, near_gains, params, annulus)
            if link is None:
                if union is None:
                    beyond = [sample_ppp(lam, window, rng, t, inner) for lam, t in zip(lambdas, tiers)]
                    geometry = tuple(map(_merge, near, beyond))
                    union = geometry, _tier_gains(geometry, params.radio)
                link = _serve(tier, *union, params)
            links[tier] = link
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
                if workers < 1:
                    raise ValueError
            except ValueError:
                raise InvalidConfigError(
                    f"HETSIM_THREADS must be a positive integer worker count, got {env!r}"
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
