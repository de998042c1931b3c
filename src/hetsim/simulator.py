"""Monte Carlo estimation of the average content-delivery delay.

One replication draws fresh base-station geometry (macro and small
cells), takes the expected retransmission delay from the nearest base
station of the scenario's tier given that geometry, and then appends the
expected tail delay: the mean backhaul delay for macro users, and for
small-cell users a cache read with the mean hit probability and the mean
backhaul delay otherwise. The Rayleigh fading, the exponential backhaul
and cache-read delays, the router distance, the request and the random
cache slice are averaged out exactly, not sampled (conditional Monte
Carlo); only the base stations are drawn. Given them, the tail is linear
in the router distance, whose mean on the plane PPP of routers is
``mean_nearest_distance(lambda_cr)``, and the hit probability averages
over the popularity law to ``caching.hit_probability`` in its integral
variant, at the cell's steepness or, in per-user distance mode, at the
replication's.

Each tier's nearest distance is drawn first, from its exact law
(``geometry.nearest_distance``), and kept apart from the tier's other
points, which are interferers only. A tier's nearest point is always kept,
even beyond the window, so no tier is ever empty; the window bounds the
tier's other points. One rule splits those points: tier ``t`` samples them
out to its near radius ``R_t = min(max(r_t, fence_t), W)`` for the window's
radius ``W`` and averages the rest out. The fence is the least radius at
which the far moments stay in the checked domain of their closed form for
either serving tier ``s``: ``z_t = target_sir g_t(R_t) / g_s(r_s) <=
FAR_Z_MAX``. It reads only the nearest distances, so it is set before any
interferer is drawn. At the default SIR target it lies inside ``r_t`` in
most replications, which then sample no interferer at all. Beyond its
nearest point a PPP is again a PPP, so each tier's interferers are one PPP
on ``r_t < |x| < R_t`` (``geometry.sample_beyond``). The points beyond
``R_t`` are an independent PPP, so given the near points their interference
is averaged out exactly through its probability generating functional
(``far_log_moments``), tier ``t`` from ``R_t`` to ``W``. A config samples
the whole window, ``R_t = W`` with nothing averaged out, only outside that
closed form's domain: when ``max_attempts > J_MAX`` or when the pathloss
exponent is below ``FAR_ALPHA_MIN``. The estimand stays the model on the
whole window, whatever its size, and every serving tier of a replication
runs on the same points.

A cell is one (scenario, cache config) pair at one parameter set.
Replications run in batches of ``BATCH_SIZE`` through one vectorised
kernel, interferers held as ragged arrays. The nearest distances are
stratified per batch, a Latin hypercube over its replications: tier
``t``'s level in replication ``k`` is ``U_k = (perm_t(k) + V_k) / B`` for a
batch of ``B``, one random permutation per tier, so every one of the
``B`` equal-probability strata holds one level. Batch ``b`` (replications
``[b * BATCH_SIZE, (b + 1) * BATCH_SIZE)``, the last one possibly short)
consumes the random stream derived from (master_seed, b) in exactly eight
draws, in this order: for each tier in turn (macro cells, small cells) the
permutation and all ``V_k``; then for each tier in turn all counts and all
radii of its interferers. No draw depends on where the near radii fall.
No angle, no router and no request is drawn. Both serving tiers set the
near radii, whichever cells run, so the stream is read the same way
whichever cells run together, and a cell's samples do not depend on which
other cells are estimated alongside it.
``run_replication`` is a batch of one, whose permutation draws nothing
and whose level is its ``V``.
Cells that share a parameter set see the same geometry in each
replication, so scenarios and storage values are paired (common random
numbers).

Batches are embarrassingly parallel. Partial results are placed by index,
so an estimate is bit-identical regardless of worker count or execution
order. One process pool, capped by HETSIM_THREADS, serves all cells of an
``estimate`` call.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

# is_hit, nearest, sample_ppp and sample_request are scalar forms of steps the kernel averages out
# or runs over arrays; perfbench/tracer.py wraps them under these names
from .caching import B3Variant, CacheConfig, CachePolicy, hit_probability, is_hit, require_valid  # noqa: F401
from .errors import InvalidConfigError, InvalidParameterError, NumericalError
from .geometry import Tier, Window, mean_nearest_distance, nearest_distance, sample_beyond
from .geometry import nearest, sample_ppp  # noqa: F401
from .popularity import DistanceDependent, Fixed, PopularityModel, effective_eta, sample_request  # noqa: F401
from .analytics import DelayParams, rho_terms

# replications per random stream, and strata of its Latin hypercube; fixed so that results
# never depend on the worker count
BATCH_SIZE = 64
# largest max_attempts with a far field: far_z_moments' error about doubles per moment
# (3.2e-14 at 12, 1.2e-13 at 14 on TestZMoments' inputs)
J_MAX = 12
# far_log_moments' domain checked against quadrature: at large z = s r^-alpha, r^2 E_i(s r^-alpha)
# nears one multiple of s^(2/alpha) at both radii, and that shared term cancels in their difference,
# the more as z grows and as alpha nears 2 (where the outer radius's z stays large too)
FAR_ALPHA_MIN = 2.1
FAR_Z_MAX = 1e4  # largest s_t R^-alpha at the inner radius R; it sets each tier's near radius
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
    """Whether the scenario's user has a cache, so its requests can hit."""
    return isinstance(scenario, SmallUser) and scenario.policy is not CachePolicy.NO_CACHE


@dataclass(frozen=True)
class Cell:
    """One (scenario, cache config) pair at one parameter set: one simulated CSV row."""

    scenario: Scenario
    params: DelayParams
    cache: CacheConfig


@dataclass(frozen=True)
class DelaySample:
    """One replication of one cell: expectations given its base-station geometry.

    ``hit`` is the mean hit probability of a request, ``tail_ms`` the mean
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
        r4 = radius * radius
        r4 *= r4  # in place: a batch's temporaries set the peak memory
        return np.divide(power, r4, out=r4)
    return power * radius**-alpha


def far_log_moments(
    scales: Sequence[float] | Sequence[np.ndarray],
    intensities: Sequence[float],
    alpha: float,
    inner: float | Sequence[np.ndarray],
    outer: float,
    max_attempts: int,
) -> np.ndarray:
    """``Lambda_i = -log E[Q^i]`` for i = 1..max_attempts, exactly.

    ``Q = prod_j 1 / (1 + s_t r_j^-alpha)`` runs over the points of
    independent PPPs of the given intensities, tier ``t`` on the annulus
    ``inner_t <= r < outer`` and scaled by ``scales[t]``. By the PGFL,
    ``Lambda_i = sum_t 2 pi lambda_t int (1 - (1 + s_t r^-alpha)^-i) r dr``
    over the annulus, which is ``pi lambda_t [r^2 E_i(s_t r^-alpha)]`` from
    ``outer`` to ``inner_t`` with the excess ``E_i(z) = 2F1(i, -2/alpha; 1 -
    2/alpha; -z) - 1``, summed as ``rho_k`` terms, all positive, that one
    ``hyp2f1`` call per radius gives (``analytics.rho_terms``). ``inner`` is
    one radius for every tier, or one per tier and replication, at most
    ``outer``: in the simulator, each tier's near radius, from metres to the
    window's edge, where ``s_t inner^-alpha <= FAR_Z_MAX``. Returns one row
    of the M log-moments for float scales, and one row per replication for
    scales that are arrays over replications.
    """
    scales = np.asarray(scales, dtype=float)
    inner = np.broadcast_to(np.asarray(inner, dtype=float), scales.shape)  # (tier, [replication])
    radii = np.stack((inner, np.full_like(inner, outer)), axis=-1)  # (tier, [replication,] end)
    z = scales[..., None] * radii**-alpha
    excess = np.cumsum(rho_terms(z, alpha, max_attempts), axis=-1)
    area = radii[..., None] ** 2 * excess
    log_moments = 0.0
    for lam, (near, far) in zip(intensities, np.moveaxis(area, -2, 1)):
        log_moments = log_moments + math.pi * lam * (near - far)
    return log_moments


@functools.cache
def _signed_binomials(m: int) -> np.ndarray:
    """``C(j, i) (-1)^i`` at row j - 1, column i - 1 for i, j = 1..m: zero above the diagonal."""
    signs = np.array([[(-1) ** i * math.comb(j, i) for i in range(1, m + 1)] for j in range(1, m + 1)])
    signs.flags.writeable = False  # one array serves every caller
    return signs


def far_z_moments(log_moments: Sequence[float] | np.ndarray) -> np.ndarray:
    """``E[Z^j]`` for ``Z = 1 - Q`` and j = 1..M, from ``Lambda_i = -log E[Q^i]``.

    Takes one row of M log-moments or an array with one row per
    replication, and returns the moments in the same shape. ``E[Z^j] =
    sum_{i=1..j} C(j, i) (-1)^i (E[Q^i] - 1)``. Each ``E[Q^i] - 1`` enters as ``expm1(-Lambda_i)``
    when ``Lambda_i <= log 2``, else as ``exp(-Lambda_i)`` with the ``-1``
    moved into an integer offset, so no float term exceeds 1/2 in
    magnitude. A Veltkamp split makes every product with a binomial exact,
    and compensated summation (TwoSum) adds them, over all j at once, to
    within about one rounding of the exact sum. The alternating sum cancels
    more as j grows, which is what bounds ``max_attempts`` by ``J_MAX``.
    """
    lam = np.asarray(log_moments, dtype=float)
    signs = _signed_binomials(lam.shape[-1])
    above = lam > _LOG_2
    x = np.where(above, np.exp(-lam), np.expm1(-lam))
    t = x * 134217729.0  # 2^27 + 1: both halves carry at most 26 bits
    hi = t - (t - x)
    lo = x - hi
    total = -np.dot(above, signs.T).astype(float)  # the integer offsets, one per j
    error = np.zeros_like(total)
    for i, column in enumerate(signs.T):  # a zero part, in rows j <= i, leaves the row as it is
        for part in (column * hi[..., i, None], column * lo[..., i, None]):
            new = total + part
            back = new - total
            error += (total - (new - back)) + (part - back)
            total = new
    return total + error


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Segment bounds of ragged points: segment ``k`` is ``[offsets[k], offsets[k + 1])``."""
    return np.concatenate(([0], np.cumsum(counts)))


def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The sum of ``values`` over every segment; 0 for an empty segment."""
    starts = offsets[:-1]
    full = offsets[1:] > starts
    out = np.zeros(starts.size)
    if full.any():
        out[full] = np.add.reduceat(values, starts[full])
    return out


def _downlink(
    signal: np.ndarray,
    rival: np.ndarray,
    interferers: Sequence[tuple[np.ndarray, np.ndarray]],
    target_sir: float,
    max_attempts: int,
    far: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Expected attempts and outage probability of every replication of a batch.

    This is ``downlink_delay``'s model. ``signal[k]`` is the serving gain of
    replication ``k`` and ``rival[k]`` the other tier's nearest gain, which
    enters first. Each ``(gains, offsets)`` of ``interferers`` holds the other
    interferers' gains of all replications, replication ``k`` owning the
    segment ``[offsets[k], offsets[k + 1])``. ``far``, if given, holds one
    row of far moments ``E[Z^j]`` (``far_z_moments``) per replication.

    Row j of the table ``t`` starts as ``q^j E[Z^j]``, 0 for j >= 1 without
    a far field, and each attempt maps it to ``(1 - q) t_j + t_(j+1)``, so
    row 0 after k attempts is ``E[((1 - q) + q Z)^k] = E[(1 - q Q)^k]``.
    Every term is non-negative: q -> 0 and q -> 1 need no division and no branch.
    """
    scale = target_sir / signal
    minus_log_q = np.log1p(scale * rival)
    for gains, offsets in interferers:
        terms = np.repeat(scale, np.diff(offsets))
        terms *= gains
        minus_log_q += _segment_sums(np.log1p(terms, out=terms), offsets)
    miss = -np.expm1(-minus_log_q)
    t = np.zeros((max_attempts + 1, miss.size))
    t[0] = 1.0
    if far is not None:
        q = np.broadcast_to(np.exp(-minus_log_q), (max_attempts, miss.size))
        t[1:] = np.cumprod(q, axis=0) * far.T
    attempts = np.zeros_like(miss)
    for _ in range(max_attempts):
        attempts += t[0]
        t = miss * t[:-1] + t[1:]
    return attempts, t[0]


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
    attempt costs a slot. Draws no random number. The simulator runs the
    same model over a batch of replications at once (``_downlink``).

    ``far``, if given, holds ``Lambda_i = -log E[Q^i]`` for i = 1..M
    (``far_log_moments``) of an unsampled annulus whose factor ``Q``
    multiplies the sampled ``q``. Its powers are then averaged out exactly
    in ``Z = 1 - Q``, since ``1 - q Q = (1 - q) + q Z`` has non-negative
    terms: ``E[(1 - q Q)^k]`` follows from ``E[Z^j]`` (``far_z_moments``).
    """
    own = 0 if serving_tier is Tier.MACRO else 1
    gains = [macro_gains, small_gains]
    if not 0 <= serving_index < gains[own].size:
        raise InvalidParameterError(f"serving index {serving_index} outside its tier")
    if far is not None:
        if not len(far) == max_attempts <= J_MAX:
            raise InvalidParameterError(f"far field needs {max_attempts} <= {J_MAX} moments")
        far = far_z_moments(np.array([far], dtype=float))
    signal = gains[own][serving_index : serving_index + 1]
    gains[own] = np.delete(gains[own], serving_index)
    # the other tier's strongest point enters first, as the kernel's nearest rival does
    rival = np.zeros(1)
    if gains[1 - own].size:
        strongest = int(np.argmax(gains[1 - own]))
        rival = gains[1 - own][strongest : strongest + 1]
        gains[1 - own] = np.delete(gains[1 - own], strongest)
    interferers = [(g, np.array([0, g.size])) for g in gains]
    attempts, outage = _downlink(signal, rival, interferers, target_sir, max_attempts, far)
    return float(attempts[0]), float(outage[0]), slot_ms * float(attempts[0])


# gains that underflow to 0 meet inf * 0 here; estimate raises NumericalError on the non-finite result
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _simulate(
    cells: Sequence[Cell],
    params: DelayParams,
    window: Window,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """``size`` replications of every cell, read from one stream.

    Returns rows (downlink, tail, attempts, outage, hit) per cell, one
    column per replication. The stream holds, per tier (macro cells, small
    cells), a permutation and the offsets of the stratified levels of the
    nearest distances; then, per tier, the counts and radii of its
    interferers, out to the tier's near radius.
    """
    lambdas = (params.lambda_mc, params.lambda_sc)
    closest = np.empty((2, size))
    for t, lam in enumerate(lambdas):
        # a Latin hypercube over the batch: one level in each of its equal-probability strata
        levels = rng.permutation(size) + rng.random(size)
        levels /= size
        closest[t] = nearest_distance(lam, levels)

    radio = params.radio
    powers = (radio.power_macro, radio.power_small)
    alpha = radio.pathloss_exponent
    closest_gains = [_gains(r, power, alpha) for r, power in zip(closest, powers)]
    # outside the checked domain of the far moments' closed form every point of the window is sampled
    averaged = params.max_attempts <= J_MAX and alpha >= FAR_ALPHA_MIN
    near = np.full_like(closest, window.radius)
    if averaged:
        # tier t's far field starts where z_t = target_sir * g_t(R_t) / g_s(r_s) is at most FAR_Z_MAX
        # for either serving tier s, so which points are sampled is the same for any cells
        weakest = np.minimum(*closest_gains)
        fence = (radio.target_sir * np.array(powers)[:, None] / (FAR_Z_MAX * weakest)) ** (1.0 / alpha)
        near = np.minimum(np.maximum(closest, fence), window.radius)
    interferers = []
    for lam, r_t, radius, power in zip(lambdas, closest, near, powers):
        counts, r = sample_beyond(lam, r_t, radius, rng)
        interferers.append((_gains(r, power, alpha), _offsets(counts)))
    owns = [0 if isinstance(cell.scenario, MacroUser) else 1 for cell in cells]  # serving tier indices
    serving = sorted(set(owns))
    far = dict.fromkeys(serving)
    if averaged:
        # every serving tier's far moments in one call, one row per (serving tier, replication)
        scale = radio.target_sir / np.array([closest_gains[own] for own in serving])
        scales = [scale * power for power in powers]
        log_moments = far_log_moments(scales, lambdas, alpha, near[:, None], window.radius, params.max_attempts)
        far.update(zip(serving, far_z_moments(log_moments)))
    links = {}  # serving tier -> (attempts, outage), shared by every cell of that tier
    for own in serving:
        links[own] = _downlink(
            closest_gains[own], closest_gains[1 - own], interferers, radio.target_sir, params.max_attempts, far[own]
        )

    router_distance = mean_nearest_distance(params.lambda_cr)  # plane PPP mean; the tail is linear in it
    out = np.empty((len(cells), 5, size))
    for c, (cell, own) in enumerate(zip(cells, owns)):
        scenario = cell.scenario
        attempts, outage = links[own]
        lambda_tier = lambdas[own]
        backhaul_mean = params.backhaul_beta * router_distance * (lambda_tier / params.lambda_cr)
        hit = 0.0
        if _caches(scenario):
            steepness = functools.partial(effective_eta, scenario.model, params.lambda_sc, params.lambda_ut)
            if scenario.distance_mode is DistanceMode.PER_USER and isinstance(scenario.model, DistanceDependent):
                etas = [steepness(d) for d in closest[own].tolist()]
            else:
                etas = [steepness()]
            # the integral variant is exactly is_hit's mean over the popularity law
            integral = B3Variant.INTEGRAL_CONSISTENT
            hit = np.array([hit_probability(scenario.policy, cell.cache, eta, integral) for eta in etas])
        out[c, 0] = params.slot_ms * attempts
        out[c, 1] = hit * params.cache_read_mean_ms + (1.0 - hit) * backhaul_mean
        out[c, 2], out[c, 3], out[c, 4] = attempts, outage, hit
    return out


def run_replication(
    cells: Sequence[Cell],
    params: DelayParams,
    window: Window,
    rng: np.random.Generator,
) -> list[DelaySample]:
    """Sample one end-to-end delay of the typical user for every cell.

    All cells must carry ``params``. This is a batch of one of the
    simulator's kernel, so it reads ``rng`` as one batch does (see the
    module docstring): per tier (macro, then small cells) the level of the
    nearest distance, which is one uniform draw; then per tier the count
    and radii of its interferers, out to the tier's near radius: the
    window's edge if the config samples the whole window, and otherwise the
    farther of the tier's nearest point and the far field's fence, within
    the window.
    """
    return [DelaySample(*column[:, 0].tolist()) for column in _simulate(cells, params, window, rng, 1)]


def replication_rng(master_seed: int, index: int) -> np.random.Generator:
    """The stream that batch ``index`` of replications consumes, independent of execution order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


def _run_batch(cells, params, window, master_seed, start, stop):
    """Replications [start, stop) of cells sharing ``params``: (total, outage, hit) per (cell, rep).

    ``start`` is a multiple of BATCH_SIZE; batch ``b`` covers replications
    ``[b * BATCH_SIZE, (b + 1) * BATCH_SIZE)`` and reads stream ``b``.
    """
    out = np.empty((len(cells), stop - start, 3))
    for first in range(start, stop, BATCH_SIZE):
        last = min(first + BATCH_SIZE, stop)
        rng = replication_rng(master_seed, first // BATCH_SIZE)
        downlink, tail, _, outage, hit = _simulate(cells, params, window, rng, last - first).swapaxes(0, 1)
        out[:, first - start : last - start] = np.stack((downlink + tail, outage, hit), axis=-1)
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
            # the CPUs this process may run on, where the platform exposes its affinity mask
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            workers = min(cpus or 1, 8)
    elif workers < 1:
        raise InvalidParameterError(f"workers must be >= 1, got {workers}")
    return workers


def _check_cell(cell: Cell) -> None:
    """Fail fast on an invalid cache or an unresolvable steepness, not inside a worker."""
    scenario = cell.scenario
    if _caches(scenario):
        require_valid(scenario.policy, cell.cache)
        if scenario.distance_mode is DistanceMode.AVERAGED or not isinstance(
            scenario.model, DistanceDependent
        ):
            effective_eta(scenario.model, cell.params.lambda_sc, cell.params.lambda_ut)


def ci_quantile(replications: int) -> float:
    """The two-sided 95% quantile by which ``estimate`` scales a cell's
    standard error: Student-t with one degree of freedom fewer than its
    batches, or ``CI_Z`` below two batches."""
    batches = -(-replications // BATCH_SIZE)
    if batches < 2:
        return CI_Z
    from scipy.special import stdtrit  # already loaded with analytics

    return float(stdtrit(batches - 1, 0.975))


def _summarize(samples: np.ndarray) -> DelayEstimate:
    """Estimate from one cell's (total, outage, hit) rows, batch ``b`` in
    rows ``[b * BATCH_SIZE, (b + 1) * BATCH_SIZE)``."""
    totals, outages, hits = samples.T
    replications = totals.size
    mean = float(np.mean(totals))
    starts = np.arange(0, replications, BATCH_SIZE)
    if starts.size > 1:
        # a batch mean of n_b replications has variance about tau^2 / n_b, so
        # sum n_b (m_b - mean)^2 / (batches - 1) estimates tau^2, and the mean's variance is tau^2 / n
        sizes = np.diff(starts, append=replications)
        deviations = np.add.reduceat(totals, starts) / sizes - mean
        tau2 = float(sizes @ deviations**2) / (starts.size - 1)
        half = ci_quantile(replications) * math.sqrt(tau2 / replications)
    elif replications > 1:
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
    """Mean delay of every cell with a 95% confidence interval.

    The interval is by batch means. Replications within a batch are not
    independent, since its nearest distances are stratified, but batches
    are. A batch mean ``m_b`` of ``n_b`` replications, the last batch
    possibly short, is weighted by ``n_b``: the half-width is
    ``ci_quantile(n) * sqrt(sum_b n_b (m_b - mean)^2 / ((batches - 1) n))``,
    a Student-t quantile at ``batches - 1`` degrees of freedom. Below two
    batches (``replications <= BATCH_SIZE``) it is ``CI_Z`` times the
    per-replication standard deviation over ``sqrt(n)``, which is
    conservative because the variance of a Latin-hypercube mean is at most
    ``sigma^2 / (n - 1)`` (Owen 1997). One replication has a zero-width
    interval.

    Cells that share a parameter set are simulated together (see
    run_replication). Every (parameter set, run of batches) pair is one
    task, and one process pool runs them all. Pure function of its
    arguments: the per-batch streams and the index-ordered reduction make
    the result independent of ``workers`` (default: HETSIM_THREADS, else
    the CPUs this process may run on, capped at 8) and of which other cells are estimated
    alongside. A cell whose estimate is not finite, as when its serving
    gains underflow to 0, raises ``NumericalError``.
    """
    if replications < 1:
        raise InvalidParameterError(f"replications must be >= 1, got {replications}")
    groups: dict[DelayParams, list[int]] = {}
    for index, cell in enumerate(cells):
        _check_cell(cell)
        groups.setdefault(cell.params, []).append(index)

    workers = _resolve_workers(workers)
    # about four tasks per worker, each a run of whole batches: enough to balance the load,
    # few enough that shipping cells and results stays cheap
    batches = -(-replications // BATCH_SIZE) * len(groups)
    step = BATCH_SIZE * max(1, -(-batches // (4 * workers)))
    spans = [(start, min(start + step, replications)) for start in range(0, replications, step)]
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
    estimates = [_summarize(rows) for rows in samples]
    for cell, est in zip(cells, estimates):
        if not all(map(math.isfinite, astuple(est))):
            raise NumericalError(f"non-finite estimate {est} for {cell}")
    return estimates
