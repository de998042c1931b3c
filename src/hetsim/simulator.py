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

Each tier's nearest point is drawn first, as the mean number of the
tier's points nearer than it, ``a_t = pi lambda_t r_t^2``, Exp(1) at any
intensity (``_draw``), and kept apart from the tier's other points, which
are interferers only. Beyond it the tier is again a PPP on the plane, which
is averaged out, exactly, given the nearest points, through its probability
generating functional, so no interferer is sampled and no window is read.
The SIR depends on the intensities only through their ratio, so no
distance or gain enters the downlink. The far field enters through the
moments ``E[Z^j]`` of ``Z = 1 - Q`` (``far_moments``): at few attempts
from the PGFL's log-moments (``far_log_moments``, ``far_z_moments``), at
many from a coverage chain. Every serving tier of a replication runs on the
same points.

A cell is one (scenario, cache config) pair at one parameter set.
Replications are drawn in batches of ``BATCH_SIZE``, each from its own
stream and lattice (``_draw``). A tier's count is ``-log(1 - U)`` at a
level ``U``, and the levels of a batch of ``n`` replications are the
points of a randomly shifted rank-1 lattice (Cranley and Patterson 1976):
tier ``t``'s level in replication ``k`` is
``frac(k g_t / n + shift_t)`` for the generator ``g = (1, a_n)``
(``_lattice_generator``) and one uniform shift per tier and batch. Each
tier's levels hold one point in each of the ``n`` equal-probability strata,
as a Latin hypercube's do, and the lattice also spreads the pairs of levels
over the unit square. Batch ``b`` (replications
``[b * BATCH_SIZE, (b + 1) * BATCH_SIZE)``, the last one possibly short and
a lattice of its own size) consumes the random stream derived from
(master_seed, b) in one draw, the shift, two uniforms. No draw depends on
where the nearest points fall, and no interferer, angle, router or request
is drawn. The draws depend on no cell, so a cell's samples do not depend on
which other cells are estimated alongside it. ``run_replication`` is a
batch of one, a lattice of one point, whose levels are its shift.
One vectorised kernel call (``_kernel``) then runs up to ``KERNEL_BUDGET``
consecutive replications, in whole batches, together, so numpy's per-call
cost is paid once per many batches. Every step of the kernel works element
by element, along the attempt axis, or on one replication's own matrices,
so a replication's numbers do not depend on which batches share its call.
Cells that share a parameter set see the same geometry in each
replication, so scenarios and storage values are paired (common random
numbers). Each kernel call is one task; a process pool only schedules the
tasks, and starts only when there are more of them than workers. Results
are placed by index, so an estimate is bit-identical whatever the worker
count or execution order.
"""

from __future__ import annotations

import enum
import functools
import math
import os
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import beta, betaincc, hyp2f1, stdtrit

# is_hit, nearest, sample_ppp and sample_request are scalar forms of steps the kernel averages out
# or runs over arrays; perfbench/tracer.py wraps them under these names
from .caching import B3Variant, CacheConfig, CachePolicy, hit_probability, is_hit, require_valid  # noqa: F401
from .errors import InvalidConfigError, InvalidParameterError, NumericalError
from .geometry import Tier, mean_nearest_distance
from .geometry import nearest, sample_ppp  # noqa: F401
from .popularity import DistanceDependent, Fixed, PopularityModel, effective_eta, sample_request  # noqa: F401
from .analytics import DelayParams, rho_terms

# replications per random stream, and points of its lattice; fixed so that results never depend
# on the worker count
BATCH_SIZE = 64
# replications one kernel call holds, 32 whole batches, so the config alone sizes every call
# (estimate); a call's chain matrices are built one batch at a time (far_moments)
KERNEL_BUDGET = 2048
# largest max_attempts whose far moments come from the alternating sum (far_z_moments): its error
# grows with the moment (3.4e-15 at 12, 2.4e-14 at 15, 2.9e-13 at 19 on TestZMoments' inputs; 9.4e-14
# at 12 on a kernel batch at the defaults).
# Above it far_moments takes them from the coverage chain, to about 1e-15 at any max_attempts, but
# 8 to 11 times slower; both estimate the model on the plane
J_MAX = 12
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

    def __post_init__(self):
        # the kernel branches on identity, so a spelling such as "per-user" becomes its member here
        object.__setattr__(self, "policy", CachePolicy(self.policy))
        object.__setattr__(self, "distance_mode", DistanceMode(self.distance_mode))


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


def far_log_moments(
    z: Sequence[float] | Sequence[np.ndarray],
    mean_points: Sequence[float] | Sequence[np.ndarray],
    alpha: float,
    max_attempts: int,
) -> np.ndarray:
    """``Lambda_i = -log E[Q^i]`` for i = 1..max_attempts, exactly.

    ``Q = prod_j 1 / (1 + h_j)`` runs over the points of independent PPPs
    on the plane beyond a disc each, tier ``t``'s points with ``h = z_t (r /
    r_t)^-alpha`` beyond ``r_t``, a disc that holds ``mean_points[t] = pi
    lambda_t r_t^2`` of them on average. By the PGFL (Andrews, Baccelli and
    Ganti 2011), ``Lambda_i = sum_t 2 pi lambda_t int (1 - (1 + h)^-i) r dr``
    from ``r_t`` to infinity, which is ``a_t E_i(z_t)`` with ``a_t =
    mean_points[t]`` and the excess ``E_i(z) = 2F1(i, -2/alpha; 1 - 2/alpha;
    -z) - 1``, summed as positive ``rho_k`` terms (``analytics.rho_terms``);
    for ``alpha > 2`` the far end adds nothing. Each ``z_t`` and ``a_t`` is
    a float or an array over replications; returns one row of the M
    log-moments for floats, and one row per replication otherwise.
    """
    excess = (np.cumsum(rho_terms(t, alpha, max_attempts), axis=-1) for t in z)
    return sum(np.asarray(a, dtype=float)[..., None] * e for a, e in zip(mean_points, excess))


@functools.cache
def _signed_binomials(m: int) -> np.ndarray:
    """``C(j - 1, k) (-1)^k`` at row j - 1, column k for j = 1..m, k = 0..m-1: zero above the diagonal."""
    signs = np.array([[(-1) ** k * math.comb(j - 1, k) for k in range(m)] for j in range(1, m + 1)])
    signs.flags.writeable = False  # one array serves every caller
    return signs


def far_z_moments(log_moments: Sequence[float] | np.ndarray) -> np.ndarray:
    """``E[Z^j]`` for ``Z = 1 - Q`` and j = 1..M, from ``Lambda_i = -log E[Q^i]``.

    Takes one row of M log-moments or an array with one row per
    replication, and returns the moments in the same shape. With the steps
    ``d_i = E[Q^(i-1)] - E[Q^i] = exp(-Lambda_(i-1)) (-expm1(Lambda_(i-1) -
    Lambda_i))``, ``Lambda_0 = 0``, each positive and within a few roundings,
    ``E[Z^j] = E[(1 - Q)^(j-1) (1 - Q)] = sum_{k<j} C(j-1, k) (-1)^k d_(k+1)``.
    The sum runs column by column, element by element, so a row's bits do not
    depend on the rows beside it. It alternates, and cancels more as j grows,
    so at many moments ``far_moments`` takes them from a chain instead. Since
    ``Z`` lies in [0, 1], a moment that rounds below 0 is returned as 0.
    """
    lam = np.asarray(log_moments, dtype=float)
    previous = np.concatenate((np.zeros_like(lam[..., :1]), lam[..., :-1]), axis=-1)
    steps = np.exp(-previous) * -np.expm1(previous - lam)
    total = np.zeros_like(steps)
    for k, column in enumerate(_signed_binomials(lam.shape[-1]).T):  # zero in rows j <= k
        total += column * steps[..., k, None]
    return np.maximum(total, 0.0)


@functools.cache
def _chain_layout(m: int) -> tuple[np.ndarray, ...]:
    """The coverage chain over ``m`` coordinates: the unhit count ``u``, hits ``d`` and ``C(u, d)`` of
    every jump ``u -> u - d``, 1 <= d <= u <= m; and ``C(m - u, j) / C(m, j)`` at row u, column j - 1."""
    u, d = np.array([(u, d) for u in range(1, m + 1) for d in range(1, u + 1)]).T
    ways = np.array([math.comb(a, b) for a, b in zip(u.tolist(), d.tolist())], dtype=float)
    hit = np.array([[math.comb(m - u, j) / math.comb(m, j) for j in range(1, m + 1)] for u in range(m + 1)])
    for array in (u, d, ways, hit):
        array.flags.writeable = False  # one layout serves every caller
    return u, d, ways, hit


def _chain_rates(z: np.ndarray, weights: np.ndarray, delta: float, m: int) -> np.ndarray:
    """``I(d, l) = sum_t w_t z_t^delta B_x(d - delta, l + delta)`` at ``[row, d, l]`` for d >= 1 and
    d + l <= m, 0 elsewhere: ``z`` and ``weights`` hold one row per tier and a column per row of rates.

    ``B_x`` is the incomplete beta function at ``x = z / (1 + z)``. The top term ``z^delta
    B_x(m - delta, delta)`` is ``x^m 2F1(m, 1; m + 1 - delta; x) / (m - delta)`` up to the
    integrand's peak, ``z = (m + 1 - delta) / (1 + delta)``, and its complement beyond, both from
    ``z``, so ``1 - x`` is never rounded. The rest follow by two downward recurrences of positive
    terms: along ``l = 0``, ``B(a, b) = ((a + b) B(a + 1, b) + x^a (1 - x)^b) / a``, and along each
    anti-diagonal ``d + l``, ``B(a, b) = ((b - 1) B(a + 1, b - 1) + x^a (1 - x)^(b - 1)) / a``; the
    factor ``z^delta`` turns each ``x^a (1 - x)^b`` into ``x^d (1 - x)^l``.
    """
    x, y = z / (1.0 + z), 1.0 / (1.0 + z)  # y = 1 - x
    powers_x = x[..., None] ** np.arange(m + 1)
    powers_y = y[..., None] ** np.arange(m)
    a = m - delta
    below = z <= (a + 1.0) / (1.0 + delta)
    table = np.zeros(z.shape + (m + 1, m))  # (tier, row, d, l)
    top = table[..., m, 0]
    top[below] = powers_x[below, m] / a * hyp2f1(m, 1.0, a + 1.0, x[below])
    top[~below] = z[~below] ** delta * beta(a, delta) * betaincc(delta, a, y[~below])
    for d in range(m - 1, 0, -1):
        table[..., d, 0] = (d * table[..., d + 1, 0] + powers_x[..., d]) / (d - delta)
    for l in range(1, m):
        d = np.arange(1, m - l + 1)
        source = powers_x[..., d] * powers_y[..., l - 1, None]
        table[..., d, l] = ((l - 1 + delta) * table[..., d + 1, l - 1] + source) / (d - delta)
    return sum(w[:, None, None] * tier for w, tier in zip(weights, table))


def _unhit_law(z: np.ndarray, weights: np.ndarray, delta: float, m: int) -> np.ndarray:
    """The law of the number of coordinates that no far point hits, ``p_u`` for u = 0..m, one row
    per column of ``z`` (``far_moments``).

    The chain starts at ``m`` unhit coordinates and jumps ``u -> u - d`` at rate ``C(u, d) I(d, u -
    d)`` (``_chain_rates``) for unit time. Its generator ``G`` has the diagonal ``-Lambda_u``, so
    ``A = G + Lambda_m I`` has no negative entry: its diagonal ``Lambda_m - Lambda_u = sum_{k>=u}
    I(1, k)`` is a sum of rates too. ``p = e_m e^G`` is taken by scaling and squaring ``A``: each
    row's ``s`` squarings bring ``Lambda_m 2^-s`` below 1/16, where the Taylor series of degree 8
    drops less than 5e-17; each power is then rescaled to unit row sums, which ``e^(G 2^-s)`` has
    and which keeps the rounding from compounding. Every step works on non-negative numbers, and
    ``s`` and each matrix product depend on the row alone, so no row's bits depend on its call.
    """
    rates = _chain_rates(z, weights, delta, m)
    u, d, ways, _ = _chain_layout(m)
    a = np.zeros((rates.shape[0], m + 1, m + 1))
    a[:, u, u - d] = ways * rates[:, d, u - d]
    diagonal = np.arange(m)
    a[:, diagonal, diagonal] = np.cumsum(rates[:, 1, ::-1], axis=-1)[:, ::-1]
    squarings = np.maximum(np.frexp(16.0 * a[:, 0, 0])[1], 0)  # A[0, 0] = Lambda_m
    a *= np.ldexp(1.0, -squarings)[:, None, None]
    eye = np.eye(m + 1)
    power = eye + a / 8.0
    for k in range(7, 0, -1):
        power = eye + (a / k) @ power
    power /= power.sum(axis=-1, keepdims=True)
    for k in range(squarings.max(initial=0)):
        rows = squarings > k
        square = power[rows] @ power[rows]
        power[rows] = square / square.sum(axis=-1, keepdims=True)
    return power[:, m].copy()  # not a view, which would keep every batch's matrices alive


def far_moments(
    z: Sequence[float] | Sequence[np.ndarray],
    mean_points: Sequence[float] | Sequence[np.ndarray],
    alpha: float,
    max_attempts: int,
) -> np.ndarray:
    """``E[Z^j]`` for ``Z = 1 - Q`` and j = 1..M, at any M: the far field's moments for ``_downlink``.

    Takes ``far_log_moments``' arguments and returns ``far_z_moments``'
    result: up to ``J_MAX`` attempts, ``far_z_moments(far_log_moments(...))``.
    Above it that alternating sum cancels too much, and the moments come in
    positive terms instead. Treat the M attempts as M coordinates: each far
    point hits each coordinate on its own with probability ``h / (1 + h)``,
    so ``Q = prod (1 - h / (1 + h))`` and ``Z^j`` is the probability that j
    given coordinates are all hit. By Poisson colouring, the points that hit
    exactly ``d`` of ``u`` unhit coordinates form a PPP of mean ``I(d, u -
    d)``, with ``I(d, l) = int (h / (1 + h))^d (1 / (1 + h))^l dmu = sum_t
    a_t delta z_t^delta B_x(d - delta, l + delta)`` (``_chain_rates``) over
    each tier's plane beyond its disc of ``a_t`` mean points, and ``delta =
    2 / alpha``. So the unhit count is a chain (``_unhit_law``), and by
    symmetry ``E[Z^j] = sum_u p_u C(M - u, j) / C(M, j)``. The chain's
    matrices are built one ``BATCH_SIZE`` of rows at a time. Since ``Z``
    lies in [0, 1], a moment that rounds above 1 is returned as 1.
    """
    if max_attempts <= J_MAX:
        return far_z_moments(far_log_moments(z, mean_points, alpha, max_attempts))
    delta = 2.0 / alpha
    shape = np.broadcast_shapes(*map(np.shape, z), *map(np.shape, mean_points))
    rows = math.prod(shape)
    z = np.array([np.broadcast_to(t, shape).reshape(rows) for t in z])  # (tier, row)
    weights = delta * np.array([np.broadcast_to(a, shape).reshape(rows) for a in mean_points], dtype=float)
    batches = [slice(k, k + BATCH_SIZE) for k in range(0, rows, BATCH_SIZE)]
    law = np.concatenate([_unhit_law(z[:, b], weights[:, b], delta, max_attempts) for b in batches])
    *_, hits = _chain_layout(max_attempts)
    moments = np.zeros((rows, max_attempts))
    for u, hit in enumerate(hits):  # C(M - u, j) / C(M, j): j given coordinates all among M - u hit
        moments += law[:, u, None] * hit
    return np.minimum(moments, 1.0).reshape(shape + (max_attempts,))


def _downlink(minus_log_q: np.ndarray, max_attempts: int, far: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expected attempts and outage probability of every replication of a batch.

    This is ``downlink_delay``'s model. ``minus_log_q[k]`` is ``-log q`` of
    replication ``k``'s sampled points. ``far`` holds one row of far moments
    ``E[Z^j]`` (``far_moments``) per replication, or one row for all, zero
    without a far field.

    Row j of the table ``t`` starts as ``q^j E[Z^j]``, and each attempt
    maps it to ``(1 - q) t_j + t_(j+1)``, so row 0 after k attempts is
    ``E[((1 - q) + q Z)^k] = E[(1 - q Q)^k]``.
    Every term is non-negative: q -> 0 and q -> 1 need no division and no branch.
    """
    miss = -np.expm1(-minus_log_q)
    t = np.zeros((max_attempts + 1, miss.size))
    t[0] = 1.0
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
    macro: np.ndarray,
    small: np.ndarray,
    target_sir: float,
    slot_ms: float,
    max_attempts: int,
) -> tuple[float, float, float]:
    """The retransmission protocol over one fixed geometry, fading averaged out exactly.

    This is the SIR model of the typical user at the origin, every point
    sampled and none averaged out. ``macro`` and ``small`` hold each point's
    received power under unit fading, ``power * r^-alpha``. The network is
    interference-limited: an attempt succeeds when the serving power over
    the summed power of every other point of both tiers clears
    ``target_sir``. Fading powers are i.i.d. Exp(1) per point and attempt,
    so given the geometry every attempt succeeds with
    ``q = prod_{j != serving} 1 / (1 + target_sir * g_j / g_serving)``.
    Returns (expected attempts ``sum_{k<M} (1-q)^k``, outage probability
    ``(1-q)^M``, ``slot_ms * attempts``) for M = ``max_attempts``; every
    attempt costs a slot. Draws no random number. The simulator runs the
    same model over a batch of replications at once (``_downlink``), with
    every point beyond each tier's nearest one averaged out (``far_moments``).
    """
    own = 0 if serving_tier is Tier.MACRO else 1
    gains = [macro, small]
    if not 0 <= serving_index < gains[own].size:
        raise InvalidParameterError(f"serving index {serving_index} outside its tier")
    scale = target_sir / gains[own][serving_index : serving_index + 1]
    gains[own] = np.delete(gains[own], serving_index)
    # the other tier's strongest point enters first, as the kernel's nearest rival does
    rival = np.zeros(1)
    if gains[1 - own].size:
        strongest = int(np.argmax(gains[1 - own]))
        rival = gains[1 - own][strongest : strongest + 1]
        gains[1 - own] = np.delete(gains[1 - own], strongest)
    minus_log_q = np.log1p(scale * rival) + sum(np.log1p(scale * g).sum() for g in gains)
    attempts, outage = _downlink(minus_log_q, max_attempts, np.zeros((1, max_attempts)))
    return float(attempts[0]), float(outage[0]), slot_ms * float(attempts[0])


@functools.cache
def _lattice_generator(n: int) -> int:
    """The generator ``a`` of the rank-1 lattice ``{k (1, a) / n}`` of ``n`` points.

    It is the ``a`` coprime to ``n`` that minimises the unweighted Korobov
    figure of merit ``P_2 = -1 + (1/n) sum_k prod_j (1 + 2 pi^2 B_2({k g_j /
    n}))`` for ``g = (1, a)`` and ``B_2(x) = x^2 - x + 1/6`` (Sloan and Joe
    1994), the smallest ``a`` on ties. Since ``a`` permutes the residues
    mod ``n``, ``sum_k B_2({k a / n})`` is the same for every such ``a``, so
    ``P_2`` ranks them as the integer ``sum_k b(k) b(k a mod n)`` does, with
    ``b(j) = 6 n^2 B_2(j / n)``: ties are exact.
    """
    k = np.arange(n)
    b = 6 * k * k - 6 * k * n + n * n
    a = np.arange(1, n + 1)
    a = a[np.gcd(a, n) == 1]
    return int(a[np.argmin(b[np.outer(a, k) % n] @ b)])


def _draw(rng: np.random.Generator, size: int) -> np.ndarray:
    """Each tier's mean point count ``a = pi lambda r^2`` within its nearest point in a batch of
    ``size`` replications, one row per tier (macro, small cells) and one column per replication, read
    from its stream as the module docstring sets out: ``P(a > x) = e^-x``, the chance that a disc of
    ``x`` mean points holds none (Andrews, Baccelli and Ganti 2011), so ``a = -log(1 - U)``."""
    # a randomly shifted rank-1 lattice: tier t's level in replication k is frac(k g_t / size + shift_t)
    shift = rng.random(2)
    steps = np.outer((1, _lattice_generator(size)), np.arange(size)) % size
    return -np.log1p(-((steps / size + shift[:, None]) % 1.0))


def _kernel(cells: Sequence[Cell], params: DelayParams, counts: np.ndarray) -> np.ndarray:
    """Every cell's replications on each tier's mean point count ``counts`` within its nearest point
    (``_draw``'s rows, its batches end to end): rows (downlink, tail, attempts, outage, hit) per cell,
    one column per replication.

    Serving tier ``o`` meets its rival ``r``'s nearest point, where the rival's far field starts, at
    ``z = gamma (P_r / P_o) (r_o / r_r)^alpha`` with ``(r_o / r_r)^2 = lambda_r a_o / (lambda_o
    a_r)``; its own far field starts at the server, at ``z = gamma`` in every replication. Every step
    works element by element, along the M axis, or on one replication's own matrices, so a
    replication's numbers do not depend on which batches share the call.
    """
    lambdas = (params.lambda_mc, params.lambda_sc)
    radio = params.radio
    powers = (radio.power_macro, radio.power_small)
    gamma, alpha, m = radio.target_sir, radio.pathloss_exponent, params.max_attempts
    owns = [0 if isinstance(cell.scenario, MacroUser) else 1 for cell in cells]  # serving tier indices
    links = {}  # serving tier -> (attempts, outage), shared by every cell of that tier
    for own in sorted(set(owns)):
        rival = 1 - own
        # both intensities over one power of 2, exactly, so no product of one with a count underflows
        own_lambda, exponent = math.frexp(lambdas[own])
        # the one non-finite source: a rival far nearer than the server, whose (r_o / r_r)^alpha
        # overflows to z = inf, which would meet inf * 0 in the far field
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ratio = math.ldexp(lambdas[rival], -exponent) * counts[own] / (own_lambda * counts[rival])
            z = gamma * (powers[rival] / powers[own]) * ratio ** (alpha / 2.0)
        if not np.isfinite(z).all():
            raise NumericalError(f"non-finite estimate: a rival's z overflows for {cells[owns.index(own)]}")
        far = far_moments((gamma, z), (counts[own], counts[rival]), alpha, m)
        links[own] = _downlink(np.log1p(z), m, far)

    router_distance = mean_nearest_distance(params.lambda_cr)  # plane PPP mean; the tail is linear in it
    out = np.empty((len(cells), 5, counts.shape[1]))
    for c, (cell, own) in enumerate(zip(cells, owns)):
        scenario = cell.scenario
        attempts, outage = links[own]
        lambda_tier = lambdas[own]
        backhaul_mean = params.backhaul_beta * router_distance * (lambda_tier / params.lambda_cr)
        hit = 0.0
        if _caches(scenario):
            steepness = functools.partial(effective_eta, scenario.model, params.lambda_sc, params.lambda_ut)
            if scenario.distance_mode is DistanceMode.PER_USER and isinstance(scenario.model, DistanceDependent):
                # the server's distance, the one place metres enter
                etas = [steepness(d) for d in np.sqrt(counts[own] / (math.pi * lambda_tier)).tolist()]
            else:
                etas = [steepness()]
            # the integral variant is exactly is_hit's mean over the popularity law
            integral = B3Variant.INTEGRAL_CONSISTENT
            hit = np.array([hit_probability(scenario.policy, cell.cache, eta, integral) for eta in etas])
        out[c, 0] = params.slot_ms * attempts
        out[c, 1] = hit * params.cache_read_mean_ms + (1.0 - hit) * backhaul_mean
        out[c, 2], out[c, 3], out[c, 4] = attempts, outage, hit
    return out


def _simulate(cells: Sequence[Cell], params: DelayParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` replications of every cell, read from one stream as the module docstring sets out:
    rows (downlink, tail, attempts, outage, hit) per cell, one column per replication."""
    return _kernel(cells, params, _draw(rng, size))


def run_replication(cells: Sequence[Cell], params: DelayParams, rng: np.random.Generator) -> list[DelaySample]:
    """Sample one end-to-end delay of the typical user for every cell.

    All cells must carry ``params``. This is a batch of one of the
    simulator's kernel, so it reads ``rng`` as one batch does (see the
    module docstring): the lattice's shift, two uniforms that are the levels
    of the nearest points' counts, and nothing more.
    """
    return [DelaySample(*column[:, 0].tolist()) for column in _simulate(cells, params, rng, 1)]


def replication_rng(master_seed: int, index: int) -> np.random.Generator:
    """The stream that batch ``index`` of replications consumes, independent of execution order."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(index,)))


def _run_batch(cells, params, master_seed, start, stop):
    """Replications [start, stop) of cells sharing ``params``: (total, outage, hit) per (cell, rep).

    ``start`` is a multiple of BATCH_SIZE; batch ``b`` covers replications
    ``[b * BATCH_SIZE, (b + 1) * BATCH_SIZE)`` and reads stream ``b``, as a
    lattice of its own size. Each batch is drawn on its own (``_draw``), and
    one kernel call runs them all.
    """
    counts = [
        _draw(replication_rng(master_seed, first // BATCH_SIZE), min(first + BATCH_SIZE, stop) - first)
        for first in range(start, stop, BATCH_SIZE)
    ]
    downlink, tail, _, outage, hit = _kernel(cells, params, np.concatenate(counts, axis=1)).swapaxes(0, 1)
    return np.stack((downlink + tail, outage, hit), axis=-1)


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
    batches, or ``CI_Z``, the normal quantile of the i.i.d. interval, below
    two batches."""
    batches = -(-replications // BATCH_SIZE)
    if batches < 2:
        return CI_Z
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
    replications: int,
    master_seed: int,
    workers: int | None = None,
) -> list[DelayEstimate]:
    """Mean delay of every cell with a 95% confidence interval.

    The interval is by batch means. Replications within a batch are not
    independent, since its nearest points' levels are the points of one shifted
    lattice, but batches are. A batch mean ``m_b`` of ``n_b`` replications,
    the last batch possibly short, is weighted by ``n_b``: the half-width is
    ``ci_quantile(n) * sqrt(sum_b n_b (m_b - mean)^2 / ((batches - 1) n))``,
    a Student-t quantile at ``batches - 1`` degrees of freedom. Below two
    batches (``replications <= BATCH_SIZE``) there is one lattice, and so
    one sample of its mean, and the interval is the i.i.d. one: ``CI_Z``
    times the per-replication standard deviation over ``sqrt(n)``. No bound
    makes it conservative for every integrand, but at the default
    parameters the lattice mean's variance lies far below ``sigma^2 / n``,
    and a tier-1 test holds its coverage at 40 and 64 replications. One
    replication has a zero-width interval.

    Cells that share a parameter set are simulated together. Each kernel
    call, ``KERNEL_BUDGET`` replications of a parameter set, is one task; a
    process pool runs the tasks when there are more of them than workers.
    Pure function of its arguments: the per-batch streams and the
    index-ordered reduction make the result independent of ``workers``
    (default: HETSIM_THREADS, else the CPUs this process may run on, capped
    at 8) and of which other cells are estimated alongside. A cell whose
    estimate would not be finite raises ``NumericalError``: in the kernel,
    when the intensities' ratio is so extreme that a rival's ``(r_o /
    r_r)^alpha`` overflows, and here for any other cause.
    """
    if replications < 1:
        raise InvalidParameterError(f"replications must be >= 1, got {replications}")
    groups: dict[DelayParams, list[int]] = {}
    for index, cell in enumerate(cells):
        _check_cell(cell)
        groups.setdefault(cell.params, []).append(index)

    workers = _resolve_workers(workers)
    # one kernel call per task: KERNEL_BUDGET replications, in whole batches
    keys = [
        (params, members, start, min(start + KERNEL_BUDGET, replications))
        for params, members in groups.items()
        for start in range(0, replications, KERNEL_BUDGET)
    ]
    tasks = [([cells[i] for i in members], params, master_seed, start, stop) for params, members, start, stop in keys]
    if workers == 1 or len(tasks) <= workers:
        results = (_run_batch(*task) for task in tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_batch, *task) for task in tasks]
            results = [f.result() for f in futures]

    samples = np.empty((len(cells), replications, 3))
    for (_, members, start, stop), batch in zip(keys, results):
        samples[members, start:stop] = batch
    estimates = [_summarize(rows) for rows in samples]
    for cell, est in zip(cells, estimates):
        if not all(map(math.isfinite, (est.mean_ms, est.ci_low_ms, est.ci_high_ms, est.outage_rate, est.hit_rate))):
            raise NumericalError(f"non-finite estimate {est} for {cell}")
    return estimates
