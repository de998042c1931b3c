"""Cache policies, per-request hit tests and closed-form hit probabilities.

Storage is measured in content units (one unit = one unit-length interval
of the content axis; the usual GByte labels map one-to-one). A cache
splits its space into a deterministic popular head of size S_p, a
bookkeeping overhead S_0 that never serves hits, and a uniformly random
slice S_u of the remaining catalogue. Content beyond the catalogue bound
f_0 is non-cacheable.

The per-request hit probability is exact given the request: 1 in the
popular head, the cached fraction in the random-eligible segment, 0
elsewhere. It draws nothing; the simulator averages it over the request
law too (``mean_hit_probability``; conditional Monte Carlo).

The closed-form uniform-segment hit probability exists in two variants:
the formula as printed in the delay expressions carries a leading "1 -"
term that can push the total above 1; the integral-consistent variant is
the popularity mass of the un-cached catalogue segment times the cached
fraction. Both are exposed; the Monte Carlo hit rate arbitrates (it
matches the integral-consistent form).
"""

from __future__ import annotations

import bisect
import enum
import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, InvalidSteepnessError

log = logging.getLogger(__name__)


class CachePolicy(str, enum.Enum):
    NO_CACHE = "nocache"
    STD_POP = "stdpop"
    UNI_RAND = "unirand"
    MIX_POP = "mixpop"


_WARNED_ABOVE_ONE: set[tuple[str, str, float]] = set()


class B3Variant(str, enum.Enum):
    AS_PRINTED = "printed"
    INTEGRAL_CONSISTENT = "integral"


@dataclass(frozen=True)
class CacheConfig:
    total: float = 100.0
    popular: float = 9.5
    overhead: float = 0.5
    uniform: float = 90.0
    catalogue_bound: float = 500.0


def require_valid(policy: CachePolicy, config: CacheConfig) -> None:
    """Check every config invariant plus policy-specific constraints.

    Raises one InvalidConfigError whose message lists every violated
    condition as ``code: detail``.
    """
    problems: list[str] = []
    for name in ("total", "popular", "overhead", "uniform"):
        if getattr(config, name) < 0 or not math.isfinite(getattr(config, name)):
            problems.append(f"negative-storage: {name} must be >= 0")
    split = config.popular + config.overhead + config.uniform
    if not math.isclose(split, config.total, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(
            f"storage-split-mismatch: popular+overhead+uniform = {split} != total = {config.total}"
        )
    if config.catalogue_bound < 1.0 + config.popular:
        problems.append(
            "popular-segment-exceeds-catalogue: need 1 + popular <= catalogue bound, got "
            f"{1 + config.popular} > {config.catalogue_bound}"
        )
    if config.uniform > config.catalogue_bound - config.popular:
        problems.append(
            f"uniform-segment-exceeds-catalogue: uniform = {config.uniform} exceeds catalogue "
            f"room {config.catalogue_bound - config.popular}"
        )
    if policy is CachePolicy.STD_POP and config.uniform != 0:
        problems.append("policy-forbids-uniform-segment: StdPop requires uniform = 0")
    if policy is CachePolicy.UNI_RAND:
        if config.popular != 0:
            problems.append("policy-forbids-popular-segment: UniRand requires popular = 0")
        if config.overhead != 0:
            problems.append("policy-forbids-overhead: UniRand tracks no popularity profile")
        if config.uniform > config.catalogue_bound - 1.0:
            problems.append(
                "uniform-segment-exceeds-catalogue: UniRand caches from [1, f0): uniform must "
                f"be <= {config.catalogue_bound - 1}"
            )
    if problems:
        raise InvalidConfigError("; ".join(problems))


def hit_prob_popular(s_popular: float, eta: float) -> float:
    """Probability that a request lands in the deterministic popular head."""
    if not eta > 1:
        raise InvalidSteepnessError(f"steepness must exceed 1, got {eta}")
    if s_popular < 0:
        raise InvalidConfigError(f"popular segment must be >= 0, got {s_popular}")
    return 1.0 - (1.0 + s_popular) ** (1.0 - eta)


def hit_prob_uniform(
    s_uniform: float,
    s_popular: float,
    catalogue_bound: float,
    eta: float,
    variant: B3Variant = B3Variant.AS_PRINTED,
) -> float:
    """Uniform-segment term of the hit probability, in the chosen variant."""
    if not eta > 1:
        raise InvalidSteepnessError(f"steepness must exceed 1, got {eta}")
    if catalogue_bound <= s_popular:
        raise InvalidConfigError(
            f"catalogue bound {catalogue_bound} must exceed popular segment {s_popular}"
        )
    fraction = s_uniform / (catalogue_bound - s_popular)
    head = (1.0 + s_popular) ** (1.0 - eta)
    tail = (1.0 + catalogue_bound) ** (1.0 - eta)
    if variant is B3Variant.AS_PRINTED:
        return fraction * (1.0 - tail + head)
    return fraction * (head - tail)


def hit_probability(
    policy: CachePolicy,
    config: CacheConfig,
    eta: float,
    variant: B3Variant = B3Variant.AS_PRINTED,
) -> float:
    """Total closed-form hit probability of a policy.

    StdPop keeps only the popular term, UniRand only the uniform term with
    an empty popular head, MixPop both; no cache hits nothing. Warns when
    the as-printed variant exceeds 1, which it can.
    """
    if policy is CachePolicy.NO_CACHE:
        return 0.0
    total = 0.0
    if policy in (CachePolicy.STD_POP, CachePolicy.MIX_POP):
        total += hit_prob_popular(config.popular, eta)
    if policy is CachePolicy.UNI_RAND:
        total += hit_prob_uniform(config.uniform, 0.0, config.catalogue_bound, eta, variant)
    elif policy is CachePolicy.MIX_POP:
        total += hit_prob_uniform(
            config.uniform, config.popular, config.catalogue_bound, eta, variant
        )
    if total > 1.0:
        key = (policy.value, variant.value, round(total, 9))
        if key not in _WARNED_ABOVE_ONE:  # a sweep re-evaluates the same cell per row
            _WARNED_ABOVE_ONE.add(key)
            log.warning(
                "%s hit probability %.4f exceeds 1 under the %s variant",
                policy.value,
                total,
                variant.value,
            )
    return total


@functools.cache
def _hit_steps(policy: CachePolicy, config: CacheConfig) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A request's hit probability as a step function: ``values[i]`` holds
    from ``edges[i - 1]`` (inclusive) up to ``edges[i]``.

    Requests at or beyond the catalogue bound miss. The popular head
    [1, 1+S_p) always hits (StdPop, MixPop); the rest of the catalogue hits
    with the cached fraction of that segment (UniRand, MixPop), since the
    random slice holds any one content with that probability.
    """
    bound = config.catalogue_bound
    if policy is CachePolicy.NO_CACHE:
        return (), (0.0,)
    if policy is CachePolicy.UNI_RAND:
        return (bound,), (config.uniform / (bound - 1.0) if bound > 1.0 else 0.0, 0.0)
    middle = config.uniform / (bound - config.popular) if policy is CachePolicy.MIX_POP else 0.0
    return (min(1.0 + config.popular, bound), bound), (1.0, middle, 0.0)


def mean_hit_probability(policy: CachePolicy, config: CacheConfig, eta):
    """``is_hit`` averaged over the popularity law, at a steepness or an array of them.

    A step ``[a, b)`` of ``_hit_steps`` with value ``v`` adds ``v (a^(1-eta) - b^(1-eta))``
    (requests start at 1; the last step runs to infinity). The integral closed form ends the
    catalogue at ``1 + f0``, not at ``f0``, and differs from this mean by up to 1.4e-5.
    """
    if not np.all((np.asarray(eta) > 1) & np.isfinite(eta)):
        raise InvalidSteepnessError(f"steepness must exceed 1, got {eta}")
    edges, values = _hit_steps(policy, config)
    exponent = 1.0 - np.asarray(eta, dtype=float)
    survival = [np.ones_like(exponent), *(edge**exponent for edge in edges), np.zeros_like(exponent)]
    total = sum(v * (a - b) for v, a, b in zip(values, survival, survival[1:]))
    return total if total.ndim else float(total)


def is_hit(request_f: float, policy: CachePolicy, config: CacheConfig) -> float:
    """Hit probability of one request, given the request (see ``_hit_steps``).

    Draws no random number. ``config`` must already satisfy require_valid
    for ``policy``.
    """
    edges, values = _hit_steps(policy, config)
    return values[bisect.bisect_right(edges, request_f)]
