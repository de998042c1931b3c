"""Cache policies, per-request hit tests and closed-form hit probabilities.

Storage is measured in content units (one unit = one unit-length interval
of the content axis; the usual GByte labels map one-to-one). A cache
splits its space into a deterministic popular head of size S_p, a
bookkeeping overhead S_0 that never serves hits, and a uniformly random
slice S_u of the remaining catalogue. Content beyond the catalogue bound
f_0 is non-cacheable.

The per-request hit probability is exact given the request: 1 in the
popular head, the cached fraction in the random-eligible segment, 0
elsewhere. It draws nothing; the simulator averages the random slice out
rather than flipping a coin per request (conditional Monte Carlo).

The closed-form uniform-segment hit probability exists in two variants:
the formula as printed in the delay expressions carries a leading "1 -"
term that can push the total above 1; the integral-consistent variant is
the popularity mass of the un-cached catalogue segment times the cached
fraction. Both are exposed; the Monte Carlo hit rate arbitrates (it
matches the integral-consistent form).
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


def validate_config(policy: CachePolicy, config: CacheConfig) -> list[Violation]:
    """Check every config invariant plus policy-specific constraints.

    Returns all violations found; never raises.
    """
    v: list[Violation] = []
    for name in ("total", "popular", "overhead", "uniform"):
        if getattr(config, name) < 0 or not math.isfinite(getattr(config, name)):
            v.append(Violation("negative-storage", f"{name} must be >= 0"))
    split = config.popular + config.overhead + config.uniform
    if not math.isclose(split, config.total, rel_tol=1e-9, abs_tol=1e-12):
        v.append(
            Violation(
                "storage-split-mismatch",
                f"popular+overhead+uniform = {split} != total = {config.total}",
            )
        )
    if config.catalogue_bound < 1.0 + config.popular:
        v.append(
            Violation(
                "popular-segment-exceeds-catalogue",
                f"need 1 + popular <= catalogue bound, got {1 + config.popular} > "
                f"{config.catalogue_bound}",
            )
        )
    if config.uniform > config.catalogue_bound - config.popular:
        v.append(
            Violation(
                "uniform-segment-exceeds-catalogue",
                f"uniform = {config.uniform} exceeds catalogue room "
                f"{config.catalogue_bound - config.popular}",
            )
        )
    if policy is CachePolicy.STD_POP and config.uniform != 0:
        v.append(Violation("policy-forbids-uniform-segment", "StdPop requires uniform = 0"))
    if policy is CachePolicy.UNI_RAND:
        if config.popular != 0:
            v.append(Violation("policy-forbids-popular-segment", "UniRand requires popular = 0"))
        if config.overhead != 0:
            v.append(Violation("policy-forbids-overhead", "UniRand tracks no popularity profile"))
        if config.uniform > config.catalogue_bound - 1.0:
            v.append(
                Violation(
                    "uniform-segment-exceeds-catalogue",
                    f"UniRand caches from [1, f0): uniform must be <= {config.catalogue_bound - 1}",
                )
            )
    return v


def require_valid(policy: CachePolicy, config: CacheConfig) -> None:
    violations = validate_config(policy, config)
    if violations:
        raise InvalidConfigError(
            "; ".join(f"{x.code}: {x.message}" for x in violations), violations
        )


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


def is_hit(request_f: float, policy: CachePolicy, config: CacheConfig) -> float:
    """Hit probability of one request, given the request.

    Requests at or beyond the catalogue bound miss. The popular head
    [1, 1+S_p) always hits (StdPop, MixPop); the rest of the catalogue hits
    with the cached fraction of that segment (UniRand, MixPop), since the
    random slice holds any one content with that probability. Draws no
    random number. ``config`` must already satisfy require_valid for
    ``policy``; the simulator checks it once per cell, not per request.
    """
    if policy is CachePolicy.NO_CACHE or not request_f < config.catalogue_bound:
        return 0.0
    if policy is CachePolicy.UNI_RAND:
        return config.uniform / (config.catalogue_bound - 1.0)
    if request_f < 1.0 + config.popular:
        return 1.0
    if policy is CachePolicy.MIX_POP:
        return config.uniform / (config.catalogue_bound - config.popular)
    return 0.0
