"""Cache policies, per-request hit tests and closed-form hit probabilities.

Storage is measured in content units (one unit = one unit-length interval
of the content axis; the usual GByte labels map one-to-one). A cache
splits its space into a deterministic popular head of size S_p, a
bookkeeping overhead S_0 that never serves hits, and a uniformly random
slice S_u of the remaining catalogue. The catalogue is ``[1, 1 + f_0)``;
content beyond it is non-cacheable.

The per-request hit probability is exact given the request: 1 in the
popular head, the cached fraction in the random-eligible segment, 0
elsewhere (``_hit_steps``, one step function for every policy). It draws
nothing.

The closed-form uniform-segment hit probability exists in two variants.
The integral-consistent variant is the popularity mass of the un-cached
catalogue segment times the cached fraction, so ``hit_probability`` in
that variant is exactly ``is_hit`` averaged over the popularity law; the
simulator takes it as each replication's hit (conditional Monte Carlo).
The formula as printed in the delay expressions adds the cached fraction
itself to that, which can push the total above 1.
"""

from __future__ import annotations

import bisect
import enum
import functools
import logging
import math
from dataclasses import dataclass

from .errors import InvalidConfigError, InvalidSteepnessError, warn_once

log = logging.getLogger(__name__)


class CachePolicy(str, enum.Enum):
    NO_CACHE = "nocache"
    STD_POP = "stdpop"
    UNI_RAND = "unirand"
    MIX_POP = "mixpop"


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
    if problems:
        raise InvalidConfigError("; ".join(problems))


def hit_prob_popular(s_popular: float, eta: float) -> float:
    """Probability that a request lands in the deterministic popular head."""
    if not (eta > 1 and math.isfinite(eta)):
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
    """Uniform-segment term of the hit probability, in the chosen variant or its spelling."""
    if not (eta > 1 and math.isfinite(eta)):
        raise InvalidSteepnessError(f"steepness must exceed 1, got {eta}")
    if catalogue_bound <= s_popular:
        raise InvalidConfigError(
            f"catalogue bound {catalogue_bound} must exceed popular segment {s_popular}"
        )
    fraction = s_uniform / (catalogue_bound - s_popular)
    head = (1.0 + s_popular) ** (1.0 - eta)
    tail = (1.0 + catalogue_bound) ** (1.0 - eta)
    if B3Variant(variant) is B3Variant.AS_PRINTED:
        return fraction * (1.0 - tail + head)
    return fraction * (head - tail)


def hit_probability(
    policy: CachePolicy,
    config: CacheConfig,
    eta: float,
    variant: B3Variant = B3Variant.AS_PRINTED,
) -> float:
    """Total closed-form hit probability of a policy: the popular term plus
    the uniform term.

    ``require_valid`` leaves StdPop no uniform slice and UniRand no popular
    head, so one sum serves every caching policy; no cache hits nothing.
    Warns when the as-printed variant exceeds 1, which it can.
    """
    if policy is CachePolicy.NO_CACHE:
        return 0.0
    total = hit_prob_popular(config.popular, eta) + hit_prob_uniform(
        config.uniform, config.popular, config.catalogue_bound, eta, variant
    )
    if total > 1.0:
        message = "%s hit probability %.4f exceeds 1 under the %s variant"
        variant = B3Variant(variant)
        warn_once(log, message, policy.value, total, variant.value, key=(policy, variant, round(total, 9)))
    return total


@functools.cache
def _hit_steps(policy: CachePolicy, config: CacheConfig) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """A request's hit probability as a step function: ``values[i]`` holds
    from ``edges[i - 1]`` (inclusive) up to ``edges[i]``.

    The popular head [1, 1+S_p) always hits; the rest of the catalogue, up
    to 1 + f0, hits with the cached fraction S_u / (f0 - S_p) of that
    segment, since the random slice holds any one content with that
    probability; requests beyond it miss. ``hit_probability`` in the
    integral variant is this step function's mean over the popularity law.
    """
    if policy is CachePolicy.NO_CACHE:
        return (), (0.0,)
    bound = config.catalogue_bound
    return (1.0 + config.popular, 1.0 + bound), (1.0, config.uniform / (bound - config.popular), 0.0)


def is_hit(request_f: float, policy: CachePolicy, config: CacheConfig) -> float:
    """Hit probability of one request, given the request (see ``_hit_steps``).

    Draws no random number. ``config`` must already satisfy require_valid
    for ``policy``.
    """
    edges, values = _hit_steps(policy, config)
    return values[bisect.bisect_right(edges, request_f)]
