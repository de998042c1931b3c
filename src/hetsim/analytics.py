"""Closed-form average delay of typical macro and small-cell users.

The downlink term is an alternating-binomial sum over the first M
retransmission attempts, evaluated as its positive-term product form,
whose per-attempt kernel combines the nearest-server interference
functional rho(gamma, alpha) with a cross-tier constant A(alpha); backhaul adds half * beta * lambda_tier *
lambda_cr^(-3/2); caching shifts the miss traffic from backhaul onto the
(much faster) cache read, weighted by the closed-form hit probability.

rho and A have no closed form stated alongside the delay expressions;
the standard stochastic-geometry forms are adopted here:

    rho(g, a) = g^(2/a) * integral_{g^(-2/a)}^inf du / (1 + u^(a/2))
    A(a)      = Gamma(1 + 2/a) * Gamma(1 - 2/a) = (2*pi/a) / sin(2*pi/a)

Both are validated against Monte Carlo coverage in the test suite.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

from scipy import integrate

from .caching import B3Variant, CacheConfig, CachePolicy, hit_probability, require_valid
from .channel import RadioParams
from .errors import InvalidParameterError, NumericalError
from .popularity import PopularityModel, effective_eta

log = logging.getLogger(__name__)

MAX_ATTEMPTS_LIMIT = 60
RHO_TOLERANCE = 1e-10


@dataclass(frozen=True)
class DelayParams:
    """Physical and system constants of one network configuration."""

    slot_ms: float = 0.1
    max_attempts: int = 4
    backhaul_beta: float = 1e-3  # ms per meter per connected base station
    cache_read_mean_ms: float = 0.01
    lambda_cr: float = 1.4e-6
    lambda_mc: float = 2.8e-6
    lambda_sc: float = 3.6e-6
    lambda_ut: float = 7.2e-6
    radio: RadioParams = field(default_factory=RadioParams)

    def __post_init__(self):
        if not self.slot_ms > 0:
            raise InvalidParameterError(f"slot must be positive, got {self.slot_ms}")
        if not (isinstance(self.max_attempts, int) and self.max_attempts >= 1):
            raise InvalidParameterError(
                f"max attempts must be a positive integer, got {self.max_attempts}"
            )
        if self.backhaul_beta < 0:
            raise InvalidParameterError(f"beta must be >= 0, got {self.backhaul_beta}")
        if self.cache_read_mean_ms < 0:
            raise InvalidParameterError(
                f"cache read mean must be >= 0, got {self.cache_read_mean_ms}"
            )
        for name in ("lambda_cr", "lambda_mc", "lambda_sc", "lambda_ut"):
            if not getattr(self, name) > 0:
                raise InvalidParameterError(f"{name} must be positive")
        if not (self.lambda_ut > self.lambda_sc > self.lambda_mc > self.lambda_cr):
            log.warning(
                "tier intensities are not ordered lambda_ut > lambda_sc > lambda_mc > "
                "lambda_cr (%g, %g, %g, %g); formulas stay valid but the model "
                "assumes that ordering",
                self.lambda_ut,
                self.lambda_sc,
                self.lambda_mc,
                self.lambda_cr,
            )
        small_backhaul = mean_backhaul(self.lambda_sc, self.lambda_cr, self.backhaul_beta)
        if self.cache_read_mean_ms > small_backhaul:
            log.warning(
                "cache read mean %.3g ms exceeds the small-cell backhaul mean %.3g ms; "
                "the model assumes backhaul delay dominates cache reads",
                self.cache_read_mean_ms,
                small_backhaul,
            )


@dataclass(frozen=True)
class ClosedFormDelay:
    downlink_ms: float
    backhaul_ms: float
    cache_adjustment_ms: float = 0.0
    hit_probability: float = 0.0

    @property
    def total_ms(self) -> float:
        return self.downlink_ms + self.backhaul_ms + self.cache_adjustment_ms


@functools.lru_cache(maxsize=4096)
def rho(gamma: float, alpha: float) -> float:
    """Nearest-server Rayleigh interference functional, by adaptive quadrature.

    gamma^(2/a) * int_{gamma^(-2/a)}^inf du / (1 + u^(a/2)). The chained
    substitution u -> t^(-2/(a-2)) turns the infinite tail into the finite
    integral (2/(a-2)) * int_0^{gamma^((a-2)/a)} dt / (1 + t^(a/(a-2)))
    whose integrand is smooth and bounded for every a > 2, so the
    quadrature is cancellation- and singularity-free at any gamma.
    """
    if not gamma > 0:
        raise InvalidParameterError(f"target SIR must be positive, got {gamma}")
    if not alpha > 2:
        raise InvalidParameterError(f"pathloss exponent must exceed 2, got {alpha}")
    q = alpha / (alpha - 2.0)
    upper = gamma ** ((alpha - 2.0) / alpha)
    value, abserr = integrate.quad(
        lambda t: 1.0 / (1.0 + t**q), 0.0, upper, epsabs=1e-13, epsrel=1e-12, limit=200
    )
    if abserr > RHO_TOLERANCE * max(1.0, abs(value)):
        raise NumericalError(
            f"rho quadrature did not converge: gamma={gamma}, alpha={alpha}, "
            f"value={value}, abserr={abserr}"
        )
    return gamma ** (2.0 / alpha) * (2.0 / (alpha - 2.0)) * value


def big_a(alpha: float) -> float:
    """Cross-tier interference constant (2*pi/alpha)/sin(2*pi/alpha)."""
    if not alpha > 2:
        raise InvalidParameterError(f"pathloss exponent must exceed 2, got {alpha}")
    x = 2.0 * math.pi / alpha
    return x / math.sin(x)


def attempt_kernel(
    gamma: float,
    alpha: float,
    power_other: float,
    power_serving: float,
    lambda_other: float,
    lambda_serving: float,
) -> float:
    """Per-attempt interference kernel c; 1/(1+c) is the coverage probability."""
    cross = (
        (power_other / power_serving) ** (2.0 / alpha)
        * (lambda_other / lambda_serving)
        * gamma ** (2.0 / alpha)
        * big_a(alpha)
    )
    return rho(gamma, alpha) + cross


def b1(
    slot_ms: float,
    max_attempts: int,
    gamma: float,
    alpha: float,
    power_other: float,
    power_serving: float,
    lambda_other: float,
    lambda_serving: float,
) -> float:
    """Average downlink delay of the retransmission protocol.

    slot * sum_{i<M} (-1)^i C(M, i+1) / (1 + i*c), evaluated as the equal
    positive-term product slot * (1 + c/(1+c) * (1 + 2c/(1+2c) * (1 + ...)))
    in integers from c's exact ratio p/q. It is kept exact for byte identity:
    one correctly rounded division gives the float of the exact sum, bit for bit.
    """
    if not 1 <= max_attempts <= MAX_ATTEMPTS_LIMIT:
        raise InvalidParameterError(
            f"max attempts must be in [1, {MAX_ATTEMPTS_LIMIT}], got {max_attempts}"
        )
    if min(power_other, power_serving, lambda_other, lambda_serving) <= 0 or slot_ms <= 0:
        raise InvalidParameterError("powers, intensities and slot must be positive")
    c = attempt_kernel(gamma, alpha, power_other, power_serving, lambda_other, lambda_serving)
    p, q = c.as_integer_ratio()
    num = den = 1
    for k in range(max_attempts - 1, 0, -1):
        step = q + k * p
        num, den = step * den + k * p * num, step * den
    return slot_ms * (num / den)


def mean_backhaul(lambda_tier: float, lambda_cr: float, beta: float) -> float:
    """Average backhaul delay: beta * mean router distance * mean router load."""
    if lambda_tier <= 0 or lambda_cr <= 0:
        raise InvalidParameterError("intensities must be positive")
    if beta < 0:
        raise InvalidParameterError(f"beta must be >= 0, got {beta}")
    return 0.5 * beta * lambda_tier * lambda_cr**-1.5


def avg_delay_macro(params: DelayParams) -> ClosedFormDelay:
    """Average delay of the typical user served by its nearest macro cell."""
    radio = params.radio
    downlink = b1(
        params.slot_ms,
        params.max_attempts,
        radio.target_sir,
        radio.pathloss_exponent,
        radio.power_small,
        radio.power_macro,
        params.lambda_sc,
        params.lambda_mc,
    )
    backhaul = mean_backhaul(params.lambda_mc, params.lambda_cr, params.backhaul_beta)
    return ClosedFormDelay(downlink_ms=downlink, backhaul_ms=backhaul)


def avg_delay_small(
    policy: CachePolicy,
    model: PopularityModel,
    cache: CacheConfig,
    params: DelayParams,
    variant: B3Variant = B3Variant.AS_PRINTED,
) -> ClosedFormDelay:
    """Average delay of the typical small-cell user under a caching policy.

    Every hit trades the backhaul mean for the cache-read mean, so the
    adjustment term is (cache_read - backhaul) * hit probability; it
    vanishes without caching.
    """
    radio = params.radio
    downlink = b1(
        params.slot_ms,
        params.max_attempts,
        radio.target_sir,
        radio.pathloss_exponent,
        radio.power_macro,
        radio.power_small,
        params.lambda_mc,
        params.lambda_sc,
    )
    backhaul = mean_backhaul(params.lambda_sc, params.lambda_cr, params.backhaul_beta)
    if policy is CachePolicy.NO_CACHE:
        return ClosedFormDelay(downlink_ms=downlink, backhaul_ms=backhaul)
    require_valid(policy, cache)
    eta = effective_eta(model, params.lambda_sc, params.lambda_ut)
    hit = hit_probability(policy, cache, eta, variant)
    adjustment = (params.cache_read_mean_ms - backhaul) * hit
    return ClosedFormDelay(
        downlink_ms=downlink,
        backhaul_ms=backhaul,
        cache_adjustment_ms=adjustment,
        hit_probability=hit,
    )
