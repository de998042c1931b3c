"""Continuous power-law content popularity.

Requests land on the content axis [1, inf) with density (eta-1) f^(-eta);
eta > 1 steers how concentrated demand is on the popular head. Three
models decide eta: a fixed constant, the user-to-small-cell distance (in
meters, averaged to the mean nearest distance unless a per-user value is
supplied), or the average small-cell load.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvalidSteepnessError
from .geometry import mean_nearest_distance

log = logging.getLogger(__name__)

ETA_CLAMP = 1.0 + 1e-6


@dataclass(frozen=True)
class PopularityDist:
    eta: float

    def __post_init__(self):
        if not (self.eta > 1 and math.isfinite(self.eta)):
            raise InvalidSteepnessError(f"steepness must exceed 1, got {self.eta}")


@dataclass(frozen=True)
class Fixed:
    eta0: float

    def __post_init__(self):
        if not (self.eta0 > 1 and math.isfinite(self.eta0)):
            raise InvalidSteepnessError(f"fixed steepness must exceed 1, got {self.eta0}")


@dataclass(frozen=True)
class DistanceDependent:
    pass


@dataclass(frozen=True)
class LoadDependent:
    pass


PopularityModel = Fixed | DistanceDependent | LoadDependent


def effective_eta(
    model: PopularityModel,
    lambda_sc: float,
    lambda_ut: float,
    distance_override: float | None = None,
) -> float:
    """Resolve a popularity model to a steepness value.

    Distance-dependent steepness equals the user-to-serving-cell distance
    in meters; without an override the tier-average 1/(2*sqrt(lambda_sc))
    is used, matching the closed-form delay expressions. A per-user
    override of <= 1 m is clamped just above 1 (such users are measure-
    negligible at realistic intensities) with a warning.
    """
    if isinstance(model, Fixed):
        return model.eta0
    if not (lambda_sc > 0 and lambda_ut > 0):
        raise InvalidParameterError("intensities must be positive")
    if isinstance(model, DistanceDependent):
        if distance_override is None:
            eta = mean_nearest_distance(lambda_sc)
        else:
            eta = distance_override
            if eta <= 1.0:
                log.warning("per-user distance %.3g m gives steepness <= 1; clamping", eta)
                eta = ETA_CLAMP
    elif isinstance(model, LoadDependent):
        eta = lambda_ut / lambda_sc
    else:
        raise InvalidParameterError(f"unknown popularity model {model!r}")
    if eta <= 1.0:
        raise InvalidSteepnessError(
            f"{type(model).__name__} model resolved to steepness {eta} <= 1"
        )
    return eta


def sample_request(dist: PopularityDist, rng: np.random.Generator, size=None):
    """Inverse-CDF sampling: f = (1-U)^(-1/(eta-1)) with U uniform on [0,1).

    A steepness within float epsilon of 1 can push the coordinate past the
    float range; such requests come out as inf (they miss any finite
    catalogue), not as an error.
    """
    u = np.asarray(rng.random(size))
    with np.errstate(over="ignore"):
        out = (1.0 - u) ** (-1.0 / (dist.eta - 1.0))
    return out if out.ndim else float(out)
