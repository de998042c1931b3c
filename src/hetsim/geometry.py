"""Homogeneous Poisson point processes on a disc and nearest-point queries.

The typical user sits at the origin; every tier of the network is sampled
as an independent PPP inside a finite disc window large enough that the
neglected far-field interference is below Monte Carlo noise.

Points are stored in polar form (the origin-centric queries and the SIR
only ever need distances); Cartesian coordinates materialize on demand.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyTierError, InvalidParameterError

DEFAULT_WINDOW_RADIUS_M = 20_000.0


class Tier(str, enum.Enum):
    CENTRAL_ROUTER = "central-router"
    MACRO = "macro"
    SMALL_CELL = "small-cell"


class Point2D(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class Window:
    """Simulation disc of given radius centred at the origin."""

    radius: float = DEFAULT_WINDOW_RADIUS_M

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise InvalidParameterError(f"window radius must be positive, got {self.radius}")

    @property
    def area(self) -> float:
        return math.pi * self.radius**2


@dataclass(frozen=True, eq=False)
class PointSet:
    """One sampled realization of a tier's PPP, in polar coordinates."""

    r: np.ndarray
    theta: np.ndarray
    intensity: float
    tier: Tier | None = None

    def __len__(self) -> int:
        return self.r.shape[0]

    def point(self, index: int) -> Point2D:
        return Point2D(
            float(self.r[index] * math.cos(self.theta[index])),
            float(self.r[index] * math.sin(self.theta[index])),
        )

    def radii(self) -> np.ndarray:
        """Distances of all points to the origin."""
        return self.r


def sample_ppp(
    intensity: float,
    window: Window,
    rng: np.random.Generator,
    tier: Tier | None = None,
) -> PointSet:
    """Sample a homogeneous PPP of the given intensity on the window disc.

    The count is Poisson(intensity * area) and positions are i.i.d.
    uniform on the disc (radius via the square-root transform).
    """
    if not (intensity > 0 and math.isfinite(intensity)):
        raise InvalidParameterError(f"intensity must be positive, got {intensity}")
    n = rng.poisson(intensity * window.area)
    r = window.radius * np.sqrt(rng.random(n))
    theta = rng.random(n) * (2.0 * np.pi)
    return PointSet(r=r, theta=theta, intensity=intensity, tier=tier)


def nearest(point_set: PointSet, reference: Point2D = Point2D(0.0, 0.0)) -> tuple[int, float]:
    """Index and distance of the point closest to ``reference``.

    Defaults to the origin (the typical user). Ties resolve to the lowest
    index, which argmin guarantees.
    """
    if len(point_set) == 0:
        raise EmptyTierError(
            f"no {point_set.tier.value if point_set.tier else 'tier'} point in window; "
            "resample or enlarge the window"
        )
    if reference == (0.0, 0.0):
        idx = int(np.argmin(point_set.r))
        return idx, float(point_set.r[idx])
    rho = math.hypot(reference.x, reference.y)
    phi = math.atan2(reference.y, reference.x)
    # law of cosines against the reference point, no Cartesian round trip
    d2 = point_set.r**2 + rho**2 - 2.0 * rho * point_set.r * np.cos(point_set.theta - phi)
    idx = int(np.argmin(d2))
    return idx, float(math.sqrt(max(d2[idx], 0.0)))


def mean_nearest_distance(intensity: float) -> float:
    """Average distance from a fixed point to the nearest PPP point, 1/(2*sqrt(lambda))."""
    if not (intensity > 0 and math.isfinite(intensity)):
        raise InvalidParameterError(f"intensity must be positive, got {intensity}")
    return 1.0 / (2.0 * math.sqrt(intensity))
