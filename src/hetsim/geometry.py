"""Homogeneous Poisson point processes on a disc and nearest-point queries.

The typical user sits at the origin; the base-station tiers are independent
PPPs on the plane. The simulator draws each tier's nearest point as the
mean number of the tier's points nearer than it, ``pi lambda r^2``, which
is Exp(1) at any intensity, and averages the tier's other points out on the
plane; routers, a PPP on the plane, enter only through
``mean_nearest_distance``. No simulated point is sampled on a window.

Points are stored in polar form: the origin-centric queries and the SIR
only ever need distances. ``sample_ppp``, which draws angles too, samples
a whole disc window; the tests check the plane laws against it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyTierError, InvalidParameterError

DEFAULT_WINDOW_RADIUS_M = 20_000.0


class Tier(str, enum.Enum):
    MACRO = "macro"
    SMALL_CELL = "small-cell"


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
    tier: Tier | None = None

    def __len__(self) -> int:
        return self.r.shape[0]


def sample_ppp(
    intensity: float,
    window: Window,
    rng: np.random.Generator,
    tier: Tier | None = None,
) -> PointSet:
    """Sample a homogeneous PPP of the given intensity on the window disc.

    The count is Poisson(intensity * area) and positions are i.i.d.
    uniform on the disc (squared radius uniform). The count is drawn
    first, then all radii, then all angles.
    """
    if not (intensity > 0 and math.isfinite(intensity)):
        raise InvalidParameterError(f"intensity must be positive, got {intensity}")
    n = int(rng.poisson(intensity * window.area))
    r = np.sqrt(window.radius**2 * rng.random(n))
    theta = rng.random(n)
    theta *= 2.0 * np.pi
    return PointSet(r=r, theta=theta, tier=tier)


def nearest(point_set: PointSet) -> tuple[int, float]:
    """Index and distance of the point closest to the origin (the typical user).

    Ties resolve to the lowest index, which argmin guarantees.
    """
    if len(point_set) == 0:
        raise EmptyTierError(
            f"no {point_set.tier.value if point_set.tier else 'tier'} point in window; "
            "resample or enlarge the window"
        )
    idx = int(np.argmin(point_set.r))
    return idx, float(point_set.r[idx])


def mean_nearest_distance(intensity: float) -> float:
    """Average distance from a fixed point to the nearest PPP point, 1/(2*sqrt(lambda))."""
    if not (intensity > 0 and math.isfinite(intensity)):
        raise InvalidParameterError(f"intensity must be positive, got {intensity}")
    return 1.0 / (2.0 * math.sqrt(intensity))
