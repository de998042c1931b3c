"""Homogeneous Poisson point processes on a disc and nearest-point queries.

The typical user sits at the origin; the base-station tiers are independent
PPPs inside a finite disc window, the model's extent. The simulator samples a
near disc, and an annulus beyond it only where the near points cannot settle a
replication (``simulator.far_log_moments`` averages it out elsewhere). Routers,
a PPP on the plane, enter only through ``mean_nearest_distance``.

Points are stored in polar form: the origin-centric queries and the SIR
only ever need distances.
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


def sample_ppp_batch(
    intensity: float,
    window: Window,
    rng: np.random.Generator,
    size: int,
    inner_radius: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``size`` independent samples of ``sample_ppp``, as (counts, radii, angles).

    Sample ``k`` holds the ``counts[k]`` points that follow those of the
    samples before it. All counts are drawn first, then all radii, then all
    angles, so a batch of one reads exactly the draws of ``sample_ppp``.
    """
    if not (intensity > 0 and math.isfinite(intensity)):
        raise InvalidParameterError(f"intensity must be positive, got {intensity}")
    if not 0.0 <= inner_radius < window.radius:
        raise InvalidParameterError(
            f"inner radius must lie in [0, {window.radius}), got {inner_radius}"
        )
    counts = rng.poisson(intensity * (window.area - math.pi * inner_radius**2), size)
    n = int(counts.sum())
    if inner_radius:
        r = np.sqrt(inner_radius**2 + (window.radius**2 - inner_radius**2) * rng.random(n))
    else:  # the disc's own form, so a seeded disc keeps its radii bit for bit
        r = np.sqrt(rng.random(n))
        r *= window.radius
    theta = rng.random(n)
    theta *= 2.0 * np.pi
    return counts, r, theta


def sample_ppp(
    intensity: float,
    window: Window,
    rng: np.random.Generator,
    tier: Tier | None = None,
    inner_radius: float = 0.0,
) -> PointSet:
    """Sample a homogeneous PPP of the given intensity on the window disc,
    or on its annulus ``inner_radius <= r < window.radius``.

    The count is Poisson(intensity * area) and positions are i.i.d.
    uniform on the disc or annulus (squared radius uniform).
    """
    _, r, theta = sample_ppp_batch(intensity, window, rng, 1, inner_radius)
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
