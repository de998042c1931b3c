"""Homogeneous Poisson point processes on a disc and nearest-point queries.

The typical user sits at the origin; the base-station tiers are independent
PPPs, and a finite disc window, the model's extent, bounds all of a tier's
points but its nearest. The simulator draws each tier's nearest distance
first, from its plane law wherever it falls (``nearest_distance``), then
the tier's other points once (``sample_beyond``), out to the tier's near
radius in each replication (the rule is in ``simulator``'s docstring);
``simulator.far_log_moments`` averages out the rest of the window, on a
window of any size. A near radius is the tier's nearest point itself
unless the far field's fence pushes it out, and where it is,
``sample_beyond`` draws no point for that tier. A config whose far field
is not averaged out has the window's edge as every near radius.
Routers, a PPP on the plane, enter only through ``mean_nearest_distance``.

Points are stored in polar form: the origin-centric queries and the SIR
only ever need distances, so the simulator's points carry no angle.
``sample_ppp``, which draws angles too, samples a whole window.
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


def nearest_distance(intensity: float, levels: np.ndarray) -> np.ndarray:
    """Distance from the origin to the nearest point of a plane PPP, at the
    given probability levels: the inverse of ``P(R <= r) = 1 - exp(-pi
    intensity r^2)`` (Andrews, Baccelli and Ganti 2011, section III)."""
    return np.sqrt(-np.log1p(-levels) / (math.pi * intensity))


def sample_beyond(
    intensity: float, closest: np.ndarray, radius: float | np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The other points inside ``radius`` of PPPs whose nearest points lie at
    ``closest``, as (counts, radii): sample ``k`` holds the ``counts[k]``
    radii that follow those of the samples before it.

    Beyond its nearest point a PPP is again a PPP, so they are a PPP on
    ``closest[k] < r < radius[k]``, empty where ``closest[k] >= radius[k]``.
    ``radius`` is one float for every sample or one per sample. All counts
    are drawn first, then all radii; no angle is drawn.
    """
    radius = np.asarray(radius, dtype=float)
    start = np.minimum(closest, radius) ** 2
    width = radius**2 - start
    counts = rng.poisson(intensity * math.pi * width)
    r = rng.random(counts.sum())
    r *= np.repeat(width, counts)
    r += np.repeat(start, counts)
    return counts, np.sqrt(r, out=r)


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
