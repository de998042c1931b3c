"""Model helpers that only the tests use: labels, point sets from
Cartesian coordinates, nearest distances, and the popularity density and CDF."""

import math

import numpy as np

from hetsim.caching import CachePolicy
from hetsim.geometry import PointSet
from hetsim.popularity import DistanceDependent, Fixed, LoadDependent
from hetsim.simulator import MacroUser


def scenario_label(scenario):
    """The label ``config.parse_scenario`` reads back into ``scenario``."""
    if isinstance(scenario, MacroUser):
        return "macro"
    if scenario.policy is CachePolicy.NO_CACHE:
        return "small-nocache"
    model = {Fixed: "fixed", DistanceDependent: "distance", LoadDependent: "load"}[
        type(scenario.model)
    ]
    return f"small-{scenario.policy.value}-{model}"


def point_set_from_xy(xy, tier=None):
    """A PointSet holding the given Cartesian points, in order."""
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    return PointSet(
        r=np.hypot(xy[:, 0], xy[:, 1]),
        theta=np.arctan2(xy[:, 1], xy[:, 0]),
        tier=tier,
    )


def nearest_distance(intensity, levels):
    """Distance from the origin to the nearest point of a plane PPP, at the
    given probability levels: the inverse of ``P(R <= r) = 1 - exp(-pi
    intensity r^2)`` (Andrews, Baccelli and Ganti 2011, section III)."""
    return np.sqrt(-np.log1p(-levels) / (math.pi * intensity))


def pdf(f, eta):
    """Popularity density (eta-1) f^(-eta) on [1, inf), 0 below."""
    f = np.asarray(f, dtype=float)
    out = np.where(f >= 1.0, (eta - 1.0) * np.where(f >= 1.0, f, 1.0) ** -eta, 0.0)
    return out if out.ndim else float(out)


def cdf(f, eta):
    """P(request <= f): 1 - f^(1-eta) on the support."""
    f = np.asarray(f, dtype=float)
    out = np.where(f >= 1.0, 1.0 - np.where(f >= 1.0, f, 1.0) ** (1.0 - eta), 0.0)
    return out if out.ndim else float(out)
