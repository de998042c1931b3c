"""Model helpers that only the tests use: labels, point sets from
Cartesian coordinates, and the popularity density and CDF."""

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


def point_set_from_xy(xy, intensity, tier=None):
    """A PointSet holding the given Cartesian points, in order."""
    xy = np.atleast_2d(np.asarray(xy, dtype=float))
    return PointSet(
        r=np.hypot(xy[:, 0], xy[:, 1]),
        theta=np.arctan2(xy[:, 1], xy[:, 0]),
        intensity=intensity,
        tier=tier,
    )


def pdf(f, dist):
    """Popularity density (eta-1) f^(-eta) on [1, inf), 0 below."""
    f = np.asarray(f, dtype=float)
    out = np.where(f >= 1.0, (dist.eta - 1.0) * np.where(f >= 1.0, f, 1.0) ** -dist.eta, 0.0)
    return out if out.ndim else float(out)


def cdf(f, dist):
    """P(request <= f): 1 - f^(1-eta) on the support."""
    f = np.asarray(f, dtype=float)
    out = np.where(f >= 1.0, 1.0 - np.where(f >= 1.0, f, 1.0) ** (1.0 - dist.eta), 0.0)
    return out if out.ndim else float(out)
