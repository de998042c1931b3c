"""Delay of geographical caching in a two-tier cellular network.

Closed-form average-delay expressions for typical macro and small-cell
users, a Monte Carlo simulator of the full generative model, and a sweep
CLI that emits paired theory/simulation CSV.
"""

from .analytics import (
    ClosedFormDelay,
    DelayParams,
    avg_delay_macro,
    avg_delay_small,
    b1,
    big_a,
    mean_backhaul,
    rho,
)
from .caching import B3Variant, CacheConfig, CachePolicy, hit_probability
from .channel import RadioParams
from .config import ExperimentConfig, load_config, save_config, write_rows
from .errors import (
    EmptyTierError,
    InvalidConfigError,
    InvalidParameterError,
    InvalidSteepnessError,
    NumericalError,
)
from .geometry import Point2D, PointSet, Tier, Window, mean_nearest_distance, sample_ppp
from .popularity import DistanceDependent, Fixed, LoadDependent, PopularityDist
from .simulator import (
    Cell,
    DelayEstimate,
    DelaySample,
    DistanceMode,
    MacroUser,
    SmallUser,
    estimate,
    run_replication,
)
from .cli import run_sweep

__version__ = "0.1.0"
