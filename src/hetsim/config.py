"""Experiment configuration, scenario labels and CSV emission.

Configs are JSON with units spelled out in the key names; any key left
out falls back to the built-in default (the standard parameter set used
throughout). Unknown keys are rejected by name so typos cannot silently
revert a field to its default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .analytics import DelayParams
from .caching import B3Variant, CacheConfig, CachePolicy
from .channel import RadioParams
from .errors import InvalidConfigError
from .geometry import Window
from .popularity import DistanceDependent, Fixed, LoadDependent, PopularityModel
from .simulator import DistanceMode, MacroUser, Scenario, SmallUser

SWEEP_VARIABLES = ("lambda_mc", "lambda_sc", "target_sir", "storage_S")
DEFAULT_SWEEP_MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)
# 2x the default small-cell intensity reaches the user intensity, where the
# load-dependent steepness collapses to 1; this grid stays below it
LAMBDA_SC_SWEEP_MULTIPLIERS = (0.25, 0.5, 1.0, 1.5)
DEFAULT_SCENARIOS = (
    "macro",
    "small-nocache",
    "small-mixpop-fixed",
    "small-mixpop-distance",
    "small-mixpop-load",
)

CSV_HEADER = (
    "sweep_var,value,scenario,theory_ms,sim_ms,ci_low,ci_high,"
    "hit_rate_theory,hit_rate_sim,outage_rate,reps,seed"
)

_POLICIES = {
    "nocache": CachePolicy.NO_CACHE,
    "stdpop": CachePolicy.STD_POP,
    "unirand": CachePolicy.UNI_RAND,
    "mixpop": CachePolicy.MIX_POP,
}
_MODELS = ("fixed", "distance", "load")


@dataclass(frozen=True)
class ExperimentConfig:
    lambda_cr_per_m2: float = 1.4e-6
    lambda_mc_per_m2: float = 2.8e-6
    lambda_sc_per_m2: float = 3.6e-6
    lambda_ut_per_m2: float = 7.2e-6
    power_mc_watts: float = 20.0
    power_sc_watts: float = 2.0
    pathloss_exponent: float = 4.0
    target_sir_db: float = 3.0
    max_attempts: int = 4
    t0_ms: float = 0.1
    mu_ca_ms: float = 0.01
    beta_ms_per_m_per_bs: float = 1e-3
    eta0: float = 1.45
    f0_units: float = 500.0
    storage_total_units: float = 100.0
    storage_popular_units: float = 9.5
    storage_overhead_units: float = 0.5
    storage_uniform_units: float = 90.0
    window_radius_m: float = 20_000.0
    replications: int = 20_000
    master_seed: int = 1
    scenarios: tuple[str, ...] = DEFAULT_SCENARIOS
    sweep_variable: str = "lambda_mc"
    sweep_grid: tuple[float, ...] = ()
    b3_variant: B3Variant = B3Variant.AS_PRINTED
    distance_mode: DistanceMode = DistanceMode.AVERAGED

    def __post_init__(self):
        if self.sweep_variable not in SWEEP_VARIABLES:
            raise InvalidConfigError(
                f"sweep_variable must be one of {SWEEP_VARIABLES}, got {self.sweep_variable!r}"
            )
        grid = self.sweep_grid or self.default_grid(self.sweep_variable)
        object.__setattr__(self, "sweep_grid", tuple(float(v) for v in grid))
        if any(b <= a for a, b in zip(self.sweep_grid, self.sweep_grid[1:])):
            raise InvalidConfigError(f"sweep grid must be strictly increasing: {self.sweep_grid}")
        if not self.scenarios:
            raise InvalidConfigError("scenario list must not be empty")
        for label in self.scenarios:
            parse_scenario(label, self)  # raises on a malformed label
        if self.replications < 1:
            raise InvalidConfigError(f"replications must be >= 1, got {self.replications}")
        if self.master_seed < 0:
            raise InvalidConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        # surfaces invalid physical parameters right at load time
        self.delay_params()

    @property
    def target_sir_linear(self) -> float:
        return 10.0 ** (self.target_sir_db / 10.0)

    def default_grid(self, variable: str) -> tuple[float, ...]:
        base = {
            "lambda_mc": self.lambda_mc_per_m2,
            "lambda_sc": self.lambda_sc_per_m2,
            "target_sir": self.target_sir_linear,
            "storage_S": self.storage_total_units,
        }[variable]
        if variable == "lambda_sc":
            return tuple(base * m for m in LAMBDA_SC_SWEEP_MULTIPLIERS)
        return tuple(base * m for m in DEFAULT_SWEEP_MULTIPLIERS)

    def delay_params(self, sweep_value: float | None = None) -> DelayParams:
        """Physical parameters, optionally with the sweep variable overridden."""
        lambda_mc = self.lambda_mc_per_m2
        lambda_sc = self.lambda_sc_per_m2
        target_sir = self.target_sir_linear
        if sweep_value is not None:
            if self.sweep_variable == "lambda_mc":
                lambda_mc = sweep_value
            elif self.sweep_variable == "lambda_sc":
                lambda_sc = sweep_value
            elif self.sweep_variable == "target_sir":
                target_sir = sweep_value
        return DelayParams(
            slot_ms=self.t0_ms,
            max_attempts=self.max_attempts,
            backhaul_beta=self.beta_ms_per_m_per_bs,
            cache_read_mean_ms=self.mu_ca_ms,
            lambda_cr=self.lambda_cr_per_m2,
            lambda_mc=lambda_mc,
            lambda_sc=lambda_sc,
            lambda_ut=self.lambda_ut_per_m2,
            radio=RadioParams(
                power_macro=self.power_mc_watts,
                power_small=self.power_sc_watts,
                pathloss_exponent=self.pathloss_exponent,
                target_sir=target_sir,
            ),
        )

    def cache_config(self, sweep_value: float | None = None) -> CacheConfig:
        """Cache storage split, re-derived when total storage is swept.

        The uniform segment absorbs a change of total storage; when the
        total cannot even hold the configured overhead and popular head,
        the overhead shrinks first, then the popular head.
        """
        if sweep_value is None or self.sweep_variable != "storage_S":
            return CacheConfig(
                total=self.storage_total_units,
                popular=self.storage_popular_units,
                overhead=self.storage_overhead_units,
                uniform=self.storage_uniform_units,
                catalogue_bound=self.f0_units,
            )
        total = sweep_value
        overhead = min(self.storage_overhead_units, total)
        popular = min(self.storage_popular_units, total - overhead)
        return CacheConfig(
            total=total,
            popular=popular,
            overhead=overhead,
            uniform=total - popular - overhead,
            catalogue_bound=self.f0_units,
        )

    def window(self) -> Window:
        return Window(radius=self.window_radius_m)


def parse_scenario(label: str, config: ExperimentConfig) -> Scenario:
    """Build the scenario a label like ``small-mixpop-load`` denotes."""
    if label == "macro":
        return MacroUser()
    parts = label.split("-")
    if parts[0] == "small" and len(parts) in (2, 3) and parts[1] in _POLICIES:
        policy = _POLICIES[parts[1]]
        if policy is CachePolicy.NO_CACHE and len(parts) == 2:
            return SmallUser(
                policy=policy, model=Fixed(config.eta0), distance_mode=config.distance_mode
            )
        if policy is not CachePolicy.NO_CACHE and len(parts) == 3 and parts[2] in _MODELS:
            model: PopularityModel = {
                "fixed": Fixed(config.eta0),
                "distance": DistanceDependent(),
                "load": LoadDependent(),
            }[parts[2]]
            return SmallUser(policy=policy, model=model, distance_mode=config.distance_mode)
    raise InvalidConfigError(
        f"unknown scenario label {label!r}; expected 'macro', 'small-nocache' or "
        f"'small-<policy>-<model>' with policy in {sorted(_POLICIES)} and model in {_MODELS}"
    )


@dataclass(frozen=True)
class SweepRow:
    sweep_var: str
    value: float
    scenario: str
    theory_ms: float
    sim_ms: float | None
    ci_low: float | None
    ci_high: float | None
    hit_rate_theory: float
    hit_rate_sim: float | None
    outage_rate: float | None
    reps: int
    seed: int


_FIELD_NAMES = [f.name for f in fields(ExperimentConfig)]
_NUMBER_FIELDS = {f.name: f.type for f in fields(ExperimentConfig) if f.type in ("int", "float")}


def _is_number(value, kind: str) -> bool:
    """Exact types: JSON ``true``/``false`` load as bool, an int subclass; NaN/Infinity are no number."""
    return type(value) is int or (kind == "float" and type(value) is float and math.isfinite(value))


def _config_to_dict(config: ExperimentConfig) -> dict:
    out = {}
    for name in _FIELD_NAMES:
        value = getattr(config, name)
        if isinstance(value, (B3Variant, DistanceMode)):
            value = value.value
        elif isinstance(value, tuple):
            value = list(value)
        out[name] = value
    return out


def load_config(path) -> ExperimentConfig:
    """Read a JSON config; unknown keys and malformed values are fatal."""
    text = Path(path).read_text()
    if not text.strip():
        raise InvalidConfigError(
            f"{path}: config file is empty; expected a JSON object with any of the fields "
            + ", ".join(_FIELD_NAMES)
        )
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise InvalidConfigError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(raw) - set(_FIELD_NAMES))
    if unknown:
        raise InvalidConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    for name, kind in _NUMBER_FIELDS.items():
        if name in raw and not _is_number(raw[name], kind):
            what = "an integer" if kind == "int" else "a finite number"
            raise InvalidConfigError(f"{path}: {name} must be {what}, got {raw[name]!r}")
    grid = raw.get("sweep_grid", [])
    if not isinstance(grid, list) or not all(_is_number(v, "float") for v in grid):
        raise InvalidConfigError(f"{path}: sweep_grid must be a list of finite numbers, got {grid!r}")
    labels = raw.get("scenarios", [])
    if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
        raise InvalidConfigError(f"{path}: scenarios must be a list of labels, got {labels!r}")
    kwargs = dict(raw)
    try:
        if "b3_variant" in kwargs:
            kwargs["b3_variant"] = B3Variant(kwargs["b3_variant"])
        if "distance_mode" in kwargs:
            kwargs["distance_mode"] = DistanceMode(kwargs["distance_mode"])
    except ValueError as exc:
        raise InvalidConfigError(f"{path}: {exc}") from exc
    if "scenarios" in kwargs:
        kwargs["scenarios"] = tuple(kwargs["scenarios"])
    if "sweep_grid" in kwargs:
        kwargs["sweep_grid"] = tuple(kwargs["sweep_grid"])
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise InvalidConfigError(f"{path}: {exc}") from exc


def save_config(path, config: ExperimentConfig) -> None:
    Path(path).write_text(json.dumps(_config_to_dict(config), indent=2) + "\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isfinite(value):
            return repr(value)
        return "nan"
    return str(value)


def format_rows(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            ",".join(
                _cell(v)
                for v in (
                    row.sweep_var,
                    row.value,
                    row.scenario,
                    row.theory_ms,
                    row.sim_ms,
                    row.ci_low,
                    row.ci_high,
                    row.hit_rate_theory,
                    row.hit_rate_sim,
                    row.outage_rate,
                    row.reps,
                    row.seed,
                )
            )
        )
    return "\n".join(lines) + "\n"


def write_rows(path, rows: list[SweepRow]) -> None:
    Path(path).write_text(format_rows(rows))
