import dataclasses
import json
import math

import numpy as np
import pytest

from hetsim.caching import B3Variant, CachePolicy
from hetsim.cli import run_sweep
from hetsim.config import (
    CSV_HEADER,
    DEFAULT_SCENARIOS,
    ExperimentConfig,
    SweepRow,
    format_rows,
    load_config,
    parse_scenario,
    save_config,
    write_rows,
)
from hetsim.errors import InvalidConfigError
from hetsim.popularity import DistanceDependent, Fixed, LoadDependent
from hetsim.simulator import DistanceMode, MacroUser
from model_helpers import scenario_label


class TestDefaults:
    def test_defaults_match_reference_parameter_set(self):
        cfg = ExperimentConfig()
        assert cfg.lambda_cr_per_m2 == 1.4e-6
        assert cfg.lambda_mc_per_m2 == 2.8e-6
        assert cfg.lambda_sc_per_m2 == 3.6e-6
        assert cfg.lambda_ut_per_m2 == 7.2e-6
        assert cfg.power_mc_watts == 20.0
        assert cfg.power_sc_watts == 2.0
        assert cfg.pathloss_exponent == 4.0
        assert cfg.target_sir_db == 3.0
        assert cfg.max_attempts == 4
        assert cfg.t0_ms == 0.1
        assert cfg.mu_ca_ms == 0.01
        assert cfg.eta0 == 1.45
        assert cfg.f0_units == 500.0
        assert cfg.storage_total_units == 100.0
        assert cfg.storage_popular_units == 9.5
        assert cfg.storage_overhead_units == 0.5
        assert cfg.storage_uniform_units == 90.0
        assert cfg.scenarios == DEFAULT_SCENARIOS
        assert cfg.b3_variant is B3Variant.AS_PRINTED
        assert cfg.distance_mode is DistanceMode.AVERAGED

    def test_target_sir_conversion(self):
        assert ExperimentConfig().target_sir_linear == pytest.approx(10 ** 0.3)

    def test_default_grid_multiplies_base_value(self):
        cfg = ExperimentConfig()
        assert cfg.sweep_grid == tuple(2.8e-6 * m for m in (0.5, 1.0, 2.0, 4.0))
        sir_grid = ExperimentConfig(sweep_variable="target_sir").sweep_grid
        assert sir_grid == tuple(10 ** 0.3 * m for m in (0.5, 1.0, 2.0, 4.0))
        small_grid = ExperimentConfig(sweep_variable="lambda_sc").sweep_grid
        assert small_grid == tuple(3.6e-6 * m for m in (0.25, 0.5, 1.0, 1.5))

    def test_bad_sweep_variable(self):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(sweep_variable="bandwidth")

    def test_grid_must_increase(self):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(sweep_grid=(2.0, 1.0))

    def test_scenarios_must_parse(self):
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(scenarios=("small-lru-fixed",))
        with pytest.raises(InvalidConfigError):
            ExperimentConfig(scenarios=())

    def test_physical_validation_happens_at_load(self):
        with pytest.raises(Exception):
            ExperimentConfig(t0_ms=-1.0)

    @pytest.mark.parametrize("radius", [-5.0, 0.0, math.inf, math.nan])
    def test_window_must_be_positive_and_finite(self, radius):
        """The window is read by nothing, but a bad one is still an error that names its field."""
        with pytest.raises(InvalidConfigError, match="window_radius_m"):
            ExperimentConfig(window_radius_m=radius)
        assert ExperimentConfig(window_radius_m=1e200).window_radius_m == 1e200


class TestFieldChecks:
    """Python callers may pass a config's JSON spellings, and get the loader's checks and messages."""

    def test_json_spellings_convert(self):
        cfg = ExperimentConfig(
            b3_variant="integral", distance_mode="per-user", scenarios=["macro"], sweep_grid=[1e-6, np.float64(2e-6)]
        )
        assert cfg.b3_variant is B3Variant.INTEGRAL_CONSISTENT
        assert cfg.distance_mode is DistanceMode.PER_USER
        assert (cfg.scenarios, cfg.sweep_grid) == (("macro",), (1e-6, 2e-6))

    def test_a_spelled_variant_gives_the_members_rows(self):
        def rows(variant):
            return run_sweep(ExperimentConfig(b3_variant=variant, sweep_variable="storage_S"), theory_only=True)

        assert rows("printed") == rows(B3Variant.AS_PRINTED) != rows(B3Variant.INTEGRAL_CONSISTENT)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("b3_variant", "bogus"),
            ("distance_mode", "peruser"),
            ("replications", 2.5),
            ("replications", True),
            ("lambda_mc_per_m2", math.nan),
            pytest.param("sweep_grid", ["1"], id="sweep_grid-['1']"),
            ("scenarios", "macro"),
        ],
    )
    def test_a_malformed_value_names_its_field(self, field, value):
        with pytest.raises(InvalidConfigError, match=field):
            ExperimentConfig(**{field: value})

    def test_an_unknown_spelling_lists_the_allowed_ones(self):
        with pytest.raises(InvalidConfigError, match="averaged, per-user"):
            ExperimentConfig(distance_mode="peruser")
        with pytest.raises(InvalidConfigError, match="printed, integral"):
            dataclasses.replace(ExperimentConfig(), b3_variant="bogus")


class TestScenarioLabels:
    @pytest.mark.parametrize("label", DEFAULT_SCENARIOS)
    def test_default_labels_round_trip(self, label):
        cfg = ExperimentConfig()
        assert scenario_label(parse_scenario(label, cfg)) == label

    def test_macro(self):
        assert isinstance(parse_scenario("macro", ExperimentConfig()), MacroUser)

    def test_models_resolve(self):
        cfg = ExperimentConfig()
        s = parse_scenario("small-mixpop-fixed", cfg)
        assert s.model == Fixed(1.45)
        s = parse_scenario("small-unirand-load", cfg)
        assert (s.policy, s.model) == (CachePolicy.UNI_RAND, LoadDependent())
        s = parse_scenario("small-stdpop-distance", cfg)
        assert (s.policy, s.model) == (CachePolicy.STD_POP, DistanceDependent())

    def test_distance_mode_propagates(self):
        cfg = ExperimentConfig(distance_mode=DistanceMode.PER_USER)
        s = parse_scenario("small-mixpop-distance", cfg)
        assert s.distance_mode is DistanceMode.PER_USER

    @pytest.mark.parametrize("label", ["small", "small-nocache-fixed", "big-mixpop-fixed", ""])
    def test_malformed_labels_rejected(self, label):
        with pytest.raises(InvalidConfigError):
            parse_scenario(label, ExperimentConfig())


class TestStorageDerivation:
    def test_sweeping_total_adjusts_uniform_segment(self):
        cfg = ExperimentConfig(sweep_variable="storage_S")
        derived = cfg.cache_config(50.0)
        assert (derived.popular, derived.overhead, derived.uniform) == (9.5, 0.5, 40.0)
        assert derived.total == 50.0

    def test_zero_storage_collapses_entirely(self):
        derived = ExperimentConfig(sweep_variable="storage_S").cache_config(0.0)
        assert (derived.total, derived.popular, derived.overhead, derived.uniform) == (
            0.0, 0.0, 0.0, 0.0,
        )

    def test_small_storage_prefers_popular_head(self):
        derived = ExperimentConfig(sweep_variable="storage_S").cache_config(5.0)
        assert derived.overhead == 0.5
        assert derived.popular == 4.5
        assert derived.uniform == 0.0

    def test_untouched_when_other_variable_swept(self):
        derived = ExperimentConfig(sweep_variable="lambda_mc").cache_config(5.6e-6)
        assert derived.uniform == 90.0

    def test_delay_params_apply_sweep_value(self):
        cfg = ExperimentConfig(sweep_variable="target_sir")
        params = cfg.delay_params(5.0)
        assert params.radio.target_sir == 5.0
        assert cfg.delay_params().radio.target_sir == pytest.approx(10 ** 0.3)


class TestLoadSave:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            replications=123,
            master_seed=9,
            sweep_variable="storage_S",
            sweep_grid=(10.0, 20.0, 40.0),
            b3_variant=B3Variant.INTEGRAL_CONSISTENT,
            distance_mode=DistanceMode.PER_USER,
            scenarios=("macro", "small-mixpop-load"),
        )
        path = tmp_path / "config.json"
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_saved_json_spells_enums_and_lists(self, tmp_path):
        cfg = ExperimentConfig(b3_variant=B3Variant.INTEGRAL_CONSISTENT, distance_mode=DistanceMode.PER_USER)
        path = tmp_path / "config.json"
        save_config(path, cfg)
        saved = json.loads(path.read_text())
        assert (saved["b3_variant"], saved["distance_mode"]) == ("integral", "per-user")
        assert saved["scenarios"] == list(DEFAULT_SCENARIOS)
        assert saved["sweep_grid"] == list(cfg.sweep_grid)

    def test_empty_file_names_fields(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(InvalidConfigError) as excinfo:
            load_config(path)
        assert "lambda_cr_per_m2" in str(excinfo.value)
        assert "replications" in str(excinfo.value)

    def test_unknown_keys_rejected_by_name(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lambda_mc_per_m2": 2.8e-6, "bandwidth_hz": 1e7}))
        with pytest.raises(InvalidConfigError) as excinfo:
            load_config(path)
        assert "bandwidth_hz" in str(excinfo.value)

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "t0_ms": 0.1,\n}\n')
        with pytest.raises(InvalidConfigError) as excinfo:
            load_config(path)
        assert "line 3" in str(excinfo.value)

    def test_partial_config_fills_defaults(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"replications": 77}))
        cfg = load_config(path)
        assert cfg.replications == 77
        assert cfg.lambda_sc_per_m2 == 3.6e-6

    def test_bad_enum_value(self, tmp_path):
        path = tmp_path / "enum.json"
        path.write_text(json.dumps({"b3_variant": "exotic"}))
        with pytest.raises(InvalidConfigError):
            load_config(path)

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2]")
        with pytest.raises(InvalidConfigError):
            load_config(path)


class TestCsv:
    def row(self, **overrides):
        base = dict(
            sweep_var="storage_S",
            value=100.0,
            scenario="macro",
            theory_ms=1.1203894580328346,
            sim_ms=1.13,
            ci_low=1.12,
            ci_high=1.14,
            hit_rate_theory=0.0,
            hit_rate_sim=0.0,
            outage_rate=0.49,
            reps=1000,
            seed=1,
        )
        base.update(overrides)
        return SweepRow(**base)

    def test_header_is_exact(self):
        assert (
            CSV_HEADER
            == "sweep_var,value,scenario,theory_ms,sim_ms,ci_low,ci_high,"
            "hit_rate_theory,hit_rate_sim,outage_rate,reps,seed"
        )

    def test_format_round_trips_floats_exactly(self):
        text = format_rows([self.row()])
        line = text.splitlines()[1].split(",")
        assert float(line[3]) == 1.1203894580328346
        assert line[0] == "storage_S"
        assert line[11] == "1"

    def test_theory_only_rows_leave_sim_cells_empty(self):
        text = format_rows(
            [self.row(sim_ms=None, ci_low=None, ci_high=None, hit_rate_sim=None,
                      outage_rate=None, reps=0)]
        )
        line = text.splitlines()[1].split(",")
        assert line[4] == line[5] == line[6] == line[8] == line[9] == ""
        assert line[10] == "0"

    def test_write_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows(path, [self.row()])
        content = path.read_text()
        assert content.startswith(CSV_HEADER + "\n")
        assert content.endswith("\n")
        assert len(content.splitlines()) == 2
