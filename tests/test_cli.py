import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hetsim
import oracle_reference as oracle
from hetsim.caching import B3Variant
from hetsim.cli import EXIT_CONFIG, EXIT_OK, main, run_sweep
from hetsim.config import ExperimentConfig, load_config
from hetsim.errors import InvalidSteepnessError


def by_scenario(rows, label):
    return [r for r in rows if r.scenario == label]


class TestRunSweepTheory:
    def test_macro_delay_strictly_increases_with_macro_intensity(self):
        rows = run_sweep(ExperimentConfig(sweep_variable="lambda_mc"), theory_only=True)
        macro = [r.theory_ms for r in by_scenario(rows, "macro")]
        assert len(macro) == 4
        assert all(b > a for a, b in zip(macro, macro[1:]))

    def test_small_cell_rows_flat_under_macro_intensity_after_downlink(self):
        # the backhaul of small users does not depend on the macro tier
        rows = run_sweep(ExperimentConfig(sweep_variable="lambda_mc"), theory_only=True)
        nocache = by_scenario(rows, "small-nocache")
        spreads = [r.theory_ms for r in nocache]
        assert max(spreads) - min(spreads) < 0.1  # only the downlink term moves

    def test_delays_nondecreasing_in_target_sir_with_shrinking_increments(self):
        cfg = ExperimentConfig(sweep_variable="target_sir")
        rows = run_sweep(cfg, theory_only=True)
        for label in cfg.scenarios:
            values = [r.theory_ms for r in by_scenario(rows, label)]
            diffs = np.diff(values)
            assert np.all(diffs >= 0)
            assert np.all(np.diff(diffs) < 0)  # saturating growth

    def test_mixpop_delay_strictly_decreases_with_storage(self):
        rows = run_sweep(ExperimentConfig(sweep_variable="storage_S"), theory_only=True)
        for label in ("small-mixpop-fixed", "small-mixpop-distance", "small-mixpop-load"):
            values = [r.theory_ms for r in by_scenario(rows, label)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_storage_sweep_from_zero_reaches_nocache_level(self):
        cfg = ExperimentConfig(sweep_variable="storage_S", sweep_grid=(0.0, 50.0, 100.0, 200.0))
        rows = run_sweep(cfg, theory_only=True)
        fixed = by_scenario(rows, "small-mixpop-fixed")
        nocache = by_scenario(rows, "small-nocache")
        assert fixed[0].theory_ms == pytest.approx(nocache[0].theory_ms, rel=1e-12)
        values = [r.theory_ms for r in fixed]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_scenario_ordering_at_defaults(self):
        cfg = ExperimentConfig(sweep_variable="storage_S", sweep_grid=(100.0,))
        rows = run_sweep(cfg, theory_only=True)
        small_rows = [r for r in rows if r.scenario.startswith("small")]
        delays = {r.scenario: r.theory_ms for r in small_rows}
        hits = {r.scenario: r.hit_rate_theory for r in small_rows}
        assert max(delays, key=delays.get) == "small-nocache"
        cached = {k: v for k, v in delays.items() if k != "small-nocache"}
        assert min(cached, key=cached.get) == max(hits, key=hits.get)

    def test_theory_values_match_frozen_oracle(self):
        cfg = ExperimentConfig(
            sweep_variable="storage_S",
            sweep_grid=(100.0,),
            b3_variant=B3Variant.INTEGRAL_CONSISTENT,
        )
        rows = {r.scenario: r for r in run_sweep(cfg, theory_only=True)}
        assert rows["macro"].theory_ms == pytest.approx(oracle.FROZEN["total_macro_ms"])
        assert rows["small-nocache"].theory_ms == pytest.approx(
            oracle.FROZEN["total_small_nocache_ms"]
        )
        assert rows["small-mixpop-load"].theory_ms == pytest.approx(
            oracle.FROZEN["total_small_mixpop_load_integral_ms"]
        )
        assert rows["small-mixpop-load"].hit_rate_theory == pytest.approx(
            oracle.FROZEN["b2_eta_load"] + oracle.FROZEN["b3_integral_load"]
        )

    def test_rows_emitted_in_grid_then_scenario_order(self):
        cfg = ExperimentConfig(sweep_variable="storage_S", sweep_grid=(50.0, 100.0))
        rows = run_sweep(cfg, theory_only=True)
        expected = [(v, s) for v in (50.0, 100.0) for s in cfg.scenarios]
        assert [(r.value, r.scenario) for r in rows] == expected

    def test_sweeping_small_intensity_to_user_intensity_aborts_with_value(self):
        # at lambda_sc = lambda_ut the load-dependent steepness collapses to 1
        cfg = ExperimentConfig(sweep_variable="lambda_sc", sweep_grid=(3.6e-6, 7.2e-6))
        with pytest.raises(InvalidSteepnessError) as excinfo:
            run_sweep(cfg, theory_only=True)
        assert "7.2e-06" in str(excinfo.value)

    def test_row_is_recomputable_from_its_parameters(self):
        from hetsim.analytics import avg_delay_small
        from hetsim.caching import CachePolicy
        from hetsim.popularity import LoadDependent

        cfg = ExperimentConfig(sweep_variable="lambda_mc")
        rows = run_sweep(cfg, theory_only=True)
        row = by_scenario(rows, "small-mixpop-load")[2]
        recomputed = avg_delay_small(
            CachePolicy.MIX_POP,
            LoadDependent(),
            cfg.cache_config(row.value),
            cfg.delay_params(row.value),
            cfg.b3_variant,
        )
        assert row.theory_ms == recomputed.total_ms


class TestRunSweepSimulation:
    def test_simulated_rows_carry_estimates(self):
        cfg = ExperimentConfig(
            sweep_variable="storage_S",
            sweep_grid=(100.0,),
            scenarios=("macro", "small-mixpop-fixed"),
            replications=300,
            window_radius_m=5000.0,
            master_seed=3,
        )
        rows = run_sweep(cfg)
        for row in rows:
            assert row.reps == 300
            assert row.ci_low <= row.sim_ms <= row.ci_high
            assert row.seed == 3
        macro, mix = rows
        assert macro.hit_rate_sim == 0.0
        assert mix.hit_rate_sim > 0.5


def write_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    payload = dict(
        sweep_variable="storage_S",
        sweep_grid=[50.0, 100.0],
        scenarios=["macro", "small-mixpop-fixed"],
        replications=150,
        window_radius_m=4000.0,
        master_seed=11,
    )
    payload.update(overrides)
    path.write_text(json.dumps(payload))
    return path


class TestMain:
    def test_theory_only_to_stdout(self, capsys):
        code = main(["--theory-only", "--sweep", "storage_S"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("sweep_var,")
        assert len(lines) == 1 + 4 * 5  # four grid points, five scenarios

    def test_default_small_intensity_sweep_runs(self, capsys):
        # the default lambda_sc grid stops below the user intensity, where the
        # load-dependent steepness would collapse to 1
        code = main(["--theory-only", "--sweep", "lambda_sc"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 4 * 5

    def test_end_to_end_with_config_and_output(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "rows.csv"
        code = main(["--config", str(config), "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2

    def test_cli_overrides_reps_and_seed(self, tmp_path, capsys):
        config = write_config(tmp_path, replications=999)
        code = main(
            ["--config", str(config), "--theory-only", "--reps", "5", "--seed", "77"]
        )
        assert code == EXIT_OK
        line = capsys.readouterr().out.strip().splitlines()[1]
        assert line.endswith(",77")

    def test_sweep_override_resets_grid(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["--config", str(config), "--theory-only", "--sweep", "lambda_mc"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "1.4e-06" in out and "1.12e-05" in out

    def test_b3_variant_flag_changes_theory(self, tmp_path, capsys):
        config = write_config(tmp_path, sweep_grid=[100.0], scenarios=["small-mixpop-fixed"])
        main(["--config", str(config), "--theory-only", "--b3-variant", "printed"])
        printed = capsys.readouterr().out.strip().splitlines()[1].split(",")[3]
        main(["--config", str(config), "--theory-only", "--b3-variant", "integral"])
        integral = capsys.readouterr().out.strip().splitlines()[1].split(",")[3]
        assert float(printed) == pytest.approx(
            oracle.FROZEN["total_small_mixpop_fixed_printed_ms"]
        )
        assert float(integral) == pytest.approx(
            oracle.FROZEN["total_small_mixpop_fixed_integral_ms"]
        )

    def test_missing_config_file_is_config_error(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "nope.json")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"bandwidth_hz": 10.0}))
        code = main(["--config", str(path), "--theory-only"])
        assert code == EXIT_CONFIG
        assert "bandwidth_hz" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_attempts", True),
            ("replications", True),
            ("replications", "100"),
            ("t0_ms", None),
            ("beta_ms_per_m_per_bs", float("nan")),
            ("beta_ms_per_m_per_bs", float("inf")),
            ("sweep_grid", [100.0, float("inf")]),
            ("master_seed", -1),
            ("scenarios", [1]),
            ("scenarios", "macro"),
        ],
    )
    def test_non_numeric_field_is_config_error_naming_it(self, tmp_path, capsys, field, value):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps({field: value}))
        code = main(["--config", str(path), "--theory-only"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and field in err

    def test_negative_seed_flag_is_config_error(self, capsys):
        code = main(["--theory-only", "--seed", "-1"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "master_seed" in err

    def test_window_too_small_for_a_grid_value_is_config_error(self, tmp_path, capsys):
        # 5 km holds the default intensities, not a macro tier at 1e-9 per m^2
        config = write_config(
            tmp_path, sweep_variable="lambda_mc", sweep_grid=[1e-9, 2.8e-6], window_radius_m=5000.0
        )
        code = main(["--config", str(config)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "window_radius_m" in err and "lambda_mc=1e-09" in err
        assert main(["--config", str(config), "--theory-only"]) == EXIT_OK

    def test_aborted_sweep_is_config_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            sweep_variable="lambda_sc",
            sweep_grid=[3.6e-6, 7.2e-6],
            scenarios=["small-mixpop-load"],
        )
        code = main(["--config", str(config), "--theory-only"])
        assert code == EXIT_CONFIG
        assert "7.2e-06" in capsys.readouterr().err

    def test_non_integer_thread_cap_is_config_error(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path)
        monkeypatch.setenv("HETSIM_THREADS", "abc")
        code = main(["--config", str(config)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "HETSIM_THREADS" in err and "'abc'" in err

    def test_thread_cap_does_not_change_output(self, tmp_path, monkeypatch):
        config = write_config(tmp_path)
        out_one = tmp_path / "one.csv"
        out_two = tmp_path / "two.csv"
        monkeypatch.setenv("HETSIM_THREADS", "1")
        assert main(["--config", str(config), "--out", str(out_one)]) == EXIT_OK
        monkeypatch.setenv("HETSIM_THREADS", "3")
        assert main(["--config", str(config), "--out", str(out_two)]) == EXIT_OK
        assert out_one.read_bytes() == out_two.read_bytes()

    def test_saved_default_config_loads_identically(self, tmp_path):
        from hetsim.config import save_config

        path = tmp_path / "defaults.json"
        save_config(path, ExperimentConfig())
        assert load_config(path) == ExperimentConfig()

    def test_theory_output_matches_golden_file(self, tmp_path):
        from pathlib import Path

        out = tmp_path / "theory.csv"
        code = main(["--theory-only", "--sweep", "storage_S", "--out", str(out)])
        assert code == EXIT_OK
        golden = Path(__file__).parent / "data" / "golden_theory_storage.csv"
        assert out.read_bytes() == golden.read_bytes()


def test_python_dash_m_runs_the_cli():
    src = str(Path(hetsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "hetsim", "--theory-only"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("sweep_var,")
    assert len(proc.stdout.splitlines()) == 1 + 4 * 5
    assert "RuntimeWarning" not in proc.stderr
