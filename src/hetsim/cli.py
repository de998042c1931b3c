"""Command-line sweep driver: closed forms next to Monte Carlo estimates.

Each run evaluates one sweep (macro intensity, small-cell intensity,
target SIR, or total storage) over every configured scenario and emits
plot-ready CSV. Rows come out ordered by (grid value, scenario) and are
byte-identical for a given config and seed regardless of HETSIM_THREADS.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .analytics import avg_delay_macro, avg_delay_small
from .caching import B3Variant
from .config import (
    SWEEP_VARIABLES,
    ExperimentConfig,
    SweepRow,
    format_rows,
    load_config,
    parse_scenario,
    write_rows,
)
from .errors import InvalidConfigError, InvalidParameterError, NumericalError
from .simulator import Cell, MacroUser, estimate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def run_sweep(config: ExperimentConfig, theory_only: bool = False) -> list[SweepRow]:
    """Evaluate every (grid value, scenario) cell of the configured sweep.

    The closed forms of all cells come first; then one ``estimate`` call
    simulates every cell of the sweep. An invalid derived parameter set
    (e.g. a steepness that falls to 1 when the swept small-cell intensity
    reaches the user intensity) aborts the whole sweep, naming the
    offending value, before any simulation starts.
    """
    cases = []  # (value, label, theory_ms, hit_rate_theory), in row order
    cells: list[Cell] = []
    scenarios = [(label, parse_scenario(label, config)) for label in config.scenarios]  # no label reads the value
    for value in config.sweep_grid:
        try:
            params = config.delay_params(value)
            cache = config.cache_config(value)
            for label, scenario in scenarios:
                if isinstance(scenario, MacroUser):
                    theory = avg_delay_macro(params)
                else:
                    theory = avg_delay_small(
                        scenario.policy, scenario.model, cache, params, config.b3_variant
                    )
                cases.append((value, label, theory.total_ms, theory.hit_probability))
                if not theory_only:
                    cells.append(Cell(scenario, params, cache))
        except (InvalidParameterError, InvalidConfigError) as exc:
            raise type(exc)(
                f"sweep {config.sweep_variable}={value!r} yields an invalid "
                f"parameter set: {exc}"
            ) from exc

    if theory_only:
        sims = [None] * len(cases)
    else:
        sims = estimate(cells, config.replications, config.master_seed)
    return [
        SweepRow(
            sweep_var=config.sweep_variable,
            value=value,
            scenario=label,
            theory_ms=theory_ms,
            sim_ms=sim.mean_ms if sim else None,
            ci_low=sim.ci_low_ms if sim else None,
            ci_high=sim.ci_high_ms if sim else None,
            hit_rate_theory=hit_theory,
            hit_rate_sim=sim.hit_rate if sim else None,
            outage_rate=sim.outage_rate if sim else None,
            reps=sim.replications if sim else 0,
            seed=config.master_seed,
        )
        for (value, label, theory_ms, hit_theory), sim in zip(cases, sims)
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetsim",
        description="Average-delay sweeps for a cache-enabled two-tier cellular network",
    )
    parser.add_argument("--config", type=Path, help="JSON config file (defaults apply per key)")
    parser.add_argument("--sweep", choices=SWEEP_VARIABLES, help="variable to sweep")
    parser.add_argument("--reps", type=int, help="Monte Carlo replications per cell")
    parser.add_argument("--seed", type=int, help="master seed for all replication streams")
    parser.add_argument("--out", type=Path, help="CSV output path (default: stdout)")
    parser.add_argument(
        "--theory-only", action="store_true", help="skip simulation, emit closed forms only"
    )
    parser.add_argument(
        "--b3-variant",
        choices=[v.value for v in B3Variant],
        help="uniform-segment hit formula: as printed, or integral-consistent",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config) if args.config else ExperimentConfig()
        overrides = {}
        if args.sweep and args.sweep != config.sweep_variable:
            overrides.update(sweep_variable=args.sweep, sweep_grid=())
        if args.reps is not None:
            overrides["replications"] = args.reps
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.b3_variant is not None:
            overrides["b3_variant"] = args.b3_variant
        if overrides:
            config = replace(config, **overrides)
        if args.out and (args.out.is_dir() or not args.out.parent.is_dir()):
            # caught before the sweep rather than after it
            raise InvalidConfigError(f"--out {args.out}: not a file in an existing directory")
        rows = run_sweep(config, theory_only=args.theory_only)
    except (InvalidConfigError, InvalidParameterError) as exc:
        print(f"hetsim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, ArithmeticError) as exc:
        print(f"hetsim: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        if args.out:
            write_rows(args.out, rows)
        else:
            sys.stdout.write(format_rows(rows))
    except OSError as exc:
        print(f"hetsim: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
