"""hetsim benchmark: cold CLI sweeps, timed end to end, checked, and traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; hetsim is imported from ./src. Each workload
is a closed loop of one client: the benchmark writes a config derived from
--seed, runs the CLI on it in a fresh interpreter (so memo caches start
empty, as for a user's invocation), waits for it, checks its CSV, and
starts the next one until --seconds have passed.

--trace 0 prints the gated end-to-end metrics over all sweeps of the run.
--trace 1 runs untraced/traced pairs on the first config and prints
per-layer metrics from the traced sweeps only; on sweep_lambda_mc it adds
one traced sweep at all cores. The last stdout line is the result object;
the line before it carries the machine block, per-sweep CSV digests and
walls, and the first failures. Metric names and units come from
BENCHMARK.json at the repository root; README.md beside this file says
what each one measures.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

import check  # this script's own directory is on sys.path
import tracer

# Every config key is written out, so a later change of a package default
# does not silently change what a workload measures.
BASE_CONFIG = {
    "lambda_cr_per_m2": 1.4e-6,
    "lambda_mc_per_m2": 2.8e-6,
    "lambda_sc_per_m2": 3.6e-6,
    "lambda_ut_per_m2": 7.2e-6,
    "power_mc_watts": 20.0,
    "power_sc_watts": 2.0,
    "pathloss_exponent": 4.0,
    "target_sir_db": 3.0,
    "max_attempts": 4,
    "t0_ms": 0.1,
    "mu_ca_ms": 0.01,
    "beta_ms_per_m_per_bs": 0.001,
    "eta0": 1.45,
    "f0_units": 500.0,
    "storage_total_units": 100.0,
    "storage_popular_units": 9.5,
    "storage_overhead_units": 0.5,
    "storage_uniform_units": 90.0,
    "window_radius_m": 20000.0,
    "replications": 20000,
    "master_seed": 1,
    "scenarios": ["macro", "small-nocache", "small-mixpop-fixed", "small-mixpop-distance", "small-mixpop-load"],
    "sweep_variable": "lambda_mc",
    "sweep_grid": [1.4e-6, 2.8e-6, 5.6e-6, 1.12e-5],
    "b3_variant": "printed",
    "distance_mode": "averaged",
}
NPROC = len(os.sched_getaffinity(0))
THEORY_GAMMAS = 4000
# replications per cell of the all-cores traced pass; at 1 000 a default
# lambda_mc sweep at 2 workers takes close to a minute on 2 cores
ALLCORES_REPS = 300
# layer metrics repeated for the all-cores pass, where BLAS contention shows
ALLCORES_LAYERS = (
    "simulator.downlink_delay.us_per_call",
    "geometry.sample_ppp.us_per_call",
    "simulator.worker_busy_frac",
    "simulator.estimate.self_ms_per_cell",
)
MIN_SWEEPS = 3
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s


# config overrides, worker count and mode of each workload (why: BENCHMARK.json)
WORKLOADS = {
    "sweep_lambda_mc": {"overrides": {"replications": 500}, "workers": 1, "theory_only": False},
    "sweep_storage_5km": {
        "overrides": {
            "replications": 4000,
            "sweep_variable": "storage_S",
            "sweep_grid": [50.0, 100.0, 200.0, 400.0],
            "window_radius_m": 5000.0,
        },
        "workers": NPROC,
        "theory_only": False,
    },
    "theory_sir_dense": {"overrides": {"sweep_variable": "target_sir"}, "workers": 1, "theory_only": True},
}


def make_config(workload: str, seed: int, index: int) -> dict:
    """The config of sweep ``index`` of a run: a pure function of (workload, seed, index).

    Simulated workloads give every sweep its own master seed, so the
    time-to-1% variance is pooled over independent streams; the theory
    workload repeats one seeded grid of distinct target SIRs.
    """
    spec = WORKLOADS[workload]
    cfg = dict(BASE_CONFIG, **spec["overrides"])
    if spec["theory_only"]:
        rng = random.Random(f"{workload}/{seed}/grid")
        cfg["sweep_grid"] = sorted({10 ** rng.uniform(-1.0, 2.0) for _ in range(THEORY_GAMMAS)})
        cfg["master_seed"] = seed
    else:
        cfg["master_seed"] = random.Random(f"{workload}/{seed}/{index}").randrange(1, 2**31)
    return cfg


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Sweeper:
    """Runs cold CLI sweeps in a scratch directory inside the checkout."""

    def __init__(self, workload: str, work: Path, deadline: float):
        self.spec = WORKLOADS[workload]
        self.work = work
        self.deadline = deadline
        self.count = 0

    def sweep(self, cfg: dict, workers: int, trace_dir: Path | None = None) -> dict:
        """One cold sweep; returns timings, CSV text and the check's verdict."""
        self.count += 1
        config_path = self.work / f"config-{self.count}.json"
        csv_path = self.work / f"out-{self.count}.csv"
        config_path.write_text(json.dumps(cfg))
        cmd = [sys.executable, str(HERE / "sweep_child.py"), str(SRC), str(config_path), str(csv_path)]
        if self.spec["theory_only"]:
            cmd.append("--theory-only")
        if trace_dir is not None:
            cmd += ["--trace", str(trace_dir)]
        env = dict(os.environ, HETSIM_THREADS=str(workers))
        cells = len(cfg["sweep_grid"]) * len(cfg["scenarios"])
        spawned = time.perf_counter()
        proc = subprocess.Popen(
            cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"ok": False, "cells": cells, "failures": [f"sweep {self.count} timed out"]}
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"ok": False, "cells": cells, "failures": [f"sweep exited {proc.returncode}: {err[-500:]}"]}
        report = json.loads(lines[-1])
        if report["exit_code"] != 0:
            return {"ok": False, "cells": cells, "failures": [f"CLI exited {report['exit_code']}: {err[-500:]}"]}
        text = csv_path.read_text()
        checked, failures = check.check_csv(text, cfg, self.spec["theory_only"])
        return {
            "ok": True,
            "cells": checked,
            "failures": failures,
            "csv": text,
            "digest": hashlib.sha256(text.encode()).hexdigest()[:16],
            "wall_s": report["wall_s"],
            "setup_s": report["ready"] - spawned,
            "rss_mb": (report["rss_kb"] + report["worker_rss_kb"]) / 1024,
            "rows": text.count("\n") - 1,
        }


def _tally(runs: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(r["cells"] for r in runs)
    failed = sum(r["cells"] if not r["ok"] else min(r["cells"], len(r["failures"])) for r in runs)
    return attempted, failed, [f for r in runs for f in r["failures"]][:5]


def _cell_moments(text: str) -> list[tuple[float, float]]:
    """(sim_ms, squared CI half-width) of each simulated cell, in row order."""
    return [
        (float(r["sim_ms"]), ((float(r["ci_high"]) - float(r["ci_low"])) / 2) ** 2)
        for r in csv.DictReader(io.StringIO(text))
    ]


def time_to_1pct(sweeps: list[dict], wall_s: float) -> float:
    """Seconds to a +-1% error bar on every cell: wall * max over cells of (half / 1% of mean)^2.

    Each cell's mean and squared half-width are averaged over the run's
    independent sweeps before taking the worst cell.
    """
    per_sweep = [_cell_moments(s["csv"]) for s in sweeps]
    worst = 0.0
    for cell in zip(*per_sweep):
        mean = statistics.fmean(m for m, _ in cell)
        half_sq = statistics.fmean(h for _, h in cell)
        worst = max(worst, half_sq / (0.01 * mean) ** 2)
    return wall_s * worst


def timed_run(workload: str, seed: int, seconds: float, work: Path, deadline: float) -> tuple[dict, dict]:
    sweeper = Sweeper(workload, work, deadline)
    spec = sweeper.spec
    runs: list[dict] = []
    started = time.perf_counter()
    while True:
        runs.append(sweeper.sweep(make_config(workload, seed, len(runs)), spec["workers"]))
        if not runs[-1]["ok"]:
            break
        elapsed = time.perf_counter() - started
        per_sweep = elapsed / len(runs)
        if len(runs) >= MIN_SWEEPS and elapsed + per_sweep > seconds:
            break
        if time.perf_counter() + 2 * per_sweep > deadline:
            break
    distinct = [r for r in runs if r["ok"]]
    if not spec["theory_only"] and runs[-1]["ok"]:
        # the first config once more: a fresh process must reproduce its CSV byte for byte
        again = sweeper.sweep(make_config(workload, seed, 0), spec["workers"])
        if again["ok"] and again["digest"] != runs[0]["digest"]:
            again["failures"].append(f"CSV of sweep 0 not reproduced: {runs[0]['digest']} then {again['digest']}")
        runs.append(again)
    done = [r for r in runs if r["ok"]]
    if spec["theory_only"] and len({r["digest"] for r in done}) > 1:
        runs[-1]["failures"].append("repeated theory sweeps of one config gave different CSVs")
    attempted, failed, failures = _tally(runs)
    reps_per_cell = 0 if spec["theory_only"] else make_config(workload, seed, 0)["replications"]
    info = {
        "sweeps": len(runs),
        "workers": spec["workers"],
        "reps_per_cell": reps_per_cell,
        "csv_digests": [r.get("digest") for r in runs],
        "wall_s": [round(r["wall_s"], 4) for r in done],
        "failures": failures,
    }
    metrics = {}
    if done:
        # throughput over all sweeps of the run: on 2 cores the point-bound
        # sweep is bimodal from process to process, and a mean moves
        # smoothly with the mix where a median jumps between the modes
        wall = statistics.fmean(r["wall_s"] for r in done)
        rows_per_s = sum(r["rows"] for r in done) / sum(r["wall_s"] for r in done)
        info["reps_per_s"] = rows_per_s * reps_per_cell
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in done),
            "rows_per_s": rows_per_s,
            # closed forms carry no sampling error: their time to 1% is the sweep itself
            "time_to_1pct_s": wall if spec["theory_only"] else time_to_1pct(distinct, wall),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in done),
        }
    return result(attempted, failed, metrics, "end_to_end"), info


def traced_run(workload: str, seed: int, seconds: float, work: Path, deadline: float) -> tuple[dict, dict]:
    sweeper = Sweeper(workload, work, deadline)
    spec = sweeper.spec
    cfg = make_config(workload, seed, 0)
    cells = len(cfg["sweep_grid"]) * len(cfg["scenarios"])
    runs: list[dict] = []
    allcores = {}
    if workload == "sweep_lambda_mc":
        many = dict(cfg, replications=ALLCORES_REPS)
        trace_dir = work / "trace-allcores"
        runs.append(sweeper.sweep(many, NPROC, trace_dir))
        if runs[-1]["ok"]:
            allcores = tracer.derive([trace_dir], NPROC, cells)
            allcores["reps_per_s"] = cells * ALLCORES_REPS / runs[-1]["wall_s"]
    started = time.perf_counter()
    ratios, trace_dirs = [], []
    while all(r["ok"] for r in runs):
        plain = sweeper.sweep(cfg, spec["workers"])
        trace_dir = work / f"trace-{len(trace_dirs)}"
        traced = sweeper.sweep(cfg, spec["workers"], trace_dir)
        runs += [plain, traced]
        if not (plain["ok"] and traced["ok"]):
            break
        if traced["digest"] != plain["digest"]:
            traced["failures"].append("tracing changed the CSV")
        ratios.append(traced["wall_s"] / plain["wall_s"])
        trace_dirs.append(trace_dir)
        elapsed = time.perf_counter() - started
        if elapsed * (len(ratios) + 1) / len(ratios) > seconds or time.perf_counter() + elapsed / len(ratios) * 2 > deadline:
            break
    attempted, failed, failures = _tally(runs)
    info = {"sweeps": len(runs), "csv_digests": [r.get("digest") for r in runs], "failures": failures}
    if not trace_dirs:
        return result(attempted, max(failed, 1), {}, "per_layer"), info
    layers = tracer.derive(trace_dirs, spec["workers"], cells)
    layers["analytics.impossible_rows"] = check.impossible_rows(runs[-1]["csv"])
    layers["trace.overhead_frac"] = statistics.median(ratios) - 1
    layers["allcores.workers"] = NPROC if allcores else 0
    layers["allcores.reps_per_s"] = allcores.get("reps_per_s", 0.0)
    for key in ALLCORES_LAYERS:
        layers[f"allcores.{key}"] = allcores.get(key, 0.0)
    one_worker = layers["simulator.downlink_delay.us_per_call"]
    layers["allcores.downlink_slowdown"] = (
        allcores["simulator.downlink_delay.us_per_call"] / one_worker if allcores and one_worker else 0.0
    )
    return result(attempted, failed, layers, "per_layer"), info


def result(attempted: int, failed: int, values: dict, kind: str) -> dict:
    """The result object, with every metric of ``kind`` declared in BENCHMARK.json."""
    declared = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    if values and set(values) != set(declared):
        raise RuntimeError(f"measured {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json")
    return {
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in values.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn (a result line each)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "hetsim" / "cli.py").is_file():
        print(f"perfbench: no hetsim sources under {SRC}; run from a hetsim checkout", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        deadline = time.perf_counter() + RUN_LIMIT_S
        WORK.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        try:
            run = traced_run if args.trace else timed_run
            result, info = run(workload, args.seed, args.seconds, work, deadline)
        finally:
            shutil.rmtree(work, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:  # another run is still using it
                pass
        info = {"workload": workload, "seed": args.seed, "trace": args.trace, **info, "machine": machine()}
        print(json.dumps(info))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
