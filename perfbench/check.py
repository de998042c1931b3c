"""Output check for one sweep CSV, independent of the package under test.

The closed forms are re-derived here at pathloss exponent 4, where the
interference functional has the closed form sqrt(g) * (pi/2 - atan(1/sqrt(g)))
and the cross-tier constant is pi/2, and the downlink sum is taken in its
positive-term product form. No hetsim code is imported, so a change that
breaks the package's closed forms cannot also break the check.

A cell fails when:
- the rows do not follow the config's (grid value, scenario) order;
- ``theory_ms`` or ``hit_rate_theory`` differ from the configured variant's
  closed form by more than THEORY_RTOL;
- a simulated cell has ``sim_ms`` outside its own interval, a rate outside
  [0, 1], the wrong ``reps``, ``sim_ms`` further from the integral-variant
  closed form than SIM_Z standard errors plus SIM_RTOL, or a hit rate more
  than SIM_Z binomial standard errors from the integral-variant hit
  probability;
- a theory-only cell carries simulation columns.
"""

from __future__ import annotations

import csv
import io
import math

CSV_HEADER = [
    "sweep_var", "value", "scenario", "theory_ms", "sim_ms", "ci_low", "ci_high",
    "hit_rate_theory", "hit_rate_sim", "outage_rate", "reps", "seed",
]
CI_Z = 1.959963984540054
THEORY_RTOL = 1e-9
# sim vs the integral-variant closed form: Monte Carlo noise, plus the
# documented 1-3% downlink linearisation gap and the interference a 5 km
# window truncates (the simulated downlink sits above the linearised form
# by up to ~3% of the total delay at these parameters)
SIM_Z = 5.0
SIM_RTOL = 0.05


def _rho4(gamma: float) -> float:
    s = math.sqrt(gamma)
    return s * (math.pi / 2 - math.atan(1 / s))


def _downlink(cfg: dict, gamma: float, serving: str, lam_mc: float) -> float:
    if serving == "macro":
        p_own, p_other = cfg["power_mc_watts"], cfg["power_sc_watts"]
        lam_own, lam_other = lam_mc, cfg["lambda_sc_per_m2"]
    else:
        p_own, p_other = cfg["power_sc_watts"], cfg["power_mc_watts"]
        lam_own, lam_other = cfg["lambda_sc_per_m2"], lam_mc
    c = _rho4(gamma) + math.sqrt(p_other / p_own) * (lam_other / lam_own) * math.sqrt(gamma) * math.pi / 2
    total, term = 0.0, 1.0
    for k in range(cfg["max_attempts"]):
        if k:
            term *= k * c / (1 + k * c)
        total += term
    return cfg["t0_ms"] * total


def _storage_split(cfg: dict, value: float) -> tuple[float, float, float]:
    """(popular, overhead, uniform) for a grid value, as the CLI derives it."""
    if cfg["sweep_variable"] != "storage_S":
        return cfg["storage_popular_units"], cfg["storage_overhead_units"], cfg["storage_uniform_units"]
    overhead = min(cfg["storage_overhead_units"], value)
    popular = min(cfg["storage_popular_units"], value - overhead)
    return popular, overhead, value - popular - overhead


def closed_form(cfg: dict, value: float, scenario: str, variant: str) -> tuple[float, float]:
    """(mean delay in ms, hit probability) of one cell under a hit-formula variant."""
    if cfg["pathloss_exponent"] != 4.0:
        raise ValueError("the independent closed forms are written for pathloss exponent 4")
    var = cfg["sweep_variable"]
    lam_mc = value if var == "lambda_mc" else cfg["lambda_mc_per_m2"]
    gamma = value if var == "target_sir" else 10 ** (cfg["target_sir_db"] / 10)
    lam_sc, lam_cr, lam_ut = cfg["lambda_sc_per_m2"], cfg["lambda_cr_per_m2"], cfg["lambda_ut_per_m2"]
    beta = cfg["beta_ms_per_m_per_bs"]
    if scenario == "macro":
        return _downlink(cfg, gamma, "macro", lam_mc) + 0.5 * beta * lam_mc * lam_cr**-1.5, 0.0
    backhaul = 0.5 * beta * lam_sc * lam_cr**-1.5
    base = _downlink(cfg, gamma, "small", lam_mc) + backhaul
    if scenario == "small-nocache":
        return base, 0.0
    if not scenario.startswith("small-mixpop-"):
        raise ValueError(f"no independent closed form for scenario {scenario!r}")
    model = scenario.rsplit("-", 1)[1]
    eta = {"fixed": cfg["eta0"], "distance": 1 / (2 * math.sqrt(lam_sc)), "load": lam_ut / lam_sc}[model]
    popular, _, uniform = _storage_split(cfg, value)
    f0 = cfg["f0_units"]
    head = (1 + popular) ** (1 - eta)
    tail = (1 + f0) ** (1 - eta)
    mass = 1 - tail + head if variant == "printed" else head - tail
    hit = (1 - head) + uniform / (f0 - popular) * mass
    return base + (cfg["mu_ca_ms"] - backhaul) * hit, hit


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= THEORY_RTOL * max(1.0, abs(b))


def check_csv(text: str, cfg: dict, theory_only: bool) -> tuple[int, list[str]]:
    """Check one sweep's CSV against its config; returns (cells, failure messages)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADER:
        return 1, [f"bad header {header!r}"]
    rows = list(reader)
    expected = [(v, s) for v in cfg["sweep_grid"] for s in cfg["scenarios"]]
    failures = []
    if len(rows) != len(expected):
        failures.append(f"{len(rows)} rows, expected {len(expected)}")
    for i, (value, scenario) in enumerate(expected):
        if i >= len(rows):
            failures.append(f"missing row {value}/{scenario}")
            continue
        try:
            problem = _check_row(rows[i], cfg, value, scenario, theory_only)
        except ValueError as exc:
            problem = f"unparsable row: {exc}"
        if problem:
            failures.append(f"{value}/{scenario}: {problem}")
    return max(len(rows), len(expected)), failures


def _check_row(row: list[str], cfg: dict, value: float, scenario: str, theory_only: bool) -> str | None:
    if len(row) != len(CSV_HEADER):
        return f"{len(row)} columns"
    cell = dict(zip(CSV_HEADER, row))
    if (cell["sweep_var"], float(cell["value"]), cell["scenario"]) != (cfg["sweep_variable"], value, scenario):
        return f"row out of order: {row[:3]}"
    if int(cell["seed"]) != cfg["master_seed"]:
        return f"seed {cell['seed']}"
    theory, hit = closed_form(cfg, value, scenario, cfg["b3_variant"])
    if not (_close(float(cell["theory_ms"]), theory) and _close(float(cell["hit_rate_theory"]), hit)):
        return f"theory {cell['theory_ms']}/{cell['hit_rate_theory']}, expected {theory!r}/{hit!r}"
    sim_cols = ("sim_ms", "ci_low", "ci_high", "hit_rate_sim", "outage_rate")
    if theory_only:
        if any(cell[c] for c in sim_cols) or cell["reps"] != "0":
            return "theory-only row carries simulation columns"
        return None
    try:
        sim, low, high, hit_sim, outage = (float(cell[c]) for c in sim_cols)
    except ValueError:
        return "missing simulation column"
    if int(cell["reps"]) != cfg["replications"]:
        return f"reps {cell['reps']}"
    if not low <= sim <= high:
        return f"sim {sim} outside [{low}, {high}]"
    if not (0 <= hit_sim <= 1 and 0 <= outage <= 1):
        return f"rate outside [0, 1]: hit {hit_sim}, outage {outage}"
    n = cfg["replications"]
    ref, hit_ref = closed_form(cfg, value, scenario, "integral")
    se = (high - low) / (2 * CI_Z)
    if abs(sim - ref) > SIM_Z * se + SIM_RTOL * abs(ref):
        return f"sim {sim:.5g} vs integral closed form {ref:.5g} (SE {se:.3g})"
    if abs(hit_sim - hit_ref) > SIM_Z * math.sqrt(hit_ref * (1 - hit_ref) / n) + 1.0 / n:
        return f"hit rate {hit_sim} vs closed form {hit_ref:.5g}"
    return None


def impossible_rows(text: str) -> int:
    """Rows whose closed form reports a negative delay or a hit rate above 1."""
    rows = list(csv.DictReader(io.StringIO(text)))
    return sum(float(r["theory_ms"]) < 0 or float(r["hit_rate_theory"]) > 1 for r in rows)
