"""Acceptance suite: one test per criterion, stated tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion (the printed PASS lines stream with -s; pytest's own
PASSED/FAILED verdicts carry the same information either way).

The heavyweight Monte Carlo checks (criteria 4 and 6) honour
HETSIM_THREADS; criterion 6 alone takes about half a minute on one core.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from hetsim.analytics import (
    DelayParams,
    avg_delay_macro,
    avg_delay_small,
    b1,
    rho,
)
from hetsim.caching import B3Variant, CacheConfig, CachePolicy, hit_probability, is_hit
from hetsim.config import ExperimentConfig
from hetsim.cli import main, run_sweep
from hetsim.geometry import Window, mean_nearest_distance, nearest, sample_ppp
from hetsim.popularity import DistanceDependent, Fixed, LoadDependent, sample_request
from hetsim.simulator import Cell, MacroUser, SmallUser, ci_quantile, estimate
import oracle_reference as oracle
from caching_reference import sample_hit
from model_helpers import cdf, pdf
from single_cell import estimate_one, pool_entries

WINDOW = Window(20_000.0)
GAMMA_3DB = 10.0 ** 0.3


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_geometry_statistics():
    """Counts are Poisson and the mean nearest distance is 1/(2 sqrt(lambda))."""
    started = time.perf_counter()
    draws = 20_000
    g = np.random.default_rng(101)
    for intensity in (1.4e-6, 2.8e-6, 3.6e-6):
        mu = intensity * WINDOW.area
        counts = np.empty(draws)
        nearest_d = np.empty(draws)
        for i in range(draws):
            ps = sample_ppp(intensity, WINDOW, g)
            counts[i] = len(ps)
            nearest_d[i] = nearest(ps)[1]

        sigma = math.sqrt(mu)
        lo, hi = int(mu - 5 * sigma), int(mu + 5 * sigma)
        edges = np.arange(lo, hi + 1)
        observed = np.array([(counts == k).sum() for k in edges], dtype=float)
        observed = np.concatenate(([np.sum(counts < lo)], observed, [np.sum(counts > hi)]))
        expected = stats.poisson.pmf(edges, mu)
        expected = np.concatenate(
            ([stats.poisson.cdf(lo - 1, mu)], expected, [stats.poisson.sf(hi, mu)])
        )
        expected *= draws
        keep = expected >= 5
        observed = np.concatenate(([observed[~keep].sum()], observed[keep]))
        expected = np.concatenate(([expected[~keep].sum()], expected[keep]))
        gof = stats.chisquare(observed, expected * observed.sum() / expected.sum())
        assert gof.pvalue > 0.01, f"count distribution off at intensity {intensity}"

        want = mean_nearest_distance(intensity)
        rel = abs(nearest_d.mean() - want) / want
        assert rel < 0.01, f"mean nearest distance off by {rel:.2%} at intensity {intensity}"

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(1, f"PPP counts and nearest distances at three intensities in {elapsed:.1f}s")


def test_criterion_2_popularity_distribution():
    """Density normalizes to 1 and sampling follows the CDF."""
    for eta in (1.45, 2.0, 263.5):
        total, _ = integrate.quad(lambda f: pdf(f, eta), 1.0, math.inf)
        assert abs(total - 1.0) < 1e-9
        samples = sample_request(eta, np.random.default_rng(202).random(100_000))
        distance = stats.kstest(samples, lambda f: cdf(f, eta)).statistic
        assert distance < 0.01
    report(2, "density normalization 1e-9 and KS < 0.01 for eta in {1.45, 2, 263.5}")


def test_criterion_3_cache_hit_oracle():
    """One million sampled requests adjudicate the two hit-formula variants."""
    started = time.perf_counter()
    config = CacheConfig()
    g = np.random.default_rng(303)
    requests = sample_request(1.45, g.random(1_000_000))
    # the cache played out per request (tests/caching_reference.py), and the
    # hit probability given each request that the simulator averages
    empirical = float(
        np.mean([sample_hit(f, CachePolicy.MIX_POP, config, g) for f in requests.tolist()])
    )
    conditional = float(
        np.mean([is_hit(f, CachePolicy.MIX_POP, config) for f in requests.tolist()])
    )

    integral = hit_probability(CachePolicy.MIX_POP, config, 1.45, B3Variant.INTEGRAL_CONSISTENT)
    printed = hit_probability(CachePolicy.MIX_POP, config, 1.45, B3Variant.AS_PRINTED)
    assert integral == pytest.approx(0.7052, abs=5e-4)
    assert printed == pytest.approx(0.8887, abs=5e-4)
    assert abs(empirical - integral) < 0.005, f"empirical {empirical:.4f} vs {integral:.4f}"
    assert abs(conditional - integral) < 0.005, f"conditional {conditional:.4f} vs {integral:.4f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        3,
        f"empirical MixPop hit rate {empirical:.4f} matches integral-consistent "
        f"{integral:.4f}; as-printed value {printed:.4f} differs by "
        f"{abs(empirical - printed):.4f}",
    )


def test_criterion_4_coverage_kernel():
    """Single-attempt success probability validates the adopted rho and A(4)."""
    params = DelayParams(max_attempts=1)
    est = estimate_one(MacroUser(), params, CacheConfig(), 100_000, master_seed=404)
    empirical = 1.0 - est.outage_rate
    # the closed form spelled out in full, pi/2 standing in for A(4)
    expected = 1.0 / (
        1.0
        + rho(GAMMA_3DB, 4.0)
        + math.sqrt(2.0 / 20.0) * (3.6e-6 / 2.8e-6) * math.sqrt(GAMMA_3DB) * math.pi / 2.0
    )
    rel = abs(empirical - expected) / expected
    assert rel < 0.03, f"coverage {empirical:.4f} vs kernel {expected:.4f} ({rel:.2%})"
    report(4, f"empirical coverage {empirical:.4f} vs closed form {expected:.4f} ({rel:.2%})")


def test_criterion_5_retransmission_kernel_identity():
    """Alternating-binomial form is the truncated-geometric mean, exactly."""
    g = np.random.default_rng(505)
    for _ in range(100):
        q = float(g.random())
        m = int(g.integers(1, 11))
        alternating = math.fsum(
            (-1) ** i * math.comb(m, i + 1) * q**i for i in range(m)
        )
        geometric = math.fsum((1 - q) ** k for k in range(m))
        assert abs(alternating - geometric) < 1e-12
    assert b1(0.1, 4, 1e-60, 4.0, 2.0, 20.0, 3.6e-6, 2.8e-6) == 0.1
    report(5, "kernel identity to 1e-12 on 100 random (q, M) pairs; b1 -> T0 exactly")


def test_criterion_6_theory_vs_simulation():
    """Closed forms within 10% of full Monte Carlo at the default parameter set.

    The hit terms use the integral-consistent variant, which criterion 3
    shows is what the generative model realizes; residual gaps trace back
    to the downlink kernel (criterion 4) as the closed form linearises the
    per-attempt moments.
    """
    started = time.perf_counter()
    params = DelayParams()
    cache = CacheConfig()
    replications = 100_000
    cases = [
        ("macro", MacroUser(), avg_delay_macro(params).total_ms),
        (
            "small-nocache",
            SmallUser(policy=CachePolicy.NO_CACHE, model=Fixed(1.45)),
            avg_delay_small(CachePolicy.NO_CACHE, Fixed(1.45), cache, params).total_ms,
        ),
    ]
    for name, model in (
        ("fixed", Fixed(1.45)),
        ("distance", DistanceDependent()),
        ("load", LoadDependent()),
    ):
        cases.append(
            (
                f"small-mixpop-{name}",
                SmallUser(policy=CachePolicy.MIX_POP, model=model),
                avg_delay_small(
                    CachePolicy.MIX_POP, model, cache, params, B3Variant.INTEGRAL_CONSISTENT
                ).total_ms,
            )
        )

    gaps = []
    estimates = estimate(
        [Cell(scenario, params, cache) for _, scenario, _ in cases],
        replications,
        master_seed=606,
    )
    for (label, _, theory), est in zip(cases, estimates):
        rel = abs(est.mean_ms - theory) / theory
        gaps.append(f"{label}: sim {est.mean_ms:.4f} theory {theory:.4f} ({rel:+.2%})")
        assert rel < 0.10, gaps[-1]
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    report(6, f"{'; '.join(gaps)}; total {elapsed:.0f}s")


def exact_cases():
    """(label, scenario, exact mean delay) of the five criterion-6 scenarios
    at the default parameters, from ``tests/oracle_reference.py`` alone: the
    exact-moment downlink, the mean backhaul delay, and the
    integral-consistent hit probability."""
    downlink = {
        "macro": (oracle.POWER_SC, oracle.POWER_MC, oracle.LAMBDA_SC, oracle.LAMBDA_MC),
        "small": (oracle.POWER_MC, oracle.POWER_SC, oracle.LAMBDA_MC, oracle.LAMBDA_SC),
    }
    base = {
        tier: oracle.exact_mean_downlink(
            oracle.SLOT_MS, oracle.MAX_ATTEMPTS, oracle.GAMMA, oracle.ALPHA, *powers_and_lambdas
        )
        + oracle.mean_backhaul(powers_and_lambdas[3], oracle.LAMBDA_CR, oracle.BETA)
        for tier, powers_and_lambdas in downlink.items()
    }
    backhaul_small = oracle.mean_backhaul(oracle.LAMBDA_SC, oracle.LAMBDA_CR, oracle.BETA)
    cases = [("macro", MacroUser(), base["macro"])]
    cases.append(("small-nocache", SmallUser(policy=CachePolicy.NO_CACHE), base["small"]))
    for name, model, eta in (
        ("fixed", Fixed(oracle.ETA0), oracle.ETA0),
        ("distance", DistanceDependent(), 1.0 / (2.0 * math.sqrt(oracle.LAMBDA_SC))),
        ("load", LoadDependent(), oracle.LAMBDA_UT / oracle.LAMBDA_SC),
    ):
        hit = oracle.b2_closed(oracle.S_POPULAR, eta) + oracle.b3_integral(
            oracle.S_UNIFORM, oracle.S_POPULAR, oracle.F0, eta
        )
        exact = base["small"] + (oracle.MU_CA_MS - backhaul_small) * hit
        cases.append((f"small-mixpop-{name}", SmallUser(policy=CachePolicy.MIX_POP, model=model), exact))
    return cases


def test_criterion_6_simulation_matches_exact_theory_to_monte_carlo_noise():
    """Every criterion-6 cell lies within 4 standard errors of the exact model
    (``exact_cases``). The standard error is the interval's half-width over
    the quantile the estimate used (``ci_quantile``)."""
    started = time.perf_counter()
    params = DelayParams()
    cache = CacheConfig()
    cases = exact_cases()
    estimates = estimate(
        [Cell(scenario, params, cache) for _, scenario, _ in cases], 100_000, master_seed=606
    )
    scores = []
    for (label, _, exact), est in zip(cases, estimates):
        se = (est.ci_high_ms - est.mean_ms) / ci_quantile(est.replications)
        scores.append(f"{label}: z = {(est.mean_ms - exact) / se:+.2f}")
        assert abs(est.mean_ms - exact) <= 4 * se, f"{scores[-1]} (sim {est.mean_ms}, exact {exact})"
    report(6, f"exact theory within 4 SE: {'; '.join(scores)}; {time.perf_counter() - started:.1f}s")


def test_sparse_tiers_match_exact_theory_on_the_plane():
    """At sparse intensities (2e-8 macro and 3e-8 small cells per m^2) the
    interferers beyond a 20 km window still matter, and the simulator
    averages them out on the plane. With no backhaul and no cache read, the
    macro and small-cell delays are the downlink alone, and each lies within
    4 standard errors of ``exact_mean_downlink`` at 60 000 replications."""
    params = DelayParams(lambda_mc=2e-8, lambda_sc=3e-8, lambda_cr=1e-8, backhaul_beta=0.0, cache_read_mean_ms=0.0)
    radio = params.radio
    cells = [Cell(scenario, params, CacheConfig()) for scenario in (MacroUser(), SmallUser())]
    downlink = (
        (radio.power_small, radio.power_macro, params.lambda_sc, params.lambda_mc),
        (radio.power_macro, radio.power_small, params.lambda_mc, params.lambda_sc),
    )
    for est, powers_and_lambdas in zip(estimate(cells, 60_000, master_seed=707), downlink):
        exact = oracle.exact_mean_downlink(
            params.slot_ms, params.max_attempts, radio.target_sir, radio.pathloss_exponent, *powers_and_lambdas
        )
        se = (est.ci_high_ms - est.mean_ms) / ci_quantile(est.replications)
        assert abs(est.mean_ms - exact) <= 4 * se, (est.mean_ms, exact, (est.mean_ms - exact) / se)


# above J_MAX the far moments come from the coverage chain (replications per case); at the sparse
# intensities a window of 20 km sampled point by point misses the plane by about 8 SE at 20 000
PLANE_ABOVE_J_MAX = {
    "m13-defaults": (DelayParams(max_attempts=13), 10_000),
    "m13-sparse": (DelayParams(max_attempts=13, lambda_mc=2e-8, lambda_sc=3e-8, lambda_cr=1e-8), 20_000),
    "m30-defaults": (DelayParams(max_attempts=30), 6_000),
}


def test_plane_theory_holds_above_j_max():
    """Above ``J_MAX`` attempts the simulator still estimates the model on
    the plane. With no backhaul and no cache read, the macro and small-cell
    delays are the downlink alone, and each lies within 4 standard errors of
    ``exact_mean_downlink`` at 13 attempts, at the default and at sparse
    intensities, and at 30."""
    started = time.perf_counter()
    scores = []
    for name, (params, replications) in PLANE_ABOVE_J_MAX.items():
        params = replace(params, backhaul_beta=0.0, cache_read_mean_ms=0.0)
        radio = params.radio
        cells = [Cell(scenario, params, CacheConfig()) for scenario in (MacroUser(), SmallUser())]
        downlink = (
            (radio.power_small, radio.power_macro, params.lambda_sc, params.lambda_mc),
            (radio.power_macro, radio.power_small, params.lambda_mc, params.lambda_sc),
        )
        for tier, est, powers_and_lambdas in zip(("macro", "small"), estimate(cells, replications, 808), downlink):
            exact = oracle.exact_mean_downlink(
                params.slot_ms, params.max_attempts, radio.target_sir, radio.pathloss_exponent, *powers_and_lambdas
            )
            se = (est.ci_high_ms - est.mean_ms) / ci_quantile(est.replications)
            scores.append(f"{name} {tier}: z = {(est.mean_ms - exact) / se:+.2f}")
            assert abs(est.mean_ms - exact) <= 4 * se, scores[-1]
    elapsed = time.perf_counter() - started
    assert elapsed < 12.0, elapsed
    print(f"plane theory above J_MAX: {'; '.join(scores)}; {elapsed:.1f}s")


def test_batch_means_intervals_cover_the_exact_mean():
    """The 95% interval is by batch means over batches of lattice points. Over 300
    independent seeds, the intervals of the five
    criterion-6 cells (320 replications, five batches each) cover the exact
    mean at a rate within [0.91, 0.99] of the 1 500 intervals."""
    started = time.perf_counter()
    params = DelayParams()
    cache = CacheConfig()
    cases = exact_cases()
    cells = [Cell(scenario, params, cache) for _, scenario, _ in cases]
    covered = 0
    seeds = range(1000, 1300)
    for seed in seeds:
        for (_, _, exact), est in zip(cases, estimate(cells, 320, seed, workers=1)):
            covered += est.ci_low_ms <= exact <= est.ci_high_ms
    rate = covered / (len(seeds) * len(cases))
    assert 0.91 <= rate <= 0.99, rate
    print(f"batch-means coverage {rate:.3f} over {len(seeds) * len(cases)} intervals; "
          f"{time.perf_counter() - started:.1f}s")


def test_one_batch_intervals_cover_the_exact_mean():
    """Below two batches the interval is the i.i.d. one, 1.96 per-replication
    standard deviations over sqrt(n). Over the seeds of the batch-means test,
    the intervals of the five criterion-6 cells at 40 replications, a short
    lattice, and at 64, one full lattice, cover the exact mean at a rate of
    at least 0.95 of the 3 000 intervals."""
    params = DelayParams()
    cache = CacheConfig()
    cases = exact_cases()
    cells = [Cell(scenario, params, cache) for _, scenario, _ in cases]
    covered = total = 0
    for replications in (40, 64):
        for seed in range(1000, 1300):
            for (_, _, exact), est in zip(cases, estimate(cells, replications, seed, workers=1)):
                covered += est.ci_low_ms <= exact <= est.ci_high_ms
                total += 1
    assert covered / total >= 0.95, covered / total


def test_criterion_7_trend_reproduction():
    """Direction and ordering of the four default sweeps."""
    macro_rows = run_sweep(ExperimentConfig(sweep_variable="lambda_mc"), theory_only=True)
    macro = [r.theory_ms for r in macro_rows if r.scenario == "macro"]
    assert all(b > a for a, b in zip(macro, macro[1:])), "macro delay not increasing in lambda_mc"

    sir_cfg = ExperimentConfig(sweep_variable="target_sir")
    sir_rows = run_sweep(sir_cfg, theory_only=True)
    for label in sir_cfg.scenarios:
        values = [r.theory_ms for r in sir_rows if r.scenario == label]
        diffs = np.diff(values)
        assert np.all(diffs >= 0), f"{label} delay decreasing in target SIR"
        # grid points sit at 0/3/6/9 dB; increments past ~5 dB must shrink
        assert diffs[2] < diffs[1], f"{label} increments not shrinking at high SIR"

    storage_rows = run_sweep(ExperimentConfig(sweep_variable="storage_S"), theory_only=True)
    for label in ("small-mixpop-fixed", "small-mixpop-distance", "small-mixpop-load"):
        values = [r.theory_ms for r in storage_rows if r.scenario == label]
        assert all(b < a for a, b in zip(values, values[1:])), f"{label} not decreasing in S"

    defaults = [r for r in storage_rows if r.value == 100.0 and r.scenario.startswith("small")]
    delays = {r.scenario: r.theory_ms for r in defaults}
    hits = {r.scenario: r.hit_rate_theory for r in defaults}
    assert max(delays, key=delays.get) == "small-nocache"
    cached = {k: v for k, v in delays.items() if k != "small-nocache"}
    assert min(cached, key=cached.get) == max(hits, key=hits.get)
    report(7, "sweep trends (a), (c), (d) and the delay/hit ordering at defaults")


def test_criterion_8_deterministic_csv(tmp_path, monkeypatch):
    """Identical config and seed give byte-identical CSV at any thread cap."""
    # 8 300 replications of the one parameter set are five kernel calls, so four workers start a pool
    config_path = tmp_path / "config.json"
    config_path.write_text(
        '{"sweep_variable": "storage_S", "replications": 8300, '
        '"window_radius_m": 5000.0, "master_seed": 2024}'
    )
    out_one = tmp_path / "threads1.csv"
    out_four = tmp_path / "threads4.csv"
    monkeypatch.setenv("HETSIM_THREADS", "1")
    assert main(["--config", str(config_path), "--out", str(out_one)]) == 0
    monkeypatch.setenv("HETSIM_THREADS", "4")
    entered = pool_entries(monkeypatch)
    assert main(["--config", str(config_path), "--out", str(out_four)]) == 0
    assert len(entered) == 1
    one, four = out_one.read_bytes(), out_four.read_bytes()
    assert one == four
    assert len(one.splitlines()) == 1 + 4 * 5
    report(8, f"two full sweep runs byte-identical across thread caps ({len(one)} bytes)")
