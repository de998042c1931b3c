import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy import stats

import oracle_reference as oracle
from hetsim.analytics import DelayParams, mean_backhaul
from hetsim.caching import B3Variant, CacheConfig, CachePolicy, hit_probability
from hetsim.channel import RadioParams
from hetsim import errors, simulator
from hetsim.errors import InvalidParameterError
from hetsim.geometry import PointSet, Tier
from hetsim.popularity import DistanceDependent, Fixed, LoadDependent, effective_eta
from hetsim.simulator import (
    BATCH_SIZE,
    CI_Z,
    J_MAX,
    Cell,
    DistanceMode,
    MacroUser,
    SmallUser,
    _simulate,
    _summarize,
    ci_quantile,
    estimate,
    replication_rng,
    run_replication,
)
from model_helpers import point_set_from_xy
from single_cell import estimate_one, kernel, pool_entries, replicate_one
from sir_reference import reference_downlink, success_probability, truncated_geometric
from stream_script import Recorder, shift
from stream_script import levels as stratified_levels

GAMMA_3DB = 10.0 ** 0.3
STDPOP = CacheConfig(total=10.0, popular=9.5, overhead=0.5, uniform=0.0)
UNIRAND = CacheConfig(total=90.0, popular=0.0, overhead=0.0, uniform=90.0)
CACHES = {CachePolicy.STD_POP: STDPOP, CachePolicy.UNI_RAND: UNIRAND, CachePolicy.MIX_POP: CacheConfig()}


def rng(seed=0):
    return np.random.default_rng(seed)


def point_set(coords, tier):
    if len(coords) == 0:
        return PointSet(r=np.empty(0), theta=np.empty(0), tier=tier)
    return point_set_from_xy(coords, tier=tier)


def small_params(**overrides):
    """Dense miniature network so replications stay cheap."""
    defaults = dict(
        slot_ms=0.1,
        max_attempts=4,
        backhaul_beta=1e-3,
        cache_read_mean_ms=0.01,
        lambda_cr=1.4e-6,
        lambda_mc=2.8e-6,
        lambda_sc=3.6e-6,
        lambda_ut=7.2e-6,
    )
    defaults.update(overrides)
    return DelayParams(**defaults)


# (serving tier, macro points, small points); the server is point 0 of its
# tier, and the outage probability runs from 5% to 43%
TWO_TIER_GEOMETRIES = [
    (Tier.MACRO, [(100.0, 0.0), (0.0, 140.0), (-250.0, 40.0)], [(60.0, 90.0), (-120.0, -70.0)]),
    (Tier.SMALL_CELL, [(0.0, 300.0), (-200.0, 50.0)], [(40.0, 30.0), (-60.0, 10.0), (70.0, -110.0)]),
    (Tier.MACRO, [(150.0, 80.0), (-160.0, 90.0), (20.0, -200.0), (300.0, 300.0)], []),
]


class TestDownlinkDelay:
    def test_guaranteed_success_takes_one_slot(self):
        macro = point_set([(100.0, 0.0), (120.0, 50.0)], Tier.MACRO)
        small = point_set([(80.0, -30.0)], Tier.SMALL_CELL)
        radio = RadioParams(target_sir=1e-12)
        attempts, outage, delay = kernel(Tier.MACRO, 0, macro, small, radio)
        assert 1.0 <= attempts < 1.0 + 1e-10
        assert delay == pytest.approx(0.1)
        # q within 1e-12 of 1: the outage (1-q)^4 must keep its relative precision
        exact = truncated_geometric(success_probability(Tier.MACRO, 0, macro, small, radio), 4)
        assert 0.0 < outage == pytest.approx(float(exact[1]), rel=1e-12, abs=0.0)

    def test_impossible_target_always_times_out(self):
        macro = point_set([(100.0, 0.0), (100.0, 1.0)], Tier.MACRO)
        small = point_set([], Tier.SMALL_CELL)
        radio = RadioParams(target_sir=1e15)
        attempts, outage, delay = kernel(Tier.MACRO, 0, macro, small, radio)
        exact = truncated_geometric(success_probability(Tier.MACRO, 0, macro, small, radio), 4)
        assert attempts == pytest.approx(float(exact[0]), rel=1e-12, abs=0.0)
        assert outage == pytest.approx(float(exact[1]), rel=1e-12, abs=0.0)
        assert delay == pytest.approx(0.4)

    def test_no_interferer_succeeds_immediately(self):
        macro = point_set([(500.0, 0.0)], Tier.MACRO)
        small = point_set([], Tier.SMALL_CELL)
        assert kernel(Tier.MACRO, 0, macro, small, RadioParams()) == (1.0, 0.0, 0.1)

    def test_attempt_distribution_matches_two_point_closed_form(self):
        """With one equal-power interferer the per-attempt success probability
        is 1/(1 + gamma (d_s/d_i)^alpha) from the Exp(1) fading ratio: the
        protocol's attempt counts follow it, and the kernel computes it."""
        d_serving, d_interferer, gamma = 100.0, 200.0, 2.0
        macro = point_set([(d_serving, 0.0), (0.0, d_interferer)], Tier.MACRO)
        small = point_set([], Tier.SMALL_CELL)
        radio = RadioParams(target_sir=gamma)
        p = 1.0 / (1.0 + gamma * (d_serving / d_interferer) ** 4)
        g = rng(11)
        counts = np.zeros(4)
        trials = 20_000
        for _ in range(trials):
            attempts, _ = reference_downlink(Tier.MACRO, 0, macro, small, radio, 4, g)
            counts[attempts - 1] += 1
        probs = np.array([p, (1 - p) * p, (1 - p) ** 2 * p, (1 - p) ** 3])
        result = stats.chisquare(counts, probs * trials)
        assert result.pvalue > 0.01
        attempts, outage, _ = kernel(Tier.MACRO, 0, macro, small, radio)
        assert attempts == pytest.approx(probs @ [1, 2, 3, 4], rel=1e-12, abs=0.0)
        assert outage == pytest.approx((1 - p) ** 4, rel=1e-12, abs=0.0)

    def test_matches_sir_at_origin_step_by_step(self):
        """Averaged over fading, the per-attempt protocol lands on the kernel."""
        radio = RadioParams()
        trials = 20_000
        g = rng(1000)
        for serving_tier, macro, small in TWO_TIER_GEOMETRIES:
            macro = point_set(macro, Tier.MACRO)
            small = point_set(small, Tier.SMALL_CELL)
            runs = np.array(
                [reference_downlink(serving_tier, 0, macro, small, radio, 4, g) for _ in range(trials)]
            )
            attempts, outage, _ = kernel(serving_tier, 0, macro, small, radio)
            se_attempts = runs[:, 0].std(ddof=1) / math.sqrt(trials)
            se_outage = math.sqrt(outage * (1 - outage) / trials)
            assert abs(runs[:, 0].mean() - attempts) < 4 * se_attempts
            assert abs(runs[:, 1].mean() - outage) < 4 * se_outage

    def test_bad_serving_index(self):
        macro = point_set([(100.0, 0.0)], Tier.MACRO)
        with pytest.raises(InvalidParameterError):
            kernel(Tier.MACRO, 3, macro, point_set([], Tier.SMALL_CELL), RadioParams())

    @pytest.mark.parametrize("tier", [Tier.MACRO, Tier.SMALL_CELL])
    def test_negative_serving_index_rejected(self, tier):
        """-1 must not wrap around, nor reach into the other tier's points."""
        macro = point_set([(100.0, 0.0), (0.0, 150.0)], Tier.MACRO)
        small = point_set([(80.0, 0.0)], Tier.SMALL_CELL)
        with pytest.raises(InvalidParameterError):
            kernel(tier, -1, macro, small, RadioParams())


class TestRunReplication:
    def test_sample_invariants(self):
        params = small_params()
        scenario = SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45))
        for rep in range(200):
            s = replicate_one(scenario, params, CacheConfig(), replication_rng(5, rep))
            assert 1 <= s.attempts <= params.max_attempts
            assert 0 <= s.outage <= 1
            assert s.downlink_ms == pytest.approx(params.slot_ms * s.attempts)
            assert s.total_ms == pytest.approx(s.downlink_ms + s.tail_ms)
            assert s.tail_ms >= 0.0

    def test_nocache_never_hits(self):
        params = small_params()
        scenario = SmallUser(policy=CachePolicy.NO_CACHE, model=Fixed(1.45))
        samples = [
            replicate_one(scenario, params, CacheConfig(), replication_rng(6, rep))
            for rep in range(100)
        ]
        assert not any(s.hit for s in samples)

    def test_macro_never_hits(self):
        params = small_params()
        samples = [
            replicate_one(MacroUser(), params, CacheConfig(), replication_rng(7, rep))
            for rep in range(50)
        ]
        assert not any(s.hit for s in samples)

    def test_hit_with_free_cache_read_has_zero_tail(self):
        params = small_params(cache_read_mean_ms=0.0)
        # steepness 200 makes every request land in the popular head
        scenario = SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(200.0))
        samples = [
            replicate_one(scenario, params, CacheConfig(), replication_rng(8, rep))
            for rep in range(60)
        ]
        assert all(s.hit for s in samples)
        assert all(s.tail_ms == 0.0 for s in samples)

    def test_macro_tail_mean_matches_backhaul_closed_form(self):
        """The router distance is averaged out, so every replication's tail
        is the closed-form mean backhaul delay."""
        params = small_params()
        expected = mean_backhaul(params.lambda_mc, params.lambda_cr, params.backhaul_beta)
        for rep in range(BATCH_SIZE):
            sample = replicate_one(MacroUser(), params, CacheConfig(), replication_rng(9, rep))
            assert sample.tail_ms == pytest.approx(expected, rel=1e-12, abs=0.0), rep

    @pytest.mark.parametrize(
        "members",
        [
            [(SmallUser(policy=CachePolicy.MIX_POP), CacheConfig())],
            [(SmallUser(policy=CachePolicy.UNI_RAND), UNIRAND)],
            [(SmallUser(policy=CachePolicy.STD_POP), STDPOP)],
            [(SmallUser(policy=CachePolicy.NO_CACHE), CacheConfig())],
            [(MacroUser(), CacheConfig())],

                [
                    (MacroUser(), CacheConfig()),
                    (SmallUser(policy=CachePolicy.NO_CACHE), CacheConfig()),
                    (SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45)), CacheConfig()),
                    (SmallUser(policy=CachePolicy.UNI_RAND, model=LoadDependent()), UNIRAND),
                    (
                        SmallUser(
                            policy=CachePolicy.STD_POP,
                            model=DistanceDependent(),
                            distance_mode=DistanceMode.PER_USER,
                        ),
                        STDPOP,
                    ),
                ],
        ],
        ids=["mixpop", "unirand", "stdpop", "nocache", "macro", "mixed"],
    )
    def test_draws_only_the_geometry(self, members):
        # the replication stream is exactly the macro and small-cell geometry, whether or not a
        # cell caches and on either side of J_MAX: the shift of a lattice of one point, which is
        # both tiers' levels of the nearest distance, and nothing more; no interferer, router or
        # request is drawn (the recorder offers no other kind of draw)
        for rep, max_attempts in itertools.product(range(5), (4, J_MAX + 1)):
            params = small_params(max_attempts=max_attempts)
            cells = [Cell(scenario, params, cache) for scenario, cache in members]
            g = Recorder(replication_rng(13, rep))
            run_replication(cells, params, g)
            assert shift(g.log).shape == (2,)

    def test_tail_is_the_mean_given_geometry_and_request(self):
        """The router distance and the request are averaged out: the tail is
        p * cache read + (1 - p) * backhaul mean, where the backhaul mean
        takes the plane PPP's mean router distance 1 / (2 sqrt(lambda_cr))
        and p is the MixPop hit probability averaged over the popularity
        law, its cache edges at 1 + S_p = 10.5 and 1 + f0 = 501."""
        params = small_params()
        cache = CacheConfig()
        cells = [
            Cell(MacroUser(), params, cache),
            Cell(SmallUser(policy=CachePolicy.NO_CACHE), params, cache),
            Cell(SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45)), params, cache),
        ]
        router_distance = 1.0 / (2.0 * math.sqrt(params.lambda_cr))
        mixpop = (1.0 - 10.5**-0.45) + 90.0 / 490.5 * (10.5**-0.45 - 501.0**-0.45)
        for rep in range(20):
            samples = run_replication(cells, params, replication_rng(19, rep))
            for cell, sample in zip(cells, samples):
                intensity = params.lambda_mc if isinstance(cell.scenario, MacroUser) else params.lambda_sc
                backhaul_mean = params.backhaul_beta * router_distance * intensity / params.lambda_cr
                p = mixpop if cell is cells[2] else 0.0
                assert sample.hit == pytest.approx(p, rel=1e-14, abs=0.0)
                expected = p * params.cache_read_mean_ms + (1 - p) * backhaul_mean
                assert sample.tail_ms == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("max_attempts", [4, J_MAX + 1])
    def test_a_nearest_point_far_out_serves(self, max_attempts):
        """A tier's nearest point is kept wherever it falls, here hundreds of kilometres out, and the
        plane beyond it is averaged out on either side of ``J_MAX``."""
        params = small_params(lambda_mc=1e-12, max_attempts=max_attempts)
        g = Recorder(replication_rng(1, 0))
        sample = replicate_one(MacroUser(), params, CacheConfig(), g)
        levels = stratified_levels(g.log, 0, 1)
        assert np.sqrt(-np.log1p(-levels) / (math.pi * params.lambda_mc))[0] > 100_000.0
        assert all(math.isfinite(v) for v in (sample.downlink_ms, sample.attempts, sample.outage))
        assert sample.outage == pytest.approx(1.0, abs=1e-9)


class TestEstimate:
    def test_single_replication_degenerate_interval(self):
        # below two batches the interval takes the per-replication standard deviation, 0 for one
        est = estimate_one(MacroUser(), small_params(), CacheConfig(), 1, 3)
        assert est.ci_low_ms == est.mean_ms == est.ci_high_ms
        assert est.replications == 1

    def test_replications_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            estimate_one(MacroUser(), small_params(), CacheConfig(), 0, 3)

    def test_same_seed_same_result(self):
        args = (MacroUser(), small_params(), CacheConfig(), 400, 17)
        assert estimate_one(*args) == estimate_one(*args)

    @pytest.mark.parametrize("max_attempts", [4, J_MAX + 1])
    def test_a_floating_point_warning_in_the_far_field_reaches_the_caller(self, monkeypatch, max_attempts):
        # on either far-field route; numpy warns of a divide by zero only where no errstate silences it
        far_moments = simulator.far_moments

        def warning_far_moments(*args):
            np.log(np.zeros(1))
            return far_moments(*args)

        monkeypatch.setattr(simulator, "far_moments", warning_far_moments)
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            estimate_one(MacroUser(), small_params(max_attempts=max_attempts), CacheConfig(), 64, 3, workers=1)

    @pytest.mark.parametrize("max_attempts", [4, J_MAX + 1])
    def test_the_downlink_depends_on_the_intensities_only_through_their_ratios(self, max_attempts):
        """Scaling all four intensities by 2^-600, or the two tiers' by 2^-1000, which leaves every
        ratio exact, leaves the kernel's attempts and outage rows and the estimate's outage rate
        unchanged, compared with ==, on either side of ``J_MAX``: in an interference-limited network
        the SIR does not depend on the density's scale. Only the metres change, and the tail with
        them. At 2^-1000 a tier's intensity times its smallest point count is subnormal."""
        params = DelayParams(max_attempts=max_attempts)
        scalings = [{}, dict.fromkeys(("lambda_cr", "lambda_mc", "lambda_sc", "lambda_ut"), 2.0**-600)]
        scalings.append(dict.fromkeys(("lambda_mc", "lambda_sc"), 2.0**-1000))
        runs = []
        for scaling in scalings:
            p = dataclasses.replace(params, **{name: getattr(params, name) * s for name, s in scaling.items()})
            cells = [Cell(scenario, p, CacheConfig()) for scenario in (MacroUser(), SmallUser())]
            rows = _simulate(cells, p, replication_rng(5, 0), BATCH_SIZE)[:, 2:4]
            runs.append((rows, [est.outage_rate for est in estimate(cells, 300, 2026, workers=1)]))
        for rows, outages in runs[1:]:
            assert np.array_equal(runs[0][0], rows)
            assert runs[0][1] == outages

    def test_worker_count_does_not_change_result(self, monkeypatch):
        # four kernel calls of up to 32 batches, more than the three workers, so the pool runs them
        args = (
            SmallUser(policy=CachePolicy.MIX_POP, model=LoadDependent()),
            small_params(),
            CacheConfig(),
            7000,
            23,
        )
        sequential = estimate_one(*args, workers=1)
        entered = pool_entries(monkeypatch)
        pooled = estimate_one(*args, workers=3)
        assert len(entered) == 1
        assert sequential == pooled

    def test_thread_env_var_respected(self, monkeypatch):
        # three kernel calls, more than two workers
        args = (MacroUser(), small_params(), CacheConfig(), 4200, 5)
        entered = pool_entries(monkeypatch)
        monkeypatch.setenv("HETSIM_THREADS", "1")
        one = estimate_one(*args)
        assert not entered
        monkeypatch.setenv("HETSIM_THREADS", "2")
        two = estimate_one(*args)
        assert len(entered) == 1
        assert one == two

    @pytest.mark.parametrize("workers", [0, -4])
    def test_explicit_nonpositive_workers_rejected(self, workers):
        args = (MacroUser(), small_params(), CacheConfig(), 30, 5)
        with pytest.raises(InvalidParameterError, match="workers"):
            estimate_one(*args, workers=workers)

    def test_default_workers_follow_the_cpu_affinity(self, monkeypatch):
        """Without HETSIM_THREADS the pool gets the CPUs this process may run
        on, capped at 8, and the CPU count where the platform has no affinity call."""
        monkeypatch.delenv("HETSIM_THREADS", raising=False)
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: 16)
        monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert simulator._resolve_workers(None) == 1
        monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(12)))
        assert simulator._resolve_workers(None) == 8
        monkeypatch.delattr(simulator.os, "sched_getaffinity")
        assert simulator._resolve_workers(None) == 8
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: 3)
        assert simulator._resolve_workers(None) == 3
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: None)
        assert simulator._resolve_workers(None) == 1

    def test_batch_boundaries_do_not_depend_on_workers(self, monkeypatch):
        """A full kernel call of 32 batches, then two full batches and a
        short one, for each of two parameter sets: the pool runs the
        four calls, and each batch still reads its own stream."""
        params = small_params()
        cells = [
            Cell(MacroUser(), params, CacheConfig()),
            Cell(SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45)), params, CacheConfig()),
            Cell(
                SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45)),
                small_params(max_attempts=3),
                CacheConfig(),
            ),
        ]
        replications = simulator.KERNEL_BUDGET + 2 * BATCH_SIZE + 5
        sequential = estimate(cells, replications, 89, workers=1)
        entered = pool_entries(monkeypatch)
        pooled = estimate(cells, replications, 89, workers=3)
        assert len(entered) == 1
        assert sequential == pooled
        assert all(est.replications == replications for est in pooled)

    def test_batch_streams_are_distinct(self):
        """Batch b reads the stream of (master_seed, b); the simulator derives
        no other stream, so every batch of every seed must read its own, and
        none may repeat the master seed's root stream."""
        first_draws = [np.random.default_rng(np.random.SeedSequence(s)).random(4).tolist() for s in (7, 8)]
        for seed in (7, 8):
            first_draws += [replication_rng(seed, b).random(4).tolist() for b in range(200)]
        assert len({tuple(d) for d in first_draws}) == len(first_draws)

    def test_ci_brackets_mean(self):
        est = estimate_one(MacroUser(), small_params(), CacheConfig(), 500, 29)
        assert est.ci_low_ms <= est.mean_ms <= est.ci_high_ms
        assert 0.0 <= est.outage_rate <= 1.0
        assert est.hit_rate == 0.0

    def test_invalid_cache_config_fails_fast(self):
        bad = CacheConfig(total=100.0, popular=9.5, overhead=0.5, uniform=50.0)
        from hetsim.errors import InvalidConfigError

        with pytest.raises(InvalidConfigError):
            estimate_one(
                SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45)),
                small_params(),
                bad,
                10,
                1,
            )

    def test_downlink_mean_matches_exact_moment_oracle(self):
        """beta = mu_ca = 0 isolates the downlink; its mean must sit on the
        exact conditional-moment value, which the closed form undershoots."""
        params = small_params(backhaul_beta=0.0, cache_read_mean_ms=0.0)
        est = estimate_one(MacroUser(), params, CacheConfig(), 12_000, 41)
        se = (est.ci_high_ms - est.mean_ms) / ci_quantile(est.replications)
        exact = oracle.FROZEN["exact_downlink_macro_ms"]
        assert abs(est.mean_ms - exact) < 3.5 * se
        # the alternating-binomial approximation sits measurably below
        assert est.mean_ms > oracle.FROZEN["b1_macro_ms"]

    def test_outage_rate_consistent_with_coverage_at_single_attempt(self):
        params = small_params(max_attempts=1)
        est = estimate_one(MacroUser(), params, CacheConfig(), 8000, 47)
        expected = oracle.FROZEN["coverage_macro"]
        se = math.sqrt(expected * (1 - expected) / est.replications)
        assert abs((1.0 - est.outage_rate) - expected) < 3.5 * se

    @pytest.mark.parametrize(
        "scenario,expected_key",
        [
            (SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45)), "hit_mixpop_fixed_integral"),
            (SmallUser(policy=CachePolicy.MIX_POP, model=LoadDependent()), None),
            (SmallUser(policy=CachePolicy.MIX_POP, model=DistanceDependent()), None),
        ],
    )
    def test_hit_rate_matches_integral_closed_form(self, scenario, expected_key):
        params = small_params()
        est = estimate_one(scenario, params, CacheConfig(), 4000, 53)
        if expected_key:
            expected = oracle.FROZEN[expected_key]
        else:
            eta = effective_eta(scenario.model, params.lambda_sc, params.lambda_ut)
            expected = hit_probability(
                CachePolicy.MIX_POP, CacheConfig(), eta, B3Variant.INTEGRAL_CONSISTENT
            )
        assert est.hit_rate == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_paired_seed_caching_reduces_delay(self):
        params = small_params()
        nocache = estimate_one(
            SmallUser(policy=CachePolicy.NO_CACHE, model=Fixed(1.45)),
            params, CacheConfig(), 2500, 61,
        )
        mixpop = estimate_one(
            SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45)),
            params, CacheConfig(), 2500, 61,
        )
        assert mixpop.mean_ms < nocache.mean_ms

    def test_doubling_beta_doubles_macro_tail(self):
        base = estimate_one(MacroUser(), small_params(), CacheConfig(), 4000, 73)
        doubled = estimate_one(
            MacroUser(), small_params(backhaul_beta=2e-3), CacheConfig(), 4000, 73
        )
        # identical streams: downlink part is shared, tails scale by 2
        base_tail = base.mean_ms - oracle.FROZEN["exact_downlink_macro_ms"]
        doubled_tail = doubled.mean_ms - oracle.FROZEN["exact_downlink_macro_ms"]
        assert doubled_tail == pytest.approx(2 * base_tail, rel=0.05)


class TestConfidenceInterval:
    """The rule of ``estimate``'s docstring: batch means from two batches on,
    the per-replication standard deviation below that."""

    def test_batch_means_weight_the_short_last_batch(self):
        n = 2 * BATCH_SIZE + 10  # three batches, the last of ten replications
        totals = np.random.default_rng(3).gamma(2.0, size=n)
        est = _summarize(np.stack((totals, np.zeros(n), np.zeros(n)), axis=-1))
        sizes = np.array([BATCH_SIZE, BATCH_SIZE, 10])
        means = np.array([batch.mean() for batch in np.split(totals, [BATCH_SIZE, 2 * BATCH_SIZE])])
        tau2 = np.sum(sizes * (means - totals.mean()) ** 2) / 2
        quantile = stats.t.ppf(0.975, 2)
        assert ci_quantile(n) == pytest.approx(quantile, rel=1e-12)
        assert est.mean_ms == pytest.approx(totals.mean(), rel=1e-15)
        assert est.ci_high_ms - est.mean_ms == pytest.approx(quantile * math.sqrt(tau2 / n), rel=1e-12)
        assert est.mean_ms - est.ci_low_ms == pytest.approx(quantile * math.sqrt(tau2 / n), rel=1e-12)

    @pytest.mark.parametrize("replications", [2, 17, BATCH_SIZE])
    def test_below_two_batches_the_replications_standard_deviation(self, replications):
        params = small_params()
        cell = Cell(MacroUser(), params, CacheConfig())
        est = estimate([cell], replications, 3, workers=1)[0]
        downlink, tail = _simulate([cell], params, replication_rng(3, 0), replications)[0, :2]
        totals = downlink + tail
        half = CI_Z * totals.std(ddof=1) / math.sqrt(replications)
        assert ci_quantile(replications) == CI_Z
        assert est.mean_ms == pytest.approx(totals.mean(), rel=1e-15)
        assert est.ci_high_ms - est.mean_ms == pytest.approx(half, rel=1e-12)

    def test_two_batches_take_one_degree_of_freedom(self):
        assert ci_quantile(BATCH_SIZE + 1) == pytest.approx(stats.t.ppf(0.975, 1), rel=1e-12)
        assert ci_quantile(8 * BATCH_SIZE) == pytest.approx(stats.t.ppf(0.975, 7), rel=1e-12)


class TestHitIsTheIntegralClosedForm:
    """Every replication's hit is ``is_hit`` averaged over the popularity
    law, which is the integral variant of the closed form, compared with ==."""

    @pytest.mark.parametrize("model", [Fixed(1.45), LoadDependent(), DistanceDependent()], ids=str)
    @pytest.mark.parametrize("policy", list(CACHES), ids=lambda policy: policy.value)
    def test_averaged_steepness(self, policy, model):
        params = small_params()
        cache = CACHES[policy]
        eta = effective_eta(model, params.lambda_sc, params.lambda_ut)
        expected = hit_probability(policy, cache, eta, B3Variant.INTEGRAL_CONSISTENT)
        cells = [Cell(SmallUser(policy=policy, model=model), params, cache)]
        hits = _simulate(cells, params, replication_rng(89, 0), BATCH_SIZE)[0, 4]
        assert hits.tolist() == [expected] * BATCH_SIZE

    @pytest.mark.parametrize("mode", [DistanceMode.PER_USER, "per-user"], ids=["member", "spelling"])
    @pytest.mark.parametrize("policy", list(CACHES), ids=lambda policy: policy.value)
    def test_per_user_steepness(self, policy, mode):
        # metre-scale cells (mean serving distance 2 m), so the steepness varies per replication
        params = small_params(lambda_cr=0.005, lambda_mc=0.01, lambda_sc=0.0625, lambda_ut=0.125)
        cache = CACHES[policy]
        scenario = SmallUser(policy=policy, model=DistanceDependent(), distance_mode=mode)
        g = Recorder(replication_rng(97, 0))
        hits = _simulate([Cell(scenario, params, cache)], params, g, BATCH_SIZE)[0, 4]
        # the lattice's shift gives the small-cell tier's levels and nearest distances
        levels = stratified_levels(g.log, 1, BATCH_SIZE)
        assert sorted(np.floor(levels * BATCH_SIZE).tolist()) == list(range(BATCH_SIZE))  # one per stratum
        # numpy's log1p, as the kernel's: math.log1p may differ from it in the last place
        distances = np.sqrt(-np.log1p(-levels) / (math.pi * params.lambda_sc))
        expected = []
        for distance in distances.tolist():
            eta = effective_eta(scenario.model, params.lambda_sc, params.lambda_ut, distance)
            expected.append(hit_probability(policy, cache, eta, B3Variant.INTEGRAL_CONSISTENT))
        assert hits.tolist() == expected
        assert len(set(expected)) > BATCH_SIZE // 2


class TestDistanceModes:
    def test_an_unknown_spelling_raises(self):
        with pytest.raises(ValueError, match="peruser"):
            SmallUser(policy=CachePolicy.MIX_POP, model=DistanceDependent(), distance_mode="peruser")
        with pytest.raises(ValueError, match="lru"):
            SmallUser(policy="lru")

    def test_per_user_mode_exposes_approximation_gap(self):
        """At metre-scale cell radii the per-user steepness varies strongly,
        so the averaged-steepness hit rate must differ measurably."""
        params = DelayParams(
            lambda_cr=0.005,
            lambda_mc=0.01,
            lambda_sc=0.0625,  # mean user-cell distance: 2 m
            lambda_ut=0.125,
            backhaul_beta=1e-3,
        )
        averaged = estimate_one(
            SmallUser(
                policy=CachePolicy.MIX_POP,
                model=DistanceDependent(),
                distance_mode=DistanceMode.AVERAGED,
            ),
            params, CacheConfig(), 4000, 79,
        )
        per_user = estimate_one(
            SmallUser(
                policy=CachePolicy.MIX_POP,
                model=DistanceDependent(),
                distance_mode=DistanceMode.PER_USER,
            ),
            params, CacheConfig(), 4000, 79,
        )
        assert per_user.hit_rate < averaged.hit_rate - 0.02

    def test_per_user_clamp_is_logged_once(self, caplog, monkeypatch):
        """Hundreds of replications of this estimate clamp their steepness; one line says so."""
        monkeypatch.setattr(errors, "_WARNED", set())  # as in a fresh process
        params = DelayParams(
            lambda_cr=0.005, lambda_mc=0.01, lambda_sc=0.0625, lambda_ut=0.125, backhaul_beta=1e-3
        )
        scenario = SmallUser(
            policy=CachePolicy.MIX_POP, model=DistanceDependent(), distance_mode=DistanceMode.PER_USER
        )
        with caplog.at_level("WARNING", logger="hetsim.popularity"):
            estimate_one(scenario, params, CacheConfig(), 4000, 79, workers=1)
        clamps = [r.getMessage() for r in caplog.records if r.name == "hetsim.popularity"]
        assert len(clamps) == 1 and "clamping" in clamps[0]

    def test_per_user_mode_irrelevant_for_fixed_model(self):
        params = small_params()
        base = estimate_one(
            SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45)),
            params, CacheConfig(), 500, 83,
        )
        per_user = estimate_one(
            SmallUser(
                policy=CachePolicy.MIX_POP, model=Fixed(1.45), distance_mode=DistanceMode.PER_USER
            ),
            params, CacheConfig(), 500, 83,
        )
        assert base.mean_ms == per_user.mean_ms


class TestMultiCell:
    """Cells evaluated together must equal the same cells evaluated alone."""

    @staticmethod
    def mixed_cells():
        params = small_params()
        other = small_params(lambda_mc=2.0e-6, max_attempts=3)
        cache = CacheConfig()
        larger = CacheConfig(total=200.0, popular=9.5, overhead=0.5, uniform=190.0)
        mixpop = SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45))
        return [
            Cell(MacroUser(), params, cache),
            Cell(mixpop, other, cache),
            Cell(SmallUser(policy=CachePolicy.NO_CACHE, model=Fixed(1.45)), params, cache),
            Cell(
                SmallUser(
                    policy=CachePolicy.MIX_POP,
                    model=DistanceDependent(),
                    distance_mode=DistanceMode.PER_USER,
                ),
                params,
                cache,
            ),
            Cell(MacroUser(), other, cache),
            Cell(mixpop, params, cache),
            Cell(mixpop, params, larger),
        ]

    @pytest.mark.parametrize("workers", [1, 3])
    def test_estimate_matches_one_cell_estimates(self, workers, monkeypatch):
        # two kernel calls for each of the two parameter sets: at 3 workers the pool runs all four
        cells = self.mixed_cells()
        alone = [estimate_one(c.scenario, c.params, c.cache, 2100, 31, workers=1) for c in cells]
        entered = pool_entries(monkeypatch)
        together = estimate(cells, 2100, 31, workers=workers)
        assert len(entered) == (workers > 1)
        assert together == alone

    def test_run_replication_matches_one_cell_runs(self):
        cells = [c for c in self.mixed_cells() if c.params == small_params()]
        params = cells[0].params
        for rep in range(40):
            together = run_replication(cells, params, replication_rng(37, rep))
            alone = [
                replicate_one(c.scenario, params, c.cache, replication_rng(37, rep))
                for c in cells
            ]
            assert together == alone

    # far moments from the coverage chain beside caching cells, and sparse
    # tiers whose far fields start kilometres out
    FALLBACK_PARAMS = {
        "attempts-above-j-max": small_params(max_attempts=J_MAX + 1),
        "sparse-macro": small_params(lambda_mc=2e-8),
        "sparse-both": small_params(lambda_mc=2e-8, lambda_sc=3e-8),
    }

    @pytest.mark.parametrize("case", list(FALLBACK_PARAMS))
    def test_fallback_replications_match_one_cell_runs(self, case):
        params = self.FALLBACK_PARAMS[case]
        cache = CacheConfig()
        cells = [
            Cell(MacroUser(), params, cache),
            Cell(SmallUser(policy=CachePolicy.NO_CACHE), params, cache),
            Cell(SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45)), params, cache),
        ]
        for rep in range(12):
            together = run_replication(cells, params, replication_rng(43, rep))
            alone = [
                replicate_one(c.scenario, params, c.cache, replication_rng(43, rep))
                for c in cells
            ]
            assert together == alone, rep

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("case", list(FALLBACK_PARAMS))
    def test_fallback_estimates_match_one_cell_estimates(self, case, workers, monkeypatch):
        params = self.FALLBACK_PARAMS[case]
        # four kernel calls, more than three workers
        replications = 3 * simulator.KERNEL_BUDGET + 1
        cache = CacheConfig()
        cells = [
            Cell(MacroUser(), params, cache),
            Cell(SmallUser(policy=CachePolicy.NO_CACHE), params, cache),
            Cell(SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45)), params, cache),
        ]
        alone = [estimate_one(c.scenario, c.params, c.cache, replications, 47, workers=1) for c in cells]
        entered = pool_entries(monkeypatch)
        together = estimate(cells, replications, 47, workers=workers)
        assert len(entered) == (workers > 1)
        assert together == alone

    def test_empty_cell_list_gives_no_estimates(self):
        assert estimate([], 10, 1) == []
