import math

import numpy as np
import pytest
from scipy import stats

import oracle_reference as oracle
from hetsim.analytics import DelayParams, mean_backhaul
from hetsim.caching import CacheConfig, CachePolicy
from hetsim.channel import RadioParams
from hetsim.errors import EmptyTierError, InvalidParameterError
from hetsim.geometry import PointSet, Tier, Window, sample_ppp
from hetsim.popularity import (
    DistanceDependent,
    Fixed,
    LoadDependent,
    PopularityDist,
    sample_request,
)
from hetsim.simulator import (
    Cell,
    DistanceMode,
    MacroUser,
    SmallUser,
    estimate,
    replication_rng,
    run_replication,
)
from model_helpers import point_set_from_xy
from single_cell import estimate_one, kernel, replicate_one
from sir_reference import reference_downlink, success_probability, truncated_geometric

GAMMA_3DB = 10.0 ** 0.3
STDPOP = CacheConfig(total=10.0, popular=9.5, overhead=0.5, uniform=0.0)
UNIRAND = CacheConfig(total=90.0, popular=0.0, overhead=0.0, uniform=90.0)


def rng(seed=0):
    return np.random.default_rng(seed)


def point_set(coords, tier):
    if len(coords) == 0:
        return PointSet(r=np.empty(0), theta=np.empty(0), intensity=1.0, tier=tier)
    return point_set_from_xy(coords, intensity=1.0, tier=tier)


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
        window = Window(6000.0)
        scenario = SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45))
        for rep in range(200):
            s = replicate_one(scenario, params, CacheConfig(), window, replication_rng(5, rep))
            assert 1 <= s.attempts <= params.max_attempts
            assert 0 <= s.outage <= 1
            assert s.downlink_ms == pytest.approx(params.slot_ms * s.attempts)
            assert s.total_ms == pytest.approx(s.downlink_ms + s.tail_ms)
            assert s.tail_ms >= 0.0

    def test_nocache_never_hits(self):
        params = small_params()
        window = Window(6000.0)
        scenario = SmallUser(policy=CachePolicy.NO_CACHE, model=Fixed(1.45))
        samples = [
            replicate_one(scenario, params, CacheConfig(), window, replication_rng(6, rep))
            for rep in range(100)
        ]
        assert not any(s.hit for s in samples)

    def test_macro_never_hits(self):
        params = small_params()
        samples = [
            replicate_one(MacroUser(), params, CacheConfig(), Window(6000.0), replication_rng(7, rep))
            for rep in range(50)
        ]
        assert not any(s.hit for s in samples)

    def test_hit_with_free_cache_read_has_zero_tail(self):
        params = small_params(cache_read_mean_ms=0.0)
        window = Window(6000.0)
        # steepness 200 makes every request land in the popular head
        scenario = SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(200.0))
        samples = [
            replicate_one(scenario, params, CacheConfig(), window, replication_rng(8, rep))
            for rep in range(60)
        ]
        assert all(s.hit for s in samples)
        assert all(s.tail_ms == 0.0 for s in samples)

    def test_macro_tail_mean_matches_backhaul_closed_form(self):
        params = small_params()
        window = Window(8000.0)
        tails = np.array(
            [
                replicate_one(MacroUser(), params, CacheConfig(), window, replication_rng(9, rep)).tail_ms
                for rep in range(12_000)
            ]
        )
        expected = mean_backhaul(params.lambda_mc, params.lambda_cr, params.backhaul_beta)
        se = tails.std(ddof=1) / math.sqrt(tails.size)
        assert abs(tails.mean() - expected) < 3 * se

    @pytest.mark.parametrize(
        "scenario,cache,draws",
        [
            (SmallUser(policy=CachePolicy.MIX_POP), CacheConfig(), 1),
            (SmallUser(policy=CachePolicy.UNI_RAND), UNIRAND, 1),
            (SmallUser(policy=CachePolicy.STD_POP), STDPOP, 1),
            (SmallUser(policy=CachePolicy.NO_CACHE), CacheConfig(), 0),
            (MacroUser(), CacheConfig(), 0),
        ],
        ids=["mixpop", "unirand", "stdpop", "nocache", "macro"],
    )
    def test_one_uniform_draw_only_for_a_caching_cell(self, scenario, cache, draws):
        # each cell's replication stream relies on exactly this consumption:
        # the geometry, then a caching cell's request and nothing else
        params = small_params()
        window = Window(5000.0)
        for rep in range(5):
            g, expected = replication_rng(13, rep), replication_rng(13, rep)
            for intensity in (params.lambda_cr, params.lambda_mc, params.lambda_sc):
                sample_ppp(intensity, window, expected)
            for _ in range(draws):
                expected.random()
            replicate_one(scenario, params, cache, window, g)
            assert g.bit_generator.state == expected.bit_generator.state, rep

    def test_tail_is_the_mean_given_geometry_and_request(self):
        """Replaying the stream gives the geometry and the request; the tail
        is then p * cache read + (1 - p) * backhaul mean, with no draw."""
        params = small_params()
        window = Window(5000.0)
        cache = CacheConfig()
        cells = [
            Cell(MacroUser(), params, cache),
            Cell(SmallUser(policy=CachePolicy.NO_CACHE), params, cache),
            Cell(SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45)), params, cache),
        ]
        seen = set()
        for rep in range(100):
            replay = replication_rng(19, rep)
            routers, macro, small = [
                sample_ppp(intensity, window, replay)
                for intensity in (params.lambda_cr, params.lambda_mc, params.lambda_sc)
            ]
            request = float(sample_request(PopularityDist(1.45), replay))
            samples = run_replication(cells, params, window, replication_rng(19, rep))
            for cell, sample in zip(cells, samples):
                if isinstance(cell.scenario, MacroUser):
                    serving, intensity = macro, params.lambda_mc
                else:
                    serving, intensity = small, params.lambda_sc
                server = serving.point(int(np.argmin(serving.radii())))
                router_distance = min(
                    math.hypot(router.x - server.x, router.y - server.y)
                    for router in map(routers.point, range(len(routers)))
                )
                backhaul_mean = params.backhaul_beta * router_distance * intensity / params.lambda_cr
                p = 0.0
                if cell is cells[2]:  # MixPop
                    p = 1.0 if request < 10.5 else 90.0 / 490.5 if request < 500.0 else 0.0
                    seen.add(p)
                assert sample.hit == p
                expected = p * params.cache_read_mean_ms + (1 - p) * backhaul_mean
                assert sample.tail_ms == pytest.approx(expected, rel=1e-9)
        assert len(seen) == 3  # every segment of the MixPop cache was exercised

    def test_empty_tier_raises(self):
        params = small_params(lambda_mc=1e-12)
        with pytest.raises(EmptyTierError):
            replicate_one(MacroUser(), params, CacheConfig(), Window(100.0), replication_rng(1, 0))


class TestEstimate:
    def test_single_replication_degenerate_interval(self):
        est = estimate_one(MacroUser(), small_params(), CacheConfig(), Window(5000.0), 1, 3)
        assert est.ci_low_ms == est.mean_ms == est.ci_high_ms
        assert est.replications == 1

    def test_replications_must_be_positive(self):
        with pytest.raises(InvalidParameterError):
            estimate_one(MacroUser(), small_params(), CacheConfig(), Window(5000.0), 0, 3)

    def test_same_seed_same_result(self):
        args = (MacroUser(), small_params(), CacheConfig(), Window(5000.0), 400, 17)
        assert estimate_one(*args) == estimate_one(*args)

    def test_worker_count_does_not_change_result(self):
        args = (
            SmallUser(policy=CachePolicy.MIX_POP, model=LoadDependent()),
            small_params(),
            CacheConfig(),
            Window(5000.0),
            600,
            23,
        )
        sequential = estimate_one(*args, workers=1)
        pooled = estimate_one(*args, workers=3)
        assert sequential == pooled

    def test_thread_env_var_respected(self, monkeypatch):
        args = (MacroUser(), small_params(), CacheConfig(), Window(4000.0), 300, 5)
        monkeypatch.setenv("HETSIM_THREADS", "1")
        one = estimate_one(*args)
        monkeypatch.setenv("HETSIM_THREADS", "2")
        two = estimate_one(*args)
        assert one == two

    def test_ci_brackets_mean(self):
        est = estimate_one(MacroUser(), small_params(), CacheConfig(), Window(5000.0), 500, 29)
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
                Window(5000.0),
                10,
                1,
            )

    def test_downlink_mean_matches_exact_moment_oracle(self):
        """beta = mu_ca = 0 isolates the downlink; its mean must sit on the
        exact conditional-moment value, which the closed form undershoots."""
        params = small_params(backhaul_beta=0.0, cache_read_mean_ms=0.0)
        est = estimate_one(MacroUser(), params, CacheConfig(), Window(10_000.0), 12_000, 41)
        se = (est.ci_high_ms - est.mean_ms) / 1.959963984540054
        exact = oracle.FROZEN["exact_downlink_macro_ms"]
        assert abs(est.mean_ms - exact) < 3.5 * se
        # the alternating-binomial approximation sits measurably below
        assert est.mean_ms > oracle.FROZEN["b1_macro_ms"]

    def test_outage_rate_consistent_with_coverage_at_single_attempt(self):
        params = small_params(max_attempts=1)
        est = estimate_one(MacroUser(), params, CacheConfig(), Window(8000.0), 8000, 47)
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
        from hetsim.caching import B3Variant, hit_probability
        from hetsim.popularity import effective_eta

        params = small_params()
        est = estimate_one(scenario, params, CacheConfig(), Window(5000.0), 4000, 53)
        if expected_key:
            expected = oracle.FROZEN[expected_key]
        else:
            eta = effective_eta(scenario.model, params.lambda_sc, params.lambda_ut)
            expected = hit_probability(
                CachePolicy.MIX_POP, CacheConfig(), eta, B3Variant.INTEGRAL_CONSISTENT
            )
        se = math.sqrt(max(expected * (1 - expected), 1e-9) / est.replications)
        assert abs(est.hit_rate - expected) < 3.5 * se + 1e-4

    def test_paired_seed_caching_reduces_delay(self):
        params = small_params()
        window = Window(6000.0)
        nocache = estimate_one(
            SmallUser(policy=CachePolicy.NO_CACHE, model=Fixed(1.45)),
            params, CacheConfig(), window, 2500, 61,
        )
        mixpop = estimate_one(
            SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45)),
            params, CacheConfig(), window, 2500, 61,
        )
        assert mixpop.mean_ms < nocache.mean_ms

    def test_doubling_the_window_leaves_the_mean_unchanged(self):
        params = small_params()
        half = estimate_one(MacroUser(), params, CacheConfig(), Window(6000.0), 5000, 67)
        full = estimate_one(MacroUser(), params, CacheConfig(), Window(12_000.0), 5000, 71)
        se_half = (half.ci_high_ms - half.mean_ms) / 1.959963984540054
        se_full = (full.ci_high_ms - full.mean_ms) / 1.959963984540054
        assert abs(half.mean_ms - full.mean_ms) < 3.5 * math.hypot(se_half, se_full)

    def test_doubling_beta_doubles_macro_tail(self):
        window = Window(6000.0)
        base = estimate_one(MacroUser(), small_params(), CacheConfig(), window, 4000, 73)
        doubled = estimate_one(
            MacroUser(), small_params(backhaul_beta=2e-3), CacheConfig(), window, 4000, 73
        )
        # identical streams: downlink part is shared, tails scale by 2
        base_tail = base.mean_ms - oracle.FROZEN["exact_downlink_macro_ms"]
        doubled_tail = doubled.mean_ms - oracle.FROZEN["exact_downlink_macro_ms"]
        assert doubled_tail == pytest.approx(2 * base_tail, rel=0.05)


class TestDistanceModes:
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
        window = Window(60.0)
        averaged = estimate_one(
            SmallUser(
                policy=CachePolicy.MIX_POP,
                model=DistanceDependent(),
                distance_mode=DistanceMode.AVERAGED,
            ),
            params, CacheConfig(), window, 4000, 79,
        )
        per_user = estimate_one(
            SmallUser(
                policy=CachePolicy.MIX_POP,
                model=DistanceDependent(),
                distance_mode=DistanceMode.PER_USER,
            ),
            params, CacheConfig(), window, 4000, 79,
        )
        assert per_user.hit_rate < averaged.hit_rate - 0.02

    def test_per_user_mode_irrelevant_for_fixed_model(self):
        params = small_params()
        window = Window(5000.0)
        base = estimate_one(
            SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45)),
            params, CacheConfig(), window, 500, 83,
        )
        per_user = estimate_one(
            SmallUser(
                policy=CachePolicy.MIX_POP, model=Fixed(1.45), distance_mode=DistanceMode.PER_USER
            ),
            params, CacheConfig(), window, 500, 83,
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
    def test_estimate_matches_one_cell_estimates(self, workers):
        window = Window(5000.0)
        cells = self.mixed_cells()
        together = estimate(cells, window, 600, 31, workers=workers)
        alone = [estimate_one(c.scenario, c.params, c.cache, window, 600, 31, workers=1) for c in cells]
        assert together == alone

    def test_run_replication_matches_one_cell_runs(self):
        window = Window(5000.0)
        cells = [c for c in self.mixed_cells() if c.params == small_params()]
        params = cells[0].params
        for rep in range(40):
            together = run_replication(cells, params, window, replication_rng(37, rep))
            alone = [
                replicate_one(c.scenario, params, c.cache, window, replication_rng(37, rep))
                for c in cells
            ]
            assert together == alone

    def test_empty_cell_list_gives_no_estimates(self):
        assert estimate([], Window(5000.0), 10, 1) == []
