import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import oracle_reference as oracle
from hetsim.caching import (
    B3Variant,
    CacheConfig,
    CachePolicy,
    hit_prob_popular,
    hit_prob_uniform,
    hit_probability,
    is_hit,
    require_valid,
    validate_config,
)
from hetsim.errors import InvalidConfigError, InvalidSteepnessError
from hetsim.popularity import PopularityDist, sample_request
from caching_reference import sample_hit
from model_helpers import pdf

DEFAULTS = CacheConfig()  # total=100, popular=9.5, overhead=0.5, uniform=90, f0=500


def rng(seed=0):
    return np.random.default_rng(seed)


def hits_of(requests, policy, config):
    """is_hit over a request array: each request's hit probability."""
    return np.array([is_hit(f, policy, config) for f in requests.tolist()])


class TestHitProbPopular:
    def test_empty_popular_segment(self):
        assert hit_prob_popular(0.0, 1.45) == 0.0
        assert hit_prob_popular(0.0, 263.5) == 0.0

    def test_default_eta(self):
        assert hit_prob_popular(9.5, 1.45) == pytest.approx(
            oracle.FROZEN["b2_eta_fixed"], rel=1e-12
        )

    def test_load_eta(self):
        assert hit_prob_popular(9.5, 2.0) == pytest.approx(
            oracle.FROZEN["b2_eta_load"], rel=1e-12
        )

    def test_matches_quadrature_of_density(self):
        mass, _ = integrate.quad(lambda f: pdf(f, PopularityDist(1.45)), 1.0, 10.5)
        assert hit_prob_popular(9.5, 1.45) == pytest.approx(mass, abs=1e-10)

    def test_invalid_steepness(self):
        with pytest.raises(InvalidSteepnessError):
            hit_prob_popular(9.5, 1.0)

    def test_negative_segment(self):
        with pytest.raises(InvalidConfigError):
            hit_prob_popular(-1.0, 1.45)

    def test_monotone_in_segment_and_steepness(self):
        segments = np.linspace(0.0, 400.0, 30)
        values = [hit_prob_popular(s, 1.45) for s in segments]
        assert np.all(np.diff(values) > 0)
        etas = np.linspace(1.1, 5.0, 30)
        values = [hit_prob_popular(9.5, e) for e in etas]
        assert np.all(np.diff(values) > 0)


class TestHitProbUniform:
    def test_zero_uniform_segment(self):
        for variant in B3Variant:
            assert hit_prob_uniform(0.0, 9.5, 500.0, 1.45, variant) == 0.0

    def test_printed_value(self):
        assert hit_prob_uniform(90.0, 9.5, 500.0, 1.45, B3Variant.AS_PRINTED) == pytest.approx(
            oracle.FROZEN["b3_printed_fixed"], rel=1e-12
        )

    def test_integral_value(self):
        got = hit_prob_uniform(90.0, 9.5, 500.0, 1.45, B3Variant.INTEGRAL_CONSISTENT)
        assert got == pytest.approx(oracle.FROZEN["b3_integral_fixed"], rel=1e-12)

    def test_integral_variant_matches_quadrature(self):
        mass, _ = integrate.quad(lambda f: pdf(f, PopularityDist(1.45)), 10.5, 501.0)
        want = 90.0 / 490.5 * mass
        got = hit_prob_uniform(90.0, 9.5, 500.0, 1.45, B3Variant.INTEGRAL_CONSISTENT)
        assert got == pytest.approx(want, abs=1e-10)

    def test_catalogue_must_exceed_popular(self):
        with pytest.raises(InvalidConfigError):
            hit_prob_uniform(1.0, 500.0, 500.0, 1.45)

    def test_default_variant_is_as_printed(self):
        assert hit_prob_uniform(90.0, 9.5, 500.0, 1.45) == hit_prob_uniform(
            90.0, 9.5, 500.0, 1.45, B3Variant.AS_PRINTED
        )


class TestHitProbability:
    def test_no_cache(self):
        assert hit_probability(CachePolicy.NO_CACHE, DEFAULTS, 1.45) == 0.0

    def test_mixpop_totals(self):
        got = hit_probability(CachePolicy.MIX_POP, DEFAULTS, 1.45, B3Variant.INTEGRAL_CONSISTENT)
        assert got == pytest.approx(oracle.FROZEN["hit_mixpop_fixed_integral"], rel=1e-12)
        got = hit_probability(CachePolicy.MIX_POP, DEFAULTS, 1.45, B3Variant.AS_PRINTED)
        assert got == pytest.approx(oracle.FROZEN["hit_mixpop_fixed_printed"], rel=1e-12)

    def test_special_cases_collapse_to_mixpop(self):
        stdpop = CacheConfig(total=10.0, popular=9.5, overhead=0.5, uniform=0.0)
        assert hit_probability(CachePolicy.STD_POP, stdpop, 1.45) == hit_probability(
            CachePolicy.MIX_POP, stdpop, 1.45
        )
        unirand = CacheConfig(total=90.0, popular=0.0, overhead=0.0, uniform=90.0)
        for variant in B3Variant:
            assert hit_probability(CachePolicy.UNI_RAND, unirand, 1.45, variant) == (
                hit_probability(CachePolicy.MIX_POP, unirand, 1.45, variant)
            )

    def test_integral_total_within_unit_interval(self):
        for eta in (1.1, 1.45, 2.0, 50.0, 263.52):
            total = hit_probability(
                CachePolicy.MIX_POP, DEFAULTS, eta, B3Variant.INTEGRAL_CONSISTENT
            )
            assert 0.0 <= total <= 1.0

    def test_printed_total_can_exceed_one_and_warns(self, caplog):
        # steepness 3 gives a >1 total no other test evaluates, so the
        # per-value warning deduplication cannot have seen it yet
        with caplog.at_level("WARNING", logger="hetsim.caching"):
            total = hit_probability(CachePolicy.MIX_POP, DEFAULTS, 3.0, B3Variant.AS_PRINTED)
        assert total > 1.0
        assert "exceeds 1" in caplog.text
        with caplog.at_level("WARNING", logger="hetsim.caching"):
            caplog.clear()
            hit_probability(CachePolicy.MIX_POP, DEFAULTS, 3.0, B3Variant.AS_PRINTED)
        assert caplog.text == ""  # second identical occurrence stays quiet

    def test_overhead_never_contributes(self):
        bigger_overhead = CacheConfig(total=100.0, popular=9.5, overhead=10.5, uniform=80.0)
        smaller = hit_probability(
            CachePolicy.MIX_POP, bigger_overhead, 1.45, B3Variant.INTEGRAL_CONSISTENT
        )
        baseline = hit_probability(
            CachePolicy.MIX_POP, DEFAULTS, 1.45, B3Variant.INTEGRAL_CONSISTENT
        )
        assert smaller < baseline  # storage spent on overhead is lost to hits


class TestValidateConfig:
    def test_defaults_are_valid_for_mixpop(self):
        assert validate_config(CachePolicy.MIX_POP, DEFAULTS) == []

    def test_storage_split_mismatch(self):
        bad = CacheConfig(total=100.0, popular=9.5, overhead=0.5, uniform=50.0)
        codes = [v.code for v in validate_config(CachePolicy.MIX_POP, bad)]
        assert "storage-split-mismatch" in codes

    def test_unirand_forbids_popular_segment(self):
        bad = CacheConfig(total=5.5, popular=5.0, overhead=0.5, uniform=0.0)
        codes = [v.code for v in validate_config(CachePolicy.UNI_RAND, bad)]
        assert "policy-forbids-popular-segment" in codes
        assert "policy-forbids-overhead" in codes

    def test_stdpop_forbids_uniform_segment(self):
        codes = [v.code for v in validate_config(CachePolicy.STD_POP, DEFAULTS)]
        assert "policy-forbids-uniform-segment" in codes

    def test_popular_head_must_fit_catalogue(self):
        bad = CacheConfig(total=600.0, popular=599.5, overhead=0.5, uniform=0.0)
        codes = [v.code for v in validate_config(CachePolicy.STD_POP, bad)]
        assert "popular-segment-exceeds-catalogue" in codes

    def test_uniform_must_fit_catalogue(self):
        bad = CacheConfig(total=505.0, popular=9.5, overhead=0.5, uniform=495.0)
        codes = [v.code for v in validate_config(CachePolicy.MIX_POP, bad)]
        assert "uniform-segment-exceeds-catalogue" in codes

    def test_negative_storage(self):
        bad = CacheConfig(total=-1.0, popular=0.0, overhead=0.0, uniform=-1.0)
        codes = [v.code for v in validate_config(CachePolicy.MIX_POP, bad)]
        assert codes.count("negative-storage") == 2

    def test_require_valid_raises_with_violations(self):
        bad = CacheConfig(total=100.0, popular=9.5, overhead=0.5, uniform=50.0)
        with pytest.raises(InvalidConfigError) as excinfo:
            require_valid(CachePolicy.MIX_POP, bad)
        assert excinfo.value.violations


STDPOP = CacheConfig(total=10.0, popular=9.5, overhead=0.5, uniform=0.0)
UNIRAND = CacheConfig(total=90.0, popular=0.0, overhead=0.0, uniform=90.0)


class TestIsHit:
    def test_popular_segment_hits_deterministically(self):
        assert is_hit(2.0, CachePolicy.MIX_POP, DEFAULTS) == 1.0
        assert is_hit(2.0, CachePolicy.STD_POP, STDPOP) == 1.0

    def test_non_cacheable_content_always_misses(self):
        for policy, config in (
            (CachePolicy.MIX_POP, DEFAULTS),
            (CachePolicy.UNI_RAND, UNIRAND),
            (CachePolicy.NO_CACHE, DEFAULTS),
        ):
            assert is_hit(600.0, policy, config) == 0.0
            assert is_hit(500.0, policy, config) == 0.0

    def test_no_cache_never_hits(self):
        requests = sample_request(PopularityDist(1.45), rng(1), size=1000)
        assert not hits_of(requests, CachePolicy.NO_CACHE, DEFAULTS).any()

    def test_stdpop_never_hits_outside_popular_head(self):
        assert is_hit(10.6, CachePolicy.STD_POP, STDPOP) == 0.0

    def test_uniform_segment_hit_fraction(self):
        # inside the random-eligible segment the hit probability is the cached fraction
        assert is_hit(100.0, CachePolicy.MIX_POP, DEFAULTS) == pytest.approx(90.0 / 490.5, rel=1e-15)

    @pytest.mark.parametrize(
        "policy,config",
        [
            (CachePolicy.MIX_POP, DEFAULTS),
            (CachePolicy.STD_POP, STDPOP),
            (CachePolicy.UNI_RAND, UNIRAND),
            (CachePolicy.NO_CACHE, DEFAULTS),
        ],
    )
    @pytest.mark.parametrize(
        "segment",
        [(1.0, 10.5), (10.5, 500.0), (500.0, 1e9)],
        ids=["head", "eligible", "beyond"],  # of the default MixPop cache
    )
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(position=st.floats(0.0, 1.0, exclude_max=True), seed=st.integers(0, 2**32 - 1))
    def test_equals_mean_of_sampled_reference(self, policy, config, segment, position, seed):
        """The hit probability is what the played-out cache averages to."""
        low, high = segment
        request = min(low + position * (high - low), np.nextafter(high, low))
        p = is_hit(request, policy, config)
        g = rng(seed)
        draws = 4000
        hits = np.array([sample_hit(request, policy, config, g) for _ in range(draws)])
        se = np.sqrt(p * (1 - p) / draws)
        assert abs(hits.mean() - p) <= 4 * se, (policy, request)

    @pytest.mark.parametrize("eta", [1.45, 2.0, 263.523138347365])
    @pytest.mark.parametrize(
        "policy,config",
        [
            (CachePolicy.MIX_POP, DEFAULTS),
            (CachePolicy.STD_POP, STDPOP),
            (CachePolicy.UNI_RAND, UNIRAND),
        ],
    )
    def test_empirical_rate_matches_integral_variant(self, eta, policy, config):
        """The Monte Carlo rate arbitrates the two closed-form variants."""
        g = rng(int(eta * 1000) + {"stdpop": 1, "unirand": 2, "mixpop": 3}[policy.value])
        requests = sample_request(PopularityDist(eta), g, size=200_000)
        hits = hits_of(requests, policy, config)
        expected = hit_probability(policy, config, eta, B3Variant.INTEGRAL_CONSISTENT)
        # averaging hit probabilities rather than 0/1 hits only shrinks the
        # spread, so the binomial standard error bounds it
        se = np.sqrt(max(expected * (1 - expected), 1e-12) / hits.size)
        # the UniRand closed form keeps the catalogue-length approximation
        # f0 vs f0-1 of the printed expressions, worth ~0.2% here
        slack = 0.002 if policy is CachePolicy.UNI_RAND else 0.0
        assert abs(hits.mean() - expected) < 3 * se + slack

    def test_mixpop_fixed_eta_empirical_rate(self):
        g = rng(99)
        requests = sample_request(PopularityDist(1.45), g, size=1_000_000)
        hits = hits_of(requests, CachePolicy.MIX_POP, DEFAULTS)
        printed = hit_probability(CachePolicy.MIX_POP, DEFAULTS, 1.45, B3Variant.AS_PRINTED)
        integral = hit_probability(
            CachePolicy.MIX_POP, DEFAULTS, 1.45, B3Variant.INTEGRAL_CONSISTENT
        )
        assert abs(hits.mean() - integral) < 0.005
        assert abs(hits.mean() - printed) > 0.15  # printed variant clearly refuted
