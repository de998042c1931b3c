import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import oracle_reference as oracle
from far_reference import rho_k
from hetsim.analytics import (
    ClosedFormDelay,
    DelayParams,
    attempt_kernel,
    avg_delay_macro,
    avg_delay_small,
    b1,
    big_a,
    mean_backhaul,
    rho,
    rho_terms,
)
from hetsim.caching import B3Variant, CacheConfig, CachePolicy
from hetsim.channel import RadioParams
from hetsim.errors import InvalidConfigError, InvalidParameterError, InvalidSteepnessError
from hetsim.popularity import DistanceDependent, Fixed, LoadDependent

GAMMA_3DB = 10.0 ** 0.3


def rho_series(gamma, alpha, terms=500):
    """Tail integral by exact alternating series; valid for gamma < 1."""
    h = alpha / 2.0
    lower = gamma ** (-2.0 / alpha)
    assert lower > 1.0
    total = math.fsum(
        (-1) ** (k - 1) * lower ** (1 - h * k) / (h * k - 1) for k in range(1, terms + 1)
    )
    return gamma ** (2.0 / alpha) * total


def rho_mp(gamma, alpha):
    """rho in the Andrews-Baccelli-Ganti form, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        g, a = mpmath.mpf(gamma), mpmath.mpf(alpha)
        return 2 * g / (a - 2) * mpmath.hyp2f1(1, 1 - 2 / a, 2 - 2 / a, -g)


def rho_mp_integral(gamma, alpha):
    """rho by its defining integral, in 50-digit arithmetic."""
    with mpmath.workdps(50):
        g, a = mpmath.mpf(gamma), mpmath.mpf(alpha)
        lower = g ** (-2 / a)
        return g ** (2 / a) * mpmath.quad(lambda u: 1 / (1 + u ** (a / 2)), [lower, mpmath.inf])


def pgfl_excess_mp(z, alpha, j):
    """``2F1(j, -2/a; 1-2/a; -z) - 1`` in 50-digit arithmetic, where the "- 1" costs no digits."""
    with mpmath.workdps(50):
        delta = 2 / mpmath.mpf(alpha)
        return mpmath.hyp2f1(j, -delta, 1 - delta, -mpmath.mpf(z)) - 1


def rho_closed_alpha4(gamma):
    return math.sqrt(gamma) * (math.pi / 2 - math.atan(1 / math.sqrt(gamma)))


class TestRho:
    def test_reference_values(self):
        assert rho(GAMMA_3DB, 4.0) == pytest.approx(oracle.FROZEN["rho_3db_alpha4"], rel=1e-10)
        assert rho(1.0, 4.0) == pytest.approx(math.pi / 4, rel=1e-10)

    @pytest.mark.parametrize("gamma", [1e-6, 0.01, 0.5, 1.0, GAMMA_3DB, 10.0, 1e4])
    def test_matches_alpha4_closed_form(self, gamma):
        assert abs(rho(gamma, 4.0) - rho_closed_alpha4(gamma)) < 1e-8

    @pytest.mark.parametrize("alpha", [2.2, 2.5, 3.0, 5.0, 8.0])
    @pytest.mark.parametrize("gamma", [1e-4, 0.05, 0.5])
    def test_matches_series_expansion(self, gamma, alpha):
        want = rho_series(gamma, alpha)
        assert rho(gamma, alpha) == pytest.approx(want, rel=1e-9, abs=1e-13)

    @pytest.mark.parametrize("alpha", [2.01, 2.05, 2.5, 3.0, 4.0, 8.0, 12.0])
    @pytest.mark.parametrize("gamma", [1e-12, 3e-5, 0.5, 1.0, 10.0, 1e4, 3e7, 1e8])
    def test_matches_50_digit_reference(self, gamma, alpha):
        want = rho_mp(gamma, alpha)
        assert abs((rho(gamma, alpha) - want) / want) <= 1e-13

    @pytest.mark.parametrize(
        "gamma, alpha", [(3e-5, 4.0), (0.5, 12.0), (1.0, 3.0), (10.0, 3.0), (1e4, 3.0), (1e8, 8.0)]
    )
    def test_reference_form_equals_defining_integral(self, gamma, alpha):
        form, integral = rho_mp(gamma, alpha), rho_mp_integral(gamma, alpha)
        assert abs((form - integral) / integral) <= 1e-25

    def test_vanishes_for_vanishing_target(self):
        assert rho(1e-60, 4.0) < 1e-30

    def test_monotone_in_gamma(self):
        values = [rho(g, 4.0) for g in np.geomspace(0.01, 100, 25)]
        assert np.all(np.diff(values) > 0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            rho(0.0, 4.0)
        with pytest.raises(InvalidParameterError):
            rho(1.0, 2.0)
        with pytest.raises(InvalidParameterError):
            rho(math.inf, 4.0)
        with pytest.raises(InvalidParameterError):
            rho(1.0, math.inf)

    def test_memoized(self):
        before = rho.cache_info().hits
        first = rho(2.5, 4.0)
        assert rho(2.5, 4.0) == first
        assert rho.cache_info().hits > before


class TestRhoK:
    @pytest.mark.parametrize("alpha", [2.01, 2.1, 2.5, 3.0, 4.0, 8.0, 12.0])
    @pytest.mark.parametrize("z", [1e-14, 1e-10, 1e-6, 1e-3, 1.0, 3.0, 100.0, 1e4, 1e8, 1e14])
    def test_partial_sums_match_50_digit_pgfl_excess(self, z, alpha):
        sums = np.cumsum(rho_terms(z, alpha, 12))
        assert rho(z, alpha) == float(rho_k(z, alpha, 1)) == sums[0]
        for j, got in enumerate(sums.tolist(), 1):
            want = pgfl_excess_mp(z, alpha, j)
            assert abs((got - want) / want) <= 1e-13, j

    @settings(max_examples=200, deadline=None)
    @given(log_z=st.floats(-14.0, 14.0), alpha=st.floats(2.05, 12.0))
    def test_recurrence_matches_one_hypergeometric_call_per_term(self, log_z, alpha):
        z = 10.0**log_z
        got = rho_terms(z, alpha, 12)
        want = rho_k(z, alpha, np.arange(1, 13))
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


class TestBigA:
    def test_alpha_four_is_half_pi(self):
        assert big_a(4.0) == pytest.approx(math.pi / 2, rel=1e-14)

    def test_alpha_three(self):
        assert big_a(3.0) == pytest.approx(oracle.FROZEN["big_a_alpha3"], rel=1e-12)

    def test_limit_at_large_alpha(self):
        assert big_a(1e9) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("alpha", [2.3, 3.0, 4.0, 6.5, 11.0])
    def test_matches_gamma_function_route(self, alpha):
        want = special.gamma(1 + 2 / alpha) * special.gamma(1 - 2 / alpha)
        assert big_a(alpha) == pytest.approx(want, rel=1e-12)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidParameterError):
            big_a(2.0)


class TestB1:
    def test_macro_reference_value(self):
        got = b1(0.1, 4, GAMMA_3DB, 4.0, 2.0, 20.0, 3.6e-6, 2.8e-6)
        assert got == pytest.approx(oracle.FROZEN["b1_macro_ms"], rel=1e-12)

    def test_small_reference_value(self):
        got = b1(0.1, 4, GAMMA_3DB, 4.0, 20.0, 2.0, 2.8e-6, 3.6e-6)
        assert got == pytest.approx(oracle.FROZEN["b1_small_ms"], rel=1e-12)

    def test_kernel_reference_values(self):
        got = attempt_kernel(GAMMA_3DB, 4.0, 2.0, 20.0, 3.6e-6, 2.8e-6)
        assert got == pytest.approx(oracle.FROZEN["kernel_c_macro"], rel=1e-12)
        assert 1.0 / (1.0 + got) == pytest.approx(oracle.FROZEN["coverage_macro"], rel=1e-12)

    def test_vanishing_target_gives_exactly_one_slot(self):
        for m in (1, 4, 60):
            assert b1(0.1, m, 1e-60, 4.0, 2.0, 20.0, 3.6e-6, 2.8e-6) == 0.1

    @settings(max_examples=100, deadline=None)
    @given(
        q=st.floats(0.0, 1.0, allow_nan=False),
        m=st.integers(1, 10),
    )
    def test_alternating_kernel_equals_hockey_stick_form(self, q, m):
        left = math.fsum(
            (-1) ** i * math.comb(m, i + 1) * q**i for i in range(m)
        )
        right = math.fsum((1 - q) ** k for k in range(m))
        assert left == pytest.approx(right, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.floats(1e-6, 1e3, allow_nan=False),
        m=st.integers(1, 60),
    )
    def test_exact_rational_sum_matches_positive_product_form(self, c, m):
        # sum_i (-1)^i C(M,i+1)/(1+ic) == sum_m m! c^m / prod_k<=m (1+kc),
        # evaluated in exact rationals on both sides
        cf = Fraction(c)
        alternating = sum(
            Fraction((-1) ** i * math.comb(m, i + 1)) / (1 + i * cf) for i in range(m)
        )
        product = Fraction(0)
        term = Fraction(1)
        for k in range(m):
            if k > 0:
                term *= k * cf / (1 + k * cf)
            product += term
        assert alternating == product

    @settings(max_examples=200, deadline=None)
    @given(
        gamma=st.floats(1e-3, 1e3),
        alpha=st.one_of(st.just(4.0), st.floats(2.5, 5.0)),
        m=st.integers(1, 60),
    )
    def test_equals_exact_rational_alternating_sum(self, gamma, alpha, m):
        # bit for bit, not to a tolerance: the CSV bytes rest on it
        c = attempt_kernel(gamma, alpha, 2.0, 20.0, 3.6e-6, 2.8e-6)
        got = b1(0.1, m, gamma, alpha, 2.0, 20.0, 3.6e-6, 2.8e-6)
        assert got == oracle.b1_exact_rational(0.1, m, c)

    def test_stable_at_attempt_limit(self):
        got = b1(0.1, 60, GAMMA_3DB, 4.0, 2.0, 20.0, 3.6e-6, 2.8e-6)
        want = oracle.b1_product_form(
            0.1, 60, attempt_kernel(GAMMA_3DB, 4.0, 2.0, 20.0, 3.6e-6, 2.8e-6)
        )
        assert got == pytest.approx(want, rel=1e-12)
        assert 0.0 < got <= 60 * 0.1

    def test_bounded_by_slot_budget(self):
        for gamma in (0.01, 1.0, 100.0):
            for m in (1, 4, 17):
                value = b1(0.1, m, gamma, 4.0, 2.0, 20.0, 3.6e-6, 2.8e-6)
                assert 0.0 < value <= m * 0.1 + 1e-15

    def test_monotone_in_target_and_interferer_load(self):
        values = [b1(0.1, 4, g, 4.0, 2.0, 20.0, 3.6e-6, 2.8e-6) for g in np.geomspace(0.1, 100, 20)]
        assert np.all(np.diff(values) > 0)
        values = [
            b1(0.1, 4, GAMMA_3DB, 4.0, 2.0, 20.0, lam, 2.8e-6)
            for lam in np.linspace(1e-6, 2e-5, 20)
        ]
        assert np.all(np.diff(values) > 0)

    def test_attempt_limit_enforced(self):
        with pytest.raises(InvalidParameterError):
            b1(0.1, 61, GAMMA_3DB, 4.0, 2.0, 20.0, 3.6e-6, 2.8e-6)
        with pytest.raises(InvalidParameterError):
            b1(0.1, 0, GAMMA_3DB, 4.0, 2.0, 20.0, 3.6e-6, 2.8e-6)


class TestMeanBackhaul:
    def test_macro_reference_value(self):
        got = mean_backhaul(2.8e-6, 1.4e-6, 1e-3)
        assert got == pytest.approx(oracle.FROZEN["backhaul_macro_ms"], rel=1e-12)

    def test_factorizes_into_distance_times_load(self):
        from hetsim.geometry import mean_nearest_distance

        want = 1e-3 * mean_nearest_distance(1.4e-6) * (2.8e-6 / 1.4e-6)
        assert mean_backhaul(2.8e-6, 1.4e-6, 1e-3) == pytest.approx(want, rel=1e-12)

    def test_zero_beta(self):
        assert mean_backhaul(2.8e-6, 1.4e-6, 0.0) == 0.0

    def test_linear_in_tier_intensity(self):
        one = mean_backhaul(2.8e-6, 1.4e-6, 1e-3)
        two = mean_backhaul(5.6e-6, 1.4e-6, 1e-3)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            mean_backhaul(0.0, 1.4e-6, 1e-3)
        with pytest.raises(InvalidParameterError):
            mean_backhaul(2.8e-6, 1.4e-6, -1.0)


class TestDelayParams:
    def test_defaults_are_standard_set(self):
        params = DelayParams()
        assert params.slot_ms == 0.1
        assert params.max_attempts == 4
        assert params.cache_read_mean_ms == 0.01
        assert (params.lambda_cr, params.lambda_mc) == (1.4e-6, 2.8e-6)
        assert (params.lambda_sc, params.lambda_ut) == (3.6e-6, 7.2e-6)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slot_ms": 0.0},
            {"max_attempts": 0},
            {"max_attempts": 2.5},
            {"backhaul_beta": -1.0},
            {"cache_read_mean_ms": -0.1},
            {"lambda_cr": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidParameterError):
            DelayParams(**kwargs)

    def test_warns_on_unordered_intensities(self, caplog):
        with caplog.at_level("WARNING", logger="hetsim.analytics"):
            DelayParams(lambda_mc=5e-6, lambda_sc=3.6e-6)
        assert "ordered" in caplog.text

    def test_warns_when_cache_read_dominates_backhaul(self, caplog):
        with caplog.at_level("WARNING", logger="hetsim.analytics"):
            DelayParams(cache_read_mean_ms=5.0)
        assert "backhaul" in caplog.text


class TestClosedFormDelays:
    def test_macro_total_at_defaults(self):
        delay = avg_delay_macro(DelayParams())
        assert delay.downlink_ms == pytest.approx(oracle.FROZEN["b1_macro_ms"], rel=1e-12)
        assert delay.backhaul_ms == pytest.approx(oracle.FROZEN["backhaul_macro_ms"], rel=1e-12)
        assert delay.cache_adjustment_ms == 0.0
        assert delay.total_ms == pytest.approx(oracle.FROZEN["total_macro_ms"], rel=1e-12)

    def test_macro_degenerate_limit(self):
        params = DelayParams(
            backhaul_beta=0.0, cache_read_mean_ms=0.0, radio=RadioParams(target_sir=1e-60)
        )
        assert avg_delay_macro(params).total_ms == 0.1

    def test_small_nocache_total(self):
        delay = avg_delay_small(
            CachePolicy.NO_CACHE, Fixed(1.45), CacheConfig(), DelayParams()
        )
        assert delay.total_ms == pytest.approx(
            oracle.FROZEN["total_small_nocache_ms"], rel=1e-12
        )
        assert delay.cache_adjustment_ms == 0.0

    @pytest.mark.parametrize(
        "model,key",
        [
            (Fixed(1.45), "fixed"),
            (DistanceDependent(), "distance"),
            (LoadDependent(), "load"),
        ],
    )
    @pytest.mark.parametrize("variant", list(B3Variant))
    def test_mixpop_totals_all_models_and_variants(self, model, key, variant):
        delay = avg_delay_small(
            CachePolicy.MIX_POP, model, CacheConfig(), DelayParams(), variant
        )
        want = oracle.FROZEN[f"total_small_mixpop_{key}_{variant.value}_ms"]
        assert delay.total_ms == pytest.approx(want, rel=1e-12)

    def test_degrades_to_nocache_without_storage(self):
        empty = CacheConfig(total=0.0, popular=0.0, overhead=0.0, uniform=0.0)
        cached = avg_delay_small(
            CachePolicy.MIX_POP, Fixed(1.45), empty, DelayParams(), B3Variant.AS_PRINTED
        )
        plain = avg_delay_small(CachePolicy.NO_CACHE, Fixed(1.45), empty, DelayParams())
        assert cached.total_ms == plain.total_ms

    def test_full_hit_with_free_cache_reads_leaves_only_downlink(self):
        # steep popularity pushes the hit probability to 1 in float
        params = DelayParams(cache_read_mean_ms=0.0)
        delay = avg_delay_small(
            CachePolicy.MIX_POP, Fixed(200.0), CacheConfig(), params,
            B3Variant.INTEGRAL_CONSISTENT,
        )
        assert delay.total_ms == pytest.approx(delay.downlink_ms, rel=1e-12)

    def test_caching_never_hurts_when_cache_read_is_cheaper(self):
        params = DelayParams()
        baseline = avg_delay_small(CachePolicy.NO_CACHE, Fixed(1.45), CacheConfig(), params)
        stdpop_cfg = CacheConfig(total=10.0, popular=9.5, overhead=0.5, uniform=0.0)
        unirand_cfg = CacheConfig(total=90.0, popular=0.0, overhead=0.0, uniform=90.0)
        for policy, cfg in (
            (CachePolicy.MIX_POP, CacheConfig()),
            (CachePolicy.STD_POP, stdpop_cfg),
            (CachePolicy.UNI_RAND, unirand_cfg),
        ):
            for model in (Fixed(1.45), DistanceDependent(), LoadDependent()):
                for variant in B3Variant:
                    delay = avg_delay_small(policy, model, cfg, params, variant)
                    assert delay.total_ms <= baseline.total_ms

    def test_delay_ordering_tracks_hit_probability_ordering(self):
        from hetsim.caching import hit_probability
        from hetsim.popularity import effective_eta

        params = DelayParams()
        for variant in B3Variant:
            hits, delays = {}, {}
            for name, model in (
                ("fixed", Fixed(1.45)),
                ("distance", DistanceDependent()),
                ("load", LoadDependent()),
            ):
                eta = effective_eta(model, params.lambda_sc, params.lambda_ut)
                hits[name] = hit_probability(CachePolicy.MIX_POP, CacheConfig(), eta, variant)
                delays[name] = avg_delay_small(
                    CachePolicy.MIX_POP, model, CacheConfig(), params, variant
                ).total_ms
            by_hit = sorted(hits, key=hits.get, reverse=True)
            by_delay = sorted(delays, key=delays.get)
            assert by_hit == by_delay

    def test_invalid_cache_config_rejected(self):
        bad = CacheConfig(total=100.0, popular=9.5, overhead=0.5, uniform=50.0)
        with pytest.raises(InvalidConfigError):
            avg_delay_small(CachePolicy.MIX_POP, Fixed(1.45), bad, DelayParams())

    def test_invalid_steepness_propagates(self):
        params = DelayParams(lambda_ut=3.6e-6)  # load ratio collapses to 1
        with pytest.raises(InvalidSteepnessError):
            avg_delay_small(CachePolicy.MIX_POP, LoadDependent(), CacheConfig(), params)

    def test_deterministic(self):
        a = avg_delay_small(
            CachePolicy.MIX_POP, LoadDependent(), CacheConfig(), DelayParams()
        )
        b = avg_delay_small(
            CachePolicy.MIX_POP, LoadDependent(), CacheConfig(), DelayParams()
        )
        assert a == b

    def test_total_is_sum_of_parts(self):
        delay = ClosedFormDelay(downlink_ms=0.3, backhaul_ms=1.1, cache_adjustment_ms=-0.7)
        assert delay.total_ms == pytest.approx(0.7)
