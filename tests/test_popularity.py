import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import oracle_reference as oracle
from hetsim.errors import InvalidParameterError, InvalidSteepnessError
from hetsim.popularity import (
    ETA_CLAMP,
    DistanceDependent,
    Fixed,
    LoadDependent,
    PopularityDist,
    effective_eta,
    sample_request,
)
from model_helpers import cdf, pdf


def rng(seed=0):
    return np.random.default_rng(seed)


class _FixedUniform:
    """Generator stand-in returning a preset uniform draw."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


class TestEffectiveEta:
    def test_load_dependent_is_intensity_ratio(self):
        assert effective_eta(LoadDependent(), 3.6e-6, 7.2e-6) == 2.0

    def test_fixed(self):
        assert effective_eta(Fixed(1.45), 3.6e-6, 7.2e-6) == 1.45

    def test_distance_dependent_defaults_to_tier_average(self):
        eta = effective_eta(DistanceDependent(), 3.6e-6, 7.2e-6)
        assert eta == pytest.approx(oracle.FROZEN["eta_distance"])

    def test_distance_override_wins(self):
        assert effective_eta(DistanceDependent(), 3.6e-6, 7.2e-6, distance_override=42.0) == 42.0

    def test_short_distance_clamps_with_warning(self, caplog):
        with caplog.at_level("WARNING", logger="hetsim.popularity"):
            eta = effective_eta(DistanceDependent(), 3.6e-6, 7.2e-6, distance_override=0.5)
        assert eta == ETA_CLAMP
        assert "clamping" in caplog.text

    def test_fixed_eta_at_most_one_rejected(self):
        with pytest.raises(InvalidSteepnessError):
            Fixed(1.0)

    def test_load_ratio_at_most_one_rejected(self):
        with pytest.raises(InvalidSteepnessError):
            effective_eta(LoadDependent(), 7.2e-6, 7.2e-6)

    def test_nonpositive_intensity_rejected(self):
        with pytest.raises(InvalidParameterError):
            effective_eta(LoadDependent(), 0.0, 7.2e-6)


class TestDensity:
    def test_below_support(self):
        assert pdf(0.5, PopularityDist(2.0)) == 0.0
        assert pdf(0.5, PopularityDist(263.5)) == 0.0

    def test_at_left_edge(self):
        assert pdf(1.0, PopularityDist(2.0)) == 1.0

    @pytest.mark.parametrize("eta", [1.45, 2.0, 263.5])
    def test_normalization_by_quadrature(self, eta):
        dist = PopularityDist(eta)
        total, err = integrate.quad(lambda f: pdf(f, dist), 1.0, math.inf)
        assert err < 1e-9
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_cdf_values(self):
        dist = PopularityDist(1.45)
        assert cdf(1.0, dist) == 0.0
        assert cdf(0.2, dist) == 0.0
        assert cdf(10.5, dist) == pytest.approx(oracle.FROZEN["cdf_10p5_eta1p45"], rel=1e-12)
        assert cdf(1e30, dist) == pytest.approx(1.0)

    @pytest.mark.parametrize("eta", [1.45, 2.0, 263.5])
    def test_cdf_matches_pdf_quadrature(self, eta):
        dist = PopularityDist(eta)
        for f in (1.5, 3.0, 10.5):
            mass, _ = integrate.quad(lambda x: pdf(x, dist), 1.0, f)
            assert cdf(f, dist) == pytest.approx(mass, abs=1e-10)

    def test_invalid_steepness_rejected(self):
        with pytest.raises(InvalidSteepnessError):
            PopularityDist(1.0)

    @settings(max_examples=80, deadline=None)
    @given(
        f=st.floats(0.0, 1e6, allow_nan=False),
        eta=st.floats(1.0 + 1e-9, 300.0, allow_nan=False),
    )
    def test_pdf_nonnegative_cdf_bounded(self, f, eta):
        dist = PopularityDist(eta)
        assert pdf(f, dist) >= 0.0
        assert 0.0 <= cdf(f, dist) <= 1.0

    def test_steeper_distribution_dominates(self):
        grid = np.linspace(1.0, 50.0, 200)
        lo, hi = PopularityDist(1.45), PopularityDist(2.0)
        assert np.all(cdf(grid, hi) >= cdf(grid, lo))

    def test_cdf_monotone(self):
        grid = np.linspace(0.5, 100.0, 400)
        values = cdf(grid, PopularityDist(1.45))
        assert np.all(np.diff(values) >= 0.0)


class TestSampleRequest:
    def test_zero_uniform_maps_to_support_infimum(self):
        assert sample_request(PopularityDist(1.45), _FixedUniform(0.0)) == 1.0

    def test_median_of_eta_two(self):
        assert sample_request(PopularityDist(2.0), _FixedUniform(0.5)) == pytest.approx(2.0)

    def test_fixed_seed_reproducible(self):
        a = sample_request(PopularityDist(1.45), rng(8), size=16)
        b = sample_request(PopularityDist(1.45), rng(8), size=16)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("eta", [1.45, 2.0, 263.5])
    def test_kolmogorov_smirnov_against_cdf(self, eta):
        dist = PopularityDist(eta)
        samples = sample_request(dist, rng(13), size=100_000)
        statistic = stats.kstest(samples, lambda f: cdf(f, dist)).statistic
        assert statistic < 0.01

    def test_empirical_probability_below_10p5(self):
        dist = PopularityDist(1.45)
        samples = sample_request(dist, rng(21), size=1_000_000)
        assert abs(np.mean(samples <= 10.5) - oracle.FROZEN["cdf_10p5_eta1p45"]) < 0.005

    def test_nearly_flat_distribution_overflows_to_inf_not_error(self):
        dist = PopularityDist(ETA_CLAMP)
        samples = sample_request(dist, _FixedUniform(0.9), size=8)
        assert np.all(np.isinf(samples))
        assert math.isinf(sample_request(dist, _FixedUniform(0.9)))
