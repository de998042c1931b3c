import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracle_reference as oracle
from hetsim.errors import EmptyTierError, InvalidParameterError
from hetsim.geometry import (
    PointSet,
    Tier,
    Window,
    mean_nearest_distance,
    nearest,
    sample_beyond,
    sample_ppp,
)
from model_helpers import point_set_from_xy


def rng(seed=0):
    return np.random.default_rng(seed)


class TestWindow:
    @pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_radius(self, radius):
        with pytest.raises(InvalidParameterError):
            Window(radius=radius)

    def test_area(self):
        assert Window(radius=2.0).area == pytest.approx(4 * math.pi)


class TestSamplePpp:
    @pytest.mark.parametrize("intensity", [0.0, -1e-6, math.inf, math.nan])
    def test_rejects_bad_intensity(self, intensity):
        with pytest.raises(InvalidParameterError):
            sample_ppp(intensity, Window(100.0), rng())

    def test_fixed_seed_is_reproducible(self):
        a = sample_ppp(1e-3, Window(500.0), rng(42), tier=Tier.MACRO)
        b = sample_ppp(1e-3, Window(500.0), rng(42), tier=Tier.MACRO)
        assert len(a) == len(b)
        np.testing.assert_array_equal(a.r, b.r)
        np.testing.assert_array_equal(a.theta, b.theta)
        assert a.tier is Tier.MACRO

    def test_negligible_intensity_gives_empty_set(self):
        # Poisson mean ~3e-12: empty for any reasonable draw
        assert len(sample_ppp(1e-12, Window(1.0), rng(3))) == 0

    def test_points_stay_inside_window(self):
        ps = sample_ppp(1e-2, Window(120.0), rng(1))
        assert np.all(ps.r <= 120.0)

    def test_count_mean_matches_intensity_area(self):
        window = Window(100.0)
        mu = 1e-3 * window.area  # ~31.4
        counts = [len(sample_ppp(1e-3, window, rng(100 + i))) for i in range(4000)]
        se = math.sqrt(mu / len(counts))
        assert abs(np.mean(counts) - mu) < 3 * se

    def test_count_distribution_chisquare(self):
        window = Window(100.0)
        intensity = 40 / window.area
        g = rng(7)
        counts = np.array([len(sample_ppp(intensity, window, g)) for _ in range(5000)])
        lo, hi = stats.poisson.ppf([0.0005, 0.9995], 40).astype(int)
        edges = np.arange(lo, hi + 1)
        observed = np.array([(counts == k).sum() for k in edges], dtype=float)
        observed = np.concatenate(([np.sum(counts < lo)], observed, [np.sum(counts > hi)]))
        expected = stats.poisson.pmf(edges, 40)
        expected = np.concatenate(
            ([stats.poisson.cdf(lo - 1, 40)], expected, [stats.poisson.sf(hi, 40)])
        )
        expected *= len(counts)
        keep = expected >= 5  # merge sparse tails into neighbours
        observed = np.concatenate(([observed[~keep].sum()], observed[keep]))
        expected = np.concatenate(([expected[~keep].sum()], expected[keep]))
        result = stats.chisquare(observed, expected * observed.sum() / expected.sum())
        assert result.pvalue > 0.01

    def test_isotropy_and_radial_law(self):
        # angles uniform on [0, 2pi); squared radius uniform on [0, R^2]
        ps = sample_ppp(1e-2, Window(300.0), rng(11))
        assert len(ps) > 2000
        angle_p = stats.kstest(ps.theta / (2 * np.pi), "uniform").pvalue
        radial_p = stats.kstest(ps.r**2 / 300.0**2, "uniform").pvalue
        assert angle_p > 0.01
        assert radial_p > 0.01


class TestSampleBeyond:
    def test_count_and_radial_law_with_a_radius_per_sample(self):
        # sample k: count mean lambda pi (radius_k^2 - closest_k^2), r^2 uniform on
        # [closest_k^2, radius_k^2]; four (closest, radius) pairs, interleaved
        pairs = np.array([(0.0, 300.0), (200.0, 300.0), (50.0, 120.0), (150.0, 400.0)])
        closest, radius = np.tile(pairs, (500, 1)).T
        counts, r = sample_beyond(1e-2, closest, radius, rng(13))
        assert counts.shape == closest.shape and r.size == counts.sum()
        owner = np.repeat(np.arange(closest.size), counts)
        for c, (inner, outer) in enumerate(pairs):
            group = np.arange(c, closest.size, len(pairs))
            mu = 1e-2 * math.pi * (outer**2 - inner**2)
            assert abs(counts[group].mean() - mu) < 3 * math.sqrt(mu / group.size), (inner, outer)
            radii = r[np.isin(owner, group)]
            assert np.all((inner <= radii) & (radii < outer))
            assert stats.kstest((radii**2 - inner**2) / (outer**2 - inner**2), "uniform").pvalue > 0.01

    def test_empty_at_or_beyond_the_radius(self):
        closest = np.array([100.0, 300.0, 450.0, 0.0])
        counts, r = sample_beyond(1e-2, closest, np.full(closest.size, 300.0), rng(5))
        assert counts[1:3].tolist() == [0, 0]
        assert counts[0] > 0 and counts[3] > 0 and r.size == counts.sum()

    def test_empty_for_a_tier_with_no_point(self):
        # the simulator marks a tier with no point in the window by an infinite nearest distance
        closest = np.array([math.inf, 10.0, math.inf])
        counts, r = sample_beyond(1e-2, closest, np.array([300.0, 300.0, 5000.0]), rng(5))
        assert counts[[0, 2]].tolist() == [0, 0]
        assert counts[1] > 0 and r.size == counts[1]
        assert np.all((10.0 <= r) & (r < 300.0))

    @pytest.mark.parametrize("radius", [200.0, 5000.0])
    def test_float_radius_draws_what_the_broadcast_array_draws(self, radius):
        closest = np.array([0.0, 40.0, 199.0, 250.0, math.inf])
        one = sample_beyond(3e-4, closest, radius, rng(21))
        each = sample_beyond(3e-4, closest, np.full(closest.size, radius), rng(21))
        for a, b in zip(one, each):
            assert np.array_equal(a, b) and a.dtype == b.dtype


class TestNearest:
    def test_two_points(self):
        ps = point_set_from_xy([(3.0, 4.0), (1.0, 0.0)])
        assert nearest(ps) == (1, pytest.approx(1.0))

    def test_single_point_345(self):
        ps = point_set_from_xy([(3.0, 4.0)])
        assert nearest(ps) == (0, pytest.approx(5.0))

    def test_tie_breaks_to_lowest_index(self):
        ps = point_set_from_xy([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])
        assert nearest(ps)[0] == 0

    def test_empty_set_raises(self):
        ps = PointSet(r=np.empty(0), theta=np.empty(0), tier=Tier.MACRO)
        with pytest.raises(EmptyTierError):
            nearest(ps)

    @settings(max_examples=60, deadline=None)
    @given(
        xy=st.lists(
            st.tuples(
                st.floats(-1e4, 1e4, allow_nan=False), st.floats(-1e4, 1e4, allow_nan=False)
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_agrees_with_exhaustive_scan(self, xy):
        ps = point_set_from_xy(xy)
        idx, dist = nearest(ps)
        brute = [math.hypot(x, y) for x, y in xy]
        best = min(range(len(xy)), key=lambda i: (brute[i], i))
        assert math.isclose(dist, brute[best], rel_tol=1e-9, abs_tol=1e-9)
        assert brute[idx] == pytest.approx(brute[best], rel=1e-12, abs=1e-12)

    def test_mean_nearest_distance_values(self):
        assert mean_nearest_distance(3.6e-6) == pytest.approx(oracle.FROZEN["mean_nearest_sc_m"])
        assert mean_nearest_distance(1.4e-6) == pytest.approx(oracle.FROZEN["mean_nearest_cr_m"])
        assert mean_nearest_distance(0.25) == pytest.approx(1.0)

    @pytest.mark.parametrize("intensity", [0.0, -2.0, math.nan])
    def test_mean_nearest_distance_invalid(self, intensity):
        with pytest.raises(InvalidParameterError):
            mean_nearest_distance(intensity)

    def test_empirical_mean_nearest_distance(self):
        # lambda * area ~ 1257 >> 1000, so truncation is negligible
        intensity, window = 1e-2, Window(200.0)
        g = rng(17)
        dists = [nearest(sample_ppp(intensity, window, g))[1] for _ in range(10_000)]
        expected = mean_nearest_distance(intensity)
        assert abs(np.mean(dists) - expected) / expected < 0.01


class TestPointSet:
    def test_radii(self):
        ps = point_set_from_xy([(3.0, 4.0)])
        np.testing.assert_allclose(ps.r, [5.0])
