import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference as oracle
from hetsim.analytics import attempt_kernel
from hetsim.channel import RadioParams
from hetsim.errors import InvalidParameterError
from hetsim.geometry import PointSet, Tier, Window, nearest, sample_ppp
from model_helpers import point_set_from_xy
from single_cell import kernel
from sir_reference import success_probability, truncated_geometric


def rng(seed=0):
    return np.random.default_rng(seed)


def point_set(coords, tier=None):
    if len(coords) == 0:
        return PointSet(r=np.empty(0), theta=np.empty(0), tier=tier)
    return point_set_from_xy(coords, tier=tier)


def kernel_success(serving_tier, serving_index, macro, small, radio=RadioParams()):
    """The kernel's per-attempt success probability: one minus its single-attempt outage."""
    return 1.0 - kernel(serving_tier, serving_index, macro, small, radio, max_attempts=1)[1]


class TestRadioParams:
    def test_defaults_match_standard_set(self):
        radio = RadioParams()
        assert radio.power_macro == 20.0
        assert radio.power_small == 2.0
        assert radio.pathloss_exponent == 4.0
        assert radio.target_sir == pytest.approx(10 ** 0.3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"power_macro": 0.0},
            {"power_small": -1.0},
            {"pathloss_exponent": 2.0},
            {"pathloss_exponent": float("inf")},
            {"target_sir": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidParameterError):
            RadioParams(**kwargs)

    def test_warns_on_inverted_power_ordering(self, caplog):
        with caplog.at_level("WARNING", logger="hetsim.channel"):
            RadioParams(power_macro=2.0, power_small=20.0)
        assert "ordering" in caplog.text


class TestSirAtOrigin:
    """The success probability inside simulator.downlink_delay, against the model's definition."""

    def test_symmetric_two_point_macro(self):
        # signal-to-interference ratio of the mean powers is (200/100)^4 = 16
        macro = point_set([(100.0, 0.0), (0.0, 200.0)])
        gamma = RadioParams().target_sir
        q = kernel_success(Tier.MACRO, 0, macro, point_set([]))
        assert q == pytest.approx(1.0 / (1.0 + gamma / 16.0), rel=1e-12, abs=0.0)

    def test_power_ratio_across_tiers(self):
        # equal distances: the macro interferer is 10x the small-cell signal
        macro = point_set([(0.0, 100.0)])
        small = point_set([(100.0, 0.0)])
        gamma = RadioParams().target_sir
        q = kernel_success(Tier.SMALL_CELL, 0, macro, small)
        assert q == pytest.approx(1.0 / (1.0 + 10.0 * gamma), rel=1e-12, abs=0.0)

    def test_no_interferer_gives_infinite_sir(self):
        macro = point_set([(50.0, 0.0)])
        radio = RadioParams(target_sir=1e300)
        assert kernel(Tier.MACRO, 0, macro, point_set([]), radio) == (1.0, 0.0, 0.1)

    def test_bad_serving_index_rejected(self):
        macro = point_set([(50.0, 0.0)])
        small = point_set([(80.0, 0.0)])
        with pytest.raises(InvalidParameterError):
            kernel(Tier.SMALL_CELL, 1, macro, small)

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        tier=st.sampled_from([Tier.MACRO, Tier.SMALL_CELL]),
        alpha=st.one_of(st.just(4.0), st.floats(2.5, 5.0)),
    )
    def test_matches_brute_force(self, seed, tier, alpha):
        """The kernel's (attempts, outage, delay) are the truncated-geometric
        values of the exact product-form success probability."""
        g = rng(seed)
        macro = point_set(100.0 * g.random((g.integers(1, 6), 2)) + 1.0)
        small = point_set(100.0 * g.random((g.integers(1, 6), 2)) + 1.0)
        idx = int(g.integers(0, len(macro) if tier is Tier.MACRO else len(small)))
        radio = RadioParams(pathloss_exponent=alpha)
        q = success_probability(tier, idx, macro, small, radio)
        attempts, outage = truncated_geometric(q, 4)
        got = kernel(tier, idx, macro, small, radio)
        assert got == (
            pytest.approx(float(attempts), rel=1e-12, abs=0.0),
            pytest.approx(float(outage), rel=1e-12, abs=0.0),
            pytest.approx(0.1 * float(attempts), rel=1e-12, abs=0.0),
        )

    def test_scale_invariance_under_common_fading_rescale(self):
        """Rescaling every received power alike, as a common fading or power
        factor does, leaves the kernel's output unchanged."""
        g = rng(3)
        macro = point_set(200.0 * g.random((4, 2)) + 1.0)
        small = point_set(200.0 * g.random((3, 2)) + 1.0)
        base = kernel(Tier.MACRO, 2, macro, small)
        scaled = kernel(Tier.MACRO, 2, macro, small, RadioParams(power_macro=150.0, power_small=15.0))
        assert base[0] > 1.01
        assert scaled == pytest.approx(base, rel=1e-12, abs=0.0)

    def test_removing_an_interferer_never_decreases_sir(self):
        """Fewer interferers never raise the expected attempts or the outage."""
        g = rng(4)
        coords = (150.0 * g.random((6, 2)) + 1.0).tolist()
        attempts, outage, _ = kernel(Tier.MACRO, 0, point_set(coords), point_set([]))
        assert attempts > 1.01
        for drop in range(1, 6):
            kept = [c for i, c in enumerate(coords) if i != drop]
            reduced = kernel(Tier.MACRO, 0, point_set(kept), point_set([]))
            assert reduced[0] <= attempts
            assert reduced[1] <= outage


class TestCoverageDistribution:
    def test_single_attempt_success_matches_kernel(self):
        """Mean P(SIR >= gamma | geometry) against the adopted closed-form kernel."""
        radio = RadioParams()
        window = Window(8_000.0)
        g = rng(2024)
        trials = 10_000
        successes = 0.0
        for _ in range(trials):
            macro = sample_ppp(2.8e-6, window, g, Tier.MACRO)
            small = sample_ppp(3.6e-6, window, g, Tier.SMALL_CELL)
            if len(macro) == 0:
                continue
            idx, _ = nearest(macro)
            successes += kernel_success(Tier.MACRO, idx, macro, small, radio)
        c = attempt_kernel(
            radio.target_sir, 4.0, radio.power_small, radio.power_macro, 3.6e-6, 2.8e-6
        )
        expected = 1.0 / (1.0 + c)
        assert expected == pytest.approx(oracle.FROZEN["coverage_macro"], rel=1e-12)
        assert abs(successes / trials - expected) / expected < 0.03
