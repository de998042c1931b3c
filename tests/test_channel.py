import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_reference as oracle
from hetsim.analytics import attempt_kernel
from hetsim.channel import RadioParams
from hetsim.errors import InvalidParameterError
from hetsim.geometry import PointSet, Tier, Window, nearest, sample_ppp
from hetsim.simulator import _gains, downlink_delay
from sir_reference import FixedFading, reference_downlink, sir_brute_force


def rng(seed=0):
    return np.random.default_rng(seed)


def point_set(coords, tier=None):
    if len(coords) == 0:
        return PointSet(r=np.empty(0), theta=np.empty(0), intensity=1.0, tier=tier)
    return PointSet.from_xy(coords, intensity=1.0, tier=tier)


def run_kernel(serving_tier, serving_index, macro, small, draws, radio=RadioParams()):
    """(attempts, outage) of the production kernel when attempt k sees fading ``draws[k]``."""
    attempts, outage, _ = downlink_delay(
        serving_tier, serving_index, macro, small, radio, 0.1, len(draws), FixedFading(*draws)
    )
    return attempts, outage


def assert_kernel_sir(expected, serving_tier, serving_index, macro, small, fading):
    """The kernel's one-attempt SIR under ``fading`` is ``expected``: it clears a
    target just below it and misses one just above."""
    for target, outage in ((expected * (1 - 1e-9), False), (expected * (1 + 1e-9), True)):
        radio = RadioParams(target_sir=target)
        assert run_kernel(serving_tier, serving_index, macro, small, [fading], radio) == (1, outage)


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


class TestPathloss:
    """The kernel's received-power gain power * r**(-alpha), at unit power."""

    def test_unit_distance(self):
        assert _gains(np.array([1.0]), 1.0, 4.0)[0] == 1.0

    def test_two_meters_alpha_four(self):
        assert _gains(np.array([2.0]), 1.0, 4.0)[0] == pytest.approx(0.0625)

    def test_ten_meters_alpha_three(self):
        assert _gains(np.array([10.0]), 1.0, 3.0)[0] == pytest.approx(1e-3)


class TestSirAtOrigin:
    """The SIR test inside simulator.downlink_delay, against the model's definition."""

    def test_symmetric_two_point_macro(self):
        macro = point_set([(100.0, 0.0), (0.0, 200.0)])
        assert_kernel_sir(16.0, Tier.MACRO, 0, macro, point_set([]), [1.0, 1.0])

    def test_power_ratio_across_tiers(self):
        macro = point_set([(0.0, 100.0)])
        small = point_set([(100.0, 0.0)])
        assert_kernel_sir(0.1, Tier.SMALL_CELL, 0, macro, small, [1.0, 1.0])

    def test_no_interferer_gives_infinite_sir(self):
        macro = point_set([(50.0, 0.0)])
        radio = RadioParams(target_sir=1e300)
        assert run_kernel(Tier.MACRO, 0, macro, point_set([]), [[2.0]], radio) == (1, False)

    def test_bad_serving_index_rejected(self):
        macro = point_set([(50.0, 0.0)])
        small = point_set([(80.0, 0.0)])
        with pytest.raises(InvalidParameterError):
            downlink_delay(Tier.SMALL_CELL, 1, macro, small, RadioParams(), 0.1, 4, rng())

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        tier=st.sampled_from([Tier.MACRO, Tier.SMALL_CELL]),
        alpha=st.one_of(st.just(4.0), st.floats(2.5, 5.0)),
    )
    def test_matches_brute_force(self, seed, tier, alpha):
        """The per-attempt reference SIR predicts the kernel's attempt count, with
        the target placed just below and just above the first attempt's SIR."""
        g = rng(seed)
        macro = point_set(100.0 * g.random((g.integers(1, 6), 2)) + 1.0)
        small = point_set(100.0 * g.random((g.integers(1, 6), 2)) + 1.0)
        idx = int(g.integers(0, len(macro) if tier is Tier.MACRO else len(small)))
        first = rng(seed + 1).standard_exponential(len(macro) + len(small))
        sir = sir_brute_force(tier, idx, macro, small, first, RadioParams(pathloss_exponent=alpha))
        # the kernel forms interference as total power minus signal, which
        # costs it about SIR ulps of relative precision
        margin = 1e-9 + 1e-14 * sir
        for target in (sir * (1 - margin), sir * (1 + margin)):
            radio = RadioParams(pathloss_exponent=alpha, target_sir=target)
            attempts, outage, delay = downlink_delay(
                tier, idx, macro, small, radio, 0.1, 4, rng(seed + 1)
            )
            want = reference_downlink(tier, idx, macro, small, radio, 4, rng(seed + 1))
            assert (attempts, outage) == want
            assert delay == pytest.approx(0.1 * attempts)

    def test_scale_invariance_under_common_fading_rescale(self):
        g = rng(3)
        macro = point_set(200.0 * g.random((4, 2)) + 1.0)
        small = point_set(200.0 * g.random((3, 2)) + 1.0)
        draws = [g.standard_exponential(7) for _ in range(8)]
        base = run_kernel(Tier.MACRO, 2, macro, small, draws)
        scaled = run_kernel(Tier.MACRO, 2, macro, small, [7.5 * h for h in draws])
        assert base[0] > 1
        assert scaled == base

    def test_removing_an_interferer_never_decreases_sir(self):
        g = rng(4)
        coords = (150.0 * g.random((6, 2)) + 1.0).tolist()
        draws = [g.standard_exponential(6) for _ in range(8)]
        full, _ = run_kernel(Tier.MACRO, 0, point_set(coords), point_set([]), draws)
        assert full > 1
        for drop in range(1, 6):
            kept = [c for i, c in enumerate(coords) if i != drop]
            kept_draws = [np.delete(h, drop) for h in draws]
            reduced, _ = run_kernel(Tier.MACRO, 0, point_set(kept), point_set([]), kept_draws)
            assert reduced <= full


class TestCoverageDistribution:
    def test_single_attempt_success_matches_kernel(self):
        """Empirical P(SIR >= gamma) against the adopted closed-form kernel."""
        radio = RadioParams()
        window = Window(8_000.0)
        g = rng(2024)
        trials = 10_000
        successes = 0
        for _ in range(trials):
            macro = sample_ppp(2.8e-6, window, g, Tier.MACRO)
            small = sample_ppp(3.6e-6, window, g, Tier.SMALL_CELL)
            if len(macro) == 0:
                continue
            idx, _ = nearest(macro)
            _, outage, _ = downlink_delay(Tier.MACRO, idx, macro, small, radio, 0.1, 1, g)
            successes += not outage
        c = attempt_kernel(
            radio.target_sir, 4.0, radio.power_small, radio.power_macro, 3.6e-6, 2.8e-6
        )
        expected = 1.0 / (1.0 + c)
        assert expected == pytest.approx(oracle.FROZEN["coverage_macro"], rel=1e-12)
        assert abs(successes / trials - expected) / expected < 0.03
