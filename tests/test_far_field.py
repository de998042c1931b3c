"""The far field beyond the near disc, averaged out by its PGFL.

``simulator.far_log_moments`` and ``simulator.far_z_moments`` are held to
quadrature and to 50-digit arithmetic; ``downlink_delay`` fed with them is
held to annuli sampled point by point; and every fallback of
``run_replication`` is held, on a replayed stream, to the kernel run on the
union of near and annulus points for every serving tier, whichever tier
caused it. Routers are never sampled, so they cause no fallback.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from hetsim.analytics import DelayParams
from hetsim.caching import B3Variant, CacheConfig, CachePolicy, hit_probability
from hetsim.channel import RadioParams
from hetsim.errors import InvalidParameterError
from hetsim.geometry import DEFAULT_WINDOW_RADIUS_M, PointSet, Tier, Window, nearest, sample_ppp
from hetsim.popularity import Fixed
from hetsim.simulator import (
    FAR_ALPHA_MIN,
    FAR_Z_MAX,
    J_MAX,
    NEAR_RADIUS_M,
    Cell,
    DelaySample,
    MacroUser,
    SmallUser,
    _gains,
    downlink_delay,
    estimate,
    far_log_moments,
    far_z_moments,
    replication_rng,
    run_replication,
)
from model_helpers import point_set_from_xy

GAMMA_3DB = 10.0 ** 0.3


def quad_log_moment(s, alpha, inner, outer, i):
    """``2 pi int (1 - (1 + s r^-alpha)^-i) r dr`` over the annulus, at unit intensity."""
    value, _ = integrate.quad(
        lambda r: -math.expm1(-i * math.log1p(s * r**-alpha)) * r,
        inner,
        outer,
        epsabs=0.0,
        epsrel=1e-13,
        limit=200,
    )
    return 2 * math.pi * value


class TestLogMoments:
    @pytest.mark.parametrize("alpha", [4.0, 3.2])
    @pytest.mark.parametrize("s", np.geomspace(3e9, 1e12, 7).tolist())
    def test_match_quadrature(self, alpha, s):
        lam = far_log_moments((s,), (1.0,), alpha, NEAR_RADIUS_M, DEFAULT_WINDOW_RADIUS_M, J_MAX)
        for i in (1, 2, 4, J_MAX):
            expected = quad_log_moment(s, alpha, NEAR_RADIUS_M, DEFAULT_WINDOW_RADIUS_M, i)
            assert lam[i - 1] == pytest.approx(expected, rel=1e-9, abs=0.0), i

    @pytest.mark.parametrize("alpha", [FAR_ALPHA_MIN, 2.5, 4.0, 5.0, 10.0])
    @pytest.mark.parametrize("z", [1e-14, 1e-10, 1e-6, 1e-3, 0.1, 3.0, 100.0, FAR_Z_MAX])
    def test_match_quadrature_up_to_a_server_at_the_near_edge(self, alpha, z):
        # z = s R^-alpha reaches target_sir * (P_macro / P_small) when the server sits near R,
        # and falls below 1e-10 when it sits within tens of metres of the user;
        # beyond FAR_ALPHA_MIN and FAR_Z_MAX the replication samples the annulus instead
        s = z * NEAR_RADIUS_M**alpha
        lam = far_log_moments((s,), (1.0,), alpha, NEAR_RADIUS_M, DEFAULT_WINDOW_RADIUS_M, J_MAX)
        for i in (1, 2, 4, J_MAX):
            expected = quad_log_moment(s, alpha, NEAR_RADIUS_M, DEFAULT_WINDOW_RADIUS_M, i)
            assert lam[i - 1] == pytest.approx(expected, rel=1e-9, abs=0.0), i

    def test_tiers_add(self):
        both = far_log_moments((1e10, 1e9), (2.8e-6, 3.6e-6), 4.0, 5000.0, 20_000.0, 4)
        macro = far_log_moments((1e10,), (2.8e-6,), 4.0, 5000.0, 20_000.0, 4)
        small = far_log_moments((1e9,), (3.6e-6,), 4.0, 5000.0, 20_000.0, 4)
        np.testing.assert_allclose(both, np.add(macro, small), rtol=1e-14)

    def test_alpha_4_first_moment_has_arctan_form(self):
        # at alpha = 4, i = 1 the integral to infinity is pi sqrt(s) (pi/2 - atan(R^2 / sqrt(s)))
        s, inner, outer = 4e10, 5000.0, 20_000.0
        to_inf = lambda r: math.pi * math.sqrt(s) * (math.pi / 2 - math.atan(r * r / math.sqrt(s)))
        lam = far_log_moments((s,), (1.0,), 4.0, inner, outer, 1)
        assert lam[0] == pytest.approx(to_inf(inner) - to_inf(outer), rel=1e-9)


def mp_z_moments(lam):
    mpmath.mp.dps = 50
    return [
        sum(
            mpmath.binomial(j, i) * (-1) ** i * mpmath.expm1(-mpmath.mpf(lam[i - 1]))
            for i in range(1, j + 1)
        )
        for j in range(1, len(lam) + 1)
    ]


class TestZMoments:
    @pytest.mark.parametrize("shape", ["deterministic", "pgfl"])
    @pytest.mark.parametrize("scale", np.geomspace(1e-8, 5.0, 12).tolist())
    def test_match_50_digit_arithmetic(self, shape, scale):
        """Lambda_i of a fixed Q (linear in i) and of a PPP annulus (concave),
        scaled so that Lambda_1 runs from 1e-8 to 5."""
        if shape == "deterministic":
            lam = [scale * i for i in range(1, J_MAX + 1)]
        else:
            unit = far_log_moments((1e11, 1e10), (1.0, 1.0), 4.0, 5000.0, 20_000.0, J_MAX)
            lam = [scale * v / unit[0] for v in unit]
        got = far_z_moments(lam)
        for j, (value, exact) in enumerate(zip(got, mp_z_moments(lam)), 1):
            assert abs(value - float(exact)) < 1e-13, j

    def test_empty_annulus_has_no_moments(self):
        assert far_z_moments([0.0] * J_MAX) == [0.0] * J_MAX


# (serving tier, macro points, small points): the server is point 0 of its tier
NEAR_GEOMETRIES = [
    (Tier.MACRO, [(100.0, 0.0), (0.0, 140.0), (-250.0, 40.0)], [(60.0, 90.0), (-120.0, -70.0)]),
    (Tier.SMALL_CELL, [(0.0, 330.0)], [(200.0, 150.0), (-60.0, -300.0)]),
]


def materialised_annuli(serving_gain, params, inner, outer, annuli, rng, chunk=20_000):
    """``-log Q`` of ``annuli`` sampled annuli, point by point: Poisson counts,
    squared radii uniform on [inner^2, outer^2]."""
    radio = params.radio
    out = []
    for start in range(0, annuli, chunk):
        n = min(chunk, annuli - start)
        total = np.zeros(n)
        for lam, power in ((params.lambda_mc, radio.power_macro), (params.lambda_sc, radio.power_small)):
            counts = rng.poisson(lam * math.pi * (outer**2 - inner**2), n)
            r = np.sqrt(inner**2 + (outer**2 - inner**2) * rng.random(counts.sum()))
            terms = np.log1p(radio.target_sir * power * r**-radio.pathloss_exponent / serving_gain)
            total += np.bincount(np.repeat(np.arange(n), counts), weights=terms, minlength=n)
        out.append(total)
    return np.concatenate(out)


class TestNearKernelAgainstMaterialisedAnnulus:
    @pytest.mark.parametrize("alpha", [4.0, 3.5])
    @pytest.mark.parametrize("geometry", range(len(NEAR_GEOMETRIES)))
    def test_mean_attempts_and_outage(self, alpha, geometry):
        serving_tier, macro_xy, small_xy = NEAR_GEOMETRIES[geometry]
        params = DelayParams(radio=RadioParams(pathloss_exponent=alpha))
        radio = params.radio
        inner, outer, annuli = 350.0, 1000.0, 100_000
        macro = point_set_from_xy(macro_xy, Tier.MACRO)
        small = point_set_from_xy(small_xy, Tier.SMALL_CELL)
        macro_gains = _gains(macro.r, radio.power_macro, alpha)
        small_gains = _gains(small.r, radio.power_small, alpha)
        serving_gain = (macro_gains if serving_tier is Tier.MACRO else small_gains)[0]

        scale = radio.target_sir / serving_gain
        far = far_log_moments(
            (scale * radio.power_macro, scale * radio.power_small),
            (params.lambda_mc, params.lambda_sc),
            alpha,
            inner,
            outer,
            params.max_attempts,
        )
        attempts, outage, _ = downlink_delay(
            serving_tier, 0, macro_gains, small_gains, radio.target_sir, 0.1, params.max_attempts, far
        )

        near_minus_log_q = sum(
            math.log1p(radio.target_sir * g / serving_gain)
            for g in [*macro_gains, *small_gains]
            if g != serving_gain
        )
        far_minus_log_q = materialised_annuli(
            serving_gain, params, inner, outer, annuli, np.random.default_rng(500 + geometry)
        )
        miss = -np.expm1(-(near_minus_log_q + far_minus_log_q))
        sampled_attempts = sum(miss**k for k in range(params.max_attempts))
        sampled_outage = miss**params.max_attempts
        # the annulus must matter: its mean -log Q is a visible share of the total
        assert far_minus_log_q.mean() > 0.02 * near_minus_log_q
        for exact, sampled in ((attempts, sampled_attempts), (outage, sampled_outage)):
            se = sampled.std(ddof=1) / math.sqrt(annuli)
            assert abs(sampled.mean() - exact) < 4 * se, (exact, sampled.mean(), se)

    def test_empty_annulus_reproduces_the_near_kernel(self):
        """Lambda = 0 means Q = 1: the expansion collapses to the plain kernel, bit for bit."""
        macro = point_set_from_xy([(100.0, 0.0), (0.0, 140.0)], Tier.MACRO)
        small = point_set_from_xy([(60.0, 90.0)], Tier.SMALL_CELL)
        gains = (_gains(macro.r, 20.0, 4.0), _gains(small.r, 2.0, 4.0))
        for m in (1, 4, J_MAX):
            plain = downlink_delay(Tier.MACRO, 0, *gains, GAMMA_3DB, 0.1, m)
            assert downlink_delay(Tier.MACRO, 0, *gains, GAMMA_3DB, 0.1, m, [0.0] * m) == plain

    def test_far_moments_need_one_per_attempt_up_to_j_max(self):
        macro = point_set_from_xy([(100.0, 0.0)], Tier.MACRO)
        gains = (_gains(macro.r, 20.0, 4.0), np.empty(0))
        for m, far in ((4, [0.0] * 3), (J_MAX + 1, [0.0] * (J_MAX + 1))):
            with pytest.raises(InvalidParameterError):
                downlink_delay(Tier.MACRO, 0, *gains, GAMMA_3DB, 0.1, m, far)


def _union(near, far):
    return PointSet(np.concatenate((near.r, far.r)), np.concatenate((near.theta, far.theta)), near.tier)


def link(tier, macro, small, params):
    """(attempts, outage, downlink, backhaul mean) of the kernel on one point set.

    The backhaul mean takes the router distance's mean on the plane,
    ``1 / (2 sqrt(lambda_cr))``.
    """
    radio = params.radio
    serving = macro if tier is Tier.MACRO else small
    intensity = params.lambda_mc if tier is Tier.MACRO else params.lambda_sc
    index, _ = nearest(serving)
    gains = (
        _gains(macro.r, radio.power_macro, radio.pathloss_exponent),
        _gains(small.r, radio.power_small, radio.pathloss_exponent),
    )
    attempts, outage, downlink = downlink_delay(
        tier, index, *gains, radio.target_sir, params.slot_ms, params.max_attempts
    )
    router_distance = 1.0 / (2.0 * math.sqrt(params.lambda_cr))
    backhaul = params.backhaul_beta * router_distance * (intensity / params.lambda_cr)
    return attempts, outage, downlink, backhaul


def fallback_reason(tier, near, params):
    """Why the near points leave ``tier`` unsettled (a FALLBACKS key), or None."""
    macro, small = near
    serving = macro if tier is Tier.MACRO else small
    radio = params.radio
    if params.max_attempts > J_MAX:
        return "attempts-above-j-max"
    if radio.pathloss_exponent < FAR_ALPHA_MIN:
        return "pathloss-near-two"
    if not len(serving):
        return "empty-serving-tier"
    _, distance = nearest(serving)
    power = radio.power_macro if tier is Tier.MACRO else radio.power_small
    edge = (distance / NEAR_RADIUS_M) ** radio.pathloss_exponent
    if radio.target_sir * radio.power_macro / power * edge > FAR_Z_MAX:
        return "argument-above-z-max"
    return None


MIXPOP = SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45))
FALLBACKS = {
    # a near disc that often holds no macro cell
    "empty-serving-tier": (DelayParams(lambda_mc=2e-8), [MacroUser()]),
    # few routers and far-flung small cells: routers are averaged out on the plane, not sampled,
    # so however sparse they cause no fallback
    "router-beyond": (DelayParams(lambda_cr=5e-8, lambda_sc=1e-7), [MIXPOP]),
    # too many attempts for the expansion: every replication falls back
    "attempts-above-j-max": (DelayParams(max_attempts=J_MAX + 1), [MacroUser(), MIXPOP]),
    # a pathloss exponent below the checked domain of the closed form: every replication
    "pathloss-near-two": (DelayParams(radio=RadioParams(pathloss_exponent=2.05)), [MacroUser()]),
    # a huge SIR target puts s R^-alpha beyond FAR_Z_MAX once the server is a few hundred metres off
    "argument-above-z-max": (DelayParams(radio=RadioParams(target_sir=1e8)), [MIXPOP]),
    # sparse macro and small tiers: often one serving tier is settled and the other is not
    "mixed": (DelayParams(lambda_mc=2e-8, lambda_sc=3e-8), [MacroUser(), MIXPOP]),
}


@pytest.mark.parametrize("case", list(FALLBACKS))
def test_fallback_replays_the_kernel_on_the_union(case):
    params, scenarios = FALLBACKS[case]
    cache = CacheConfig()
    cells = [Cell(scenario, params, cache) for scenario in scenarios]
    window = Window(DEFAULT_WINDOW_RADIUS_M)
    near_window = Window(NEAR_RADIUS_M)
    lambdas = (params.lambda_mc, params.lambda_sc)
    tiers = (Tier.MACRO, Tier.SMALL_CELL)
    serving_tiers = [Tier.MACRO if isinstance(s, MacroUser) else Tier.SMALL_CELL for s in scenarios]
    reasons, mixed = [], 0
    for rep in range(40):
        replay = replication_rng(71, rep)
        near = [sample_ppp(lam, near_window, replay, tier) for lam, tier in zip(lambdas, tiers)]
        g = replication_rng(71, rep)
        samples = run_replication(cells, params, window, g)
        # either serving tier decides whether the annulus is drawn, whichever cells run
        reason = {tier: fallback_reason(tier, near, params) for tier in (Tier.MACRO, Tier.SMALL_CELL)}
        reasons.append(reason[serving_tiers[0]])
        mixed += list(reason.values()).count(None) == 1
        if set(reason.values()) == {None}:
            assert g.bit_generator.state == replay.bit_generator.state, rep  # no annulus drawn
            continue
        far = [sample_ppp(lam, window, replay, tier, NEAR_RADIUS_M) for lam, tier in zip(lambdas, tiers)]
        assert g.bit_generator.state == replay.bit_generator.state, rep
        union = [_union(a, b) for a, b in zip(near, far)]
        for scenario, tier, sample in zip(scenarios, serving_tiers, samples):
            # every tier runs on the union, also one that the near points settle
            attempts, outage, downlink, backhaul = link(tier, *union, params)
            hit = 0.0
            if scenario == MIXPOP:
                hit = hit_probability(CachePolicy.MIX_POP, cache, 1.45, B3Variant.INTEGRAL_CONSISTENT)
            tail = hit * params.cache_read_mean_ms + (1.0 - hit) * backhaul
            assert sample == DelaySample(downlink, tail, attempts, outage, hit), rep
    if case == "router-beyond":
        assert reasons.count(None) == 40 and mixed == 0  # no replication falls back
    elif case == "mixed":
        assert mixed >= 3
    else:
        assert reasons.count(case) >= 3
    if case not in ("attempts-above-j-max", "pathloss-near-two"):
        assert reasons.count(None) >= 3


def test_window_within_near_disc_keeps_the_full_window_estimates():
    """At a window no larger than the near disc no interference is averaged
    out: these are the estimates of the full-window sampler, compared with
    ==. They were recorded on the batch streams, which hold only the macro
    and small-cell points; ``test_batch`` holds every replication of such a
    batch to the same replication run alone on its share of the stream.
    The MixPop hit is the integral closed form, its catalogue ending at
    1 + f0."""
    params = DelayParams()
    cache = CacheConfig()
    cells = [
        Cell(MacroUser(), params, cache),
        Cell(SmallUser(policy=CachePolicy.NO_CACHE), params, cache),
        Cell(MIXPOP, params, cache),
    ]
    got = estimate(cells, Window(5000.0), 300, 2026, workers=1)
    recorded = [
        (1.1243214511922348, 1.1109462796748348, 1.1376966227096348, 0.5054223900666067, 0.0),
        (1.4283726248274844, 1.4169190544227568, 1.439826195232212, 0.759886603606107, 0.0),
        (0.6689249930372931, 0.6574714226325656, 0.6803785634420206, 0.759886603606107, 0.7053953719159934),
    ]
    for est, (mean, low, high, outage, hit) in zip(got, recorded):
        assert (est.mean_ms, est.ci_low_ms, est.ci_high_ms, est.outage_rate, est.hit_rate) == (
            mean, low, high, outage, hit
        )
        assert est.replications == 300
