"""The far field beyond each tier's near radius, averaged out by its PGFL.

``simulator.far_log_moments`` and ``simulator.far_z_moments`` are held to
quadrature and to 50-digit arithmetic, and ``far_z_moments`` to its
row-by-row loop; the kernel's far path is held to the exact binomial
expansion, and ``downlink_delay`` fed with them to annuli sampled point by
point; every replication of ``run_replication`` is held, on a replayed
stream, to the kernel run on each tier's nearest point and its interferers
out to its near radius, with the rest of the window averaged out, for
every serving tier; and the averaged-out estimates are held to the whole
window sampled point by point on the same nearest draws. Routers are never
sampled, so they move no near radius.
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
from hetsim.geometry import DEFAULT_WINDOW_RADIUS_M, PointSet, Tier, Window, nearest, nearest_distance
from hetsim.popularity import Fixed
from hetsim import simulator
from hetsim.simulator import (
    BATCH_SIZE,
    FAR_ALPHA_MIN,
    FAR_Z_MAX,
    J_MAX,
    Cell,
    DelaySample,
    MacroUser,
    SmallUser,
    _gains,
    _simulate,
    downlink_delay,
    estimate,
    far_log_moments,
    far_z_moments,
    replication_rng,
    run_replication,
)
from far_reference import LOG_2, exact_far_downlink, z_moments_by_row
from model_helpers import point_set_from_xy
from stream_script import Recorder, levels

GAMMA_3DB = 10.0 ** 0.3


def quad_log_moment(s, alpha, inner, outer, i):
    """``2 pi int (1 - (1 + s r^-alpha)^-i) r dr`` over the annulus, at unit intensity.

    The integral runs in ``u = log r``, where an inner radius of a metre and
    one of kilometres are equally smooth for the quadrature."""
    value, _ = integrate.quad(
        lambda u: -math.expm1(-i * math.log1p(s * math.exp(-alpha * u))) * math.exp(2.0 * u),
        math.log(inner),
        math.log(outer),
        epsabs=0.0,
        epsrel=1e-13,
        limit=200,
    )
    return 2 * math.pi * value


# a tier's near radius is its nearest point, metres out or kilometres, unless the fence pushes it out
INNER_RADII = [1.0, 10.0, 100.0, 2000.0, 5000.0]


class TestLogMoments:
    @pytest.mark.parametrize("inner", INNER_RADII)
    @pytest.mark.parametrize("alpha", [4.0, 3.2])
    @pytest.mark.parametrize("s", np.geomspace(3e9, 1e12, 7).tolist())
    def test_match_quadrature(self, alpha, s, inner):
        lam = far_log_moments((s,), (1.0,), alpha, inner, DEFAULT_WINDOW_RADIUS_M, J_MAX)
        for i in (1, 2, 4, J_MAX):
            expected = quad_log_moment(s, alpha, inner, DEFAULT_WINDOW_RADIUS_M, i)
            assert lam[i - 1] == pytest.approx(expected, rel=1e-9, abs=0.0), i

    @pytest.mark.parametrize("inner", INNER_RADII)
    @pytest.mark.parametrize("alpha", [FAR_ALPHA_MIN, 2.5, 4.0, 5.0, 10.0])
    @pytest.mark.parametrize("z", [1e-14, 1e-10, 1e-6, 1e-3, 0.1, 3.0, 100.0, FAR_Z_MAX])
    def test_match_quadrature_up_to_a_server_at_the_near_edge(self, alpha, z, inner):
        # z = s R^-alpha reaches target_sir * (P_macro / P_small) when the server sits near R,
        # and falls below 1e-10 when it sits far inside R;
        # beyond FAR_ALPHA_MIN and FAR_Z_MAX the replication samples the whole window instead
        s = z * inner**alpha
        lam = far_log_moments((s,), (1.0,), alpha, inner, DEFAULT_WINDOW_RADIUS_M, J_MAX)
        for i in (1, 2, 4, J_MAX):
            expected = quad_log_moment(s, alpha, inner, DEFAULT_WINDOW_RADIUS_M, i)
            assert lam[i - 1] == pytest.approx(expected, rel=1e-9, abs=0.0), i

    @pytest.mark.parametrize("inner", INNER_RADII)
    @pytest.mark.parametrize("alpha", [FAR_ALPHA_MIN, 2.5, 4.0, 10.0])
    def test_match_quadrature_per_tier_and_replication(self, alpha, inner):
        """One inner radius per tier and replication: each tier's far field
        starts at its own near radius, and at the window's edge it is empty.
        Each replication's row is held to quadrature, tier by tier, up to
        FAR_Z_MAX at the inner radius."""
        outer = DEFAULT_WINDOW_RADIUS_M
        weights = (1.0, 0.5)
        radii = np.array(
            [[1.2 * inner, 9000.0, 15_000.0, 19_500.0, outer], [inner, 12_000.0, 7000.0, outer, 8000.0]]
        )
        z = np.array([[1e-6, 3.0, FAR_Z_MAX, 100.0, 1.0], [FAR_Z_MAX, 1e-3, 0.1, 5.0, 10.0]])
        scales = z * radii**alpha
        lam = far_log_moments(tuple(scales), weights, alpha, radii, outer, J_MAX)
        assert lam.shape == (radii.shape[1], J_MAX)
        for k in range(radii.shape[1]):
            for i in (1, 2, 4, J_MAX):
                expected = sum(
                    w * quad_log_moment(s, alpha, r, outer, i) if r < outer else 0.0
                    for w, s, r in zip(weights, scales[:, k], radii[:, k])
                )
                assert lam[k, i - 1] == pytest.approx(expected, rel=1e-9, abs=0.0), (k, i)

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
        assert np.array_equal(far_z_moments([0.0] * J_MAX), np.zeros(J_MAX))

    @pytest.mark.parametrize("m", range(1, J_MAX + 2))
    def test_equals_the_row_by_row_loop(self, m):
        """All rows at once are the row-by-row compensated loop, bit for bit:
        concave and linear rows, Lambda_1 from 1e-9 to 10, half of them
        rescaled so that a middle Lambda_i sits near log 2."""
        rng = np.random.default_rng(1000 + m)
        concave = far_log_moments((1e11, 1e10), (1.0, 1.0), 4.0, 5000.0, 20_000.0, m)
        shapes = np.where(rng.random((120, 1)) < 0.5, concave / concave[0], np.arange(1.0, m + 1))
        lam = shapes * 10.0 ** rng.uniform(-9.0, 1.0, (120, 1))
        lam[::2] *= LOG_2 * rng.uniform(0.8, 1.25, (60, 1)) / lam[::2, m // 2 : m // 2 + 1]
        if m > 1:
            assert ((lam[:, 0] <= LOG_2) & (lam[:, -1] > LOG_2)).sum() > 10
        assert np.array_equal(far_z_moments(lam), z_moments_by_row(lam))
        for row in lam[:8]:
            assert np.array_equal(far_z_moments(row), z_moments_by_row(row))


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

    @pytest.mark.parametrize("m", range(1, J_MAX + 1))
    def test_far_path_matches_the_exact_binomial_expansion(self, m):
        """The recurrence is ``E[(1 - q Q)^k] = sum_j C(k, j) (1 - q)^(k-j) q^j
        E[Z^j]`` to 1e-13 relative, for q from about 1e-14 to nearly 1. At unit
        signal and target the rival alone sets ``-log q = log1p(rival)``."""
        rng = np.random.default_rng(2000 + m)
        n = 40
        rival = np.expm1(np.geomspace(1e-12, 32.0, n))
        concave = far_log_moments((1e11, 1e10), (1.0, 1.0), 4.0, 5000.0, 20_000.0, m)
        shapes = np.where(rng.random((n, 1)) < 0.5, concave / concave[0], np.arange(1.0, m + 1))
        far = shapes * 10.0 ** rng.uniform(-8.0, 0.7, (n, 1))
        z = far_z_moments(far)
        attempts, outage = simulator._downlink(np.ones(n), rival, [], 1.0, m, z)
        minus_log_q = np.log1p(rival)
        miss, q = -np.expm1(-minus_log_q), np.exp(-minus_log_q)
        for k in range(n):
            exact_attempts, exact_outage = exact_far_downlink(miss[k], q[k], z[k])
            assert attempts[k] == pytest.approx(float(exact_attempts), rel=1e-13, abs=0.0), k
            assert outage[k] == pytest.approx(float(exact_outage), rel=1e-13, abs=0.0), k

    def test_far_moments_need_one_per_attempt_up_to_j_max(self):
        macro = point_set_from_xy([(100.0, 0.0)], Tier.MACRO)
        gains = (_gains(macro.r, 20.0, 4.0), np.empty(0))
        for m, far in ((4, [0.0] * 3), (J_MAX + 1, [0.0] * (J_MAX + 1))):
            with pytest.raises(InvalidParameterError):
                downlink_delay(Tier.MACRO, 0, *gains, GAMMA_3DB, 0.1, m, far)


def replay_nearest(params, rng):
    """Per tier (macro, then small cells), the nearest distance that a batch
    of one draws, the formula written out: a uniform level ``U``, then ``r =
    sqrt(-log(1 - U) / (pi lambda))``, kept even beyond the window."""
    closest = []
    for lam in (params.lambda_mc, params.lambda_sc):
        assert rng.permutation(1).tolist() == [0]  # a stratum of one: the level is the uniform draw
        closest.append(float(np.sqrt(-np.log1p(-rng.random(1)) / (math.pi * lam))[0]))
    return closest


def replay_interferers(params, rng, closest, radii):
    """Per tier, the interferers that a batch of one draws next: a Poisson
    count of points on ``r_t < |x| < R_t`` with uniform squared radii."""
    interferers = []
    for lam, r, radius in zip((params.lambda_mc, params.lambda_sc), closest, radii):
        start = np.minimum([r], radius) ** 2
        count = rng.poisson(lam * math.pi * (radius**2 - start))
        interferers.append(np.sqrt(start + (radius**2 - start) * rng.random(int(count[0]))))
    return interferers


def point_set(radii, tier):
    """A tier's points at the given distances; the SIR reads no angle."""
    r = np.concatenate(radii)
    return PointSet(r, np.zeros_like(r), tier)


def link(tier, macro, small, params, far=None):
    """(attempts, outage, downlink, backhaul mean) of the kernel on one point set.

    ``far``, if given, holds the far log-moments of the serving tier. The
    backhaul mean takes the router distance's mean on the plane,
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
        tier, index, *gains, radio.target_sir, params.slot_ms, params.max_attempts, far
    )
    router_distance = 1.0 / (2.0 * math.sqrt(params.lambda_cr))
    backhaul = params.backhaul_beta * router_distance * (intensity / params.lambda_cr)
    return attempts, outage, downlink, backhaul


def whole_window(params):
    """Whether a config samples every point of its window: the far moments'
    closed form is not checked for its ``max_attempts`` or pathloss exponent."""
    return params.max_attempts > J_MAX or params.radio.pathloss_exponent < FAR_ALPHA_MIN


def near_radii(closest, params, radius):
    """Each tier's near radius ``R_t``, one row per tier (macro, small cells):
    the window's edge for a whole-window config, else ``min(max(r_t,
    fence_t), radius)``. The fence is the least radius with ``z_t =
    target_sir g_t(R) / g_s(r_s) <= FAR_Z_MAX`` for both serving tiers
    ``s``, so it is set by the weaker serving gain."""
    closest = np.asarray(closest, dtype=float).reshape(2, -1)
    if whole_window(params):
        return np.full_like(closest, radius)
    radio = params.radio
    powers = np.array([[radio.power_macro], [radio.power_small]])
    weakest = _gains(closest, powers, radio.pathloss_exponent).min(axis=0)
    fence = (radio.target_sir * powers / (FAR_Z_MAX * weakest)) ** (1.0 / radio.pathloss_exponent)
    return np.minimum(np.maximum(closest, fence), radius)


def pushed(closest, radii, params):
    """Per tier and replication, whether the fence pushes ``R_t`` past ``r_t``, so that points are sampled."""
    if whole_window(params):
        return np.zeros(radii.shape, dtype=bool)
    return radii > np.reshape(closest, radii.shape)


def far_row(closest, radii, own, params, radius):
    """The far log-moments of serving tier ``own`` in a batch of one, as the
    kernel computes them, or None for a whole-window config."""
    if whole_window(params):
        return None
    radio = params.radio
    powers = (radio.power_macro, radio.power_small)
    scale = radio.target_sir / _gains(np.array(closest[own : own + 1]), powers[own], radio.pathloss_exponent)
    lambdas = (params.lambda_mc, params.lambda_sc)
    moments = far_log_moments(
        [scale * power for power in powers], lambdas, radio.pathloss_exponent, radii, radius, params.max_attempts
    )
    return moments[0]


MIXPOP = SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45))
EDGE_CASES = {
    # sparse macro cells: the nearest one, drawn first, lies kilometres out and starts the macro
    # far field; its weak gain pushes the small cells' fence past their nearest point at times
    "sparse-serving-tier": (DelayParams(lambda_mc=2e-8), [MacroUser()]),
    # so few macro cells that the whole window often holds none: the nearest one is kept beyond
    # the window, and its far field is empty; its weak gain pushes the small cells' fence out
    "tier-beyond-window": (DelayParams(lambda_mc=1e-10), [MIXPOP]),
    # few routers and far-flung small cells: routers are averaged out on the plane, not sampled,
    # so however sparse they move no near radius; the small cells' weak gain pushes the macro
    # fence out at times
    "router-beyond": (DelayParams(lambda_cr=5e-8, lambda_sc=1e-7), [MIXPOP]),
    # too many attempts for the expansion: every replication samples the whole window
    "attempts-above-j-max": (DelayParams(max_attempts=J_MAX + 1), [MacroUser(), MIXPOP]),
    # a pathloss exponent below the checked domain of the closed form: the whole window too
    "pathloss-near-two": (DelayParams(radio=RadioParams(pathloss_exponent=2.05)), [MacroUser()]),
    # an 80 dB SIR target, above FAR_Z_MAX: the fence pushes both tiers' near radii out in every replication
    "argument-above-z-max": (DelayParams(radio=RadioParams(target_sir=1e8)), [MIXPOP]),
    # sparse tiers at a 40 dB SIR target, FAR_Z_MAX itself: the fence pushes the stronger serving
    # tier's near radius out and leaves the weaker one's at its nearest point, and which tier is
    # stronger varies from one replication of a batch to the next
    "mixed": (
        DelayParams(lambda_mc=2e-8, lambda_sc=3e-8, radio=RadioParams(target_sir=1e4)),
        [MacroUser(), MIXPOP],
    ),
}
WHOLE_WINDOW = ("attempts-above-j-max", "pathloss-near-two")
ALL_PUSHED = ("argument-above-z-max",)  # the fence pushes every near radius out


def replay(params, seed, rep, window):
    """The nearest distances, near radii and interferers that replication
    ``rep`` of a batch of one draws, and the generator it should leave."""
    g = replication_rng(seed, rep)
    closest = replay_nearest(params, g)
    radii = near_radii(closest, params, window.radius)
    return closest, radii, replay_interferers(params, g, closest, radii[:, 0]), g


@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_replication_replays_the_kernel_on_its_near_radii(case):
    """Every replication runs the kernel, for every serving tier, on each
    tier's nearest point and its interferers, one PPP on ``(r_t, R_t)``,
    with the far field from ``R_t`` to the window's edge averaged out; it
    equals ``downlink_delay`` on those point sets and that far field,
    compared with ==. A whole-window config has ``R_t = W`` and no far field."""
    params, scenarios = EDGE_CASES[case]
    cache = CacheConfig()
    cells = [Cell(scenario, params, cache) for scenario in scenarios]
    window = Window(DEFAULT_WINDOW_RADIUS_M)
    tiers = (Tier.MACRO, Tier.SMALL_CELL)
    serving_tiers = [Tier.MACRO if isinstance(s, MacroUser) else Tier.SMALL_CELL for s in scenarios]
    moved, outside = [], 0
    for rep in range(40):
        closest, radii, interferers, replayed = replay(params, 71, rep, window)
        g = replication_rng(71, rep)
        samples = run_replication(cells, params, window, g)
        assert g.bit_generator.state == replayed.bit_generator.state, rep
        moved.append(pushed(closest, radii, params)[:, 0])
        outside += closest[0] > window.radius
        near = [point_set(([r], i), tier) for r, i, tier in zip(closest, interferers, tiers)]
        for scenario, tier, sample in zip(scenarios, serving_tiers, samples):
            far = far_row(closest, radii, tiers.index(tier), params, window.radius)
            attempts, outage, downlink, backhaul = link(tier, *near, params, far)
            hit = 0.0
            if scenario == MIXPOP:
                hit = hit_probability(CachePolicy.MIX_POP, cache, 1.45, B3Variant.INTEGRAL_CONSISTENT)
            tail = hit * params.cache_read_mean_ms + (1.0 - hit) * backhaul
            assert sample == DelaySample(downlink, tail, attempts, outage, hit), rep
    moved = np.array(moved)  # (replication, tier)
    if case in WHOLE_WINDOW:
        assert not moved.any()
    elif case in ALL_PUSHED:
        assert moved.all()
    else:
        assert 3 <= moved.sum() <= moved.size - 3  # pushed and unpushed near radii both occur
    if case == "tier-beyond-window":
        assert outside >= 3  # a macro server beyond the window: its far field is empty


@pytest.mark.parametrize("case", ["mixed", "argument-above-z-max"])
def test_near_radii_keep_the_far_field_in_the_checked_domain(case):
    """Each tier's far field starts where ``z_t = target_sir g_t(R_t) /
    g_s(r_s)`` is at most ``FAR_Z_MAX`` for both serving tiers ``s``, and
    equals it, to rounding, where the fence sets ``R_t``. A far field pushed
    to the window's edge is empty and needs no bound. ``run_replication``
    reads exactly the replayed draws."""
    params, scenarios = EDGE_CASES[case]
    cells = [Cell(scenario, params, CacheConfig()) for scenario in scenarios]
    window = Window(DEFAULT_WINDOW_RADIUS_M)
    radio = params.radio
    powers = (radio.power_macro, radio.power_small)
    alpha = radio.pathloss_exponent
    bound = 0
    for rep in range(40):
        closest, radii, _, replayed = replay(params, 71, rep, window)
        g = replication_rng(71, rep)
        run_replication(cells, params, window, g)
        assert g.bit_generator.state == replayed.bit_generator.state, rep
        moved = pushed(closest, radii, params)[:, 0]
        for t, (radius, power) in enumerate(zip(radii[:, 0], powers)):
            if radius == window.radius:
                continue
            z = max(radio.target_sir * power * radius**-alpha / (p * r**-alpha) for p, r in zip(powers, closest))
            assert z <= FAR_Z_MAX * (1.0 + 1e-12), (rep, t)
            if moved[t]:
                assert z == pytest.approx(FAR_Z_MAX, rel=1e-12), (rep, t)
                bound += 1
    assert bound >= 3


def paired_attempts(cells, params, window, seed, batches, monkeypatch):
    """Attempts of every cell and replication, averaged out and with the
    whole window sampled (``J_MAX`` = 0) on the same nearest draws, and the
    tiers' nearest distances."""
    averaged, sampled, closest = [], [], []
    for batch in range(batches):
        g = Recorder(replication_rng(seed, batch))
        averaged.append(_simulate(cells, params, window, g, BATCH_SIZE)[:, 2])
        lambdas = (params.lambda_mc, params.lambda_sc)
        closest.append([nearest_distance(lam, levels(g.log, t, BATCH_SIZE)) for t, lam in enumerate(lambdas)])
        with monkeypatch.context() as patch:
            patch.setattr(simulator, "J_MAX", 0)  # every replication samples the whole window
            sampled.append(_simulate(cells, params, window, replication_rng(seed, batch), BATCH_SIZE)[:, 2])
    return np.concatenate(averaged, axis=1), np.concatenate(sampled, axis=1), np.concatenate(closest, axis=1)


def assert_same_mean(averaged, sampled):
    """The paired differences of every cell's attempts are within 4 SE of 0."""
    for attempts in averaged - sampled:
        se = attempts.std(ddof=1) / math.sqrt(attempts.size)
        assert abs(attempts.mean()) < 4 * se, (attempts.mean(), se)


def test_far_field_from_the_nearest_points_is_the_sampled_window_mean(monkeypatch):
    """Where the fence moves no near radius, each tier's far field starts at
    its nearest point and no other point is sampled. Averaged out, it must
    equal on average the same replications with the whole window sampled
    point by point: the nearest distances are drawn first, so both runs
    share them."""
    # sparse tiers: nearest points kilometres out, and downlinks far from saturation
    params = DelayParams(lambda_mc=2e-8, lambda_sc=3e-8)
    scenarios = (MacroUser(), SmallUser(policy=CachePolicy.NO_CACHE))
    cells = [Cell(scenario, params, CacheConfig()) for scenario in scenarios]
    window = Window(DEFAULT_WINDOW_RADIUS_M)
    averaged, sampled, closest = paired_attempts(cells, params, window, 83, 40, monkeypatch)
    unmoved = ~pushed(closest, near_radii(closest, params, window.radius), params).any(axis=0)
    assert unmoved.sum() > 300
    assert_same_mean(averaged[:, unmoved], sampled[:, unmoved])


def test_far_field_beyond_pushed_near_radii_is_the_sampled_window_mean(monkeypatch):
    """At a 40 dB target over sparse tiers the fence pushes the stronger
    serving tier's near radius out in every replication. Averaged out from
    each tier's near radius, the estimates must equal on average the whole
    window sampled point by point on the same nearest draws. Most
    small-cell downlinks there are in outage, equal in both runs, so the
    comparison runs over all replications."""
    params, _ = EDGE_CASES["mixed"]
    scenarios = (MacroUser(), SmallUser(policy=CachePolicy.NO_CACHE))
    cells = [Cell(scenario, params, CacheConfig()) for scenario in scenarios]
    window = Window(DEFAULT_WINDOW_RADIUS_M)
    averaged, sampled, closest = paired_attempts(cells, params, window, 89, 60, monkeypatch)
    moved = pushed(closest, near_radii(closest, params, window.radius), params).any(axis=0)
    assert moved.sum() > 1000
    assert_same_mean(averaged, sampled)


def test_five_km_window_averaged_out_is_the_sampled_window_mean(monkeypatch):
    """A 5 km window runs the same far-field path as a 20 km one. At the
    default parameters its estimates must equal on average the whole window
    sampled point by point on the same nearest draws."""
    params = DelayParams()
    scenarios = (MacroUser(), SmallUser(policy=CachePolicy.NO_CACHE))
    cells = [Cell(scenario, params, CacheConfig()) for scenario in scenarios]
    averaged, sampled, _ = paired_attempts(cells, params, Window(5000.0), 91, 40, monkeypatch)
    assert_same_mean(averaged, sampled)


def pinned_cells():
    """A macro, a no-cache and a MixPop cell at the default parameters."""
    params = DelayParams()
    cache = CacheConfig()
    return [
        Cell(MacroUser(), params, cache),
        Cell(SmallUser(policy=CachePolicy.NO_CACHE), params, cache),
        Cell(MIXPOP, params, cache),
    ]


def test_far_field_estimates_at_5_km():
    """At a 5 km window every replication averages out each tier's points
    beyond its near radius, as at 20 km. These are its estimates, compared
    with ==. They were recorded on the batch streams, which hold both tiers'
    stratified nearest distances and then each tier's other points;
    ``test_batch`` holds every replication of such a batch to the same
    replication run alone on its share of the stream. The intervals are
    batch means over five batches, the last of 44 replications. The MixPop
    hit is the integral closed form, its catalogue ending at 1 + f0."""
    got = estimate(pinned_cells(), Window(5000.0), 300, 2026, workers=1)
    recorded = [
        (1.1254757968613829, 1.1214168175774137, 1.129534776145352, 0.49659791398933295, 0.0),
        (1.4340172128116033, 1.4306857821687073, 1.4373486434544993, 0.7792268844465576, 0.0),
        (0.6745695810214121, 0.6712381503785159, 0.6779010116643083, 0.7792268844465576, 0.7053953719159934),
    ]
    for est, (mean, low, high, outage, hit) in zip(got, recorded):
        assert (est.mean_ms, est.ci_low_ms, est.ci_high_ms, est.outage_rate, est.hit_rate) == (
            mean, low, high, outage, hit
        )
        assert est.replications == 300


def test_far_field_estimates_at_20_km():
    """The same cells in a 20 km window. Mean, interval ends and outage are
    held to 1e-13 relative and the hit, which reads no geometry, with ==."""
    got = estimate(pinned_cells(), Window(20_000.0), 300, 2026, workers=1)
    recorded = [
        (1.1256928326045659, 1.121615289898557, 1.1297703753105748, 0.49751299957132633, 0.0),
        (1.434116282778883, 1.430772338333333, 1.4374602272244328, 0.7796518255969361, 0.0),
        (0.6746686509886917, 0.6713247065431417, 0.6780125954342416, 0.7796518255969361, 0.7053953719159934),
    ]
    for est, (mean, low, high, outage, hit) in zip(got, recorded):
        got_values = (est.mean_ms, est.ci_low_ms, est.ci_high_ms, est.outage_rate)
        np.testing.assert_allclose(got_values, (mean, low, high, outage), rtol=1e-13)
        assert est.hit_rate == hit
        assert est.replications == 300
