"""The far field beyond each tier's nearest point, averaged out on the plane by its PGFL.

``simulator.far_log_moments`` is held to quadrature and to 40-digit
hypergeometric values, and ``simulator.far_z_moments`` to 50-digit
arithmetic and to its row-by-row loop; the kernel's far path is held to the
exact binomial expansion, and ``downlink_delay`` fed with them to annuli
sampled point by point with the plane beyond averaged out; every
replication of ``run_replication`` is held, on a replayed stream, to the
kernel run on each tier's nearest point with the plane beyond averaged out,
for every serving tier, or, in a whole-window config, on the window's
points; and the averaged-out estimates are held to the window sampled point
by point on the same nearest draws, the plane beyond it averaged out.
Routers are never sampled, so they move no far field.
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
from far_reference import exact_far_downlink, z_moments_by_row
from model_helpers import point_set_from_xy
from stream_script import Recorder, levels

GAMMA_3DB = 10.0 ** 0.3


X_CUT = 1e-7


def quad_annulus_moment(s, alpha, inner, outer, i):
    """``2 pi int (1 - (1 + s r^-alpha)^-i) r dr`` from ``inner`` to ``outer``, at unit intensity.

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


def quad_log_moment(s, alpha, inner, i):
    """``2 pi int (1 - (1 + s r^-alpha)^-i) r dr`` from ``inner`` to infinity, at unit intensity.

    Quadrature runs out to where ``x = s r^-alpha`` falls to ``X_CUT``.
    Beyond, ``1 - (1 + x)^-i = i x - i (i + 1) x^2 / 2`` up to a relative
    ``X_CUT^2``, and both terms integrate in closed form: ``r^2 x / (alpha -
    2)`` and ``r^2 x^2 / (2 alpha - 2)``."""
    cut = max(math.log(inner), (math.log(s) - math.log(X_CUT)) / alpha)
    r2, x = math.exp(2.0 * cut), s * math.exp(-alpha * cut)
    tail = i * x * r2 / (alpha - 2.0) - i * (i + 1) / 2 * x * x * r2 / (2.0 * alpha - 2.0)
    return quad_annulus_moment(s, alpha, inner, math.exp(cut), i) + 2 * math.pi * tail


def mp_log_moment(s, alpha, inner, i):
    """``pi r^2 (2F1(i, -d; 1 - d; -z) - 1)`` at ``r = inner``, ``z = s r^-alpha`` and ``d =
    2/alpha``, in 40-digit arithmetic on the exact values of the float arguments."""
    with mpmath.workdps(40):
        r, a = mpmath.mpf(inner), mpmath.mpf(alpha)
        d = 2 / a
        return float(mpmath.pi * r**2 * (mpmath.hyp2f1(i, -d, 1 - d, -mpmath.mpf(s) * r**-a) - 1))


# a tier's far field starts at its nearest point, metres out or kilometres, up to the edge of a 5 km window
INNER_RADII = [1.0, 10.0, 100.0, 2000.0, 4900.0, 4999.0, 5000.0]
# a window sampled point by point ends at its radius, and the plane beyond is averaged out from there
WINDOWS = [5000.0, DEFAULT_WINDOW_RADIUS_M]


class TestLogMoments:
    @pytest.mark.parametrize("inner", INNER_RADII)
    @pytest.mark.parametrize("alpha", [4.0, 3.2])
    @pytest.mark.parametrize("s", np.geomspace(3e9, 1e12, 7).tolist())
    def test_match_quadrature(self, alpha, s, inner):
        lam = far_log_moments((s,), (1.0,), alpha, inner, J_MAX)
        for i in (1, 2, 4, J_MAX):
            expected = quad_log_moment(s, alpha, inner, i)
            assert lam[i - 1] == pytest.approx(expected, rel=1e-9, abs=0.0), i

    @pytest.mark.parametrize("outer", WINDOWS)
    @pytest.mark.parametrize("inner", INNER_RADII)
    @pytest.mark.parametrize("alpha", [2.1, 2.5, 4.0, 5.0, 10.0])
    @pytest.mark.parametrize(
        ("z", "end"),
        [(z, "inner") for z in (1e-14, 1e-10, 1e-6, 1e-3, 0.1, 3.0, 100.0, 1e4, 1e8, 1e14)]
        + [(z, "outer") for z in (1.0001, 1.5, 10.0, 1e4, 1e8, 1e14)],
    )
    def test_match_quadrature_up_to_a_server_at_the_near_edge(self, alpha, z, end, inner, outer):
        """The plane beyond ``inner`` is the annulus out to a window's edge
        ``outer`` plus the plane beyond that edge, each to 1e-9 of quadrature:
        the split on which a window sampled point by point, with the plane
        beyond it averaged out, rests. ``z = s R^-alpha`` at the inner radius
        reaches ``target_sir * (P_macro / P_small)`` when the server sits near
        it, far more when it is a nearer interferer, and falls below 1e-10 when
        the server sits far inside it; ``z`` above 1 at the window's edge is a
        server near that edge at a high SIR target, where the plane beyond
        starts in the server's saturated zone."""
        s = z * (inner if end == "inner" else outer) ** alpha
        plane = far_log_moments((s,), (1.0,), alpha, inner, J_MAX)
        beyond = far_log_moments((s,), (1.0,), alpha, outer, J_MAX)
        for i in (1, 2, 4, J_MAX):
            assert beyond[i - 1] == pytest.approx(quad_log_moment(s, alpha, outer, i), rel=1e-9, abs=0.0), i
            annulus = quad_annulus_moment(s, alpha, inner, outer, i)
            assert plane[i - 1] == pytest.approx(annulus + beyond[i - 1], rel=1e-9, abs=0.0), i

    @pytest.mark.parametrize("inner", INNER_RADII)
    @pytest.mark.parametrize("alpha", [2.001, 2.01, 2.05, 2.1, 2.5, 4.0])
    @pytest.mark.parametrize("z", [1e-14, 1e-10, 1e-6, 1e-3, 0.1, 1.0, 3.0, 100.0, 1e4, 1e8, 1e14])
    def test_match_the_40_digit_hypergeometric_form(self, alpha, z, inner):
        """Every log-moment to 1e-14 relative, for pathloss exponents down to
        just above 2: on the plane no end is subtracted, so nothing cancels.
        ``z = s r^-alpha`` at the inner radius reaches ``target_sir * (P_macro
        / P_small)`` when the server sits near it, far more when it is a
        nearer interferer, and falls below 1e-10 when the server sits far
        inside it."""
        s = z * inner**alpha
        lam = far_log_moments((s,), (1.0,), alpha, inner, J_MAX)
        expected = [mp_log_moment(s, alpha, inner, i) for i in range(1, J_MAX + 1)]
        np.testing.assert_allclose(lam, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("inner", INNER_RADII)
    @pytest.mark.parametrize("alpha", [2.001, 2.5, 4.0, 10.0])
    def test_match_per_tier_and_replication(self, alpha, inner):
        """One inner radius per tier and replication: each tier's far field
        starts at its own nearest point. Each replication's row is held to the
        hypergeometric form, tier by tier, up to z = 1e14 at the inner radius."""
        weights = (1.0, 0.5)
        radii = np.array(
            [[1.2 * inner, 9000.0, 15_000.0, 19_500.0, 20_000.0], [inner, 12_000.0, 7000.0, 3.0, 8000.0]]
        )
        z = np.array([[1e-6, 3.0, 1e14, 100.0, 1.0], [1e8, 1e-3, 0.1, 5.0, 10.0]])
        scales = z * radii**alpha
        lam = far_log_moments(tuple(scales), weights, alpha, radii, J_MAX)
        assert lam.shape == (radii.shape[1], J_MAX)
        for k in range(radii.shape[1]):
            expected = [
                sum(w * mp_log_moment(s, alpha, r, i) for w, s, r in zip(weights, scales[:, k], radii[:, k]))
                for i in range(1, J_MAX + 1)
            ]
            np.testing.assert_allclose(lam[k], expected, rtol=1e-14, atol=0.0, err_msg=str(k))

    def test_tiers_add(self):
        both = far_log_moments((1e10, 1e9), (2.8e-6, 3.6e-6), 4.0, 5000.0, 4)
        macro = far_log_moments((1e10,), (2.8e-6,), 4.0, 5000.0, 4)
        small = far_log_moments((1e9,), (3.6e-6,), 4.0, 5000.0, 4)
        np.testing.assert_allclose(both, np.add(macro, small), rtol=1e-14)

    def test_alpha_4_first_moment_has_arctan_form(self):
        # at alpha = 4, i = 1 the integral to infinity is pi sqrt(s) (pi/2 - atan(R^2 / sqrt(s)))
        s, inner = 4e10, 5000.0
        lam = far_log_moments((s,), (1.0,), 4.0, inner, 1)
        expected = math.pi * math.sqrt(s) * (math.pi / 2 - math.atan(inner * inner / math.sqrt(s)))
        assert lam[0] == pytest.approx(expected, rel=1e-14)


def mp_z_moments(lam):
    """The alternating sum in 50-digit arithmetic at the float ``Lambda_i``, clamped at 0: the
    rounding of ``Lambda_i`` alone can take the sum below 0, where no ``Z`` in [0, 1] has a moment."""
    with mpmath.workdps(50):
        excess = [mpmath.expm1(-mpmath.mpf(v)) for v in lam]  # E[Q^i] - 1
        return [
            max(0.0, float(sum((-1) ** i * math.comb(j, i) * excess[i - 1] for i in range(1, j + 1))))
            for j in range(1, len(lam) + 1)
        ]


def concave_and_linear_rows(rng, n, m):
    """``n`` rows of M = ``m`` log-moments, each concave (a plane far field from 5 km) or linear
    (a fixed Q) at random, ``Lambda_1`` log-uniform from 1e-9 to 10."""
    concave = far_log_moments((1e11, 1e10), (1.0, 1.0), 4.0, 5000.0, m)
    shapes = np.where(rng.random((n, 1)) < 0.5, concave / concave[0], np.arange(1.0, m + 1))
    return shapes * 10.0 ** rng.uniform(-9.0, 1.0, (n, 1))


class TestZMoments:
    @pytest.mark.parametrize("shape", ["deterministic", "pgfl"])
    @pytest.mark.parametrize("scale", np.geomspace(1e-8, 5.0, 12).tolist())
    def test_match_50_digit_arithmetic(self, shape, scale):
        """Lambda_i of a fixed Q (linear in i) and of a plane far field (concave),
        scaled so that Lambda_1 runs from 1e-8 to 5."""
        if shape == "deterministic":
            lam = [scale * i for i in range(1, J_MAX + 1)]
        else:
            unit = far_log_moments((1e11, 1e10), (1.0, 1.0), 4.0, 5000.0, J_MAX)
            lam = [scale * v / unit[0] for v in unit]
        got = far_z_moments(lam)
        for j, (value, exact) in enumerate(zip(got, mp_z_moments(lam)), 1):
            assert abs(value - exact) < 1e-14, j

    def test_random_rows_match_50_digit_arithmetic(self):
        lam = concave_and_linear_rows(np.random.default_rng(7), 600, J_MAX)
        got = far_z_moments(lam)
        for row, values in zip(lam, got):
            assert np.abs(values - mp_z_moments(row)).max() < 2.5e-14, row[0]

    def test_empty_annulus_has_no_moments(self):
        assert np.array_equal(far_z_moments([0.0] * J_MAX), np.zeros(J_MAX))

    def test_moments_are_never_negative(self):
        """On a plane far field at Lambda_1 = 1.06e-3 the alternating sum of E[Z^6] and E[Z^7]
        rounds to about -5e-18, and with it the outage at unit signal and no rival."""
        unit = far_log_moments((1e11, 1e10), (1.0, 1.0), 4.0, 5000.0, 7)
        z = far_z_moments(1.06e-3 * unit / unit[0])
        assert (z >= 0.0).all(), z
        attempts, outage = simulator._downlink(np.ones(1), np.zeros(1), [], 1.0, 7, z[None])
        assert 0.0 <= outage[0] <= 1.0 and 1.0 <= attempts[0] <= 7.0

    @pytest.mark.parametrize("m", range(1, J_MAX + 2))
    def test_equals_the_row_by_row_loop(self, m):
        """All rows at once are the row-by-row loop, bit for bit: concave and
        linear rows, Lambda_1 from 1e-9 to 10."""
        lam = concave_and_linear_rows(np.random.default_rng(1000 + m), 120, m)
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
        scales = (scale * radio.power_macro, scale * radio.power_small)
        lambdas = (params.lambda_mc, params.lambda_sc)
        m = params.max_attempts
        far = far_log_moments(scales, lambdas, alpha, inner, m)  # the plane beyond the inner radius
        attempts, outage, _ = downlink_delay(
            serving_tier, 0, macro_gains, small_gains, radio.target_sir, 0.1, m, far
        )

        near_minus_log_q = sum(
            math.log1p(radio.target_sir * g / serving_gain)
            for g in [*macro_gains, *small_gains]
            if g != serving_gain
        )
        far_minus_log_q = materialised_annuli(
            serving_gain, params, inner, outer, annuli, np.random.default_rng(500 + geometry)
        )
        # the annulus sampled, the plane beyond it averaged out: at unit signal and target the rival
        # alone sets -log q
        beyond = far_z_moments(far_log_moments(scales, lambdas, alpha, outer, m))
        rival = np.expm1(near_minus_log_q + far_minus_log_q)
        sampled_attempts, sampled_outage = simulator._downlink(
            np.ones(annuli), rival, [], 1.0, m, np.tile(beyond, (annuli, 1))
        )
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
        signal and target the rival alone sets ``-log q = log1p(rival)``. The
        concave rows are the log-moments of the 5-20 km annulus: the plane
        from 5 km less the plane from 20 km."""
        rng = np.random.default_rng(2000 + m)
        n = 40
        rival = np.expm1(np.geomspace(1e-12, 32.0, n))
        scales, lambdas = (1e11, 1e10), (1.0, 1.0)
        concave = far_log_moments(scales, lambdas, 4.0, 5000.0, m) - far_log_moments(
            scales, lambdas, 4.0, 20_000.0, m
        )
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
    of one draws, the formula written out: the lattice of one point has its
    shift, two uniforms, as the levels ``U``, then ``r = sqrt(-log(1 - U) /
    (pi lambda))``, wherever it falls."""
    shift = rng.random(2)
    return [
        float(np.sqrt(-np.log1p(-shift[t : t + 1]) / (math.pi * lam))[0])
        for t, lam in enumerate((params.lambda_mc, params.lambda_sc))
    ]


def replay_interferers(params, rng, closest, radius):
    """Per tier, the interferers that a whole-window batch of one draws next:
    a Poisson count of points on ``r_t < |x| < radius`` with uniform squared
    radii."""
    interferers = []
    for lam, r in zip((params.lambda_mc, params.lambda_sc), closest):
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
    closed form is not checked for its ``max_attempts``."""
    return params.max_attempts > J_MAX


def far_moments(closest, inner, own, params, m):
    """The far log-moments of serving tier ``own``, one row per replication:
    ``closest`` holds each tier's nearest distances, one row per tier, and
    ``inner`` where each tier's averaged-out field starts."""
    radio = params.radio
    powers = (radio.power_macro, radio.power_small)
    scale = radio.target_sir / _gains(closest[own], powers[own], radio.pathloss_exponent)
    lambdas = (params.lambda_mc, params.lambda_sc)
    return far_log_moments([scale * power for power in powers], lambdas, radio.pathloss_exponent, inner, m)


def far_row(closest, own, params):
    """The far log-moments of serving tier ``own`` in a batch of one, the
    plane beyond each tier's nearest point, as the kernel computes them, or
    None for a whole-window config."""
    if whole_window(params):
        return None
    column = np.reshape(closest, (2, 1))
    return far_moments(column, column, own, params, params.max_attempts)[0]


MIXPOP = SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45))
EDGE_CASES = {
    # sparse macro cells: the nearest one, drawn first, lies kilometres out and starts the macro
    # far field
    "sparse-serving-tier": (DelayParams(lambda_mc=2e-8), [MacroUser()]),
    # so few macro cells that the nearest one mostly lies beyond a 20 km window, which an averaged
    # config does not read: its far field starts there all the same
    "tier-beyond-window": (DelayParams(lambda_mc=1e-10), [MIXPOP]),
    # few routers and far-flung small cells: routers are averaged out on the plane, not sampled,
    # so however sparse they move no far field
    "router-beyond": (DelayParams(lambda_cr=5e-8, lambda_sc=1e-7), [MIXPOP]),
    # too many attempts for the expansion: every replication samples the whole window
    "attempts-above-j-max": (DelayParams(max_attempts=J_MAX + 1), [MacroUser(), MIXPOP]),
    # a pathloss exponent near 2: the far field's excess decays slowest, and nothing cancels
    "pathloss-near-two": (DelayParams(radio=RadioParams(pathloss_exponent=2.05)), [MacroUser()]),
    # an 80 dB SIR target: the serving tier's far field starts at z = 1e8
    "sir-target-80-db": (DelayParams(radio=RadioParams(target_sir=1e8)), [MIXPOP]),
    # sparse tiers at a 40 dB SIR target: z spans decades within a batch, and which serving tier
    # is stronger varies from one replication to the next
    "mixed": (
        DelayParams(lambda_mc=2e-8, lambda_sc=3e-8, radio=RadioParams(target_sir=1e4)),
        [MacroUser(), MIXPOP],
    ),
}
WHOLE_WINDOW = ("attempts-above-j-max",)


def replay(params, seed, rep, window):
    """The nearest distances and interferers that replication ``rep`` of a
    batch of one draws, and the generator it should leave: interferers only
    in a whole-window config."""
    g = replication_rng(seed, rep)
    closest = replay_nearest(params, g)
    interferers = [np.empty(0), np.empty(0)]
    if whole_window(params):
        interferers = replay_interferers(params, g, closest, window.radius)
    return closest, interferers, g


@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_replication_replays_the_kernel_on_its_nearest_points(case):
    """Every replication runs the kernel, for every serving tier, on each
    tier's nearest point with the plane beyond it averaged out; it equals
    ``downlink_delay`` on those points and that far field, compared with ==,
    and leaves the stream where the replay does. An averaged config draws no
    interferer; a whole-window config draws the window's and has no far
    field."""
    params, scenarios = EDGE_CASES[case]
    cache = CacheConfig()
    cells = [Cell(scenario, params, cache) for scenario in scenarios]
    window = Window(DEFAULT_WINDOW_RADIUS_M)
    tiers = (Tier.MACRO, Tier.SMALL_CELL)
    serving_tiers = [Tier.MACRO if isinstance(s, MacroUser) else Tier.SMALL_CELL for s in scenarios]
    points, outside = 0, 0
    for rep in range(40):
        closest, interferers, replayed = replay(params, 71, rep, window)
        g = replication_rng(71, rep)
        samples = run_replication(cells, params, window, g)
        assert g.bit_generator.state == replayed.bit_generator.state, rep
        points += sum(i.size for i in interferers)
        outside += closest[0] > window.radius
        near = [point_set(([r], i), tier) for r, i, tier in zip(closest, interferers, tiers)]
        for scenario, tier, sample in zip(scenarios, serving_tiers, samples):
            far = far_row(closest, tiers.index(tier), params)
            attempts, outage, downlink, backhaul = link(tier, *near, params, far)
            hit = 0.0
            if scenario == MIXPOP:
                hit = hit_probability(CachePolicy.MIX_POP, cache, 1.45, B3Variant.INTEGRAL_CONSISTENT)
            tail = hit * params.cache_read_mean_ms + (1.0 - hit) * backhaul
            assert sample == DelaySample(downlink, tail, attempts, outage, hit), rep
    assert (points > 0) == (case in WHOLE_WINDOW)  # an averaged config samples no interferer
    if case == "tier-beyond-window":
        assert outside >= 3  # a macro server beyond the window


def window_attempts(params, window, closest, own, rng, draws):
    """Per replication, the expected attempts of serving tier ``own`` with
    each tier's points on ``(r_t, W)`` sampled point by point and the plane
    beyond averaged out, fed as the far log-moments of each tier beyond
    ``max(r_t, W)``: the mean over ``draws`` independent samples of those
    points, all on the replication's nearest points ``closest``."""
    radio = params.radio
    alpha, m = radio.pathloss_exponent, params.max_attempts
    powers = (radio.power_macro, radio.power_small)
    rows = np.repeat(np.arange(closest.shape[1]), draws)  # one row per (replication, sample)
    gains = [_gains(r, power, alpha)[rows] for r, power in zip(closest, powers)]
    minus_log_q = np.log1p(radio.target_sir * gains[1 - own] / gains[own])
    for lam, r, power in zip((params.lambda_mc, params.lambda_sc), closest, powers):
        start = np.minimum(r, window.radius)[rows] ** 2
        width = window.radius**2 - start
        counts = rng.poisson(lam * math.pi * width)
        owner = np.repeat(np.arange(rows.size), counts)
        radii = np.sqrt(start[owner] + width[owner] * rng.random(owner.size))
        terms = np.log1p(radio.target_sir * power * radii**-alpha / gains[own][owner])
        minus_log_q += np.bincount(owner, weights=terms, minlength=rows.size)
    far = far_z_moments(far_moments(closest, np.maximum(closest, window.radius), own, params, m))
    # at unit signal and target the rival alone sets -log q
    attempts, _ = simulator._downlink(np.ones(rows.size), np.expm1(minus_log_q), [], 1.0, m, far[rows])
    return attempts.reshape(-1, draws).mean(axis=1)


def attempts_variance_bound(closest, own, params):
    """Per replication, ``Var(A) = E[A^2] - E[A]^2`` for the expected attempts
    ``A`` of serving tier ``own`` given every point, over all points beyond
    each tier's nearest one. With ``X = 1 - q Q``, ``A = sum_{k<M} X^k`` and
    ``A^2 = sum_j c_j X^j`` for ``j <= 2M - 2``, ``c_j`` the number of pairs
    ``k + l = j`` with ``k, l < M``; ``E[X^j]`` is the far path's outage at
    ``j`` attempts. An estimate that samples some of those points and
    averages the rest out varies by at most ``Var(A)`` (Jensen), and a mean
    of ``K`` independent such estimates by ``Var(A) / K``."""
    radio = params.radio
    m = params.max_attempts
    powers = (radio.power_macro, radio.power_small)
    gains = [_gains(r, power, radio.pathloss_exponent) for r, power in zip(closest, powers)]
    z = far_z_moments(far_moments(closest, closest, own, params, 2 * m - 2))
    moments = [np.ones(closest.shape[1])]  # E[X^j], j = 0 .. 2M - 2
    for j in range(1, 2 * m - 1):
        moments.append(simulator._downlink(gains[own], gains[1 - own], [], radio.target_sir, j, z[:, :j])[1])
    second = sum((min(j, 2 * m - 2 - j) + 1) * x for j, x in enumerate(moments))
    return second - sum(moments[:m]) ** 2


def paired_attempts(params, window, seed, batches, draws):
    """Per serving tier (macro, small cells) and replication: the simulator's
    attempts, the same replications' ``window_attempts`` on the same nearest
    draws, and the variance bound of the difference,
    ``attempts_variance_bound / draws``."""
    cells = [Cell(scenario, params, CacheConfig()) for scenario in (MacroUser(), SmallUser())]
    lambdas = (params.lambda_mc, params.lambda_sc)
    averaged, sampled, bounds = [], [], []
    rng = np.random.default_rng(seed)
    for batch in range(batches):
        g = Recorder(replication_rng(seed, batch))
        averaged.append(_simulate(cells, params, window, g, BATCH_SIZE)[:, 2])
        closest = np.array([nearest_distance(lam, levels(g.log, t, BATCH_SIZE)) for t, lam in enumerate(lambdas)])
        sampled.append([window_attempts(params, window, closest, own, rng, draws) for own in (0, 1)])
        bounds.append([attempts_variance_bound(closest, own, params) / draws for own in (0, 1)])
    return (np.concatenate(part, axis=1) for part in (averaged, sampled, bounds))


def assert_same_mean(averaged, sampled, bound):
    """The paired differences of every serving tier's attempts have a mean
    within 4 SE of 0, the SE ``sqrt(sum_k Var(A_k)) / n`` from each
    replication's variance bound. Given the nearest points, both sides have
    the same mean, and a difference varies by at most ``Var(A_k)``. The SE
    is not taken from the differences themselves: they are heavy-tailed, so
    their sample SD understates their spread whenever the rare large ones
    are missing from the sample."""
    for difference, variance in zip(averaged - sampled, bound):
        se = math.sqrt(variance.sum()) / variance.size
        assert abs(difference.mean()) < 4 * se, (difference.mean(), se)


def test_far_field_from_the_nearest_points_is_the_sampled_window_mean():
    """Each tier's far field starts at its nearest point and no other point
    is sampled. Averaged out, it must equal on average the same
    replications with the 20 km window sampled point by point and the plane
    beyond it averaged out: the nearest distances are drawn first, so both
    runs share them. Each replication's window is sampled 250 times, which
    narrows the bound enough to see the far field scaled by 1.01 (about 9
    SE) or the plane beyond the window left out (about 40 SE)."""
    # sparse tiers: nearest points kilometres out, and downlinks far from saturation
    params = DelayParams(lambda_mc=2e-8, lambda_sc=3e-8)
    assert_same_mean(*paired_attempts(params, Window(DEFAULT_WINDOW_RADIUS_M), 83, 40, 250))


def test_five_km_window_averaged_out_is_the_sampled_window_mean():
    """At the default parameters, the plane averaged out from each tier's
    nearest point must equal on average a 5 km window sampled point by point
    on the same nearest draws, with the plane beyond it averaged out."""
    assert_same_mean(*paired_attempts(DelayParams(), Window(5000.0), 91, 40, 10))


def pinned_cells():
    """A macro, a no-cache and a MixPop cell at the default parameters."""
    params = DelayParams()
    cache = CacheConfig()
    return [
        Cell(MacroUser(), params, cache),
        Cell(SmallUser(policy=CachePolicy.NO_CACHE), params, cache),
        Cell(MIXPOP, params, cache),
    ]


@pytest.mark.parametrize("radius", [5000.0, DEFAULT_WINDOW_RADIUS_M, 1e200])
def test_far_field_estimates(radius):
    """Every replication averages out each tier's points on the plane beyond
    its nearest point, so no window is read. These are the estimates at any
    window, compared with ==. They were recorded on the batch streams, which
    hold the shift of the lattice of both tiers' nearest distances;
    ``test_batch`` holds every replication of such a batch to the same
    replication run alone on its share of the stream. The intervals are
    batch means over five batches, the last of 44 replications. The MixPop
    hit is the integral closed form, its catalogue ending at 1 + f0."""
    got = estimate(pinned_cells(), Window(radius), 300, 2026, workers=1)
    recorded = [
        (1.1282896200017778, 1.1250999404382043, 1.1314792995653513, 0.5065024665015652, 0.0),
        (1.436903583513356, 1.4330390567523452, 1.4407681102743666, 0.7864358563042091, 0.0),
        (0.6774559517231645, 0.6735914249621536, 0.6813204784841754, 0.7864358563042091, 0.7053953719159934),
    ]
    for est, (mean, low, high, outage, hit) in zip(got, recorded):
        assert (est.mean_ms, est.ci_low_ms, est.ci_high_ms, est.outage_rate, est.hit_rate) == (
            mean, low, high, outage, hit
        )
        assert est.replications == 300
