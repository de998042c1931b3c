"""The far field beyond each tier's nearest point, averaged out on the plane by its PGFL.

The far field's functions take each tier's ``z`` at its nearest point and
mean point count within it, and are held to their references in those
terms: ``simulator.far_log_moments`` to 50-digit hypergeometric values at
every M up to ``J_MAX``, weighting and summing the tiers row by row, and to
the defining integral, on the plane beyond a tier's nearest point and split
at a window's edge into the annulus and the plane beyond it;
``simulator.far_z_moments`` to 50-digit arithmetic and to its row-by-row
loop; and ``simulator.far_moments``' coverage chain, the far moments above
``J_MAX``, to 50-digit arithmetic and to ``far_z_moments`` where both
apply. ``analytics.rho_terms``' partial sums, the excess each tier's row
sums, are held to 50 digits in ``test_analytics``. The kernel's far path is
held to the exact binomial expansion. The tests that sample points in
metres state their far fields in metres too (``plane_args``): ``_downlink``
fed with ``far_moments`` is held to annuli sampled point by point with the
plane beyond averaged out, on either side of ``J_MAX``, and the
averaged-out estimates to a window sampled point by point on the same
nearest draws, the plane beyond it averaged out. Every replication of
``run_replication`` is held, on a replayed stream, to the kernel run on
each tier's nearest point with the plane beyond averaged out, for every
serving tier. Routers are never sampled, so they move no far field.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate

from hetsim.analytics import DelayParams
from hetsim.caching import B3Variant, CacheConfig, CachePolicy, hit_probability
from hetsim.channel import RadioParams
from hetsim.geometry import DEFAULT_WINDOW_RADIUS_M, Tier, Window
from hetsim.popularity import Fixed
from hetsim import simulator
from hetsim.simulator import (
    BATCH_SIZE,
    J_MAX,
    Cell,
    DelaySample,
    MacroUser,
    SmallUser,
    _simulate,
    _unhit_law,
    estimate,
    far_log_moments,
    far_moments,
    far_z_moments,
    replication_rng,
    run_replication,
)
from far_reference import exact_far_downlink, pgfl_excess, plane_args, z_moments_by_row
from model_helpers import nearest_distance, point_set_from_xy
from sir_reference import truncated_geometric, unit_fading_gains
from stream_script import Recorder, levels

GAMMA_3DB = 10.0 ** 0.3


X_CUT = 1e-7


def quad_annulus_excess(z, alpha, outer, i):
    """``2 int (1 - (1 + z r^-alpha)^-i) r dr`` from 1 to ``outer``: the far field's ``Lambda_i``
    from the annulus out to ``outer`` times a tier's nearest point, per mean point within that point.

    The integral runs in ``u = log r``, where a field that saturates out to
    ``r = z^(1/alpha)`` and one that starts far below 1 are equally smooth
    for the quadrature."""
    value, _ = integrate.quad(
        lambda u: -math.expm1(-i * math.log1p(z * math.exp(-alpha * u))) * math.exp(2.0 * u),
        0.0,
        math.log(outer),
        epsabs=0.0,
        epsrel=1e-13,
        limit=200,
    )
    return 2.0 * value


def quad_excess(z, alpha, i):
    """``2 int (1 - (1 + z r^-alpha)^-i) r dr`` from 1 to infinity: the far field's ``Lambda_i``
    per mean point within its disc, by its defining integral on the plane beyond a unit disc.

    Quadrature runs out to where ``x = z r^-alpha`` falls to ``X_CUT``.
    Beyond, ``1 - (1 + x)^-i = i x - i (i + 1) x^2 / 2`` up to a relative
    ``X_CUT^2``, and both terms integrate in closed form: ``r^2 x / (alpha -
    2)`` and ``r^2 x^2 / (2 alpha - 2)``."""
    cut = max(0.0, (math.log(z) - math.log(X_CUT)) / alpha)
    r2, x = math.exp(2.0 * cut), z * math.exp(-alpha * cut)
    tail = i * x * r2 / (alpha - 2.0) - i * (i + 1) / 2 * x * x * r2 / (2.0 * alpha - 2.0)
    return quad_annulus_excess(z, alpha, math.exp(cut), i) + 2.0 * tail


# a window's radius over its distance to a tier's nearest point: 1 where that point sits on the
# window's edge, up to 2e4 where it sits a metre out in a 20 km window
EDGE_RATIOS = [1.0, 1.0002, 1.0204, 2.5, 4.0, 4.0008, 4.0816, 10.0, 50.0, 200.0, 500.0, 2000.0, 5000.0, 20_000.0]


class TestLogMoments:
    @pytest.mark.parametrize("alpha", [4.0, 3.2])
    def test_match_quadrature(self, alpha):
        """``Lambda_i`` of one tier to 1e-9 of its defining integral, for z from 5e-6, a server far
        inside its nearest rival, to 1e12, a rival far stronger than the server."""
        z = np.geomspace(5e-6, 1e12, 18)
        lam = far_log_moments((z,), (1.0,), alpha, J_MAX)
        for row, value in zip(lam, z):
            for i in (1, 2, 4, J_MAX):
                assert row[i - 1] == pytest.approx(quad_excess(value, alpha, i), rel=1e-9, abs=0.0), (value, i)

    @pytest.mark.parametrize("ratio", EDGE_RATIOS)
    @pytest.mark.parametrize("alpha", [2.1, 2.5, 4.0, 5.0, 10.0])
    @pytest.mark.parametrize(
        ("z", "end"),
        [(z, "near") for z in (1e-14, 1e-10, 1e-6, 1e-3, 0.1, 3.0, 100.0, 1e4, 1e8, 1e14)]
        + [(z, "edge") for z in (1.0001, 1.5, 10.0, 1e4, 1e8, 1e14)],
    )
    def test_match_quadrature_up_to_a_server_at_the_near_edge(self, alpha, z, end, ratio):
        """The plane beyond a tier's nearest point is the annulus out to a
        window's edge ``ratio`` times as far plus the plane beyond that edge,
        each to 1e-9 of quadrature: the split on which a window sampled point
        by point, with the plane beyond it averaged out, rests. Beyond the edge
        ``z`` is ``ratio^-alpha`` times as large and the mean count ``ratio^2``
        times. ``z`` at the nearest point reaches ``target_sir * (P_macro /
        P_small)`` when the server sits near it, far more when it is a nearer
        interferer, and falls below 1e-10 when the server sits far inside it;
        ``z`` above 1 at the window's edge is a server near that edge at a high
        SIR target, where the plane beyond starts in the server's saturated
        zone."""
        z_near, z_edge = (z, z * ratio**-alpha) if end == "near" else (z * ratio**alpha, z)
        plane = far_log_moments((z_near,), (1.0,), alpha, J_MAX)
        beyond = far_log_moments((z_edge,), (ratio**2,), alpha, J_MAX)
        for i in (1, 2, 4, J_MAX):
            expected = ratio**2 * quad_excess(z_edge, alpha, i)
            assert beyond[i - 1] == pytest.approx(expected, rel=1e-9, abs=0.0), i
            annulus = quad_annulus_excess(z_near, alpha, ratio, i)
            assert plane[i - 1] == pytest.approx(annulus + beyond[i - 1], rel=1e-9, abs=0.0), i

    @pytest.mark.parametrize("m", range(1, J_MAX + 1))
    @pytest.mark.parametrize("alpha", [2.001, 2.01, 2.05, 2.1, 2.5, 4.0])
    @pytest.mark.parametrize("z", [1e-14, 1e-10, 1e-6, 1e-3, 0.1, 1.0, 3.0, 100.0, 1e4, 1e8, 1e14])
    def test_match_the_50_digit_hypergeometric_form(self, z, alpha, m):
        """Every log-moment up to ``max_attempts`` M, a mean count times the
        tier's ``2F1(i, -d; 1 - d; -z) - 1``, to 1e-14 relative, for pathloss
        exponents down to just above 2: on the plane no end is subtracted, so
        nothing cancels."""
        lam = far_log_moments((z,), (0.7,), alpha, m)
        assert lam.shape == (m,)
        expected = [0.7 * pgfl_excess(z, alpha, i) for i in range(1, m + 1)]
        np.testing.assert_allclose(lam, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("alpha", [2.001, 2.5, 4.0, 10.0])
    def test_weight_each_tier_by_its_mean_count_row_by_row(self, alpha):
        """Each replication's row is ``sum_t a_t (2F1(i, -d; 1 - d; -z_t) - 1)`` to 1e-14 relative,
        with each tier's own ``z_t`` and mean count ``a_t`` in that row, ``z`` up to 1e14; a float
        ``z`` or count serves every row."""
        z = (np.array([1e-6, 3.0, 1e14, 100.0, 1.0]), np.array([1e8, 1e-3, 0.1, 5.0, 10.0]))
        mean_points = (np.array([0.03, 2.0, 7.5, 1e-4, 40.0]), np.array([1.3, 0.2, 11.0, 3e3, 0.6]))
        lam = far_log_moments(z, mean_points, alpha, J_MAX)
        assert lam.shape == (5, J_MAX)
        for k in range(5):
            expected = [
                sum(a[k] * pgfl_excess(t[k], alpha, i) for t, a in zip(z, mean_points)) for i in range(1, J_MAX + 1)
            ]
            np.testing.assert_allclose(lam[k], expected, rtol=1e-14, atol=0.0, err_msg=str(k))
        float_z = far_log_moments((3.0, z[1]), (mean_points[0], 0.2), alpha, J_MAX)
        repeated = far_log_moments((np.full(5, 3.0), z[1]), (mean_points[0], np.full(5, 0.2)), alpha, J_MAX)
        assert np.array_equal(float_z, repeated)

    def test_tiers_add(self):
        both = far_log_moments((1.6e-4, 1.6e-5), (220.0, 283.0), 4.0, 4)
        macro = far_log_moments((1.6e-4,), (220.0,), 4.0, 4)
        small = far_log_moments((1.6e-5,), (283.0,), 4.0, 4)
        assert both.shape == (4,)
        np.testing.assert_allclose(both, np.add(macro, small), rtol=1e-14)

    def test_alpha_4_first_moment_has_arctan_form(self):
        # at alpha = 4, i = 1 the excess is sqrt(z) (pi/2 - atan(1 / sqrt(z)))
        z, a = 6.4e-5, math.pi * 5000.0**2
        lam = far_log_moments((z,), (a,), 4.0, 1)
        expected = a * math.sqrt(z) * (math.pi / 2 - math.atan(1.0 / math.sqrt(z)))
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


# two tiers' far fields starting where a server's nearest rivals of either tier lie far beyond it
PLANE_Z = (1.6e-4, 1.6e-5)


def concave_and_linear_rows(rng, n, m):
    """``n`` rows of M = ``m`` log-moments, each concave (a plane far field, ``PLANE_Z``) or linear
    (a fixed Q) at random, ``Lambda_1`` log-uniform from 1e-9 to 10."""
    concave = far_log_moments(PLANE_Z, (1.0, 1.0), 4.0, m)
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
            unit = far_log_moments(PLANE_Z, (1.0, 1.0), 4.0, J_MAX)
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
        """On a plane far field at Lambda_1 = 1.06e-3 the alternating sums of E[Z^6] and E[Z^7]
        round to about -2e-17 and -4e-17, and with them the outage at unit signal and no rival."""
        unit = far_log_moments(PLANE_Z, (1.0, 1.0), 4.0, 7)
        z = far_z_moments(1.06e-3 * unit / unit[0])
        assert (z >= 0.0).all(), z
        attempts, outage = simulator._downlink(np.zeros(1), 7, z[None])
        assert 0.0 <= outage[0] <= 1.0 and 1.0 <= attempts[0] <= 7.0

    @pytest.mark.parametrize("m", range(1, J_MAX + 2))
    def test_equals_the_row_by_row_loop(self, m):
        """All rows at once are the row-by-row loop, bit for bit: concave and
        linear rows, Lambda_1 from 1e-9 to 10."""
        lam = concave_and_linear_rows(np.random.default_rng(1000 + m), 120, m)
        assert np.array_equal(far_z_moments(lam), z_moments_by_row(lam))
        for row in lam[:8]:
            assert np.array_equal(far_z_moments(row), z_moments_by_row(row))


def mp_far_z_moments(z, mean_points, alpha, m):
    """``E[Z^j]`` for j = 1..m in 50-digit arithmetic on the exact values of the float arguments,
    by the PGFL route, not the chain's: ``E[Q^i] = exp(-Lambda_i)``, each tier's excess summed from
    ``rho_1`` by the recurrence of ``analytics.rho_terms``, and ``E[Z^j] = sum_i C(j, i) (-1)^i
    E[Q^i]``, whose cancellation (up to ``C(60, 30)``, 1e17) leaves 33 digits."""
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        d = 2 / a
        lam = [mpmath.mpf(0)] * m
        for t, count in zip(z, mean_points):
            t = mpmath.mpf(t)
            rho_k = 2 * t / (a - 2) * mpmath.hyp2f1(1, 1 - d, 2 - d, -t)
            excess = mpmath.mpf(0)
            for k in range(1, m + 1):
                excess += rho_k
                lam[k - 1] += mpmath.mpf(count) * excess
                rho_k = ((k - 1 + d) / k) * rho_k + d * t * (1 + t) ** -k / k
        q = [mpmath.mpf(1)] + [mpmath.exp(-v) for v in lam]
        return [float(sum((-1) ** i * math.comb(j, i) * q[i] for i in range(j + 1))) for j in range(1, m + 1)]


# the own tier's z at its nearest point, from a nearest point far weaker than the server to one far stronger
CHAIN_Z = [1e-14, 1e-8, 1e-3, 0.1, 1.0, 3.0, 30.0, 1e3, 1e6, 1e10, 1e14]


def chain_rows(mean_points):
    """``far_moments``' ``(z, mean_points)``, one row per tier and one column per ``CHAIN_Z``: the
    other tier's z 3.7 times the own tier's, and its mean count within its nearest point 0.7 times
    ``mean_points``."""
    z = np.array([CHAIN_Z, np.multiply(CHAIN_Z, 3.7)])
    return z, np.array([[mean_points], [0.7 * mean_points]]) * np.ones(len(CHAIN_Z))


def serving_args(counts, own, params):
    """``far_moments``' ``(z, mean_points)`` for serving tier ``own`` on each tier's mean point counts
    ``counts`` within its nearest point, one row per tier, as ``_kernel`` builds them, the formula
    written out: the serving tier's far field starts at ``z = target_sir``, and the rival's nearest
    point, where its far field starts, at ``z = target_sir (P_r / P_o) (lambda_r a_o / (lambda_o
    a_r))^(alpha / 2)``."""
    radio = params.radio
    powers = (radio.power_macro, radio.power_small)
    lambdas = (params.lambda_mc, params.lambda_sc)
    rival = 1 - own
    own_lambda, exponent = math.frexp(lambdas[own])
    ratio = math.ldexp(lambdas[rival], -exponent) * counts[own] / (own_lambda * counts[rival])
    z = radio.target_sir * (powers[rival] / powers[own]) * ratio ** (radio.pathloss_exponent / 2.0)
    return (radio.target_sir, z), (counts[own], counts[rival])


def kernel_rows(params, size, seed):
    """The far field's arguments of one kernel batch, one ``(z, mean_points)`` per serving tier (macro,
    small cells), on the counts that batch ``seed`` draws, as ``_kernel`` builds them."""
    counts = simulator._draw(replication_rng(seed, 0), size)
    return [serving_args(counts, own, params) for own in (0, 1)]


class TestChainMoments:
    @pytest.mark.parametrize("mean_points", [1.0, 30.0])
    @pytest.mark.parametrize("alpha", [2.05, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("m", [13, 20, 30, 60])
    def test_match_50_digit_arithmetic(self, m, alpha, mean_points):
        """Every moment to 1e-12 absolute, for z from 1e-14 to 1e14 at the
        nearest points and pathloss exponents down to 2.05, where the far
        field's mean number of hitting points ``Lambda_M`` reaches 1e19."""
        z, counts = chain_rows(mean_points)
        got = far_moments(z, counts, alpha, m)
        assert got.shape == (len(CHAIN_Z), m) and not np.isnan(got).any()
        for k, own in enumerate(CHAIN_Z):
            exact = mp_far_z_moments(z[:, k], counts[:, k], alpha, m)
            assert np.abs(got[k] - exact).max() < 1e-12, own

    @pytest.mark.parametrize("alpha", [2.05, 4.0])
    @pytest.mark.parametrize("m", [1, 13, 60])
    def test_moments_form_a_law(self, m, alpha, monkeypatch):
        """The unhit count's law sums to 1, and the chain's moments lie in [0, 1] and never rise with
        j; ``J_MAX`` at 0 sends every M, 1 too, to the chain."""
        monkeypatch.setattr(simulator, "J_MAX", 0)
        z, counts = chain_rows(30.0)
        delta = 2.0 / alpha
        law = _unhit_law(z, delta * counts, delta, m)
        assert (law >= 0.0).all()
        np.testing.assert_allclose(law.sum(axis=-1), 1.0, rtol=0.0, atol=1e-15)
        got = far_moments(z, counts, alpha, m)
        assert (got >= 0.0).all() and (got <= 1.0).all()
        assert (np.diff(got, axis=-1) <= 0.0).all()

    @pytest.mark.parametrize("case", ["defaults", "sparse-40-db", "pathloss-near-two"])
    @pytest.mark.parametrize("m", [4, J_MAX])
    def test_equal_the_alternating_sum_on_a_kernel_batch(self, m, case, monkeypatch):
        """Where both apply, the chain and ``far_z_moments(far_log_moments(...))`` agree to 1e-12 on
        the rows of a kernel batch, for either serving tier: the two routes to the far moments meet
        at ``J_MAX``. ``J_MAX`` at 0 sends ``far_moments`` to the chain."""
        params = {
            "defaults": DelayParams(max_attempts=m),
            "sparse-40-db": DelayParams(
                max_attempts=m, lambda_mc=2e-8, lambda_sc=3e-8, radio=RadioParams(target_sir=1e4)
            ),
            "pathloss-near-two": DelayParams(max_attempts=m, radio=RadioParams(pathloss_exponent=2.05)),
        }[case]
        rows = kernel_rows(params, BATCH_SIZE, 5)
        alpha = params.radio.pathloss_exponent
        alternating = [far_z_moments(far_log_moments(z, mean_points, alpha, m)) for z, mean_points in rows]
        monkeypatch.setattr(simulator, "J_MAX", 0)
        for (z, mean_points), expected in zip(rows, alternating):
            chain = far_moments(z, mean_points, alpha, m)
            assert chain.shape == expected.shape == (BATCH_SIZE, m)
            assert np.abs(chain - expected).max() < 1e-12

    def test_a_row_does_not_depend_on_the_rows_beside_it(self):
        """Each row's bits are the same in a call of 65 rows, two chunks, as alone, for either serving
        tier, and a float ``z`` (the serving tier's, the SIR target) gives the bits of an array
        holding it in every row."""
        params = DelayParams(max_attempts=J_MAX + 3, lambda_mc=2e-8, lambda_sc=3e-8)
        alpha, m = params.radio.pathloss_exponent, params.max_attempts
        for (gamma, z), (own, rival) in kernel_rows(params, 65, 9):
            together = far_moments((gamma, z), (own, rival), alpha, m)
            assert np.array_equal(together, far_moments((np.full(z.shape, gamma), z), (own, rival), alpha, m))
            for k in range(65):
                alone = far_moments((gamma, z[k]), (own[k], rival[k]), alpha, m)
                assert np.array_equal(together[k], alone), k

    def test_a_float_z_is_that_z_in_every_row(self):
        """The serving tier's far field starts at the SIR target in every replication, so the kernel
        passes it as a float, whose ``rho_terms`` row is taken once on the alternating-sum route: each
        row has the bits of an array holding it in every row."""
        params = DelayParams(max_attempts=4, lambda_mc=2e-8, lambda_sc=3e-8)
        alpha, m = params.radio.pathloss_exponent, params.max_attempts
        for (gamma, z), mean_points in kernel_rows(params, 65, 9):
            once = far_moments((gamma, z), mean_points, alpha, m)
            repeated = far_moments((np.full(z.shape, gamma), z), mean_points, alpha, m)
            assert np.array_equal(once, repeated)


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
    @pytest.mark.parametrize("max_attempts", [4, 13, 30])
    @pytest.mark.parametrize("alpha", [4.0, 3.5])
    @pytest.mark.parametrize("geometry", range(len(NEAR_GEOMETRIES)))
    def test_mean_attempts_and_outage(self, alpha, geometry, max_attempts):
        """The points nearer than ``inner`` with the plane beyond averaged out (``far_moments``)
        equal on average the same points with the annulus out to ``outer`` sampled point by point and
        the plane beyond that averaged out, on either side of ``J_MAX``: at 13 and 30 attempts both
        sides take the coverage chain's moments."""
        serving_tier, macro_xy, small_xy = NEAR_GEOMETRIES[geometry]
        params = DelayParams(max_attempts=max_attempts, radio=RadioParams(pathloss_exponent=alpha))
        radio = params.radio
        inner, outer, annuli = 350.0, 1000.0, 100_000
        macro = point_set_from_xy(macro_xy, Tier.MACRO)
        small = point_set_from_xy(small_xy, Tier.SMALL_CELL)
        gains = unit_fading_gains(macro, small, radio)
        server = 0 if serving_tier is Tier.MACRO else len(macro)
        serving_gain = gains[server]

        scale = radio.target_sir / serving_gain
        scales = (scale * radio.power_macro, scale * radio.power_small)
        lambdas = (params.lambda_mc, params.lambda_sc)
        m = params.max_attempts
        near_minus_log_q = sum(
            math.log1p(radio.target_sir * g / serving_gain) for j, g in enumerate(gains) if j != server
        )
        # the plane beyond the inner radius averaged out
        far = far_moments(*plane_args(scales, lambdas, alpha, inner), alpha, m)
        attempts, outage = simulator._downlink(np.array([near_minus_log_q]), m, far[None])

        far_minus_log_q = materialised_annuli(
            serving_gain, params, inner, outer, annuli, np.random.default_rng(500 + geometry)
        )
        # the annulus sampled, the plane beyond it averaged out
        beyond = far_moments(*plane_args(scales, lambdas, alpha, outer), alpha, m)
        sampled_attempts, sampled_outage = simulator._downlink(
            near_minus_log_q + far_minus_log_q, m, np.tile(beyond, (annuli, 1))
        )
        # the annulus must matter: its mean -log Q is a visible share of the total
        assert far_minus_log_q.mean() > 0.02 * near_minus_log_q
        for exact, sampled in ((attempts[0], sampled_attempts), (outage[0], sampled_outage)):
            se = sampled.std(ddof=1) / math.sqrt(annuli)
            assert abs(sampled.mean() - exact) < 4 * se, (exact, sampled.mean(), se)

    def test_empty_far_field_is_the_truncated_geometric_law(self):
        """E[Z^j] = 0 means Q = 1: the expansion collapses to ``sum_{k<M} (1 - q)^k`` attempts and
        ``(1 - q)^M`` outage, held to 1e-14 relative in exact arithmetic on the kernel's float ``1 -
        q``, for q from nearly 1 to about 1e-3."""
        minus_log_q = np.log1p(GAMMA_3DB * np.geomspace(1e-12, 300.0, 9))
        miss = -np.expm1(-minus_log_q)
        for m in (1, 4, J_MAX, J_MAX + 1):
            attempts, outage = simulator._downlink(minus_log_q, m, np.zeros((minus_log_q.size, m)))
            for k in range(minus_log_q.size):
                exact_attempts, exact_outage = truncated_geometric(1 - Fraction(miss[k]), m)
                assert attempts[k] == pytest.approx(float(exact_attempts), rel=1e-14, abs=0.0), (m, k)
                assert outage[k] == pytest.approx(float(exact_outage), rel=1e-14, abs=0.0), (m, k)

    @pytest.mark.parametrize("m", range(1, J_MAX + 1))
    def test_far_path_matches_the_exact_binomial_expansion(self, m):
        """The recurrence is ``E[(1 - q Q)^k] = sum_j C(k, j) (1 - q)^(k-j) q^j
        E[Z^j]`` to 1e-13 relative, for q from about 1e-14 to nearly 1, with
        ``-log q = log1p(rival)``. The concave rows are the log-moments of an
        annulus: the plane beyond a disc less the plane beyond one 4 times as
        wide, where ``z`` is ``4^-alpha`` times as large and the mean count 16
        times."""
        rng = np.random.default_rng(2000 + m)
        n = 40
        rival = np.expm1(np.geomspace(1e-12, 32.0, n))
        concave = far_log_moments(PLANE_Z, (1.0, 1.0), 4.0, m) - far_log_moments(
            np.divide(PLANE_Z, 4.0**4), (16.0, 16.0), 4.0, m
        )
        shapes = np.where(rng.random((n, 1)) < 0.5, concave / concave[0], np.arange(1.0, m + 1))
        far = shapes * 10.0 ** rng.uniform(-8.0, 0.7, (n, 1))
        z = far_z_moments(far)
        minus_log_q = np.log1p(rival)
        attempts, outage = simulator._downlink(minus_log_q, m, z)
        miss, q = -np.expm1(-minus_log_q), np.exp(-minus_log_q)
        for k in range(n):
            exact_attempts, exact_outage = exact_far_downlink(miss[k], q[k], z[k])
            assert attempts[k] == pytest.approx(float(exact_attempts), rel=1e-13, abs=0.0), k
            assert outage[k] == pytest.approx(float(exact_outage), rel=1e-13, abs=0.0), k


def replay_counts(rng):
    """Per tier (macro, then small cells), the mean point count within the
    nearest point that a batch of one draws, the formula written out: the
    lattice of one point has its shift, two uniforms, as the levels ``U``,
    then ``a = -log(1 - U)``, whatever the intensity."""
    return -np.log1p(-rng.random(2))


def link(tier, counts, params):
    """(attempts, outage, downlink, backhaul mean) of the kernel's model on each
    tier's nearest point, the mean point count within it ``counts``, the
    plane beyond each averaged out.

    ``_downlink`` takes the far moments (``far_moments``) on the ``-log q =
    log1p(z)`` of the other tier's nearest point (``serving_args``). The
    backhaul mean takes the router distance's mean on the plane, ``1 / (2
    sqrt(lambda_cr))``.
    """
    own = 0 if tier is Tier.MACRO else 1
    intensity = (params.lambda_mc, params.lambda_sc)[own]
    (gamma, z), mean_points = serving_args(np.reshape(counts, (2, 1)), own, params)
    far = far_moments((gamma, z), mean_points, params.radio.pathloss_exponent, params.max_attempts)
    attempts, outage = (float(v[0]) for v in simulator._downlink(np.log1p(z), params.max_attempts, far))
    downlink = params.slot_ms * attempts
    router_distance = 1.0 / (2.0 * math.sqrt(params.lambda_cr))
    backhaul = params.backhaul_beta * router_distance * (intensity / params.lambda_cr)
    return attempts, outage, downlink, backhaul


def serving_far_moments(closest, inner, own, params, m):
    """The far moments ``E[Z^j]`` (``far_moments``) of serving tier ``own``,
    one row per replication: ``closest`` holds each tier's nearest
    distances, one row per tier, and ``inner`` where each tier's
    averaged-out field starts, in metres (``plane_args``)."""
    radio = params.radio
    powers = (radio.power_macro, radio.power_small)
    scale = radio.target_sir / (powers[own] * closest[own] ** -radio.pathloss_exponent)
    lambdas = (params.lambda_mc, params.lambda_sc)
    alpha = radio.pathloss_exponent
    return far_moments(*plane_args([scale * power for power in powers], lambdas, alpha, inner), alpha, m)


MIXPOP = SmallUser(policy=CachePolicy.MIX_POP, model=Fixed(1.45))
EDGE_CASES = {
    # sparse macro cells: the nearest one, drawn first, lies kilometres out and starts the macro
    # far field
    "sparse-serving-tier": (DelayParams(lambda_mc=2e-8), [MacroUser()]),
    # so few macro cells that the nearest one mostly lies beyond 20 km: its far field starts there
    "tier-beyond-window": (DelayParams(lambda_mc=1e-10), [MIXPOP]),
    # few routers and far-flung small cells: routers are averaged out on the plane, not sampled,
    # so however sparse they move no far field
    "router-beyond": (DelayParams(lambda_cr=5e-8, lambda_sc=1e-7), [MIXPOP]),
    # too many attempts for the alternating sum: the far moments come from the coverage chain
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
@pytest.mark.parametrize("case", list(EDGE_CASES))
def test_replication_replays_the_kernel_on_its_nearest_points(case):
    """Every replication runs the kernel, for every serving tier, on each
    tier's nearest point with the plane beyond it averaged out; it equals
    the model on those points and that far field (``link``), compared with
    ==, and leaves the stream where the replay does: no config draws an
    interferer."""
    params, scenarios = EDGE_CASES[case]
    cache = CacheConfig()
    cells = [Cell(scenario, params, cache) for scenario in scenarios]
    serving_tiers = [Tier.MACRO if isinstance(s, MacroUser) else Tier.SMALL_CELL for s in scenarios]
    outside = 0
    for rep in range(40):
        replayed = replication_rng(71, rep)
        counts = replay_counts(replayed)
        g = replication_rng(71, rep)
        samples = run_replication(cells, params, g)
        assert g.bit_generator.state == replayed.bit_generator.state, rep
        outside += math.sqrt(counts[0] / (math.pi * params.lambda_mc)) > DEFAULT_WINDOW_RADIUS_M
        for scenario, tier, sample in zip(scenarios, serving_tiers, samples):
            attempts, outage, downlink, backhaul = link(tier, counts, params)
            hit = 0.0
            if scenario == MIXPOP:
                hit = hit_probability(CachePolicy.MIX_POP, cache, 1.45, B3Variant.INTEGRAL_CONSISTENT)
            tail = hit * params.cache_read_mean_ms + (1.0 - hit) * backhaul
            assert sample == DelaySample(downlink, tail, attempts, outage, hit), rep
    if case == "tier-beyond-window":
        assert outside >= 3  # a macro server beyond 20 km


def window_attempts(params, window, closest, own, rng, draws):
    """Per replication, the expected attempts of serving tier ``own`` with
    each tier's points on ``(r_t, W)`` sampled point by point and the plane
    beyond averaged out, fed as the far moments of each tier beyond
    ``max(r_t, W)``: the mean over ``draws`` independent samples of those
    points, all on the replication's nearest points ``closest``."""
    radio = params.radio
    alpha, m = radio.pathloss_exponent, params.max_attempts
    powers = (radio.power_macro, radio.power_small)
    rows = np.repeat(np.arange(closest.shape[1]), draws)  # one row per (replication, sample)
    gains = [(power * r**-alpha)[rows] for r, power in zip(closest, powers)]
    minus_log_q = np.log1p(radio.target_sir * gains[1 - own] / gains[own])
    for lam, r, power in zip((params.lambda_mc, params.lambda_sc), closest, powers):
        start = np.minimum(r, window.radius)[rows] ** 2
        width = window.radius**2 - start
        counts = rng.poisson(lam * math.pi * width)
        owner = np.repeat(np.arange(rows.size), counts)
        radii = np.sqrt(start[owner] + width[owner] * rng.random(owner.size))
        terms = np.log1p(radio.target_sir * power * radii**-alpha / gains[own][owner])
        minus_log_q += np.bincount(owner, weights=terms, minlength=rows.size)
    far = serving_far_moments(closest, np.maximum(closest, window.radius), own, params, m)
    attempts, _ = simulator._downlink(minus_log_q, m, far[rows])
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
    gains = [power * r**-radio.pathloss_exponent for r, power in zip(closest, powers)]
    z = serving_far_moments(closest, closest, own, params, 2 * m - 2)
    moments = [np.ones(closest.shape[1])]  # E[X^j], j = 0 .. 2M - 2
    for j in range(1, 2 * m - 1):
        minus_log_q = np.log1p(radio.target_sir / gains[own] * gains[1 - own])
        moments.append(simulator._downlink(minus_log_q, j, z[:, :j])[1])
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
        averaged.append(_simulate(cells, params, g, BATCH_SIZE)[:, 2])
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


def test_far_field_estimates():
    """Every replication averages out each tier's points on the plane beyond
    its nearest point, so no window is read. These are the estimates,
    compared with ==, recorded when they ran at windows of 5 km, 20 km and
    1e200 m alike. They were recorded on the batch streams, which
    hold the shift of the lattice of both tiers' nearest distances;
    ``test_batch`` holds every replication of such a batch to the same
    replication run alone on its share of the stream. The intervals are
    batch means over five batches, the last of 44 replications. The MixPop
    hit is the integral closed form, its catalogue ending at 1 + f0."""
    got = estimate(pinned_cells(), 300, 2026, workers=1)
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
