"""Independent reference values for the delay model, derived from scratch.

Everything here is computed with mpmath quadrature, exact rational
arithmetic, or closed-form special functions -- never with the package
under test. Tests import the frozen constants below; running this file
as a script re-derives and prints them so drift is auditable:

    python tests/oracle_reference.py
"""

from fractions import Fraction

import mpmath as mp

mp.mp.dps = 40

# Fig-2-style default parameter set used throughout the tests.
LAMBDA_CR = 1.4e-6
LAMBDA_MC = 2.8e-6
LAMBDA_SC = 3.6e-6
LAMBDA_UT = 7.2e-6
POWER_MC = 20.0
POWER_SC = 2.0
ALPHA = 4.0
GAMMA_DB = 3.0
GAMMA = 10.0 ** (GAMMA_DB / 10.0)
MAX_ATTEMPTS = 4
SLOT_MS = 0.1
MU_CA_MS = 0.01
ETA0 = 1.45
F0 = 500.0
S_TOTAL = 100.0
S_POPULAR = 9.5
S_OVERHEAD = 0.5
S_UNIFORM = 90.0
BETA = 1e-3


def rho_quadrature(gamma, alpha):
    """Nearest-server Rayleigh interference functional, by quadrature."""
    g = mp.mpf(gamma)
    a = mp.mpf(alpha)
    lower = g ** (-2 / a)
    integral = mp.quad(lambda u: 1 / (1 + u ** (a / 2)), [lower, mp.inf])
    return g ** (2 / a) * integral


def rho_alpha4_closed(gamma):
    """Closed form valid only at pathloss exponent 4."""
    s = mp.sqrt(gamma)
    return s * (mp.pi / 2 - mp.atan(1 / s))


def big_a_gamma(alpha):
    """Cross-tier interference constant via the Gamma-function route."""
    a = mp.mpf(alpha)
    return mp.gamma(1 + 2 / a) * mp.gamma(1 - 2 / a)


def big_a_sine(alpha):
    """Same constant via the reflection identity (2pi/a)/sin(2pi/a)."""
    a = mp.mpf(alpha)
    return (2 * mp.pi / a) / mp.sin(2 * mp.pi / a)


def kernel_c(gamma, alpha, p_other, p_serving, lam_other, lam_serving):
    """Per-attempt interference kernel entering the retransmission sum."""
    cross = (
        (mp.mpf(p_other) / p_serving) ** (2 / mp.mpf(alpha))
        * (mp.mpf(lam_other) / lam_serving)
        * mp.mpf(gamma) ** (2 / mp.mpf(alpha))
        * big_a_gamma(alpha)
    )
    return rho_quadrature(gamma, alpha) + cross


def b1_exact_rational(slot_ms, m, c):
    """Alternating-binomial downlink delay, summed in exact rationals."""
    cf = Fraction(float(c))
    total = Fraction(0)
    coeff = m  # C(m, 1), then multiplicative recurrence
    for i in range(m):
        total += (-1) ** i * Fraction(coeff) / (1 + i * cf)
        coeff = coeff * (m - i - 1) // (i + 2)
    return slot_ms * float(total)


def b1_product_form(slot_ms, m, c):
    """Equivalent positive-term form: sum_m m! c^m / prod_k (1+kc)."""
    c = mp.mpf(float(c))
    total = mp.mpf(0)
    term = mp.mpf(1)  # m = 0
    for k in range(m):
        if k > 0:
            term *= k * c / (1 + k * c)
        total += term
    return float(slot_ms * total)


def mean_backhaul(lam_tier, lam_cr, beta):
    return 0.5 * beta * lam_tier * lam_cr ** -1.5


def popularity_cdf_quadrature(f, eta):
    """CDF of the power-law popularity density, by quadrature of the pdf."""
    if f < 1:
        return mp.mpf(0)
    return mp.quad(lambda x: (eta - 1) * x ** (-mp.mpf(eta)), [1, f])


def b2_closed(s_p, eta):
    return float(1 - (1 + mp.mpf(s_p)) ** (1 - mp.mpf(eta)))


def b3_printed(s_u, s_p, f0, eta):
    e = mp.mpf(eta)
    return float(
        mp.mpf(s_u) / (f0 - s_p) * (1 - (1 + mp.mpf(f0)) ** (1 - e) + (1 + mp.mpf(s_p)) ** (1 - e))
    )


def b3_integral(s_u, s_p, f0, eta):
    e = mp.mpf(eta)
    return float(
        mp.mpf(s_u) / (f0 - s_p) * ((1 + mp.mpf(s_p)) ** (1 - e) - (1 + mp.mpf(f0)) ** (1 - e))
    )


def b3_integral_by_quadrature(s_u, s_p, f0, eta):
    """Selection fraction times quadrature mass of the un-cached segment."""
    mass = mp.quad(
        lambda x: (eta - 1) * x ** (-mp.mpf(eta)), [1 + mp.mpf(s_p), 1 + mp.mpf(f0)]
    )
    return float(mp.mpf(s_u) / (f0 - s_p) * mass)


# --- Exact retransmission moments -------------------------------------------
#
# Conditioned on the point process, per-attempt success of the typical user
# served by the nearest base station of its tier is q(geometry); fading is
# independent across attempts.  The exact j-th moment over geometry is
#
#   E[q^j] = 1 / (1 + G_own(j) + (lam_x/lam_y) (gamma P_x/P_y)^{2/a} G_cross(j))
#
# with G_own(j)   = int_1^inf  (1 - (1 + gamma v^{-a/2})^{-j}) dv
#                = 2F1(j, -delta; 1 - delta; -gamma) - 1
#      G_cross(j) = int_0^inf  (1 - (1 + w^{-a/2})^{-j}) dw
#                = Gamma(1 - delta) Gamma(j + delta) / Gamma(j),   delta = 2/a
#
# (G_own(1) equals the rho functional, G_cross(1) equals A(alpha)).  The
# integrands decay like v^{-a/2}, too slowly for quadrature to infinity
# near a = 2, so the closed forms are used.  The expected number of
# attempts truncated at M follows by the hockey-stick rearrangement; this
# is the exact value the alternating-binomial closed form approximates by
# linearising the moments.


def g_own(j, gamma, alpha):
    delta = 2 / mp.mpf(alpha)
    return mp.hyp2f1(j, -delta, 1 - delta, -mp.mpf(gamma)) - 1


def g_cross(j, alpha):
    delta = 2 / mp.mpf(alpha)
    return mp.gamma(1 - delta) * mp.gamma(j + delta) / mp.gamma(j)


def exact_moment(j, gamma, alpha, p_other, p_serving, lam_other, lam_serving):
    if j == 0:
        return mp.mpf(1)
    pref = (mp.mpf(lam_other) / lam_serving) * (
        mp.mpf(gamma) * p_other / p_serving
    ) ** (2 / mp.mpf(alpha))
    return 1 / (1 + g_own(j, gamma, alpha) + pref * g_cross(j, alpha))


def exact_mean_downlink(slot_ms, m, gamma, alpha, p_other, p_serving, lam_other, lam_serving):
    total = mp.mpf(0)
    coeff = m
    for i in range(m):
        mom = exact_moment(i, gamma, alpha, p_other, p_serving, lam_other, lam_serving)
        total += (-1) ** i * coeff * mom
        coeff = coeff * (m - i - 1) // (i + 2)
    return float(slot_ms * total)


def derive_all():
    eta_dist = 1.0 / (2.0 * mp.sqrt(LAMBDA_SC))
    eta_load = LAMBDA_UT / LAMBDA_SC

    c_macro = kernel_c(GAMMA, ALPHA, POWER_SC, POWER_MC, LAMBDA_SC, LAMBDA_MC)
    c_small = kernel_c(GAMMA, ALPHA, POWER_MC, POWER_SC, LAMBDA_MC, LAMBDA_SC)

    b1_macro = b1_exact_rational(SLOT_MS, MAX_ATTEMPTS, c_macro)
    b1_small = b1_exact_rational(SLOT_MS, MAX_ATTEMPTS, c_small)

    bh_macro = mean_backhaul(LAMBDA_MC, LAMBDA_CR, BETA)
    bh_small = mean_backhaul(LAMBDA_SC, LAMBDA_CR, BETA)

    values = {
        "rho_3db_alpha4": float(rho_quadrature(GAMMA, ALPHA)),
        "rho_gamma1_alpha4": float(rho_quadrature(1.0, ALPHA)),
        "big_a_alpha4": float(big_a_gamma(4.0)),
        "big_a_alpha3": float(big_a_gamma(3.0)),
        "kernel_c_macro": float(c_macro),
        "kernel_c_small": float(c_small),
        "b1_macro_ms": b1_macro,
        "b1_small_ms": b1_small,
        "coverage_macro": float(1 / (1 + c_macro)),
        "coverage_small": float(1 / (1 + c_small)),
        "backhaul_macro_ms": bh_macro,
        "backhaul_small_ms": bh_small,
        "mean_nearest_sc_m": float(eta_dist),
        "mean_nearest_cr_m": float(1 / (2 * mp.sqrt(LAMBDA_CR))),
        "eta_distance": float(eta_dist),
        "eta_load": float(eta_load),
        "cdf_10p5_eta1p45": float(popularity_cdf_quadrature(10.5, ETA0)),
        "b2_eta_fixed": b2_closed(S_POPULAR, ETA0),
        "b2_eta_load": b2_closed(S_POPULAR, 2.0),
        "b3_printed_fixed": b3_printed(S_UNIFORM, S_POPULAR, F0, ETA0),
        "b3_integral_fixed": b3_integral(S_UNIFORM, S_POPULAR, F0, ETA0),
        "b3_integral_fixed_quad": b3_integral_by_quadrature(S_UNIFORM, S_POPULAR, F0, ETA0),
        "b3_printed_load": b3_printed(S_UNIFORM, S_POPULAR, F0, 2.0),
        "b3_integral_load": b3_integral(S_UNIFORM, S_POPULAR, F0, 2.0),
        "b3_printed_distance": b3_printed(S_UNIFORM, S_POPULAR, F0, float(eta_dist)),
        "b3_integral_distance": b3_integral(S_UNIFORM, S_POPULAR, F0, float(eta_dist)),
        "b2_eta_distance": b2_closed(S_POPULAR, float(eta_dist)),
        "hit_mixpop_fixed_integral": b2_closed(S_POPULAR, ETA0)
        + b3_integral(S_UNIFORM, S_POPULAR, F0, ETA0),
        "hit_mixpop_fixed_printed": b2_closed(S_POPULAR, ETA0)
        + b3_printed(S_UNIFORM, S_POPULAR, F0, ETA0),
        "total_macro_ms": b1_macro + bh_macro,
        "total_small_nocache_ms": b1_small + bh_small,
        "exact_downlink_macro_ms": exact_mean_downlink(
            SLOT_MS, MAX_ATTEMPTS, GAMMA, ALPHA, POWER_SC, POWER_MC, LAMBDA_SC, LAMBDA_MC
        ),
        "exact_downlink_small_ms": exact_mean_downlink(
            SLOT_MS, MAX_ATTEMPTS, GAMMA, ALPHA, POWER_MC, POWER_SC, LAMBDA_MC, LAMBDA_SC
        ),
    }

    for name, eta in (("fixed", ETA0), ("distance", float(eta_dist)), ("load", float(eta_load))):
        for variant, b3 in (("printed", b3_printed), ("integral", b3_integral)):
            hit = b2_closed(S_POPULAR, eta) + b3(S_UNIFORM, S_POPULAR, F0, eta)
            values[f"total_small_mixpop_{name}_{variant}_ms"] = (
                b1_small + bh_small + (MU_CA_MS - bh_small) * hit
            )
    return values


# Frozen snapshot of derive_all(); test_oracle_self_check re-derives and
# compares so any silent drift in the derivation chain is caught.
FROZEN = {
    "rho_3db_alpha4": 1.3486308202026145,
    "rho_gamma1_alpha4": 0.7853981633974483,
    "big_a_alpha4": 1.5707963267948966,
    "big_a_alpha3": 2.4183991523122903,
    "kernel_c_macro": 2.250750893361549,
    "kernel_c_small": 6.805900398571479,
    "b1_macro_ms": 0.2752352033043181,
    "b1_small_ms": 0.34584116693521627,
    "coverage_macro": 0.3076212336177861,
    "coverage_small": 0.1281082192879383,
    "backhaul_macro_ms": 0.8451542547285166,
    "backhaul_small_ms": 1.0866268989366643,
    "mean_nearest_sc_m": 263.523138347365,
    "mean_nearest_cr_m": 422.5771273642583,
    "eta_distance": 263.523138347365,
    "eta_load": 2.0,
    "cdf_10p5_eta1p45": 0.652891846389577,
    "b2_eta_fixed": 0.652891846389577,
    "b2_eta_load": 0.9047619047619048,
    "b3_printed_fixed": 0.23598976405852676,
    "b3_integral_fixed": 0.052503525526416676,
    "b3_integral_fixed_quad": 0.052503525526416676,
    "b3_printed_load": 0.20059487839524098,
    "b3_integral_load": 0.01710863986313088,
    "b3_printed_distance": 0.1834862385321101,
    "b3_integral_distance": 1.5058574404248493e-269,
    "b2_eta_distance": 1.0,
    "hit_mixpop_fixed_integral": 0.7053953719159937,
    "hit_mixpop_fixed_printed": 0.8888816104481038,
    "total_macro_ms": 1.1203894580328346,
    "total_small_nocache_ms": 1.4324680658718805,
    "exact_downlink_macro_ms": 0.28329860942877566,
    "exact_downlink_small_ms": 0.350846677660503,
    "total_small_mixpop_fixed_printed_ms": 0.4754742140933105,
    "total_small_mixpop_fixed_integral_ms": 0.6730204340816892,
    "total_small_mixpop_distance_printed_ms": 0.15829494694683732,
    "total_small_mixpop_distance_integral_ms": 0.35584116693521617,
    "total_small_mixpop_load_printed_ms": 0.2424112202027957,
    "total_small_mixpop_load_integral_ms": 0.43995744019117444,
}


if __name__ == "__main__":
    for key, value in derive_all().items():
        print(f"{key} = {value!r}")
