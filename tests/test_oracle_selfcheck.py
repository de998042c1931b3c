"""Guard the frozen reference values against drift in the derivation chain."""

import mpmath as mp
import pytest

import oracle_reference as oracle


def test_frozen_values_match_rederivation():
    derived = oracle.derive_all()
    assert derived.keys() == oracle.FROZEN.keys()
    for key, value in derived.items():
        assert value == pytest.approx(oracle.FROZEN[key], rel=1e-12, abs=1e-300), key


def test_rational_and_product_forms_agree():
    for c in (1e-9, 0.3, 2.2507508933615497, 6.8, 150.0):
        for m in (1, 4, 17, 60):
            a = oracle.b1_exact_rational(0.1, m, c)
            b = oracle.b1_product_form(0.1, m, c)
            assert a == pytest.approx(b, rel=1e-12)


def pgfl_by_quadrature(j, delta, top):
    """``int_0^top (1 - (1 + x)^-j) x^(-delta-1) dx`` in ``t = x^(1-delta)``, where the integrand
    is smooth at 0 and decays fast however close ``delta`` comes to 1."""
    m = 1 / (1 - delta)
    ends = [0, 1, mp.inf] if top == mp.inf else [0, top ** (1 / m)]
    return m * mp.quad(lambda t: -mp.expm1(-j * mp.log1p(t**m)) * t ** (-m * delta - 1), ends)


@pytest.mark.parametrize("alpha", [2.05, 3.0, 4.0])
@pytest.mark.parametrize("j", [1, 2, 5])
def test_own_and_cross_moments_match_quadrature(alpha, j):
    """``G_own`` and ``G_cross`` in the SIR term's variable ``x = gamma v^(-a/2)`` (``x =
    w^(-a/2)``): there the integrals are ``delta gamma^delta int_0^gamma`` and ``delta
    int_0^inf`` of ``(1 - (1 + x)^-j) x^(-delta-1)``, which quadrature resolves near a = 2."""
    delta = 2 / mp.mpf(alpha)
    gamma = mp.mpf(oracle.GAMMA)
    own = delta * gamma**delta * pgfl_by_quadrature(j, delta, gamma)
    cross = delta * pgfl_by_quadrature(j, delta, mp.inf)
    assert abs(oracle.g_own(j, oracle.GAMMA, alpha) / own - 1) < 1e-25
    assert abs(oracle.g_cross(j, alpha) / cross - 1) < 1e-25
