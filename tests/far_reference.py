"""References for the far-field step of the downlink kernel.

``simulator.far_z_moments`` sums every row of ``E[Z^j]`` at once; the loop
here sums one row j at a time, with the same steps and the same additions
in the same order, so the two must agree bit for bit.
``simulator._downlink`` averages the far field out by a recurrence;
``exact_far_downlink`` evaluates the binomial expansion it replaces in exact
rational arithmetic. ``analytics.rho_terms`` gets the terms of the PGFL
excess from one hypergeometric call and a recurrence; ``rho_k`` makes one
call per term, and ``pgfl_excess`` takes each partial sum in 50-digit
arithmetic. The far field's functions take each tier's ``z`` and mean point
count, and are tested in those terms; ``plane_args`` gives them for a
geometry stated in metres and watts, which only the tests that also sample
points in metres need.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
from scipy.special import hyp2f1


def z_moments_by_row(log_moments):
    """``E[Z^j]`` for j = 1..M from ``Lambda_i = -log E[Q^i]``, one row j at a time.

    ``E[Z^j] = sum_{k<j} C(j-1, k) (-1)^k d_(k+1)`` over the positive steps
    ``d_i = E[Q^(i-1)] - E[Q^i]``, ``Lambda_0 = 0``, clamped at 0.
    """
    lam = np.asarray(log_moments, dtype=float)
    previous = np.concatenate((np.zeros_like(lam[..., :1]), lam[..., :-1]), axis=-1)
    steps = np.exp(-previous) * -np.expm1(previous - lam)
    rows = []
    for j in range(1, lam.shape[-1] + 1):
        total = np.zeros_like(steps[..., 0])
        for k in range(j):
            total = total + (-1) ** k * math.comb(j - 1, k) * steps[..., k]
        rows.append(np.maximum(total, 0.0))
    return np.stack(rows, axis=-1)


def plane_args(scales, intensities, alpha, inner):
    """``(z, mean_points)`` of ``simulator.far_moments`` for the plane beyond ``inner``, tier ``t``'s
    points of intensity ``intensities[t]`` scaled by ``scales[t]``: ``z_t = s_t inner_t^-alpha`` and
    ``a_t = pi lambda_t inner_t^2``, for the tests that sample the points nearer than ``inner`` in
    metres. ``inner`` is one radius for every tier, or one per tier and replication; a tier's scale
    is a float or an array over replications."""
    scales = np.asarray(scales, dtype=float)
    inner = np.broadcast_to(np.asarray(inner, dtype=float), scales.shape)
    return tuple(scales * inner**-alpha), tuple(math.pi * lam * r**2 for lam, r in zip(intensities, inner))


def rho_k(z, alpha, k):
    """``(2z/(a-2)) 2F1(k, 1-2/a; 2-2/a; -z)``, elementwise, one hypergeometric call per term."""
    delta = 2.0 / alpha
    return 2.0 * z / (alpha - 2.0) * hyp2f1(k, 1.0 - delta, 2.0 - delta, -z)


def pgfl_excess(z, alpha, j):
    """``2F1(j, -2/a; 1-2/a; -z) - 1``, the sum of ``rho_1..rho_j``, in 50-digit arithmetic on the
    exact value of the float ``z``, where the "- 1" costs no digits."""
    with mpmath.workdps(50):
        delta = 2 / mpmath.mpf(alpha)
        return float(mpmath.hyp2f1(j, -delta, 1 - delta, -mpmath.mpf(z)) - 1)


def exact_far_downlink(miss, q, z):
    """(expected attempts, outage) of one replication, exactly, for M = ``len(z)``.

    ``E[(1 - q Q)^k] = sum_j C(k, j) (1 - q)^(k-j) q^j E[Z^j]`` with ``1 - q =
    miss`` and ``E[Z^j] = z[j - 1]``, every float taken at its exact value,
    so the result measures only the rounding of the kernel that consumes
    the same floats.
    """
    miss, q = Fraction(miss), Fraction(q)
    z = [Fraction(1), *map(Fraction, z)]
    moments = [
        sum(math.comb(k, j) * miss ** (k - j) * q**j * z[j] for j in range(k + 1))
        for k in range(len(z))
    ]
    return sum(moments[:-1]), moments[-1]
