"""References for the far-field step of the downlink kernel.

``simulator.far_z_moments`` sums every row of ``E[Z^j]`` at once; the loop
here sums one row at a time, with the same Veltkamp split and the same
compensated (TwoSum) additions in the same order, so the two must agree bit
for bit. ``simulator._downlink`` averages the far field out by a recurrence;
``exact_far_downlink`` evaluates the binomial expansion it replaces in exact
rational arithmetic.
"""

import math
from fractions import Fraction

import numpy as np

LOG_2 = math.log(2.0)


def z_moments_by_row(log_moments):
    """``E[Z^j]`` for j = 1..M from ``Lambda_i = -log E[Q^i]``, one row j at a time.

    ``E[Z^j] = sum_{i=1..j} C(j, i) (-1)^i (E[Q^i] - 1)``, each ``E[Q^i] - 1``
    split into an integer offset and a float of magnitude at most 1/2.
    """
    lam = np.asarray(log_moments, dtype=float)
    above = lam > LOG_2
    x = np.where(above, np.exp(-lam), np.expm1(-lam))
    t = x * 134217729.0  # 2^27 + 1
    hi = t - (t - x)
    lo = x - hi
    rows = []
    for j in range(1, lam.shape[-1] + 1):
        row = [(-1) ** i * math.comb(j, i) for i in range(1, j + 1)]
        total = -np.dot(above[..., :j], row).astype(float)
        error = 0.0
        for i, c in enumerate(row):
            for part in (c * hi[..., i], c * lo[..., i]):
                new = total + part
                back = new - total
                error = error + ((total - (new - back)) + (part - back))
                total = new
        rows.append(total + error)
    return np.stack(rows, axis=-1)


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
