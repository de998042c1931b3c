"""The rank-1 lattice of a batch's nearest-distance levels, by brute force.

``korobov_generator(n)`` evaluates the unweighted Korobov figure of merit
``P_2`` of every generator coprime to ``n`` term by term, in exact rational
arithmetic with ``pi`` at double precision, and keeps the least, the
smallest ``a`` on ties. ``a`` and ``n - a`` give the same ``P_2`` exactly
there, since ``B_2(x) = B_2(1 - x)``; distinct values of ``P_2`` for ``n <=
64`` differ by far more than the rounding of ``pi`` moves them.
"""

import functools
import math
from fractions import Fraction

import numpy as np


@functools.cache
def korobov_generator(n):
    """The ``a`` coprime to ``n`` with the least ``P_2 = -1 + (1/n) sum_k
    (1 + 2 pi^2 B_2(k / n)) (1 + 2 pi^2 B_2({k a / n}))``."""
    c = 2 * Fraction(math.pi) ** 2
    factor = [1 + c * (Fraction(j, n) ** 2 - Fraction(j, n) + Fraction(1, 6)) for j in range(n)]

    def merit(a):
        return -1 + sum(factor[k] * factor[a * k % n] for k in range(n)) / n

    return min((a for a in range(1, n + 1) if math.gcd(a, n) == 1), key=merit)


def lattice(shift, size):
    """The levels ``frac(k (1, a) / size + shift)`` of a batch of ``size``, one
    row per tier (macro, small cells); ``k a`` is reduced mod ``size`` first."""
    k = np.arange(size)
    return np.array([(k * g % size / size + s) % 1.0 for g, s in zip((1, korobov_generator(size)), shift)])
