"""Split the stream one batch reads into the streams of its replications.

``Recorder`` wraps a generator and logs every draw a batch makes.
``replication_streams`` then hands out, for each replication of the batch,
a generator stand-in that serves exactly that replication's share of those
draws, in the order a batch of one asks for them, and fails on any other
request. A batch stratifies its nearest distances, so a replication's share
of a tier's levels is its own level ``U_k = (perm(k) + V_k) / size``,
served as the ``V`` of a batch of one under the permutation of one; for a
batch of one, ``U = V`` exactly.
"""

import numpy as np


class Recorder:
    def __init__(self, rng):
        self.rng = rng
        self.log = []

    def _record(self, kind, lam, size, out):
        self.log.append((kind, lam, size, np.copy(out)))  # the caller may work in place
        return out

    def permutation(self, n):
        return self._record("permutation", None, n, self.rng.permutation(n))

    def poisson(self, lam, size=None):
        return self._record("poisson", lam, size, self.rng.poisson(lam, size))

    def random(self, size):
        return self._record("random", None, size, self.rng.random(size))


class Script:
    """Serves queued (kind, intensity, size, values) draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def _next(self, kind, lam, size):
        want_kind, want_lam, want_size, values = self.draws.pop(0)
        assert (kind, size) == (want_kind, want_size)
        assert np.array_equal(lam, want_lam)
        return values.copy() if values.ndim else values.item()

    def permutation(self, n):
        return self._next("permutation", None, n)

    def poisson(self, lam, size=None):
        return self._next("poisson", lam, size)

    def random(self, size):
        return self._next("random", None, size)


# the eight draws of a batch in stream order, as (kind, tier), tier 0 the macro cells and 1 the
# small cells: each tier's permutation and level offsets V, then each tier's interferers
DRAWS = (
    ("permutation", 0), ("offsets", 0), ("permutation", 1), ("offsets", 1),
    ("counts", 0), ("radii", 0), ("counts", 1), ("radii", 1),
)


def draw(log, kind, tier):
    """The (kind, intensity, size, values) record of ``tier``'s draw of ``kind`` in ``log``."""
    assert len(log) == len(DRAWS)  # no draw beyond the geometry
    return log[DRAWS.index((kind, tier))]


def levels(log, tier, size):
    """``tier``'s stratified levels ``U_k`` in a batch of ``size`` that drew ``log``."""
    level = draw(log, "permutation", tier)[3] + draw(log, "offsets", tier)[3]
    level /= size
    return level


def replication_streams(log, size):
    """One ``Script`` per replication of a batch of ``size`` that drew ``log``.
    The batch drew eight times: for each of the macro and small-cell tiers
    the permutation and the offsets ``V`` of its levels, then for each tier
    the counts and the radii of its interferers."""
    scripts = []
    for k in range(size):
        draws = []
        for t in range(2):
            draws += [
                ("permutation", None, 1, np.zeros(1, dtype=draw(log, "permutation", t)[3].dtype)),
                ("random", None, 1, levels(log, t, size)[k : k + 1]),
            ]
        for t in range(2):
            _, lam, _, counts = draw(log, "counts", t)
            radii = draw(log, "radii", t)[3]
            lo = counts[:k].sum()
            hi = lo + counts[k]
            draws += [
                ("poisson", lam[k : k + 1], None, counts[k : k + 1]),
                ("random", None, counts[k], radii[lo:hi]),
            ]
        scripts.append(Script(draws))
    return scripts
