"""Split the stream one batch reads into the streams of its replications.

``Recorder`` wraps a generator and logs every draw a batch makes.
``replication_streams`` then hands out, for each replication of the batch,
a generator stand-in that serves exactly that replication's share of those
draws, in the order a batch of one asks for them, and fails on any other
request. A batch's nearest-distance levels are the points of one shifted
lattice, so a replication's share of them is its own pair of levels
``(U_mc, U_sc)``, served as the shift of a batch of one, a lattice of one
point whose levels are its shift exactly. An averaged config draws nothing
more; a whole-window config then draws each tier's interferers, and a
replication's share of those is its own counts and radii.
"""

import numpy as np

from lattice_reference import lattice


class Recorder:
    def __init__(self, rng):
        self.rng = rng
        self.log = []

    def _record(self, kind, lam, size, out):
        self.log.append((kind, lam, size, np.copy(out)))  # the caller may work in place
        return out

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

    def poisson(self, lam, size=None):
        return self._next("poisson", lam, size)

    def random(self, size):
        return self._next("random", None, size)


# the draws of a whole-window batch in stream order, as (kind, tier), tier 0 the macro cells and
# 1 the small cells: the lattice's shift, one uniform per tier, then each tier's interferers. An
# averaged batch draws the shift alone
DRAWS = (("shift", None), ("counts", 0), ("radii", 0), ("counts", 1), ("radii", 1))


def layout(log):
    """The (kind, tier) of each draw in ``log``: the shift alone, or all five draws."""
    assert len(log) in (1, len(DRAWS))  # no draw beyond the geometry
    return DRAWS[: len(log)]


def draw(log, kind, tier):
    """The (kind, intensity, size, values) record of ``tier``'s draw of ``kind`` in ``log``."""
    return log[layout(log).index((kind, tier))]


def levels(log, tier, size):
    """``tier``'s levels ``U_k`` in a batch of ``size`` that drew ``log``."""
    return lattice(draw(log, "shift", None)[3], size)[tier]


def replication_streams(log, size):
    """One ``Script`` per replication of a batch of ``size`` that drew ``log``.
    The batch drew the shift of its lattice, then, sampling the whole window,
    for each of the macro and small-cell tiers the counts and the radii of
    its interferers."""
    points = lattice(draw(log, "shift", None)[3], size)
    tiers = range(2) if len(layout(log)) > 1 else ()
    scripts = []
    for k in range(size):
        draws = [("random", None, 2, points[:, k])]
        for t in tiers:
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
