"""Split the stream one batch reads into the streams of its replications.

``Recorder`` wraps a generator and logs every draw a batch makes.
``replication_streams`` then hands out, for each replication of the batch,
a generator stand-in that serves exactly that replication's share of those
draws, in the order a batch of one asks for them, and fails on any other
request. A batch draws once: the shift of one lattice, whose points are the
levels of its nearest points. So a replication's share is its own pair of
levels ``(U_mc, U_sc)``, served as the shift of a batch of one, a lattice of
one point whose levels are its shift exactly.
"""

import numpy as np

from lattice_reference import lattice


class Recorder:
    def __init__(self, rng):
        self.rng = rng
        self.log = []

    def random(self, size):
        out = self.rng.random(size)
        self.log.append(("random", size, np.copy(out)))  # the caller may work in place
        return out


class Script:
    """Serves queued (kind, size, values) draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self, size):
        want_kind, want_size, values = self.draws.pop(0)
        assert ("random", size) == (want_kind, want_size)
        return values.copy()


def shift(log):
    """The lattice's shift, the one draw of a batch that drew ``log``."""
    assert [(kind, size) for kind, size, _ in log] == [("random", 2)]  # no draw beyond the shift
    return log[0][2]


def levels(log, tier, size):
    """``tier``'s levels ``U_k`` in a batch of ``size`` that drew ``log``."""
    return lattice(shift(log), size)[tier]


def replication_streams(log, size):
    """One ``Script`` per replication of a batch of ``size`` that drew ``log``:
    the replication's pair of levels, as the shift of a batch of one."""
    points = lattice(shift(log), size)
    return [Script([("random", 2, points[:, k])]) for k in range(size)]
