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
    """Serves queued (kind, intensity, size, values) draws; the annulus queue is shared."""

    def __init__(self, draws, annuli):
        self.draws = list(draws)
        self.annuli = annuli
        self.fell_back = False

    def _next(self, kind, lam, size):
        if not self.draws:
            # this replication falls back: one tier's annulus comes next
            self.draws = list(self.annuli.pop(0))
            self.fell_back = True
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


def replication_streams(log, size):
    """One ``Script`` per replication of a batch of ``size`` that drew ``log``,
    and the shared queue of annuli. Each of the macro and small-cell tiers
    drew four times: the permutation and the offsets ``V`` of its levels,
    then the counts and the radii of its near interferers. The annuli
    follow, three draws (count, radii, angles) per ``sample_ppp`` call."""
    near, rest = log[:8], log[8:]
    assert len(rest) % 3 == 0  # no draw beyond the geometry
    annuli = [rest[i : i + 3] for i in range(0, len(rest), 3)]
    assert all(annulus[0][0] == "poisson" for annulus in annuli)
    scripts = []
    for k in range(size):
        draws = []
        for t in range(2):
            perm, offsets, counts, radii = (values for _, _, _, values in near[4 * t : 4 * t + 4])
            lam = near[4 * t + 2][1]
            lo = counts[:k].sum()
            hi = lo + counts[k]
            level = perm[k : k + 1] + offsets[k : k + 1]
            level /= size
            draws += [
                ("permutation", None, 1, np.zeros(1, dtype=perm.dtype)),
                ("random", None, 1, level),
                ("poisson", lam[k : k + 1], None, counts[k : k + 1]),
                ("random", None, counts[k], radii[lo:hi]),
            ]
        scripts.append(Script(draws, annuli))
    return scripts, annuli
