"""Split the stream one batch reads into the streams of its replications.

``Recorder`` wraps a generator and logs every draw a batch makes.
``replication_streams`` then hands out, for each replication of the batch,
a generator stand-in that serves exactly that replication's share of those
draws, in the order a batch of one asks for them, and fails on any other
request.
"""


class Recorder:
    def __init__(self, rng):
        self.rng = rng
        self.log = []

    def poisson(self, lam, size):
        out = self.rng.poisson(lam, size)
        self.log.append(("poisson", lam, out.copy()))  # the caller may work in place
        return out

    def random(self, size):
        out = self.rng.random(size)
        self.log.append(("random", None, out.copy()))
        return out


class Script:
    """Serves queued (kind, intensity, values) draws; the annulus queue is shared."""

    def __init__(self, draws, annuli):
        self.draws = list(draws)
        self.annuli = annuli

    def _next(self, kind, lam, size):
        if not self.draws:
            self.draws = self.annuli.pop(0)  # this replication falls back: its annulus comes next
        want_kind, want_lam, values = self.draws.pop(0)
        assert (kind, lam, size) == (want_kind, want_lam, values.size)
        return values.copy()

    def poisson(self, lam, size):
        return self._next("poisson", lam, size)

    def random(self, size):
        return self._next("random", None, size)


def replication_streams(log, size):
    """One ``Script`` per replication of a batch of ``size`` that drew ``log``:
    three draws for each of the macro and small-cell tiers, then the annuli,
    six draws each."""
    near, rest = log[:6], log[6:]
    assert len(rest) % 6 == 0  # no draw beyond the geometry
    annuli = [rest[i : i + 6] for i in range(0, len(rest), 6)]
    scripts = []
    for k in range(size):
        draws = []
        for t in range(2):
            (_, lam, counts), (_, _, radii), (_, _, angles) = near[3 * t : 3 * t + 3]
            lo = counts[:k].sum()
            hi = lo + counts[k]
            draws += [
                ("poisson", lam, counts[k : k + 1]),
                ("random", None, radii[lo:hi]),
                ("random", None, angles[lo:hi]),
            ]
        scripts.append(Script(draws, annuli))
    return scripts, annuli
