"""The sampled cache hit that the tests hold ``caching.is_hit`` to.

``caching.is_hit`` returns a request's hit probability and draws nothing.
The reference here plays the cache out instead: one uniform draw decides
whether the random slice holds a request in the random-eligible segment,
so averaging it over draws must land on the production probability.
"""

from hetsim.caching import CachePolicy


def sample_hit(request_f, policy, config, rng):
    """One sampled hit of a request: True on a cache hit.

    The catalogue is [1, 1 + f0): requests at or beyond 1 + f0 miss. The
    popular head [1, 1+S_p) hits (StdPop, MixPop); one uniform draw decides
    the rest of the catalogue, which hits with the cached fraction of that
    segment (UniRand, MixPop).
    """
    if policy is CachePolicy.NO_CACHE or not request_f < 1.0 + config.catalogue_bound:
        return False
    if policy is CachePolicy.UNI_RAND:
        fraction = config.uniform / config.catalogue_bound
    elif request_f < 1.0 + config.popular:
        return True
    elif policy is CachePolicy.MIX_POP:
        fraction = config.uniform / (config.catalogue_bound - config.popular)
    else:
        return False
    return rng.random() < fraction
