"""Reference for `secix.codes.security_level`: the minimum Hamming
weight of the column span of a generator, found by forming G c for
every coefficient vector c.  It uses no row reduction and no subset
ranks, so the level it gives is independent of both of the program's
routes."""

import itertools

import numpy as np


def security_level(q: int, generator) -> int:
    """(least weight of a nonzero G c) - 2 over all c in GF(q)^ell, for
    an m x ell list of rows; -1 when every G c is zero."""
    g = np.array(generator, dtype=np.int64)
    coeffs = np.array(list(itertools.product(range(q), repeat=g.shape[1])), dtype=np.int64)
    weights = np.count_nonzero(coeffs @ g.T % q, axis=1)
    nonzero = weights[weights > 0]
    return int(nonzero.min()) - 2 if nonzero.size else -1
