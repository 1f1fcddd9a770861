"""Per-candidate reference for `secix.analysis.search_linear`: walk every
generator in `itertools.product` order and run the single-code oracle on
each one.  Slow, but it never batches candidates, so the chunked search
is tested against it."""

import itertools

import numpy as np

from secix import LinearCode, check_decodability, check_security


def search(inst, acc, length, b=1):
    for entries in itertools.product(range(inst.q), repeat=inst.m * length):
        code = LinearCode(inst.q, np.array(entries, dtype=np.int64).reshape(inst.m, length))
        if not all(check_decodability(code, inst)):
            continue
        if check_security(code, inst, acc, b=b).secure:
            return code
    return None
