"""Per-line reference for `secix.codes.Decoder`: one fresh row reduction
of [G_unknown^T | residual] for every codeword.  Slow, but it never
reuses a reduction across codewords, so the receiver-level decoder is
tested against it."""

import numpy as np

from secix.gf import rref


def decode(code, inst, receiver, codeword, side):
    """Recover receiver's wanted values from a codeword and its side
    information (values for its known messages in ascending index order).

    Returns the wanted values in ascending index order, or None when
    the codeword is inconsistent with the side information or the
    wanted values are not all pinned down by the available equations.
    One row reduction settles both: the wanted coordinates may be
    determined even when the system as a whole is underdetermined.
    """
    if code.is_randomized:
        raise ValueError("decode applies to deterministic linear codes")
    if code.m != inst.m:
        raise ValueError(f"code is for {code.m} messages, instance has {inst.m}")
    if not 1 <= receiver <= inst.n:
        raise ValueError(f"receiver index {receiver} out of range [1, {inst.n}]")
    rec = inst.receivers[receiver - 1]
    known = sorted(rec.knows)
    wanted = sorted(rec.wants)
    codeword = [int(v) % code.q for v in codeword]
    side = [int(v) % code.q for v in side]
    if len(codeword) != code.length:
        raise ValueError(f"codeword has length {len(codeword)}, expected {code.length}")
    if len(side) != len(known):
        raise ValueError(f"side information has {len(side)} values, expected {len(known)}")

    g = code.generator
    unknown = [j for j in inst.messages() if j not in rec.knows]
    # x_unknown G_unknown = c - x_known G_known: one reduction of
    # [G_unknown^T | residual] decides consistency and pins coordinates
    residual = np.array(codeword, dtype=np.int64) - np.array(side, dtype=np.int64) @ g[[j - 1 for j in known]]
    system = np.column_stack([g[[j - 1 for j in unknown]].T, residual])
    reduced, pivots = rref(code.q, system)
    if len(unknown) in pivots:
        return None  # a pivot in the residual column: 0 = nonzero
    free = [c for c in range(len(unknown)) if c not in pivots]
    # x_j is pinned iff its pivot row has no entry in a free column
    pinned = {
        unknown[c]: int(reduced[row, -1])
        for row, c in enumerate(pivots)
        if not reduced[row, free].any()
    }
    side_by_index = dict(zip(known, side))
    values = []
    for j in wanted:
        if j in side_by_index:
            values.append(side_by_index[j])
        elif j in pinned:
            values.append(pinned[j])
        else:
            return None
    return tuple(values)
