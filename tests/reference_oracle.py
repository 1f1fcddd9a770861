"""Pure-Python reference for `secix.oracle`: encode every joint state one
at a time and group the results in dicts.  Slow, but written without
any packing or sorting, so the vectorized oracle is tested against it."""

import itertools
import math

from secix.oracle import InfeasibleBlockError


def entropy_bits(counts) -> float:
    """Shannon entropy in bits of an exact count distribution.

    Accepts an iterable of positive counts or a mapping to counts.
    Rendering only: verdicts never compare these floats.
    """
    if hasattr(counts, "values"):
        counts = counts.values()
    counts = [c for c in counts if c]
    if not counts:
        raise ValueError("entropy of an empty distribution is undefined")
    total = sum(counts)
    return -sum((c / total) * math.log2(c / total) for c in counts)


def states(code):
    """(message tuple, codeword) for every state, the key fastest (for a
    linear code, its last key symbol fastest)."""
    for x in itertools.product(range(code.q), repeat=code.m):
        if code.kind == "linear":
            for y in itertools.product(range(code.q), repeat=code.key_dim):
                yield x, code.encode(x, y or None)
        else:
            for key in range(code.key_count):
                yield x, code.encode(x, key)


def decodability(code, inst):
    verdicts = []
    for r in inst.receivers:
        seen = {}
        ok = True
        for x, c in states(code):
            view = (c, tuple(x[j - 1] for j in sorted(r.knows)))
            target = tuple(x[j - 1] for j in sorted(r.wants))
            if seen.setdefault(view, target) != target:
                ok = False
                break
        verdicts.append(ok)
    return verdicts


def security(code, inst, acc, b=1):
    """[(A, B, uniform, H(X_B | C, X_A) in bits)...]"""
    full = frozenset(inst.messages())
    pairs = []
    for a in acc.expand(inst.m):
        if a == full:
            continue
        outside = sorted(full - a)
        if b > len(outside):
            raise InfeasibleBlockError(f"block size {b} too large for {sorted(a)}")
        pairs += [(tuple(sorted(a)), block) for block in itertools.combinations(outside, b)]
    total = code.q ** code.m * code.key_count
    rows = []
    for access, block in pairs:
        groups = {}
        for x, c in states(code):
            counts = groups.setdefault((c, tuple(x[j - 1] for j in access)), {})
            target = tuple(x[j - 1] for j in block)
            counts[target] = counts.get(target, 0) + 1
        uniform = all(
            len(counts) == code.q ** b and len(set(counts.values())) == 1
            for counts in groups.values()
        )
        conditional = sum(
            sum(counts.values()) / total * entropy_bits(counts) for counts in groups.values()
        )
        rows.append((access, block, uniform, conditional))
    return rows
