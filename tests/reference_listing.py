"""Frozenset reference for `secix.oracle.list_checks`: the receiver and
(A, B) digit lists built one list at a time, each removed row set kept
as a frozenset, one slot per distinct set in the order it is first met
(per list, its view, then its view and target).  Slow, but written
without bitmasks, so the listing pass is tested against it."""

import itertools

from secix.oracle import InfeasibleBlockError


def block_pairs(inst, acc, b):
    """(A, [size-b blocks outside A]) for every access set A but the full
    message set; InfeasibleBlockError when some A leaves fewer than b
    messages outside it."""
    full = frozenset(inst.messages())
    pairs = []
    for a in acc.expand(inst.m):
        if a == full:
            continue
        outside = sorted(full - a)
        if b > len(outside):
            raise InfeasibleBlockError(
                f"block size {b} exceeds the {len(outside)} messages outside access set {sorted(a)}"
            )
        pairs.append((tuple(sorted(a)), list(itertools.combinations(outside, b))))
    return pairs


def receiver_rows(inst):
    """One digit list (known rows, then the wanted row) per receiver and
    wanted message it does not know, and per list its receiver's index."""
    rows, owner = [], []
    for i, r in enumerate(inst.receivers):
        view = [j - 1 for j in sorted(r.knows)]
        for j in sorted(r.wants - r.knows):
            rows.append(view + [j - 1])
            owner.append(i)
    return rows, owner


def listing(inst, acc, b):
    """(labels, owner, removed sets in slot order, view slot per list,
    full slot per list), the receiver lists first."""
    rows, owner = receiver_rows(inst)
    labels = [(access, block) for access, blocks in block_pairs(inst, acc, b) for block in blocks]
    pair_rows = [[j - 1 for j in access + block] for access, block in labels]
    slots, views, fulls = {}, [], []
    for lists, width in ((rows, 1), (pair_rows, b)):
        for row in lists:
            views.append(slots.setdefault(frozenset(row[:-width]), len(slots)))
            fulls.append(slots.setdefault(frozenset(row), len(slots)))
    return labels, owner, list(slots), views, fulls
