"""Exact decodability and security verdicts.

Messages are independent and uniform over GF(q); keys, when a code has
them, are uniform over their alphabet and independent of the messages.
A receiver decodes iff its wanted values are a function of (codeword,
side information); an eavesdropper holding the messages in A learns
nothing about a block B of other messages iff, for every (codeword,
values of A) of positive probability, the B-values are exactly uniform.

`check_security` answers every receiver and every (A, B) pair in one
call, and `check_decodability` is that call with no pairs.  Each check
is a digit list, view then target: a receiver and one wanted message it
does not know (view: its side information; it decodes iff it decodes
each such message), or an (A, B) pair (view: X_A, target: X_B).
`list_checks` lists them in one pass: each pair's label (A, B), in
report order, and per list the two sets of removed rows it is checked
without, its view and its view plus target.  Each distinct set is one
slot, a packed bit row (bit j of the little-endian bytes is row j), so
an access set's view is one slot shared by all its blocks, and equal
labels share one tuple.
`check_security` builds the report from the per-list verdicts of one
such pass, and there is one verdict path per kind of code.
`SecurityReport.json_text` renders the report's `--json` text from
fragments made once per distinct label and per distinct verdict tail.

*Linear codes: rank identities.*  With M = [G; Gtilde], a check hidden
behind its view sees the rows of M outside the view, key rows included.
Its target gains I = rank M_hidden - rank M_{hidden minus target}
symbols: a receiver decodes iff each of its lists gains 1, a pair is
uniform iff it gains 0, and H(X_B | C, X_A) = (b - I) log2 q.  Every
distinct row subset is ranked once, in capped stacks in which every
matrix has one shape (`_subset_ranks`): over GF(2) by `gf.word_rank`,
on M's columns packed into words and ANDed with each slot's kept rows,
read as words; over any other q by `gf.stack_rank`, on each slot's
kept rows, gathered.  One routine ranks a stack of matrices:
`check_security` passes one code's M, and `secure_generators`, which
screens the generator search, a stack of candidate generators, on the
lists of the search's one listing pass.
It first drops, with no rank, every candidate whose row is zero for a
message that some receiver wants and lacks; then it ranks the receiver
lists in one call, and the pair lists in steps of at most
gf.STACK_ENTRIES candidates x lists, dropping the candidates that leak
after each step.  Each call ranks only the slots its lists use.

*Table codes: counting over the joint space.*  The reference for
`TableCode`, and the second oracle that the tests hold the ranks to.
One state table holds the digits of every state, in the order of the
nested enumeration (x in lexicographic order, key index fastest), as
one contiguous row per message: the radix grid of `gf.radix_digits`,
each state repeated once per key; and an integer id per distinct
codeword, below the number of states.

Each check is counted on its own: per state, one int64 key packs the
codeword id and the listed digits in base q (Horner steps over the
digit table), so key // q^|target| is the view.  One `np.unique` counts
the states of each class of equal keys, and a second one, over the
classes' views, gives each class the size of its view:

* a receiver list passes iff every class is its whole view, i.e. equal
  views never carry different targets;
* a pair is uniform iff every class holds 1/q^b of its view's states,
  i.e. every view splits into q^b classes of equal size.

Verdicts come from integer ranks or integer count comparisons alone,
so they are exact; the entropies attached to reports are decimal
renderings for humans, never inputs to a verdict.  The budget gates of
`check_security`, one `check_budget` call, are the same for both paths
and run first: the state count and the states x pairs count are refused
before any pair is listed.  `analysis.search_linear` makes the same
call before it calls `secure_generators`, which has no gate of its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .gf import STACK_ENTRIES, checked_int, pack_words, radix_digits, stack_rank, word_rank
from .model import AccessStructure, Instance, json_text

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "Checks",
    "InfeasibleBlockError",
    "PairCheck",
    "SecurityReport",
    "check_budget",
    "check_decodability",
    "check_security",
    "list_checks",
    "secure_generators",
]
# `refuse`, `check_code_matches`, `checked_budget` and `check_block_size` stay
# unlisted, though codes, analysis and cli call them: perfbench's tracer wraps
# what is listed and counts a refusal where it wraps.

# Joint (message, key) states enumerated per verification, unless overridden.
DEFAULT_BUDGET = 2 ** 22

# Packed keys must stay below this.  A (view, target) key is below
# states * q^m, because codeword ids are below the number of states and
# a view and its target cover disjoint messages.
_KEY_LIMIT = 2 ** 63


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


class InfeasibleBlockError(ValueError):
    """Block size exceeds the number of messages outside some access set."""


def refuse(count: int, shown: str, budget: int, limit: int = _KEY_LIMIT) -> None:
    """The one budget gate: refuse `count` units of work, printed as
    `shown`, past the budget, or at or past `limit`, below which 64-bit
    integers index them.  `shown` names the count as a power of q: past
    4300 digits Python refuses to print the decimal."""
    if count > budget:
        problem = f"exceed the budget of {budget}; raise the budget to force the enumeration"
    elif count >= limit:
        problem = "are too many to index with 64-bit integers"
    else:
        return
    raise BudgetExceededError(f"{shown} {problem}")


def check_budget(q: int, m: int, keys: int, shown: str, acc: AccessStructure, b: int, budget: int) -> None:
    """Refuse q^m * keys joint states (`shown` as a power of q) past the
    budget, or past what 64-bit (view, target) keys, below states * q^m,
    can index; then the states times the (access set, block) pairs of
    `list_checks` past the budget, as the enumeration counts every state
    per pair.  Linear codes pass the same gates.  The pairs are counted
    with math.comb, before any access set is listed."""
    states = q ** m * keys
    refuse(states, f"{shown} joint states", budget, -(-_KEY_LIMIT // q ** max(m, 1)))
    if acc.kind == acc.KIND_T_LEVEL:
        pairs = math.comb(m, acc.max_size(m)) * math.comb(m - acc.t, b)
    else:
        # the full set counts C(0, b) = 0 pairs, as list_checks skips it
        pairs = sum(math.comb(m - len(a), b) for a in acc.expand(m))
    refuse(states * pairs, f"{shown} joint states x {pairs} (access set, block) pairs", budget)


def check_code_matches(code, inst: Instance) -> None:
    """ValueError unless the code is for the instance's messages.  Only
    the message count must agree: a construction may move to a bigger
    field than the instance's, which then governs the message alphabet,
    and `Instance` has already checked every receiver index."""
    if code.m != inst.m:
        raise ValueError(f"code is for {code.m} messages, instance has {inst.m}")


def checked_budget(budget) -> int:
    """budget as an int when it is an integer of at least 0 (0 refuses
    any work); ValueError otherwise.  Every function that takes a
    budget runs it before its first budget refusal, and the CLI before
    any command."""
    budget = checked_int(budget, "budget")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    return budget


def check_block_size(b: int) -> int:
    """b as an int when it is an integer of at least 1; ValueError
    otherwise.  Callers run it before any budget refusal, so a bad b is
    a usage error first, and go on with the int it returns."""
    b = checked_int(b, "block size")
    if b < 1:
        raise ValueError(f"block size must be >= 1, got {b}")
    return b


class Checks(NamedTuple):
    """Every check of an instance against an adversary, listed once:
    per list (the receiver lists, then the pair lists), the slot of its
    view and the slot of its view plus target.  A slot is a set of
    message rows, kept as a packed bit row, and each distinct set has
    one slot, so an access set's view serves all its blocks."""

    labels: list  # (A, B) per pair list, in report order
    owner: list  # receiver index per receiver list
    wanted: np.ndarray  # the message rows some receiver wants and lacks
    masks: np.ndarray  # slots x ceil(m / 8) uint8: per slot, bit j of its little-endian bytes is row j
    slots: np.ndarray  # 2 x lists: per list, its view's slot, then its view and target's
    b: int


def list_checks(inst: Instance, acc: AccessStructure, b: int) -> Checks:
    """The receiver lists and the (A, B) pairs of `check_security`.

    A receiver list is a receiver and one wanted message it does not
    know (view: its side information; a tuple of values is a function of
    the view iff each value is, and the wanted messages a receiver knows
    are read off its view).  A pair is an access set A and a size-b
    block B outside it (view X_A, target X_B), A in the order of
    `acc.expand` and B in lexicographic order.  The full message set is
    skipped: no block lies outside it, so it is vacuously leak-free.
    Raises InfeasibleBlockError when some access set leaves fewer than b
    messages outside it.  Equal labels share one tuple object.  Slots are
    keyed by int bitmask while listing, then packed into bytes.
    """
    m = inst.m
    bit = [0] + [1 << j for j in range(m)]  # bit[j] is message j's row
    index, views, fulls, owner, wanted = {}, [], [], [], set()  # index: mask -> slot
    for i, r in enumerate(inst.receivers):
        view = sum(map(bit.__getitem__, r.knows))
        for j in sorted(r.wants - r.knows):
            views.append(index.setdefault(view, len(index)))
            fulls.append(index.setdefault(view | bit[j], len(index)))
            owner.append(i)
            wanted.add(j - 1)
    everything, messages, width = (1 << m) - 1, range(1, m + 1), -(-m // 8)  # width: bytes per packed slot
    labels, blocks = [], {}
    for a in acc.expand(m):
        view = sum(map(bit.__getitem__, a))
        if view == everything:
            continue
        access = tuple(sorted(a))
        outside = [j for j in messages if j not in a]
        if b > len(outside):
            raise InfeasibleBlockError(
                f"block size {b} exceeds the {len(outside)} messages outside access set {list(access)}"
            )
        slot = index.setdefault(view, len(index))
        for block in itertools.combinations(outside, b):
            mask = sum(map(bit.__getitem__, block))
            labels.append((access, blocks.setdefault(mask, block)))
            views.append(slot)
            fulls.append(index.setdefault(view | mask, len(index)))
    masks = np.frombuffer(b"".join(map(int.to_bytes, index, itertools.repeat(width), itertools.repeat("little"))),
                          dtype=np.uint8).reshape(len(index), width)
    return Checks(labels, owner, np.array(sorted(wanted), dtype=np.intp), masks,
                  np.array((views, fulls), dtype=np.intp), b)


def _state_table(code):
    """(digit table, codeword ids) over every joint state of a table code:
    rows 0 .. m-1 of the digit table are the messages, the key index runs
    fastest within each message vector, and equal codewords get equal ids
    below the number of states, however long the codewords are."""
    q, m, keys = code.q, code.m, code.key_count
    digits = np.repeat(radix_digits(np.arange(q ** m), q, m).T, keys, axis=1)
    states = itertools.product(itertools.product(range(q), repeat=m), range(keys))
    words = np.array([code.table[s] for s in states], dtype=np.int64).reshape(digits.shape[1], code.length)
    return digits, np.unique(words, axis=0, return_inverse=True)[1].reshape(-1)


def _classes(ids, digits, row: list, width: int, q: int):
    """Per class of states with equal codeword and equal digits of `row`
    (view, then a target of `width` digits), in key order: its size, and
    the size of its view.

    A state's key is its codeword id followed by the listed digits, in
    base q (Horner steps over the rows of `digits`), so key // q^width is
    its view.  No list holds more than m digits, so the state budget
    keeps every key below states * q^m < 2^63.
    """
    keys = ids.copy()
    for j in row:
        keys *= q
        keys += digits[j]
    keys, runs = np.unique(keys, return_counts=True)
    _, starts, inverse = np.unique(keys // q ** width, return_index=True, return_inverse=True)
    return runs, np.add.reduceat(runs, starts)[inverse]


def _counted(code, checks: Checks):
    """The per-list verdicts of a table code, all read from one state
    table, with one _classes count per list of `checks` (its view's
    digits, then its target's): per receiver list, whether every class
    is its whole view; per pair list, whether every class holds 1/q^b
    of its view, and H(X_B | C, X_A), each class's share of the states
    times log2(view / class), summed."""
    if not checks.slots.size:
        return [], [], []
    q, b, bits = code.q, checks.b, np.unpackbits(checks.masks, axis=1, count=code.m, bitorder="little")
    rows = [np.flatnonzero(bits[v]).tolist() + np.flatnonzero(bits[f] > bits[v]).tolist() for v, f in checks.slots.T]
    digits, ids = _state_table(code)
    decodes, uniform, conditional = [], [], []
    for row in rows[:len(checks.owner)]:
        runs, views = _classes(ids, digits, row, 1, q)
        decodes.append(bool((runs == views).all()))
    states, values = ids.size, q ** b if checks.labels else 0  # b is unbounded when no pair uses it
    for row in rows[len(checks.owner):]:
        runs, views = _classes(ids, digits, row, b, q)
        uniform.append(bool((runs * values == views).all()))
        conditional.append(float(runs.astype(np.float64).dot(np.log2(views) - np.log2(runs))) / states)
    return decodes, uniform, conditional


def _subset_ranks(q: int, matrices, masks):
    """Per matrix M of a candidates x rows x cols stack over GF(q), and
    per packed bit row of removed row indices in `masks` (bit j of its
    little-endian bytes is row j; every bit past the last message reads
    0, so key rows are never removed), the rank of M without those rows,
    as a candidates x masks array.

    Ranks are taken in stacks over the (candidate, set) pairs,
    candidate-major, each of at most STACK_ENTRIES entries, and the
    elimination loop is min(rows, cols) steps long.

    Over GF(2) the columns of every M are packed once into words, bit j
    of a word being row j (`gf.pack_words`), and a set's kept rows are
    the complement of its mask read as little-endian words.  So one AND
    of the column words and the kept words builds every (matrix, set)
    stack, word axis first, for `gf.word_rank`.  When the columns
    outnumber the rows, the rows are packed instead, and the same AND
    with all-ones or zero words keeps or zeroes each row.  Over any other
    q each set's kept rows are gathered and padded with an appended zero
    row to the most rows a set keeps, or all rows are kept with the
    removed ones masked to zero, for `gf.stack_rank`; the gather costs a
    few calls more than the mask, which only a shorter loop, or a stack
    of many candidates, repays."""
    count, rows, cols = matrices.shape
    if q == 2:
        if cols > rows:
            vectors = pack_words(matrices)
            removed = np.unpackbits(masks, axis=1, count=rows, bitorder="little").T
            keep = np.where(removed, np.uint64(0), ~np.uint64(0))[None, :, None]  # per row
        else:
            vectors = pack_words(matrices.transpose(0, 2, 1))
            removed = np.zeros((len(masks), 8 * len(vectors)), dtype=np.uint8)
            removed[:, :masks.shape[1]] = masks
            keep = ~removed.view(np.uint64).T[:, None, None]  # per word
        width, length = vectors.shape[:2]
    else:
        keep = np.unpackbits(masks, axis=1, count=rows, bitorder="little") == 0
        length = int(keep.sum(axis=1).max(initial=0))
        gather = length < rows and (length < cols or count > 1)
        if gather:
            # a removed row reads the zero row, and sorting puts the kept rows first
            kept = np.where(keep, np.arange(rows), rows)
            kept.sort(axis=1)
            matrices = np.concatenate((matrices, np.zeros((count, 1, cols), dtype=np.int64)), axis=1)
        else:
            length = rows
        width = cols
    # a stack holds every set of several candidates, or some sets of one
    per_stack = max(1, STACK_ENTRIES // max(1, width * length))
    sets = max(1, min(len(masks), per_stack))
    per_candidate = max(1, per_stack // sets)
    ranks = np.empty((count, len(masks)), dtype=np.int64)
    for first in range(0, count, per_candidate):
        last = min(first + per_candidate, count)
        for start in range(0, len(masks), sets):
            stop = min(start + sets, len(masks))
            pairs = (last - first) * (stop - start)
            if q == 2:
                stack = vectors[:, :, first:last, None] & keep[..., start:stop]
                found = word_rank(stack.reshape(width, length, pairs))
            else:
                if gather:
                    stack = np.take(matrices[first:last], kept[start:stop, :length], axis=1)
                else:
                    stack = matrices[first:last, None] * keep[start:stop, :, None]
                found = stack_rank(q, stack.reshape(pairs, length, cols))
            ranks[first:last, start:stop] = found.reshape(last - first, stop - start)
    return ranks


def _gains(q: int, matrices, checks: Checks, lists: slice | None):
    """Per matrix M of a candidates x rows x cols stack over GF(q), and
    per list `lists` of `checks` (every list when None), the symbols its
    target gains: rank M_hidden - rank M_{hidden minus target}, where
    hidden is every row outside the view.

    Every slot is some list's view or its view plus target, so with
    every list each slot of `checks.masks` is ranked as it is; a slice
    of the lists ranks only the slots its lists use."""
    if lists is None:
        ranks = _subset_ranks(q, matrices, checks.masks)
        return ranks[:, checks.slots[0]] - ranks[:, checks.slots[1]]
    both = checks.slots[:, lists].ravel()  # the views, then the views and targets
    used = np.zeros(len(checks.masks), dtype=bool)
    used[both] = True
    # a used slot's column among the ranks is the number of used slots before it
    ranks = _subset_ranks(q, matrices, checks.masks[used])[:, (used.cumsum() - 1)[both]]
    half = len(both) // 2
    return ranks[:, :half] - ranks[:, half:]


def _ranked(code, checks: Checks):
    """The per-list verdicts of a linear code, from one rank per slot of
    M = [G; Gtilde], key rows included in every hidden set: per receiver
    list, whether it gains 1; per pair list, which leaks I = its gain
    symbols of X_B, whether I = 0, and H(X_B | C, X_A) = (b - I) log2 q,
    one float object per value of I that some pair has (with no pair,
    none, however large b is)."""
    gains = _gains(code.q, code.matrix[None], checks, None)[0].tolist()
    split, b, bits = len(checks.owner), checks.b, math.log2(code.q)
    leaks = gains[split:]
    conditional = {leak: (b - leak) * bits for leak in set(leaks)}
    return ([gain == 1 for gain in gains[:split]], [leak == 0 for leak in leaks],
            [conditional[leak] for leak in leaks])


def check_decodability(code, inst: Instance, budget: int = DEFAULT_BUDGET) -> list:
    """Per-receiver verdicts: True iff the receiver's wanted values are a
    function of the codeword and its side information.

    Randomized codes must decode for every key value, since receivers
    never see the key; the key rows of [G; Gtilde], which are never in a
    view, and the joint enumeration of a table code enforce exactly that.
    This is `check_security` with no access set, so with no pair checks.
    """
    return list(check_security(code, inst, AccessStructure.explicit([]), budget=budget).decodable)


def secure_generators(q: int, generators, checks: Checks):
    """Which of a candidates x m x length stack of generators over GF(q)
    decode for every receiver and leak nothing on any pair of `checks`
    (from `list_checks`); returns one bool per candidate.

    The rank identities of `check_security`, for every candidate at
    once: a candidate passes iff each receiver list gains 1 and each
    pair gains 0.  A candidate whose row is zero for a message that some
    receiver wants and lacks gains 0 on that receiver's list, so one
    vectorized test drops it before any rank.  The receiver lists are
    ranked in one `_gains` call, on the candidates left; then the pair
    lists, in steps of at most STACK_ENTRIES candidates x lists, each on
    the candidates that leaked on no earlier step.
    """
    split, lists = len(checks.owner), checks.slots.shape[1]
    alive = generators.any(axis=2).take(checks.wanted, axis=1).all(axis=1).nonzero()[0]
    if split and alive.size:
        alive = alive[(_gains(q, generators[alive], checks, slice(0, split)) == 1).all(axis=1)]
    start = split
    while start < lists and alive.size:
        stop = start + max(1, STACK_ENTRIES // alive.size)
        alive = alive[(_gains(q, generators[alive], checks, slice(start, stop)) == 0).all(axis=1)]
        start = stop
    secure = np.zeros(len(generators), dtype=bool)
    secure[alive] = True
    return secure


class PairCheck(NamedTuple):
    """Exact verdict for one (access set, block) pair."""

    access: tuple
    block: tuple
    uniform: bool
    block_entropy_bits: float
    conditional_entropy_bits: float

    def to_dict(self) -> dict:
        return {
            "A": list(self.access),
            "B": list(self.block),
            "uniform": self.uniform,
            "H_B_bits": self.block_entropy_bits,
            "H_B_given_CA_bits": self.conditional_entropy_bits,
        }


_ASSUMPTIONS = "messages and keys uniform and independent"
# the --json report around its pairs, secure, block_size and decodable texts
_REPORT_TEXT = ('{\n  "pairs": %s,\n  "secure": %s,\n  "block_size": %s,\n  "assumptions": '
                + json_text(_ASSUMPTIONS) + ',\n  "decodable": %s\n}')
# between two pairs of the report text
_PAIR_SEPARATOR = ",\n    "


@dataclass(frozen=True)
class SecurityReport:
    """All pair verdicts plus the overall conjunction, and per receiver
    whether it decodes."""

    checks: tuple
    block_size: int
    decodable: tuple

    @cached_property
    def secure(self) -> bool:
        return all(p.uniform for p in self.checks)

    def _summary(self) -> dict:
        """The fields after "pairs", in order."""
        return {
            "secure": self.secure,
            "block_size": self.block_size,
            "assumptions": _ASSUMPTIONS,
            "decodable": list(self.decodable),
        }

    def to_dict(self) -> dict:
        return {"pairs": [p.to_dict() for p in self.checks], **self._summary()}

    def json_text(self) -> str:
        """Exactly `model.json_text(self.to_dict())`, written with one
        join over fragments and one template for the rest.  Per pair the
        fragments are three: its A text, which carries the opening brace
        and the "B" key; its B text; and its tail, the (uniform, H_B,
        H_B|CA) text with the closing brace and the separator, which the
        last pair trades for the closing bracket.  Each fragment is made
        once per distinct object, or triple of objects for a tail, in
        separate maps for A, B and tails, since a hand-built report may
        share one tuple as an A and as a B.  The maps are keyed by object
        identity, which the checks keep alive, so values that compare
        equal but print differently (0.0 and -0.0, True and 1) never
        share one; `check_security` shares its label tuples and entropy
        floats, so its fragments are few."""
        heads, blocks, tails, parts = {}, {}, {}, []
        for a, b, uniform, block_bits, conditional_bits in self.checks:
            head = heads.get(id(a))
            if head is None:
                head = heads[id(a)] = '{\n      "A": ' + json_text(list(a), "      ") + ',\n      "B": '
            block = blocks.get(id(b))
            if block is None:
                block = blocks[id(b)] = json_text(list(b), "      ")
            key = id(uniform), id(block_bits), id(conditional_bits)
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = (',\n      "uniform": ' + json_text(uniform)
                                     + ',\n      "H_B_bits": ' + json_text(block_bits)
                                     + ',\n      "H_B_given_CA_bits": ' + json_text(conditional_bits)
                                     + "\n    }" + _PAIR_SEPARATOR)
            parts += head, block, tail
        listed = "[]"
        if parts:
            parts[-1] = parts[-1][:-len(_PAIR_SEPARATOR)] + "\n  ]"
            listed = "[\n    " + "".join(parts)
        return _REPORT_TEXT % (listed, json_text(self.secure), json_text(self.block_size),
                               json_text(list(self.decodable), "  "))


def check_security(
    code,
    inst: Instance,
    acc: AccessStructure,
    b: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> SecurityReport:
    """Exact block-security verdict for every (A, B) pair, and the
    per-receiver decodability verdicts of `check_decodability`.

    For each access set A (except the full message set, against which
    no block exists and nothing can leak) and each size-b subset B of
    the remaining messages, tests whether the B values are uniform
    given every (codeword, A values) of positive probability.  A linear
    code (keyed or not) is answered from ranks of row subsets of [G;
    Gtilde], with H(X_B | C, X_A) = (b - I) log2 q for a leak of I
    symbols; a table code from one state table.  Both return per-list
    verdicts for the lists of one `list_checks` pass, and the report is
    built here: a receiver decodes iff each of its lists passes.  Either
    way the gates run first and in this order: the budget and the block
    size as integers, the message count, the joint states, and states
    x pairs, which is refused before the pairs are listed (receiver
    lists are not counted).
    """
    budget = checked_budget(budget)
    b = check_block_size(b)
    check_code_matches(code, inst)
    if code.kind == "linear":
        shown = f"{code.q}^{code.m + code.key_dim}"
    else:
        shown = f"{code.q}^{code.m} x {code.key_count}"
    check_budget(code.q, code.m, code.key_count, shown, acc, b, budget)
    checks = list_checks(inst, acc, b)
    verdicts = _ranked if code.kind == "linear" else _counted
    passes, uniform, conditional = verdicts(code, checks)
    decodes = [True] * len(inst.receivers)
    for i, ok in zip(checks.owner, passes):
        decodes[i] = decodes[i] and ok
    entropy = b * math.log2(code.q) if checks.labels else None  # b is unbounded when no pair uses it
    pairs = [PairCheck(*label, ok, entropy, h) for label, ok, h in zip(checks.labels, uniform, conditional)]
    return SecurityReport(tuple(pairs), b, tuple(decodes))
