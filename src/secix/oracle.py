"""Ground-truth verification by exact exhaustive counting.

Messages are independent and uniform over GF(q); keys, when a code has
them, are uniform over their alphabet and independent of the messages.
The joint space is therefore uniform over q^m * |keys| states, and both
decodability and security reduce to integer counting over that space:

* a receiver can decode iff its wanted values are a function of
  (codeword, side information) -- no two states may agree on those and
  disagree on a wanted value;
* an eavesdropper holding the messages in A learns nothing about a
  block B of other messages iff, for every (codeword, values of A) of
  positive probability, the conditional distribution of the B-values is
  exactly uniform.

Each `check_*` call builds one state table and shares it across every
receiver and (A, B) pair it checks.  The table holds the message digits
of every state, in the order of the nested enumeration (x in
lexicographic order, key index fastest), and a dense integer id per
distinct codeword: a linear code is encoded by one matrix product over
all states, a table code by one lookup per state.  The codeword ids
carry a leading candidate axis, one row per code, so `secure_generators`
screens a whole stack of deterministic generators over one shared
message table while `check_*` pass a single row.  A receiver or pair
then packs each row's view (codeword id, X_A) and target (X_B) into one
int64 key per state, sorts every row and reads off run lengths:

* a receiver decodes iff no view occurs in two runs, i.e. equal
  adjacent views never carry different targets;
* a pair is uniform iff every run holds 1/q^b of its view's states,
  i.e. every view splits into q^b runs of equal length.

Verdicts come from these integer count comparisons alone, so they are
exact; the entropies attached to reports are decimal renderings of the
same run lengths for humans, never inputs to a verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gf import radix_digits
from .model import AccessStructure, Instance

__all__ = [
    "DEFAULT_BUDGET",
    "BudgetExceededError",
    "InfeasibleBlockError",
    "PairCheck",
    "SecurityReport",
    "block_pairs",
    "check_decodability",
    "check_pair_budget",
    "check_security",
    "check_state_budget",
    "secure_generators",
    "state_count",
]

# Joint (message, key) states enumerated per verification, unless overridden.
DEFAULT_BUDGET = 2 ** 22

# Packed keys must stay below this.  A (view, target) key is below
# states * q^m, because codeword ids are dense and a view and its target
# cover disjoint messages.
_KEY_LIMIT = 2 ** 63


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


class InfeasibleBlockError(ValueError):
    """Block size exceeds the number of messages outside some access set."""


def state_count(code) -> int:
    return code.q ** code.m * code.key_count


def check_state_budget(q: int, m: int, keys: int, shown: str, budget: int) -> None:
    """Refuse to enumerate q^m * keys joint states past the budget, or past
    what 64-bit (view, target) keys can index.  `shown` names the count
    as a power of q: past 4300 digits Python refuses to print the decimal."""
    total = q ** m * keys
    if total > budget:
        raise BudgetExceededError(
            f"{shown} joint states exceed the budget of {budget}; raise the budget to force the enumeration"
        )
    if total * q ** max(m, 1) >= _KEY_LIMIT:
        raise BudgetExceededError(f"{shown} joint states are too many to index with 64-bit keys")


def check_pair_budget(states: int, shown: str, m: int, acc: AccessStructure, b: int, budget: int) -> None:
    """Refuse `states` joint states (`shown` as printed) times the (access
    set, block) pairs of `block_pairs` past the budget: every pair sorts
    every state.  The pairs are counted with math.comb, before any access
    set is listed."""
    if acc.kind == acc.KIND_T_LEVEL:
        pairs = math.comb(m, acc.max_size(m)) * math.comb(m - acc.t, b)
    else:
        # the full set counts C(0, b) = 0 pairs, as block_pairs skips it
        pairs = sum(math.comb(m - len(a), b) for a in acc.expand(m))
    if states * pairs > budget:
        raise BudgetExceededError(
            f"{shown} joint states x {pairs} (access set, block) pairs exceed the budget of {budget}"
        )


def _check_budget(code, budget: int) -> str:
    """Refuse the code's joint states past the budget; returns their count
    as printed."""
    if code.kind == "linear":
        shown = f"{code.q}^{code.m + code.key_dim}"
    else:
        shown = f"{code.q}^{code.m} x {code.key_count}"
    check_state_budget(code.q, code.m, code.key_count, shown, budget)
    return shown


def _check_code_matches(code, inst: Instance) -> None:
    # the code's field may legitimately differ from the instance's when a
    # construction had to move to a bigger prime; the code's field then
    # governs the message alphabet, and only the message count must agree
    if code.m != inst.m:
        raise ValueError(f"code is for {code.m} messages, instance has {inst.m}")


def block_pairs(inst: Instance, acc: AccessStructure, b: int) -> list:
    """(A, [size-b blocks outside A]) for every access set A of `acc`.

    The full message set is skipped: no block lies outside it, so it is
    vacuously leak-free.  Raises InfeasibleBlockError when some access
    set leaves fewer than b messages outside it.
    """
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


def _dense(keys):
    """Re-number each row's keys as 0, 1, ... in sorted order; returns
    (ids, bound on the ids of every row)."""
    order = np.argsort(keys, axis=-1)
    ordered = np.take_along_axis(keys, order, -1)
    new = np.zeros(keys.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new[:, 1:])
    ranks = np.cumsum(new, axis=-1)
    ids = np.empty_like(keys)
    np.put_along_axis(ids, order, ranks, -1)
    return ids, int(ranks[:, -1].max()) + 1


def _pack(keys, bound: int, columns, indices, q: int):
    """Append the digit columns at `indices` to keys below `bound`.

    `columns[..., j]` broadcasts against the (candidates x states) keys.
    Returns (keys, new bound): two states of a row get equal keys iff
    they had equal keys and equal digits.  Keys are re-ranked before
    they could leave int64, which long codewords need.
    """
    for j in indices:
        if bound * q >= _KEY_LIMIT:
            keys, bound = _dense(keys)
        keys = keys * q + columns[..., j]
        bound *= q
    return keys, bound


def _codeword_ids(words, q: int):
    """(ids, bound) for candidates x states x length codeword symbols:
    per row, equal codewords get equal ids below bound <= states."""
    ids, bound = _pack(np.zeros(words.shape[:2], dtype=np.int64), 1, words, range(words.shape[2]), q)
    if bound > words.shape[1]:
        ids, bound = _dense(ids)
    return ids, bound


def _state_table(code):
    """(message digits, codeword ids as one candidate row, id bound) over
    every joint state."""
    q, m, keys = code.q, code.m, code.key_count
    total = state_count(code)
    index = np.arange(total, dtype=np.int64)
    if code.kind == "linear":
        # key symbols are the least significant digits of the state index
        digits = radix_digits(index, q, m + code.key_dim)
        words = digits @ code.matrix % q
        x = digits[:, :m]
    else:
        x = radix_digits(index // keys, q, m)
        states = itertools.product(itertools.product(range(q), repeat=m), range(keys))
        words = np.array([code.table[s] for s in states], dtype=np.int64).reshape(total, code.length)
    return (x, *_codeword_ids(words[None], q))


def _group(view, view_bound: int, x, target, q: int):
    """Sort every row's states by (view, target values).

    Returns the row-sorted packed keys and the width q^|target| that
    divides a key down to its view.
    """
    # the state budget keeps view_bound * width below the limit, so _pack
    # does not re-rank and key // width is the view
    return np.sort(_pack(view, view_bound, x, target, q)[0], axis=-1), q ** len(target)


def _decodes(ids, bound: int, x, receiver, q: int):
    """Per candidate row: True iff the receiver's wanted values are a
    function of the codeword and its side information."""
    # wanted messages already known are read off the side information
    view = _pack(ids, bound, x, [j - 1 for j in sorted(receiver.knows)], q)
    keys, width = _group(*view, x, [j - 1 for j in sorted(receiver.wants - receiver.knows)], q)
    views = keys // width
    return ~((views[:, 1:] == views[:, :-1]) & (keys[:, 1:] != keys[:, :-1])).any(axis=1)


def _leak_free(view, x, block, q: int):
    """Per candidate row: True iff every view holds all q^b block values
    equally often.

    Also returns, per run of equal keys, its length and the number of
    states sharing its view, from which H(X_B | C, X_A) is rendered.
    """
    keys, width = _group(*view, x, block, q)
    rows, states = keys.shape
    keys = keys.ravel()
    # every row start opens a run and a view, so neither spans two rows;
    # the trailing entry closes the last run
    first = np.zeros(keys.size + 1, dtype=bool)
    first[::states] = True
    new_key = first.copy()
    new_key[1:-1] |= keys[1:] != keys[:-1]
    edges = new_key.nonzero()[0]
    runs = edges[:-1]
    lengths = edges[1:] - runs
    run_views = keys[runs] // width
    # per edge: does a view end there; the last edge closes the last view
    new_view = first[edges]
    new_view[1:-1] |= run_views[1:] != run_views[:-1]
    view_edges = new_view.nonzero()[0]
    cuts = edges[view_edges]
    view_sizes = np.repeat(cuts[1:] - cuts[:-1], view_edges[1:] - view_edges[:-1])
    # width = q^b: each run must hold 1/width of its view's states, which
    # also makes it one of exactly width runs
    bad = lengths * width != view_sizes
    uniform = np.ones(rows, dtype=bool)
    uniform[runs[bad] // states] = False
    return uniform, lengths, view_sizes


def check_decodability(code, inst: Instance, budget: int = DEFAULT_BUDGET) -> list:
    """Per-receiver verdicts: True iff the receiver's wanted values are a
    function of the codeword and its side information.

    Randomized codes must decode for every key value, since receivers
    never see the key; the joint enumeration enforces exactly that.
    """
    _check_code_matches(code, inst)
    _check_budget(code, budget)
    x, ids, bound = _state_table(code)
    return [bool(_decodes(ids, bound, x, r, code.q)[0]) for r in inst.receivers]


def secure_generators(q: int, generators, inst: Instance, pairs: list, budget: int = DEFAULT_BUDGET):
    """Which of a candidates x m x length stack of generators over GF(q)
    decode for every receiver and leak nothing on any of `pairs` (from
    `block_pairs`); returns one bool per candidate.

    All candidates share one message table and one matrix product; a
    candidate is dropped at the first receiver or pair it fails, so
    pairs are checked only on candidates every receiver decodes.
    """
    count, m, _ = generators.shape
    check_state_budget(q, m, 1, f"{q}^{m}", budget)
    x = radix_digits(np.arange(q ** m), q, m)
    ids, bound = _codeword_ids(x @ generators % q, q)
    secure = np.zeros(count, dtype=bool)
    alive = np.arange(count)
    for r in inst.receivers:
        ok = _decodes(ids, bound, x, r, q)
        alive, ids = alive[ok], ids[ok]
        if not alive.size:
            return secure
    for access, blocks in pairs:
        view, view_bound = _pack(ids, bound, x, [j - 1 for j in access], q)
        for block in blocks:
            ok = _leak_free((view, view_bound), x, [j - 1 for j in block], q)[0]
            alive, ids, view = alive[ok], ids[ok], view[ok]
            if not alive.size:
                return secure
    secure[alive] = True
    return secure


@dataclass(frozen=True)
class PairCheck:
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


@dataclass(frozen=True)
class SecurityReport:
    """All pair verdicts plus the overall conjunction."""

    checks: tuple
    block_size: int

    @property
    def secure(self) -> bool:
        return all(p.uniform for p in self.checks)

    def to_dict(self) -> dict:
        return {
            "pairs": [p.to_dict() for p in self.checks],
            "secure": self.secure,
            "block_size": self.block_size,
            "assumptions": "messages and keys uniform and independent",
        }


def check_security(
    code,
    inst: Instance,
    acc: AccessStructure,
    b: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> SecurityReport:
    """Exact block-security verdict for every (A, B) pair.

    For each access set A (except the full message set, against which
    no block exists and nothing can leak) and each size-b subset B of
    the remaining messages, tests conditional uniformity of the B
    values given every (codeword, A values) of positive probability.
    Every pair sorts all joint states, so states x pairs past the budget
    is refused before the pairs are listed.
    """
    _check_code_matches(code, inst)
    shown = _check_budget(code, budget)
    if b < 1:
        raise ValueError(f"block size must be >= 1, got {b}")
    total = state_count(code)
    check_pair_budget(total, shown, inst.m, acc, b, budget)
    pairs = block_pairs(inst, acc, b)

    q = code.q
    block_entropy = b * math.log2(q)
    checks = []
    if pairs:
        x, ids, bound = _state_table(code)
    for access, blocks in pairs:
        view = _pack(ids, bound, x, [j - 1 for j in access], q)
        for block in blocks:
            uniform, lengths, view_sizes = _leak_free(view, x, [j - 1 for j in block], q)
            conditional = float(lengths @ (np.log2(view_sizes) - np.log2(lengths))) / total
            checks.append(PairCheck(access, block, bool(uniform[0]), block_entropy, conditional))
    return SecurityReport(tuple(checks), b)
