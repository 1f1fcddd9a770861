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
lexicographic order, key index fastest), as one contiguous row per
message, and an integer id per distinct codeword, below the number of
states: a linear code is encoded by one matrix product over all states,
a table code by one lookup per state.  The ids have one row per
candidate code, so `secure_generators` screens a whole stack of
deterministic generators over one shared digit table while `check_*`
pass a single row.

Every check is a row of one int64 key matrix.  A row is a digit list,
view then target, for one candidate code: a receiver and one wanted
message it does not know (view: its side information; it decodes iff
it decodes each such message), or an (A, B) pair (view: X_A, target:
X_B).  A row's key per state is the codeword id followed by the listed
digits in base q (Horner steps over the digit table), so key //
q^|target| is the view.  One `np.sort(axis=-1)` sorts the rows of a
chunk of at most _SORT_KEYS keys, and one run-length pass over the
flattened chunk reads all its verdicts; each row start opens a run and
a view, so neither spans two rows:

* a receiver row passes iff every view is one run, i.e. equal views
  never carry different targets;
* a pair row is uniform iff every run holds 1/q^b of its view's states,
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
# states * q^m, because codeword ids are below the number of states and
# a view and its target cover disjoint messages.
_KEY_LIMIT = 2 ** 63

# Keys per np.sort: the rows of one check are sorted in chunks of at
# most this many (row, state) keys, and of at least one digit list.
# Larger chunks save calls; smaller ones let the generator search drop
# failed candidates sooner and keep the arrays of one chunk small.
_SORT_KEYS = 2 ** 13


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


def _codeword_ids(words, q: int):
    """Per row of a candidates x states x length stack of codeword
    symbols, equal codewords get equal ids below the number of states.
    Ids are re-ranked before they could leave int64, which long
    codewords need."""
    ids, bound = np.zeros(words.shape[:2], dtype=np.int64), 1
    for j in range(words.shape[2]):
        if bound * q >= _KEY_LIMIT:
            ids, bound = _dense(ids)
        ids = ids * q + words[..., j]
        bound *= q
    if bound > words.shape[1]:
        ids = _dense(ids)[0]
    return ids


def _digit_table(x):
    """The states x m message digits as one contiguous m+1 x states
    table: row j holds message j+1 in every state, the last row is zero."""
    table = np.zeros((x.shape[1] + 1, x.shape[0]), dtype=np.int64)
    table[:-1] = x.T
    return table


def _state_table(code):
    """(digit table, codeword ids as one candidate row) over every joint
    state."""
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
    return _digit_table(x), _codeword_ids(words[None], q)


def _keys(ids, digits, rows, q: int):
    """The key matrix with a row per digit list in `rows` and candidate
    (a row of the candidates x states `ids`), list-major: per state, the
    codeword id followed by the listed message digits, in base q.

    `digits` is a _digit_table of the states, read by Horner steps over
    its rows; shorter lists are right-aligned after zero digits from its
    last row.  Two states of a row get equal keys iff they have equal
    codewords and equal listed digits.  No list holds more than m
    digits, so the state budget keeps every key below states * q^m <
    2^63.
    """
    steps = max(map(len, rows))
    pad = len(digits) - 1
    cols = np.array([[pad] * (steps - len(r)) + r for r in rows], dtype=np.intp).T
    term = digits[cols[0]]
    for col in cols[1:]:
        term *= q
        term += digits[col]
    return (ids * q ** steps + term[:, None, :]).reshape(-1, ids.shape[1])


def _runs(keys, width: int, parts: int):
    """One run-length pass over row-sorted keys (rows x states).

    A run is a stretch of equal keys, a view a stretch of runs with equal
    key // width, where width is q^|target|.  Returns per row whether
    every run holds 1/parts of its view's states; and per run its start
    in the flattened keys, its length and the size of its view.  With
    parts = 1 each view is one run: the target is a function of the
    view.  With parts = width = q^b each view splits into q^b equally
    long runs: the block is uniform given the view.
    """
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
    ok = np.ones(rows, dtype=bool)
    ok[runs[lengths * parts != view_sizes] // states] = False
    return ok, runs, lengths, view_sizes


def _rows_per_sort(ids) -> int:
    """Digit lists per sort for these candidates x states ids, so that
    one sort holds at most _SORT_KEYS keys (and at least one list)."""
    return max(1, _SORT_KEYS // ids.size)


def _check_rows(ids, digits, rows, width: int, parts: int, q: int):
    """_runs of one sorted key matrix with a row per digit list (view,
    then target) and candidate (a row of `ids`), list-major."""
    keys = _keys(ids, digits, rows, q)
    keys.sort(axis=-1)
    return _runs(keys, width, parts)


def _receiver_rows(inst: Instance):
    """One digit list per receiver and wanted message it does not know:
    the view is the receiver's side information, the target that one
    message.  A tuple of values is a function of the view iff each value
    is, and the wanted messages a receiver knows are read off its view.
    Returns the lists and, per list, its receiver's index."""
    rows, owner = [], []
    for i, r in enumerate(inst.receivers):
        view = [j - 1 for j in sorted(r.knows)]
        for j in sorted(r.wants - r.knows):
            rows.append(view + [j - 1])
            owner.append(i)
    return rows, owner


def _pair_rows(pairs: list):
    """The (A, B) pairs of `pairs` (from `block_pairs`) and their digit
    lists: the view is A, the target B."""
    labels = [(access, block) for access, blocks in pairs for block in blocks]
    return labels, [[j - 1 for j in access + block] for access, block in labels]


def check_decodability(code, inst: Instance, budget: int = DEFAULT_BUDGET) -> list:
    """Per-receiver verdicts: True iff the receiver's wanted values are a
    function of the codeword and its side information.

    Randomized codes must decode for every key value, since receivers
    never see the key; the joint enumeration enforces exactly that.
    """
    _check_code_matches(code, inst)
    _check_budget(code, budget)
    digits, ids = _state_table(code)
    rows, owner = _receiver_rows(inst)
    step = _rows_per_sort(ids)
    decodes = [True] * len(inst.receivers)
    for start in range(0, len(rows), step):
        ok = _check_rows(ids, digits, rows[start:start + step], code.q, 1, code.q)[0]
        for i, row_ok in zip(owner[start:start + step], ok.tolist()):
            decodes[i] = decodes[i] and row_ok
    return decodes


def secure_generators(q: int, generators, inst: Instance, pairs: list, budget: int = DEFAULT_BUDGET):
    """Which of a candidates x m x length stack of generators over GF(q)
    decode for every receiver and leak nothing on any of `pairs` (from
    `block_pairs`); returns one bool per candidate.

    All candidates share one message table and one matrix product.  Each
    sort holds a row per (receiver, candidate) or (pair, candidate) for
    as many receivers, then pairs, as _SORT_KEYS allows, and a candidate
    is dropped after the first sort in which it fails: pairs are checked
    only on candidates every receiver decodes, and the fewer candidates
    survive, the more receivers or pairs one sort takes.
    """
    count, m, _ = generators.shape
    check_state_budget(q, m, 1, f"{q}^{m}", budget)
    x = radix_digits(np.arange(q ** m), q, m)
    digits, ids = _digit_table(x), _codeword_ids(x @ generators % q, q)
    secure = np.zeros(count, dtype=bool)
    alive = np.arange(count)
    labels, pair_rows = _pair_rows(pairs)
    # every block has one size b, and a uniform block splits a view into q^b runs
    values = q ** len(labels[0][1]) if labels else 1
    for rows, width, parts in ((_receiver_rows(inst)[0], q, 1), (pair_rows, values, values)):
        start = 0
        while start < len(rows):
            part = slice(start, start + _rows_per_sort(ids))
            ok = _check_rows(ids, digits, rows[part], width, parts, q)[0]
            ok = ok.reshape(-1, len(ids)).all(axis=0)
            alive, ids = alive[ok], ids[ok]
            if not alive.size:
                return secure
            start = part.stop
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
    labels, rows = _pair_rows(block_pairs(inst, acc, b))

    q = code.q
    block_entropy = b * math.log2(q)
    checks = []
    if rows:
        digits, ids = _state_table(code)
        step = _rows_per_sort(ids)
        for start in range(0, len(rows), step):
            uniform, runs, lengths, view_sizes = _check_rows(ids, digits, rows[start:start + step], q ** b, q ** b, q)
            # H(X_B | C, X_A) is each row's dot product over its own runs
            logs = np.log2(view_sizes) - np.log2(lengths)
            weights = lengths.astype(np.float64)
            cuts = np.searchsorted(runs, np.arange(len(uniform) + 1) * total).tolist()
            for ok, first, last in zip(uniform.tolist(), cuts, cuts[1:]):
                conditional = float(weights[first:last].dot(logs[first:last])) / total
                checks.append(PairCheck(*labels[len(checks)], ok, block_entropy, conditional))
    return SecurityReport(tuple(checks), b)
