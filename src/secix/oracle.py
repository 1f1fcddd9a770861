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

One verification pass builds one state table and checks every
receiver and every (A, B) pair on it: `check_security` returns the pair
verdicts together with the per-receiver decodability verdicts, and
`check_decodability` runs the same pass with no pairs.  The table holds
the digits of every state, in the order of the nested enumeration (x
in lexicographic order, key index fastest), as one contiguous row per
message (then per key symbol of a linear code) and a zero row, built
by one broadcast per row of the full base-q grid; and an integer id per
distinct codeword, below the number of states: a linear code is
encoded by one matrix product over all states, a table code by one
lookup per state.  The ids have one row per candidate code, so
`secure_generators` screens a whole stack of deterministic generators
over one shared digit table while the checks pass a single row.

Every check is a row of one int64 key matrix.  A row is a digit list,
view then target, for one candidate code: a receiver and one wanted
message it does not know (view: its side information; it decodes iff
it decodes each such message), or an (A, B) pair (view: X_A, target:
X_B).  A row's key per state is the codeword id followed by the listed
digits in base q (Horner steps over the digit table), so key //
q^|target| is the view.  The receiver rows are sorted first, then the
pair rows, each in chunks of at most _SORT_KEYS keys, so no chunk holds
both kinds.  One `np.sort(axis=-1)` sorts the rows of a chunk, and one
run-length pass over the flattened chunk reads all its verdicts, with
its kind's width q^|target| and parts; each row start opens a run and
a view, so neither spans two rows:

* a receiver row (width q, parts 1) passes iff every view is one run,
  i.e. equal views never carry different targets;
* a pair row (width and parts q^b) is uniform iff every run holds 1/q^b
  of its view's states, i.e. every view splits into q^b runs of equal
  length.

Verdicts come from these integer count comparisons alone, so they are
exact; the entropies attached to reports are decimal renderings of the
same run lengths for humans, never inputs to a verdict.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gf import checked_int
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
# `refuse`, `check_code_matches` and `check_block_size` stay unlisted, though codes
# and analysis call them: perfbench's tracer wraps what is listed and counts a
# refusal where it wraps.

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


def check_state_budget(q: int, m: int, keys: int, shown: str, budget: int) -> None:
    """Refuse to enumerate q^m * keys joint states (`shown` as a power of
    q) past the budget, or past what 64-bit (view, target) keys, below
    states * q^m, can index."""
    refuse(q ** m * keys, f"{shown} joint states", budget, -(-_KEY_LIMIT // q ** max(m, 1)))


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
    refuse(states * pairs, f"{shown} joint states x {pairs} (access set, block) pairs", budget)


def check_code_matches(code, inst: Instance) -> None:
    """ValueError unless the code is for the instance's messages.  Only
    the message count must agree: a construction may move to a bigger
    field than the instance's, which then governs the message alphabet."""
    if code.m != inst.m:
        raise ValueError(f"code is for {code.m} messages, instance has {inst.m}")


def check_block_size(b: int) -> None:
    """ValueError unless the block size b is an integer of at least 1.  Callers run it
    before any budget refusal, so a bad b is a usage error first."""
    if checked_int(b, "block size") < 1:
        raise ValueError(f"block size must be >= 1, got {b}")


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


def _digit_table(q: int, width: int, repeat: int = 1):
    """The base-q digits of 0, 1, ..., q^width - 1, each value `repeat`
    times in a row, as one contiguous width+1 x states table: row j holds
    digit j (most significant first) of every state, the last row is
    zero.  One broadcast assignment per row: digit j steps through 0 ..
    q-1 over stretches of q^(width-1-j) * repeat states."""
    table = np.zeros((width + 1, q ** width * repeat), dtype=np.int64)
    values = np.arange(q)[:, None]
    for j in range(width):
        np.copyto(table[j].reshape(q ** j, q, -1), values)
    return table


def _state_table(code):
    """(digit table, codeword ids as one candidate row) over every joint
    state.  Rows 0 .. m-1 of the digit table are the messages; a linear
    code's key symbols are the least significant digits of the state
    index and follow in rows m .. m+key_dim-1, before the zero row."""
    q, m = code.q, code.m
    if code.kind == "linear":
        digits = _digit_table(q, m + code.key_dim)
        words = digits[:-1].T @ code.matrix % q
    else:
        keys = code.key_count
        digits = _digit_table(q, m, keys)
        states = itertools.product(itertools.product(range(q), repeat=m), range(keys))
        words = np.array([code.table[s] for s in states], dtype=np.int64).reshape(digits.shape[1], code.length)
    return digits, _codeword_ids(words[None], q)


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
    key // width.  Returns per row whether every run holds 1/parts of its
    view's states; and per run its start in the flattened keys, its
    length and the size of its view.  With parts = 1 each view is one
    run: the target is a function of the view.  With parts = width = q^b
    each view splits into q^b equally long runs: the block is uniform
    given the view.
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
    ends = edges[view_edges]
    view_sizes = np.repeat(ends[1:] - ends[:-1], view_edges[1:] - view_edges[:-1])
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
    """The (A, B) of every pair of `pairs` (from `block_pairs`), and its
    digit list: view X_A, target X_B."""
    labels = [(access, block) for access, blocks in pairs for block in blocks]
    return labels, [[j - 1 for j in access + block] for access, block in labels]


def _verify(code, inst: Instance, pairs: list, b: int):
    """Per-receiver decodability and the PairChecks of `pairs`, all read
    from one state table: the receiver rows, then the pair rows, are
    sorted in chunks of up to _SORT_KEYS keys, and one _runs pass gives
    the verdicts of every row of a chunk."""
    q = code.q
    rows, owner = _receiver_rows(inst)
    labels, pair_rows = _pair_rows(pairs)
    decodes = [True] * len(inst.receivers)
    checks = []
    if not rows and not labels:
        return decodes, checks
    digits, ids = _state_table(code)
    step = _rows_per_sort(ids)
    for start in range(0, len(rows), step):
        ok = _check_rows(ids, digits, rows[start:start + step], q, 1, q)[0]
        for i, row_ok in zip(owner[start:start + step], ok.tolist()):
            decodes[i] = decodes[i] and row_ok
    total = ids.shape[1]
    block_entropy, values = b * math.log2(q), q ** b
    for start in range(0, len(labels), step):
        chunk = labels[start:start + step]
        ok, runs, lengths, view_sizes = _check_rows(ids, digits, pair_rows[start:start + step], values, values, q)
        # H(X_B | C, X_A) is each pair row's dot product over its own runs
        logs = np.log2(view_sizes) - np.log2(lengths)
        weights = lengths.astype(np.float64)
        cuts = np.searchsorted(runs, np.arange(len(chunk) + 1) * total).tolist()
        for label, row_ok, first, last in zip(chunk, ok.tolist(), cuts, cuts[1:]):
            conditional = float(weights[first:last].dot(logs[first:last])) / total
            checks.append(PairCheck(*label, row_ok, block_entropy, conditional))
    return decodes, checks


def check_decodability(code, inst: Instance, budget: int = DEFAULT_BUDGET) -> list:
    """Per-receiver verdicts: True iff the receiver's wanted values are a
    function of the codeword and its side information.

    Randomized codes must decode for every key value, since receivers
    never see the key; the joint enumeration enforces exactly that.
    This is `check_security` with no access set, so with no pair checks.
    """
    return list(check_security(code, inst, AccessStructure.explicit([]), budget=budget).decodable)


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
    digits = _digit_table(q, m)
    ids = _codeword_ids(digits[:-1].T @ generators % q, q)
    secure = np.zeros(count, dtype=bool)
    alive = np.arange(count)
    labels, pair_rows = _pair_rows(pairs)
    # every block has one size b, and a uniform block splits a view into q^b runs
    values = q ** len(labels[0][1]) if labels else 1
    for rows, width, parts in ((_receiver_rows(inst)[0], q, 1), (pair_rows, values, values)):
        start = 0
        while start < len(rows):
            stop = start + _rows_per_sort(ids)
            ok = _check_rows(ids, digits, rows[start:stop], width, parts, q)[0]
            ok = ok.reshape(-1, len(ids)).all(axis=0)
            alive, ids = alive[ok], ids[ok]
            if not alive.size:
                return secure
            start = stop
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
    """All pair verdicts plus the overall conjunction, and per receiver
    whether it decodes."""

    checks: tuple
    block_size: int
    decodable: tuple

    @property
    def secure(self) -> bool:
        return all(p.uniform for p in self.checks)

    def to_dict(self) -> dict:
        return {
            "pairs": [p.to_dict() for p in self.checks],
            "secure": self.secure,
            "block_size": self.block_size,
            "assumptions": "messages and keys uniform and independent",
            "decodable": list(self.decodable),
        }


def check_security(
    code,
    inst: Instance,
    acc: AccessStructure,
    b: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> SecurityReport:
    """Exact block-security verdict for every (A, B) pair, and the
    per-receiver decodability verdicts of `check_decodability`, from one
    state table.

    For each access set A (except the full message set, against which
    no block exists and nothing can leak) and each size-b subset B of
    the remaining messages, tests conditional uniformity of the B
    values given every (codeword, A values) of positive probability.
    Every pair sorts all joint states, so states x pairs past the budget
    is refused before the pairs are listed; receiver rows are not
    counted.
    """
    check_block_size(b)
    check_code_matches(code, inst)
    if code.kind == "linear":
        shown = f"{code.q}^{code.m + code.key_dim}"
    else:
        shown = f"{code.q}^{code.m} x {code.key_count}"
    check_state_budget(code.q, code.m, code.key_count, shown, budget)
    check_pair_budget(state_count(code), shown, inst.m, acc, b, budget)
    decodes, checks = _verify(code, inst, block_pairs(inst, acc, b), b)
    return SecurityReport(tuple(checks), b, tuple(decodes))
