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
all states, a table code by one lookup per state.  A receiver or pair
then packs its view (codeword id, X_A) and its target (X_B) into one
int64 key per state, sorts the keys and reads off run lengths:

* a receiver decodes iff no view occurs in two runs, i.e. the number
  of distinct views equals the number of distinct (view, target) keys;
* a pair is uniform iff every view occurs in exactly q^b runs of
  equal length.

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
    "check_decodability",
    "check_security",
    "entropy_bits",
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


def _check_budget(code, budget: int) -> None:
    total = state_count(code)
    # a power of q: past 4300 digits Python refuses to print the decimal
    if code.kind == "linear":
        shown = f"{code.q}^{code.m + code.key_dim}"
    else:
        shown = f"{code.q}^{code.m} x {code.key_count}"
    if total > budget:
        raise BudgetExceededError(
            f"{shown} joint states exceed the budget of {budget}; raise the budget to force the enumeration"
        )
    if total * code.q ** max(code.m, 1) >= _KEY_LIMIT:
        raise BudgetExceededError(f"{shown} joint states are too many to index with 64-bit keys")


def _check_code_matches(code, inst: Instance) -> None:
    # the code's field may legitimately differ from the instance's when a
    # construction had to move to a bigger prime; the code's field then
    # governs the message alphabet, and only the message count must agree
    if code.m != inst.m:
        raise ValueError(f"code is for {code.m} messages, instance has {inst.m}")


def _dense(keys):
    """Re-number keys as 0, 1, ... in sorted order; returns (ids, id count)."""
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.empty(len(keys), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    ids = np.empty_like(keys)
    ids[order] = np.cumsum(new) - 1
    return ids, int(ids[order[-1]]) + 1


def _pack(keys, bound: int, columns, indices, q: int):
    """Append the digit columns at `indices` to keys below `bound`.

    Returns (keys, new bound): two rows get equal keys iff they had equal
    keys and equal digits.  Keys are re-ranked before they could leave
    int64, which long codewords need.
    """
    for j in indices:
        if bound * q >= _KEY_LIMIT:
            keys, bound = _dense(keys)
        keys = keys * q + columns[:, j]
        bound *= q
    return keys, bound


def _state_table(code):
    """(message digits, codeword ids, id count) over every joint state."""
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
    ids, bound = _pack(np.zeros(total, dtype=np.int64), 1, words, range(code.length), q)
    if bound > total:
        ids, bound = _dense(ids)
    return x, ids, bound


def _group(view, view_bound: int, x, target, q: int):
    """Sort the states by (view, target values).

    Returns the sorted packed keys and the width q^|target| that divides
    a key down to its view.
    """
    # _check_budget keeps view_bound * width below the limit, so _pack does
    # not re-rank and key // width is the view
    return np.sort(_pack(view, view_bound, x, target, q)[0]), q ** len(target)


def check_decodability(code, inst: Instance, budget: int = DEFAULT_BUDGET) -> list:
    """Per-receiver verdicts: True iff the receiver's wanted values are a
    function of the codeword and its side information.

    Randomized codes must decode for every key value, since receivers
    never see the key; the joint enumeration enforces exactly that.
    """
    _check_code_matches(code, inst)
    _check_budget(code, budget)
    x, ids, bound = _state_table(code)
    verdicts = []
    for r in inst.receivers:
        # wanted messages already known are read off the side information
        view = _pack(ids, bound, x, [j - 1 for j in sorted(r.knows)], code.q)
        keys, width = _group(*view, x, [j - 1 for j in sorted(r.wants - r.knows)], code.q)
        views = keys // width
        # decodes iff #distinct views == #distinct (view, target) keys
        verdicts.append(
            bool(np.count_nonzero(views[1:] != views[:-1]) == np.count_nonzero(keys[1:] != keys[:-1]))
        )
    return verdicts


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
    complete: bool

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
    stop_on_failure: bool = False,
) -> SecurityReport:
    """Exact block-security verdict for every (A, B) pair.

    For each access set A (except the full message set, against which
    no block exists and nothing can leak) and each size-b subset B of
    the remaining messages, tests conditional uniformity of the B
    values given every (codeword, A values) of positive probability.

    With stop_on_failure the report is truncated at the first failing
    pair (its `complete` flag records this); the overall verdict is
    unaffected since one failure already decides it.
    """
    _check_code_matches(code, inst)
    if b < 1:
        raise ValueError(f"block size must be >= 1, got {b}")
    _check_budget(code, budget)
    full = frozenset(inst.messages())
    pairs = []
    for a in acc.expand(inst.m):
        if a == full:
            continue  # nothing outside A: vacuously leak-free
        outside = sorted(full - a)
        if b > len(outside):
            raise InfeasibleBlockError(
                f"block size {b} exceeds the {len(outside)} messages outside access set {sorted(a)}"
            )
        pairs.append((tuple(sorted(a)), list(itertools.combinations(outside, b))))
    pair_count = sum(len(blocks) for _, blocks in pairs)

    q = code.q
    block_entropy = b * math.log2(q)
    total = state_count(code)
    checks = []
    if pairs:
        x, ids, bound = _state_table(code)
    for access, blocks in pairs:
        view = _pack(ids, bound, x, [j - 1 for j in access], q)
        for block in blocks:
            keys, width = _group(*view, x, [j - 1 for j in block], q)
            edges = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1], [True])))
            lengths = edges[1:] - edges[:-1]
            run_views = keys[edges[:-1]] // width
            starts = np.flatnonzero(np.concatenate(([True], run_views[1:] != run_views[:-1])))
            runs_per_view = np.diff(starts, append=len(lengths))
            # per run: the number of states sharing its view
            view_sizes = np.repeat(np.add.reduceat(lengths, starts), runs_per_view)
            # width = q^b: every view must hold all block values equally often
            uniform = bool((runs_per_view == width).all() and (lengths * width == view_sizes).all())
            conditional = float(lengths @ (np.log2(view_sizes) - np.log2(lengths))) / total
            checks.append(PairCheck(access, block, uniform, block_entropy, conditional))
            if stop_on_failure and not uniform:
                return SecurityReport(tuple(checks), b, complete=len(checks) == pair_count)
    return SecurityReport(tuple(checks), b, complete=True)


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
