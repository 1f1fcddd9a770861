"""Exact decodability and security verdicts against hand-counted and
independently computed expectations."""

import itertools
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import entropy as scipy_entropy

import reference_oracle

import secix.oracle
from secix import (
    AccessStructure,
    FieldMatrix,
    Instance,
    LinearCode,
    Receiver,
    TableCode,
    check_decodability,
    check_security,
    search_linear,
    security_level,
)
from secix.gf import radix_digits
from secix.oracle import (
    BudgetExceededError,
    InfeasibleBlockError,
    block_pairs,
    secure_generators,
    state_count,
)
from conftest import (
    WIDEST_Q,
    complementary_instance,
    crossed_pairs_instance,
    disjoint_sum_code,
    overlapping_sum_code,
    random_decodable_code,
    random_instance,
    unwanted_key_instance,
)


# ---- state table ----------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("width", range(1, 8))
def test_digit_table_is_the_radix_grid(q, width):
    total = q ** width
    table = secix.oracle._digit_table(q, width)
    assert table.shape == (width + 1, total) and table.flags.c_contiguous
    assert (table[:-1].T == radix_digits(np.arange(total), q, width)).all()
    assert not table[-1].any()
    # a table code's key index runs fastest, below the message digits
    keyed = secix.oracle._digit_table(q, width, 3)
    assert (keyed[:-1].T == radix_digits(np.arange(3 * total) // 3, q, width)).all()
    assert not keyed[-1].any()


# ---- decodability ------------------------------------------------------------

def test_all_receivers_decode_both_sum_codes():
    for q in (2, 3):
        inst = crossed_pairs_instance(q)
        assert check_decodability(disjoint_sum_code(q), inst) == [True] * 4
        assert check_decodability(overlapping_sum_code(q), inst) == [True] * 4


def test_missing_message_is_undecodable():
    inst = Instance(2, 2, (Receiver(set(), {2}),))
    code = LinearCode(FieldMatrix(2, [[1, 0], [0, 0]]))  # sends only x1
    assert check_decodability(code, inst) == [False]


def test_one_time_pad_hides_message_from_receiver():
    inst = Instance(2, 1, (Receiver(set(), {1}),))
    code = LinearCode(FieldMatrix(2, [[1]]), FieldMatrix(2, [[1]]))  # c = x1 + y
    assert check_decodability(code, inst) == [False]


def test_satisfied_receiver_always_decodes():
    inst = Instance(2, 2, (Receiver({1, 2}, {1}),))
    silent = LinearCode(FieldMatrix(2, [[0], [0]]))
    assert check_decodability(silent, inst) == [True]


def test_zero_length_code_decodes_nothing_new():
    inst = unwanted_key_instance(2)
    empty = LinearCode(FieldMatrix.zeros(2, 2, 0))
    assert check_decodability(empty, inst) == [False]


# ---- security ----------------------------------------------------------------

def test_sum_code_verdicts_swap_with_access_sets():
    for q in (2, 3):
        inst = crossed_pairs_instance(q)
        pair34 = AccessStructure.explicit([[3, 4]])
        single3 = AccessStructure.explicit([[3]])
        assert check_security(disjoint_sum_code(q), inst, pair34).secure
        assert not check_security(disjoint_sum_code(q), inst, single3).secure
        assert check_security(overlapping_sum_code(q), inst, single3).secure
        assert not check_security(overlapping_sum_code(q), inst, pair34).secure


def test_leak_report_names_the_readable_message():
    inst = crossed_pairs_instance(2)
    report = check_security(disjoint_sum_code(2), inst, AccessStructure.explicit([[3]]))
    leaking = [p for p in report.checks if not p.uniform]
    assert leaking and all(p.block == (4,) for p in leaking)
    leak = leaking[0]
    assert leak.block_entropy_bits == 1.0
    assert leak.conditional_entropy_bits == 0.0  # x4 = c2 - x3 outright


def test_keyed_instance_sum_code_secure_against_nothing_known():
    inst = unwanted_key_instance(2)
    code = LinearCode(FieldMatrix(2, [[1], [1]]))
    assert check_security(code, inst, AccessStructure.explicit([[]])).secure


def test_identity_code_insecure_at_level_zero():
    inst = crossed_pairs_instance(2)
    code = LinearCode(FieldMatrix.identity(2, 4))
    assert not check_security(code, inst, AccessStructure.t_level(0)).secure


def test_full_access_set_is_vacuously_secure():
    inst = crossed_pairs_instance(2)
    code = LinearCode(FieldMatrix.identity(2, 4))
    report = check_security(code, inst, AccessStructure.classical(4))
    assert report.secure
    assert report.checks == ()


def test_block_security_of_total_sum_code():
    inst = complementary_instance(5, 4)
    code = LinearCode(FieldMatrix(5, [[1], [1], [1], [1]]))  # x1+x2+x3+x4
    acc1 = AccessStructure.t_level(1)
    assert check_security(code, inst, acc1, b=2).secure
    assert not check_security(code, inst, AccessStructure.t_level(2), b=2).secure


def test_infeasible_block_size():
    inst = crossed_pairs_instance(2)
    code = disjoint_sum_code(2)
    with pytest.raises(InfeasibleBlockError):
        check_security(code, inst, AccessStructure.t_level(3), b=2)
    with pytest.raises(ValueError):
        check_security(code, inst, AccessStructure.t_level(1), b=0)


def test_budget_guard():
    inst = crossed_pairs_instance(2)
    code = disjoint_sum_code(2)
    assert state_count(code) == 16
    with pytest.raises(BudgetExceededError):
        check_security(code, inst, AccessStructure.t_level(1), budget=15)
    with pytest.raises(BudgetExceededError):
        check_decodability(code, inst, budget=15)


@pytest.mark.parametrize("acc, b", [
    (AccessStructure.t_level(1), 1),
    (AccessStructure.explicit([[3, 4], [1, 2, 3, 4], [], [2]]), 2),
], ids=["t-level", "explicit"])
def test_budget_counts_states_times_pairs_before_listing_them(monkeypatch, acc, b):
    inst = crossed_pairs_instance(2)
    code = disjoint_sum_code(2)
    pairs = sum(len(blocks) for _, blocks in block_pairs(inst, acc, b))
    assert len(check_security(code, inst, acc, b=b, budget=16 * pairs).checks) == pairs

    def unreachable(*args):
        raise AssertionError("pairs listed before the budget was checked")

    monkeypatch.setattr(secix.oracle, "block_pairs", unreachable)
    with pytest.raises(BudgetExceededError, match=rf"2\^4 joint states x {pairs} \(access set, block\) pairs"):
        check_security(code, inst, acc, b=b, budget=16 * pairs - 1)


def test_budget_refusal_allocates_nothing():
    # 2^40 joint states: any state table would take terabytes
    inst = Instance(2, 40, (Receiver({1}, {2}),))
    code = LinearCode(FieldMatrix.zeros(2, 40, 3))
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            check_decodability(code, inst)
        with pytest.raises(BudgetExceededError):
            check_security(code, inst, AccessStructure.t_level(1))
        # a raised budget does not help once 64-bit state keys could wrap
        with pytest.raises(BudgetExceededError):
            check_decodability(code, inst, budget=2 ** 90)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# 2^40 joint states per code
FORTY = Instance(2, 40, (Receiver({1}, {2}),))

# per budget refusal: the call, its pinned message fragment, and the
# function that asks the gate
SEVEN_REFUSALS = {
    "states": (lambda: check_decodability(LinearCode(FieldMatrix.zeros(2, 40, 3)), FORTY),
               r"2\^40 joint states exceed", "check_state_budget"),
    "state-keys": (lambda: check_decodability(LinearCode(FieldMatrix.zeros(2, 40, 3)), FORTY, budget=2 ** 90),
                   "joint states are too many", "check_state_budget"),
    # C(4, 1) access sets x C(3, 1) blocks
    "pairs": (lambda: check_security(disjoint_sum_code(2), crossed_pairs_instance(2), AccessStructure.t_level(1),
                                     budget=16),
              r"2\^4 joint states x 12 \(access set, block\) pairs", "check_pair_budget"),
    "candidates": (lambda: search_linear(FORTY, AccessStructure.t_level(20), 1),
                   r"2\^40 candidate", "search_linear"),
    "candidate-index": (lambda: search_linear(FORTY, AccessStructure.t_level(20), 2, budget=2 ** 90),
                        "candidate generators are too many", "search_linear"),
    # one row of G^T already spans more than the budget
    "span-rows": (lambda: security_level(LinearCode(FieldMatrix.identity(WIDEST_Q, 560))),
                  rf"{WIDEST_Q}\^1 to {WIDEST_Q}\^560 vectors", "security_level"),
    # the first two rows of G^T are equal, so only the full reduction finds rank 2
    "span": (lambda: security_level(LinearCode(FieldMatrix(5, [[1, 1, 0], [0, 0, 1], [0, 0, 0]])), budget=10),
             r"5\^2 vectors of the column span exceed the budget of 10", "security_level"),
}


@pytest.mark.parametrize("name", SEVEN_REFUSALS)
def test_every_budget_refusal_goes_through_the_gate(monkeypatch, name):
    call, fragment, site = SEVEN_REFUSALS[name]
    gate, raised = secix.oracle.refuse, []

    def spy(*args, **kwargs):
        try:
            gate(*args, **kwargs)
        except BudgetExceededError as exc:
            raised.append((sys._getframe(1).f_code.co_name, exc))
            raise

    for module in (secix.oracle, secix.codes, secix.analysis):
        monkeypatch.setattr(module, "refuse", spy)
    with pytest.raises(BudgetExceededError, match=fragment) as info:
        call()
    assert raised == [(site, info.value)]


def test_secure_generators_keeps_candidates_apart():
    # the receiver wants only what it knows, so even the constant code
    # decodes; its one view must not merge with the next candidate's
    # first view, or the leaking x1 code would condemn it too
    inst = Instance(2, 2, (Receiver({1}, {1}),))
    pairs = block_pairs(inst, AccessStructure.explicit([[]]), 1)
    stack = np.array([[[0], [0]], [[1], [0]]])
    assert secure_generators(2, stack, inst, pairs).tolist() == [True, False]
    for generator, secure in zip(stack, [True, False]):
        code = LinearCode(FieldMatrix(2, generator))
        assert check_security(code, inst, AccessStructure.explicit([[]])).secure is secure


def test_constant_code_pair_rows_do_not_merge():
    # the zero code leaks nothing, and a pair row's keys are its own X_A,
    # X_B digits: the last view of one row equals the first view of the
    # next, so the rows stay apart only through their row-start edges
    inst = complementary_instance(2, 6)
    code = LinearCode(FieldMatrix.zeros(2, 6, 2))
    for t, b in [(0, 1), (1, 1), (2, 2)]:
        report = check_security(code, inst, AccessStructure.t_level(t), b=b)
        assert len(report.checks) == math.comb(6, t) * math.comb(6 - t, b)
        assert all(p.uniform and p.conditional_entropy_bits == b for p in report.checks)
    assert check_decodability(code, inst) == [False] * 6


def test_receivers_with_empty_and_two_message_targets():
    # c = [x1 + x2, x3 + x4, x2] over GF(3); receiver 1 wants only what it
    # knows, 2 gets x2 but not x3, 3 gets both, 4 wants one it knows and
    # one it lacks
    inst = Instance(3, 4, (
        Receiver({1}, {1}),
        Receiver({1}, {2, 3}),
        Receiver({4}, {2, 3}),
        Receiver({2}, {1, 2}),
    ))
    code = LinearCode(FieldMatrix(3, [[1, 0, 0], [1, 0, 1], [0, 1, 0], [0, 1, 0]]))
    assert check_decodability(code, inst) == [True, False, True, True]
    assert reference_oracle.decodability(code, inst) == [True, False, True, True]
    # the same receivers screen a stack of candidates, with no pair to
    # check: this code, and the code that sends x3 in the clear, which
    # receiver 2 also decodes
    no_pairs = block_pairs(inst, AccessStructure.explicit([[1, 2, 3, 4]]), 1)
    stack = np.array([code.generator.data, [[1, 0, 0], [1, 0, 1], [0, 1, 0], [0, 0, 0]]])
    expected = [all(check_decodability(LinearCode(FieldMatrix(3, g)), inst)) for g in stack]
    assert expected == [False, True]
    assert secure_generators(3, stack, inst, no_pairs).tolist() == expected


@pytest.mark.parametrize("sort_keys", [1, 3 * 16, 5 * 16])
def test_sort_chunks_split_rows(monkeypatch, sort_keys):
    # 16 states: one digit list per sort, then chunks of 3 and of 5 lists
    # that split the 12 pairs and 4 receivers unevenly
    inst = crossed_pairs_instance(2)
    acc = AccessStructure.t_level(1)
    table = {(x, 0): (x[0] & x[1], x[1] ^ x[3]) for x in itertools.product(range(2), repeat=4)}
    codes = [overlapping_sum_code(2), TableCode(2, 4, 2, 1, table)]
    expected = [(check_decodability(c, inst), check_security(c, inst, acc)) for c in codes]
    # every length-2 generator against 7 pairs; 6 of them pass
    screen_acc = AccessStructure.explicit([[3], []])
    pairs = block_pairs(inst, screen_acc, 1)
    stack = radix_digits(np.arange(2 ** 8), 2, 8).reshape(-1, 4, 2)
    screened = secure_generators(2, stack, inst, pairs).tolist()
    assert sum(screened) == 6
    monkeypatch.setattr(secix.oracle, "_SORT_KEYS", sort_keys)
    assert [(check_decodability(c, inst), check_security(c, inst, acc)) for c in codes] == expected
    assert secure_generators(2, stack, inst, pairs).tolist() == screened
    one_by_one = [all(check_decodability(c, inst)) and check_security(c, inst, screen_acc).secure
                  for c in (LinearCode(FieldMatrix(2, g)) for g in stack)]
    assert one_by_one == screened


# ---- one pass: receiver and pair rows share a state table, not a sort ------------

def one_pass(code, inst, acc, b=1):
    """check_security's report, after checking that its decodability
    verdicts are check_decodability's and the reference's, and its pair
    verdicts the reference's."""
    report = check_security(code, inst, acc, b=b)
    assert list(report.decodable) == check_decodability(code, inst) == reference_oracle.decodability(code, inst)
    expected = reference_oracle.security(code, inst, acc, b)
    assert [(p.access, p.block, p.uniform) for p in report.checks] == [row[:3] for row in expected]
    return report


def test_one_pass_without_pair_rows():
    # the classical adversary and the explicit full set leave no block outside
    inst = crossed_pairs_instance(3)
    for acc in (AccessStructure.classical(4), AccessStructure.explicit([[1, 2, 3, 4]])):
        assert one_pass(overlapping_sum_code(3), inst, acc).decodable == (True,) * 4
        report = one_pass(LinearCode(FieldMatrix(3, [[1], [1], [0], [0]])), inst, acc)
        assert report.decodable == (True, True, False, False)
        assert report.checks == () and report.secure


def test_one_pass_without_receiver_rows():
    # every receiver wants only what it knows, so it decodes from any code,
    # and only pair rows are sorted
    inst = Instance(2, 3, (Receiver({1, 2}, {1}), Receiver({3}, {3})))
    report = one_pass(LinearCode(FieldMatrix(2, [[1], [1], [0]])), inst, AccessStructure.t_level(1))
    assert report.decodable == (True, True)
    assert [p.uniform for p in report.checks] == [False, True, False, True, True, True]


def test_one_pass_zero_length_codes():
    # nothing is sent: no receiver that lacks a wanted message decodes,
    # and every block stays uniform
    inst = crossed_pairs_instance(2)
    table = {(x, key): () for x in itertools.product(range(2), repeat=4) for key in range(3)}
    for code in (LinearCode(FieldMatrix.zeros(2, 4, 0)), TableCode(2, 4, 0, 3, table)):
        report = one_pass(code, inst, AccessStructure.t_level(1), b=2)
        assert report.decodable == (False,) * 4
        assert len(report.checks) == 12 and all(p.conditional_entropy_bits == 2 for p in report.checks)


def keyed_codes(q):
    """A keyed linear code, and a table code with q keys: both send
    [x1 + x2, x3 + x4 + y, x4 + y] for a uniform key y."""
    linear = LinearCode(FieldMatrix(q, [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 1]]), FieldMatrix(q, [[0, 1, 1]]))
    table = {(x, y): linear.encode(x, (y,)) for x in itertools.product(range(q), repeat=4) for y in range(q)}
    return [linear, TableCode(q, 4, 3, q, table)]


def test_one_pass_keyed_codes():
    # receivers 1 and 2 read c1, receiver 3 reads x3 = c2 - c3 whatever
    # the key, and receiver 4 sees x4 only under the key
    inst = crossed_pairs_instance(3)
    for code in keyed_codes(3):
        for acc, b in [(AccessStructure.t_level(1), 1), (AccessStructure.t_level(1), 2),
                       (AccessStructure.explicit([[], [3]]), 1)]:
            assert one_pass(code, inst, acc, b).decodable == (True, True, True, False)


@pytest.mark.parametrize("lists", [1, 3, 5])
@pytest.mark.parametrize("b", [1, 2])
def test_one_pass_chunks_mix_row_kinds(monkeypatch, lists, b):
    # 4 receiver rows, then the pair rows, in sorts of `lists` digit lists:
    # one row per sort, and sorts that end inside the receiver rows and
    # inside the pair rows at every offset; with b = 2 a pair row's width
    # q^2 differs from a receiver row's q
    inst = crossed_pairs_instance(3)
    acc = AccessStructure.t_level(1)
    majority = {(x, 0): (int(x[0] + x[1] >= 2), (x[2] + x[3]) % 3) for x in itertools.product(range(3), repeat=4)}
    # the total sum and the empty code leave the first pairs, A = [1], uniform
    codes = [overlapping_sum_code(3), disjoint_sum_code(3), TableCode(3, 4, 2, 1, majority),
             LinearCode(FieldMatrix(3, [[1]] * 4)), LinearCode(FieldMatrix.zeros(3, 4, 0))] + keyed_codes(3)
    for code in codes:
        monkeypatch.setattr(secix.oracle, "_SORT_KEYS", lists * state_count(code))
        one_pass(code, inst, acc, b)


@pytest.mark.parametrize("lists", [None, 3], ids=["default", "3-lists"])
@pytest.mark.parametrize("check", ["check_security", "secure_generators"])
def test_no_sort_mixes_row_kinds(monkeypatch, check, lists):
    # every receiver knows 3 of the 4 messages, so its digit lists hold 4
    # digits and a pair's (t = 1, b <= 2) at most 3: a list's length tells
    # its kind
    inst = complementary_instance(2, 4)
    acc = AccessStructure.t_level(1)
    stack = radix_digits(np.arange(2 ** 8), 2, 8).reshape(-1, 4, 2)
    kinds = []
    keys = secix.oracle._keys

    def spy(ids, digits, rows, q):
        kinds.append({len(r) == 4 for r in rows})
        return keys(ids, digits, rows, q)

    monkeypatch.setattr(secix.oracle, "_keys", spy)
    if lists:
        monkeypatch.setattr(secix.oracle, "_SORT_KEYS", lists * 2 ** 4)
    for b in (1, 2):
        if check == "check_security":
            check_security(LinearCode(FieldMatrix(2, [[1, 0], [1, 0], [0, 1], [0, 1]])), inst, acc, b)
        else:
            assert secure_generators(2, stack, inst, block_pairs(inst, acc, b)).any()
    assert {True} in kinds and {False} in kinds
    assert all(len(k) == 1 for k in kinds)


def test_two_to_the_fourteen_states_stay_small():
    # 2^14 states x 182 (A, B) pairs, sorted in chunks of _SORT_KEYS keys
    inst = complementary_instance(2, 14)
    code = LinearCode(FieldMatrix(2, [[1]] * 14))
    tracemalloc.start()
    try:
        report = check_security(code, inst, AccessStructure.t_level(1))
        decodable = check_decodability(code, inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.checks) == 182 and report.secure
    assert decodable == [True] * 14
    assert peak < 16 * 2 ** 20


def test_codewords_longer_than_64_bits():
    # 70 binary symbols do not fit one int64 key; only the first three carry
    # information, so a key that dropped its high bits would merge codewords
    code = LinearCode(FieldMatrix(2, [[int(c == j) for c in range(70)] for j in range(3)]))
    inst = complementary_instance(2, 3)
    assert check_decodability(code, inst) == [True] * 3
    assert not check_security(code, inst, AccessStructure.t_level(0)).secure


def test_table_code_matches_linear_equivalent():
    inst = crossed_pairs_instance(2)
    linear = disjoint_sum_code(2)
    table = {}
    for x in itertools.product(range(2), repeat=4):
        table[(x, 0)] = linear.encode(x)
    tabular = TableCode(2, 4, 2, 1, table)
    acc = AccessStructure.explicit([[3, 4]])
    assert check_decodability(tabular, inst) == check_decodability(linear, inst)
    assert check_security(tabular, inst, acc).secure == check_security(linear, inst, acc).secure


def test_randomized_code_secure_via_key():
    # c = [x1 + x2 + y, y]: the key hides x1+x2's complement structure
    inst = unwanted_key_instance(2)
    code = LinearCode(FieldMatrix(2, [[1, 0], [1, 0]]), FieldMatrix(2, [[1, 1]]))
    assert check_decodability(code, inst) == [True]
    assert check_security(code, inst, AccessStructure.explicit([[]])).secure


def test_randomized_table_code_one_time_pad():
    # table with a 2-value key alphabet: c = x1 + y, nobody decodes,
    # nothing leaks
    inst = Instance(2, 1, (Receiver(set(), {1}),))
    table = {((x,), y): ((x + y) % 2,) for x in range(2) for y in range(2)}
    pad = TableCode(2, 1, 1, 2, table)
    assert check_decodability(pad, inst) == [False]
    linear_pad = LinearCode(FieldMatrix(2, [[1]]), FieldMatrix(2, [[1]]))
    assert check_decodability(linear_pad, inst) == [False]


def test_counting_is_exact_mass():
    """Every (codeword, side) group partitions the whole uniform state
    space: group counts must sum to q^m * keys for each checked pair."""
    inst = crossed_pairs_instance(3)
    code = overlapping_sum_code(3)
    total = state_count(code)
    import itertools as it

    access = (3,)
    block = (4,)
    groups = {}
    for x in it.product(range(3), repeat=4):
        c = code.encode(x)
        key = (c, (x[2],))
        groups.setdefault(key, {}).setdefault((x[3],), 0)
        groups[key][(x[3],)] += 1
    assert sum(sum(cnt.values()) for cnt in groups.values()) == total
    report = check_security(code, inst, AccessStructure.explicit([access]))
    # and the oracle's verdict for this pair matches the inline count
    uniform_inline = all(
        len(cnt) == 3 and len(set(cnt.values())) == 1 for cnt in groups.values()
    )
    pair = [p for p in report.checks if p.block == block][0]
    assert pair.uniform == uniform_inline


def test_unequal_counts_leak_even_when_every_value_occurs():
    # c = majority(x1, x2, x3): both values of x1 occur under each codeword,
    # in proportion 3:1, so the codeword leaks about x1
    table = {(x, 0): (int(sum(x) >= 2),) for x in itertools.product(range(2), repeat=3)}
    code = TableCode(2, 3, 1, 1, table)
    inst = Instance(2, 3, (Receiver({2}, {1}),))
    report = check_security(code, inst, AccessStructure.explicit([[]]))
    assert [p.uniform for p in report.checks] == [False] * 3
    assert math.isclose(report.checks[0].conditional_entropy_bits, 2 - 0.75 * math.log2(3))


# ---- structural invariants ------------------------------------------------------

def security_passes_at_level(code, inst, t, b=1):
    return check_security(code, inst, AccessStructure.t_level(t), b=b).secure


def corpus_for(q, m):
    """Mixed corpus: constructed, fixed, and seeded-random codes."""
    rng = random.Random(q * 100 + m)
    inst = complementary_instance(q, m)
    yield inst, LinearCode(FieldMatrix(q, [[1]] * m))
    if m == 4:
        yield crossed_pairs_instance(q), disjoint_sum_code(q)
        yield crossed_pairs_instance(q), overlapping_sum_code(q)
    for _ in range(3):
        gen = [[rng.randrange(q) for _ in range(2)] for _ in range(m)]
        yield inst, LinearCode(FieldMatrix(q, gen))


def test_level_security_is_downward_closed():
    """A code passing all size-t sets passes all smaller sizes too."""
    for q in (2, 3):
        for m in (2, 3, 4):
            for inst, code in corpus_for(q, m):
                passes = [security_passes_at_level(code, inst, t) for t in range(m)]
                for t in range(1, m):
                    if passes[t]:
                        assert passes[t - 1], (q, m, code, t)


def test_compromised_pattern_breaks_every_decodable_code():
    """Whenever some access set covers a receiver's knowledge while it
    wants more, decodable codes sampled at random all fail security."""
    rng = random.Random(99)
    inst = Instance(2, 3, (Receiver({2}, {1}), Receiver({1, 3}, {2})))
    acc = AccessStructure.explicit([[2, 3]])  # covers receiver 1's knowledge
    for _ in range(10):
        code = random_decodable_code(rng, inst)
        assert not check_security(code, inst, acc).secure


def test_conditioning_never_helps_the_block():
    """Exact counting can never report more conditional than prior entropy."""
    rng = random.Random(4)
    for _ in range(8):
        inst = random_instance(rng, 3, 2)
        code = random_decodable_code(rng, inst)
        report = check_security(code, inst, AccessStructure.t_level(1))
        for pair in report.checks:
            assert pair.conditional_entropy_bits <= pair.block_entropy_bits + 1e-9
            if pair.uniform:
                assert math.isclose(pair.conditional_entropy_bits, pair.block_entropy_bits)


def test_report_json_shape():
    inst = crossed_pairs_instance(2)
    report = check_security(disjoint_sum_code(2), inst, AccessStructure.explicit([[3, 4]]))
    obj = report.to_dict()
    assert set(obj) >= {"pairs", "secure", "block_size"}
    assert obj["secure"] is True
    for pair in obj["pairs"]:
        assert set(pair) == {"A", "B", "uniform", "H_B_bits", "H_B_given_CA_bits"}


# ---- entropy rendering in the reference ---------------------------------------------

def test_entropy_examples():
    assert reference_oracle.entropy_bits([1, 1, 1, 1]) == 2.0
    assert reference_oracle.entropy_bits([7]) == 0.0
    assert reference_oracle.entropy_bits([2, 1, 1]) == 1.5


def test_entropy_matches_scipy():
    for counts in ([3, 1], [5, 2, 2, 1], [1, 1, 1]):
        assert math.isclose(reference_oracle.entropy_bits(counts), scipy_entropy(counts, base=2))


def test_entropy_accepts_mapping_and_rejects_empty():
    assert reference_oracle.entropy_bits({"a": 2, "b": 2}) == 1.0
    with pytest.raises(ValueError):
        reference_oracle.entropy_bits([])


# ---- differential test against the per-state reference --------------------------

# the largest message count per field that keeps q^m * keys <= 243 states
MAX_M = {2: 5, 3: 5, 5: 3}


@st.composite
def oracle_cases(draw):
    """(code, instance, access structure, b): keyed and unkeyed linear and
    table codes, instances whose receivers may want what they know."""
    q = draw(st.sampled_from(sorted(MAX_M)))
    m = draw(st.integers(1, MAX_M[q]))
    length = draw(st.integers(0, 3))

    def matrix(rows):
        entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * length, max_size=rows * length))
        return FieldMatrix(q, np.array(entries, dtype=np.int64).reshape(rows, length))

    key_dim = draw(st.integers(0, 2).filter(lambda k: q ** (m + k) <= 243))
    linear = LinearCode(matrix(m), matrix(key_dim) if key_dim else None)
    kind = draw(st.sampled_from(["linear", "copy", "random", "threshold"]))
    if kind == "linear":
        code = linear
    else:
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        # threshold symbols such as majority(x1, x2, x3) make views in which
        # every block value occurs, but not equally often
        cuts = [rng.randint(1, m * (q - 1)) for _ in range(length)]
        table = {}
        for x in itertools.product(range(q), repeat=m):
            for key, y in enumerate(itertools.product(range(q), repeat=key_dim)):
                if kind == "copy":
                    word = linear.encode(x, y or None)
                elif kind == "random":
                    word = tuple(rng.randrange(q) for _ in range(length))
                else:
                    word = tuple(int(sum(x) + key >= cut) for cut in cuts)
                table[(x, key)] = word
        code = TableCode(q, m, length, linear.key_count, table)

    subsets = st.frozensets(st.integers(1, m))
    receivers = draw(st.lists(st.builds(Receiver, subsets, subsets), min_size=1, max_size=3))
    if draw(st.booleans()):
        acc = AccessStructure.t_level(draw(st.integers(0, m - 1)))
    else:
        acc = AccessStructure.explicit(draw(st.lists(subsets, min_size=1, max_size=3)))
    return code, Instance(q, m, tuple(receivers)), acc, draw(st.sampled_from([1, 2]))


@given(oracle_cases())
@settings(max_examples=150, deadline=None)
def test_vectorized_oracle_matches_reference(case):
    code, inst, acc, b = case
    decodable = reference_oracle.decodability(code, inst)
    assert check_decodability(code, inst) == decodable
    try:
        expected = reference_oracle.security(code, inst, acc, b)
    except InfeasibleBlockError:
        with pytest.raises(InfeasibleBlockError):
            check_security(code, inst, acc, b=b)
        return
    report = check_security(code, inst, acc, b=b)
    assert list(report.decodable) == decodable
    assert [(p.access, p.block, p.uniform) for p in report.checks] == [row[:3] for row in expected]
    for pair, row in zip(report.checks, expected):
        assert pair.block_entropy_bits == b * math.log2(code.q)
        assert abs(pair.conditional_entropy_bits - row[3]) <= 1e-9
