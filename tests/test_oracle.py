"""Exact decodability and security verdicts against hand-counted and
independently computed expectations."""

import itertools
import json
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import entropy as scipy_entropy

import reference_listing
import reference_oracle
import reference_rref

import secix.oracle
from secix import (
    AccessStructure,
    Instance,
    LinearCode,
    Receiver,
    TableCode,
    check_decodability,
    check_security,
    construct_mds_code,
    search_linear,
    security_level,
)
from secix.gf import STACK_ENTRIES, radix_digits
from secix.oracle import (
    BudgetExceededError,
    InfeasibleBlockError,
    PairCheck,
    SecurityReport,
    list_checks,
    secure_generators,
)
from conftest import (
    WIDEST_Q,
    complementary_instance,
    crossed_pairs_instance,
    disjoint_sum_code,
    overlapping_sum_code,
    random_decodable_code,
    random_instance,
    ring_instance,
    table_copy,
    unwanted_key_instance,
)


# ---- state table ----------------------------------------------------------------

@pytest.mark.parametrize("q, m, keys", [(2, 1, 1), (2, 4, 3), (3, 3, 2), (5, 2, 4)])
def test_state_table_runs_the_key_index_fastest(q, m, keys):
    # one column per joint state in the nested enumeration's order, keys
    # innermost; equal codewords, and only they, share an id
    states = list(itertools.product(itertools.product(range(q), repeat=m), range(keys)))
    words = [(x[0], (x[-1] + k) % q) for x, k in states]
    code = TableCode(q, m, 2, keys, dict(zip(states, words)))
    digits, ids = secix.oracle._state_table(code)
    assert digits.shape == (m, len(states)) and digits.flags.c_contiguous
    assert digits.T.tolist() == [list(x) for x, _ in states]
    assert ids.shape == (len(states),) and 0 <= ids.min() and ids.max() < len(states)
    assert len(set(zip(ids.tolist(), words))) == len(set(ids.tolist())) == len(set(words))


# ---- decodability ------------------------------------------------------------

def test_all_receivers_decode_both_sum_codes():
    for q in (2, 3):
        inst = crossed_pairs_instance(q)
        assert check_decodability(disjoint_sum_code(q), inst) == [True] * 4
        assert check_decodability(overlapping_sum_code(q), inst) == [True] * 4


def test_missing_message_is_undecodable():
    inst = Instance(2, 2, (Receiver(set(), {2}),))
    code = LinearCode(2, [[1, 0], [0, 0]])  # sends only x1
    assert check_decodability(code, inst) == [False]


def test_one_time_pad_hides_message_from_receiver():
    inst = Instance(2, 1, (Receiver(set(), {1}),))
    code = LinearCode(2, [[1]], [[1]])  # c = x1 + y
    assert check_decodability(code, inst) == [False]


def test_satisfied_receiver_always_decodes():
    inst = Instance(2, 2, (Receiver({1, 2}, {1}),))
    silent = LinearCode(2, [[0], [0]])
    assert check_decodability(silent, inst) == [True]


def test_zero_length_code_decodes_nothing_new():
    inst = unwanted_key_instance(2)
    empty = LinearCode(2, np.zeros((2, 0), dtype=np.int64))
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
    code = LinearCode(2, [[1], [1]])
    assert check_security(code, inst, AccessStructure.explicit([[]])).secure


def test_identity_code_insecure_at_level_zero():
    inst = crossed_pairs_instance(2)
    code = LinearCode(2, np.eye(4, dtype=np.int64))
    assert not check_security(code, inst, AccessStructure.t_level(0)).secure


def test_full_access_set_is_vacuously_secure():
    inst = crossed_pairs_instance(2)
    code = LinearCode(2, np.eye(4, dtype=np.int64))
    report = check_security(code, inst, AccessStructure.classical(4))
    assert report.secure
    assert report.checks == ()


def test_block_security_of_total_sum_code():
    inst = complementary_instance(5, 4)
    code = LinearCode(5, [[1], [1], [1], [1]])  # x1+x2+x3+x4
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
    assert code.q ** code.m * code.key_count == 16
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
    pairs = len(list_checks(inst, acc, b).labels)
    assert len(check_security(code, inst, acc, b=b, budget=16 * pairs).checks) == pairs

    def unreachable(*args):
        raise AssertionError("pairs listed before the budget was checked")

    monkeypatch.setattr(secix.oracle, "list_checks", unreachable)
    with pytest.raises(BudgetExceededError, match=rf"2\^4 joint states x {pairs} \(access set, block\) pairs"):
        check_security(code, inst, acc, b=b, budget=16 * pairs - 1)


def test_budget_refusal_allocates_nothing():
    # 2^40 joint states: any state table would take terabytes
    inst = Instance(2, 40, (Receiver({1}, {2}),))
    code = LinearCode(2, np.zeros((40, 3), dtype=np.int64))
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
    "states": (lambda: check_decodability(LinearCode(2, np.zeros((40, 3), dtype=np.int64)), FORTY),
               r"2\^40 joint states exceed", "check_budget"),
    "state-keys": (lambda: check_decodability(LinearCode(2, np.zeros((40, 3), dtype=np.int64)), FORTY, budget=2 ** 90),
                   "joint states are too many", "check_budget"),
    # C(4, 1) access sets x C(3, 1) blocks
    "pairs": (lambda: check_security(disjoint_sum_code(2), crossed_pairs_instance(2), AccessStructure.t_level(1),
                                     budget=16),
              r"2\^4 joint states x 12 \(access set, block\) pairs", "check_budget"),
    "candidates": (lambda: search_linear(FORTY, AccessStructure.t_level(20), 1),
                   r"2\^40 candidate", "search_linear"),
    "candidate-index": (lambda: search_linear(FORTY, AccessStructure.t_level(20), 2, budget=2 ** 90),
                        "candidate generators are too many", "search_linear"),
    # one row of G^T already spans more than the budget
    "span-rows": (lambda: security_level(LinearCode(WIDEST_Q, np.eye(560, dtype=np.int64))),
                  rf"{WIDEST_Q}\^1 to {WIDEST_Q}\^560 vectors", "security_level"),
    # the first two rows of G^T are equal, so only the full reduction finds rank 2
    "span": (lambda: security_level(LinearCode(5, [[1, 1, 0], [0, 0, 1], [0, 0, 0]]), budget=10),
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
    checks = list_checks(inst, AccessStructure.explicit([[]]), 1)
    stack = np.array([[[0], [0]], [[1], [0]]])
    assert secure_generators(2, stack, checks).tolist() == [True, False]
    for generator, secure in zip(stack, [True, False]):
        code = LinearCode(2, generator)
        assert check_security(code, inst, AccessStructure.explicit([[]])).secure is secure


def test_constant_code_pair_rows_do_not_merge():
    # the zero code leaks nothing, and a pair row's keys are its own X_A,
    # X_B digits: the last view of one row equals the first view of the
    # next, so the rows stay apart only through their row-start edges
    inst = complementary_instance(2, 6)
    code = LinearCode(2, np.zeros((6, 2), dtype=np.int64))
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
    code = LinearCode(3, [[1, 0, 0], [1, 0, 1], [0, 1, 0], [0, 1, 0]])
    assert check_decodability(code, inst) == [True, False, True, True]
    assert reference_oracle.decodability(code, inst) == [True, False, True, True]
    # the same receivers screen a stack of candidates, with no pair to
    # check: this code, and the code that sends x3 in the clear, which
    # receiver 2 also decodes
    no_pairs = list_checks(inst, AccessStructure.explicit([[1, 2, 3, 4]]), 1)
    stack = np.array([code.generator, [[1, 0, 0], [1, 0, 1], [0, 1, 0], [0, 0, 0]]])
    expected = [all(check_decodability(LinearCode(3, g), inst)) for g in stack]
    assert expected == [False, True]
    assert secure_generators(3, stack, no_pairs).tolist() == expected


@pytest.mark.parametrize("sort_keys", [1, 3 * 16, 5 * 16])
def test_sort_chunks_split_rows(sort_keys):
    # every length-2 generator against 7 pairs; 6 of them pass, and
    # check_decodability and check_security, code by code, pick the same 6.
    # The 256 generators screened in chunks of 1, 48 or 80 (the last chunk
    # short) give the same verdicts: a candidate's steps do not depend on
    # which other candidates share its stack
    inst = crossed_pairs_instance(2)
    screen_acc = AccessStructure.explicit([[3], []])
    checks = list_checks(inst, screen_acc, 1)
    stack = radix_digits(np.arange(2 ** 8), 2, 8).reshape(-1, 4, 2)
    screened = secure_generators(2, stack, checks).tolist()
    assert sum(screened) == 6
    chunked = [ok for k in range(0, len(stack), sort_keys)
               for ok in secure_generators(2, stack[k:k + sort_keys], checks).tolist()]
    assert chunked == screened
    one_by_one = [all(check_decodability(c, inst)) and check_security(c, inst, screen_acc).secure
                  for c in (LinearCode(2, g) for g in stack)]
    assert one_by_one == screened


def test_secure_generators_screens_zero_rows_then_steps_the_pair_lists(monkeypatch):
    # the 2^8 length-2 generators, 256 times over, against the 32 pairs of
    # every access set but the full one.  Every message is wanted by a
    # receiver that lacks it, so the receiver lists are ranked, in one
    # _gains call, on the candidates with no zero row.  The pair lists
    # times the candidates that every receiver decodes exceed
    # gf.STACK_ENTRIES, so they are ranked in steps of at most that many,
    # each on the candidates that leaked on no earlier step.  Every
    # candidate leaks within the first step, so the last lists are never
    # ranked
    inst = crossed_pairs_instance(2)
    acc = AccessStructure.explicit([a for size in range(4) for a in itertools.combinations(range(1, 5), size)])
    checks = list_checks(inst, acc, 1)
    lists = len(checks.labels)
    distinct = radix_digits(np.arange(2 ** 8), 2, 8).reshape(-1, 4, 2)
    reports = [check_security(LinearCode(2, g), inst, acc) for g in distinct] * 256
    nonzero = 256 * int(distinct.any(axis=2).all(axis=1).sum())
    decoding = [r for r in reports if all(r.decodable)]
    step = STACK_ENTRIES // len(decoding)
    assert lists * len(decoding) > STACK_ENTRIES and step < lists
    assert not any(all(p.uniform for p in r.checks[:step]) for r in decoding)
    calls = []
    gains = secix.oracle._gains
    monkeypatch.setattr(secix.oracle, "_gains", lambda q, matrices, checks, lists:
                        calls.append((len(matrices), checks.slots[:, lists].shape[1]))
                        or gains(q, matrices, checks, lists))
    screened = secure_generators(2, np.tile(distinct, (256, 1, 1)), checks).tolist()
    assert calls == [(nonzero, len(inst.receivers)), (len(decoding), step)]
    assert (nonzero, len(decoding), step) == (256 * 81, 256 * 12, 21)
    assert screened == [all(r.decodable) and r.secure for r in reports]


def test_secure_generators_ranks_only_candidates_without_zero_wanted_rows(monkeypatch):
    # receiver 1 knows x1 and x3 and wants x1 and x2, so x2, x3 and x4 are
    # wanted by a receiver that lacks them and x1 is not.  A candidate with
    # a zero row for x2, x3 or x4 gains 0 on that receiver's list and never
    # reaches the receiver phase; one with a zero row for x1 does, and 6 of
    # the 18 secure generators are such.  The verdicts are check_security's,
    # candidate by candidate
    inst = Instance(2, 4, (Receiver({1, 3}, {1, 2}), Receiver({2, 4}, {3}), Receiver({3}, {4})))
    acc = AccessStructure.explicit([[]])
    stack = radix_digits(np.arange(2 ** 8), 2, 8).reshape(-1, 4, 2)
    calls = []
    gains = secix.oracle._gains
    monkeypatch.setattr(secix.oracle, "_gains", lambda q, matrices, checks, lists:
                        calls.append(matrices.copy()) or gains(q, matrices, checks, lists))
    screened = secure_generators(2, stack, list_checks(inst, acc, 1)).tolist()
    receiver_phase = calls[0]
    assert len(receiver_phase) == 2 ** 2 * 3 ** 3  # any row for x1, a nonzero one for the others
    assert receiver_phase[:, 1:].any(axis=2).all()
    reports = [check_security(LinearCode(2, g), inst, acc) for g in stack]
    assert screened == [all(r.decodable) and r.secure for r in reports]
    assert sum(screened) == 18 and sum(ok for ok, g in zip(screened, stack) if not g[0].any()) == 6


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
        report = one_pass(LinearCode(3, [[1], [1], [0], [0]]), inst, acc)
        assert report.decodable == (True, True, False, False)
        assert report.checks == () and report.secure


def test_pairless_block_size_lists_nothing_per_block_symbol():
    # entropy values are made per leak that some pair has, so with no
    # pair b = 10^6 makes none, not a million
    inst, acc = crossed_pairs_instance(3), AccessStructure.classical(4)
    tracemalloc.start()
    try:
        report = check_security(overlapping_sum_code(3), inst, acc, b=10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    assert report == SecurityReport((), 10 ** 6, (True,) * 4)
    assert report.json_text() == check_security(overlapping_sum_code(3), inst, acc, b=2).json_text().replace(
        '"block_size": 2,', '"block_size": 1000000,')


@pytest.mark.parametrize("code", [overlapping_sum_code(3), LinearCode(3, [[1, 0], [1, 1], [0, 1], [1, 2]], [[1, 1]])],
                         ids=["deterministic", "keyed"])
def test_pairless_block_size_past_the_float_range(code):
    # b enters a float only through a pair's H_B and H_B|CA: with no pair,
    # b = 10^400, past the largest float, gives b = 2's report but for block_size
    inst, acc, huge = crossed_pairs_instance(3), AccessStructure.classical(4), 10 ** 400
    report, expected = check_security(code, inst, acc, b=huge), check_security(code, inst, acc, b=2)
    assert report == SecurityReport((), huge, expected.decodable)
    assert report.json_text() == expected.json_text().replace('"block_size": 2,', f'"block_size": {huge},')


def test_pairless_table_code_never_raises_q_to_the_block_size():
    # q^b is the class size of a pair, so with no pair it is never made:
    # b = 10^6 peaks as b = 2 does
    code, inst, acc = table_copy(LinearCode(3, [[1]] * 4)), crossed_pairs_instance(3), AccessStructure.classical(4)
    reports, peaks = [], []
    for b in (2, 10 ** 6):
        tracemalloc.start()
        try:
            reports.append(check_security(code, inst, acc, b=b))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 100_000
    assert reports[1] == SecurityReport((), 10 ** 6, reports[0].decodable)


def test_one_pass_without_receiver_rows():
    # every receiver wants only what it knows, so it decodes from any code,
    # and only pair rows are sorted
    inst = Instance(2, 3, (Receiver({1, 2}, {1}), Receiver({3}, {3})))
    report = one_pass(LinearCode(2, [[1], [1], [0]]), inst, AccessStructure.t_level(1))
    assert report.decodable == (True, True)
    assert [p.uniform for p in report.checks] == [False, True, False, True, True, True]


def test_one_pass_zero_length_codes():
    # nothing is sent: no receiver that lacks a wanted message decodes,
    # and every block stays uniform
    inst = crossed_pairs_instance(2)
    table = {(x, key): () for x in itertools.product(range(2), repeat=4) for key in range(3)}
    for code in (LinearCode(2, np.zeros((4, 0), dtype=np.int64)), TableCode(2, 4, 0, 3, table)):
        report = one_pass(code, inst, AccessStructure.t_level(1), b=2)
        assert report.decodable == (False,) * 4
        assert len(report.checks) == 12 and all(p.conditional_entropy_bits == 2 for p in report.checks)


def keyed_codes(q):
    """A keyed linear code, and a table code with q keys: both send
    [x1 + x2, x3 + x4 + y, x4 + y] for a uniform key y."""
    linear = LinearCode(q, [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 1]], [[0, 1, 1]])
    return [linear, table_copy(linear)]


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
def test_one_pass_chunks_mix_row_kinds(lists, b):
    # 4 receiver lists, then the pair lists, of one state table; with b = 2
    # a pair's target of q^2 values differs from a receiver's q.  Each list
    # is counted on its own: the 4 access sets taken `lists` at a time (the
    # last chunk short, or all 4 at once) give the same verdicts and the
    # same entropies, to the bit, as the whole t-level report
    inst = crossed_pairs_instance(3)
    acc = AccessStructure.t_level(1)
    majority = {(x, 0): (int(x[0] + x[1] >= 2), (x[2] + x[3]) % 3) for x in itertools.product(range(3), repeat=4)}
    # the total sum and the empty code leave the first pairs, A = [1], uniform
    codes = [overlapping_sum_code(3), disjoint_sum_code(3), TableCode(3, 4, 2, 1, majority),
             LinearCode(3, [[1]] * 4), LinearCode(3, np.zeros((4, 0), dtype=np.int64))] + keyed_codes(3)
    sets = acc.expand(inst.m)
    for code in codes:
        report = one_pass(code, inst, acc, b)
        parts = [one_pass(code, inst, AccessStructure.explicit(sets[k:k + lists]), b)
                 for k in range(0, len(sets), lists)]
        assert all(part.decodable == report.decodable for part in parts)
        assert [p for part in parts for p in part.checks] == list(report.checks)


def test_two_to_the_fourteen_states_stay_small():
    # 2^14 states x 182 (A, B) pairs: the linear code is ranked, and its
    # table copy enumerated, one 2^14-key class count per digit list
    inst = complementary_instance(2, 14)
    linear = LinearCode(2, [[1]] * 14)
    for code in (linear, table_copy(linear)):
        tracemalloc.start()
        try:
            report = check_security(code, inst, AccessStructure.t_level(1))
            decodable = check_decodability(code, inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(report.checks) == 182 and report.secure
        assert decodable == [True] * 14
        assert peak < 16 * 2 ** 20, code


def test_rank_stacks_stay_small():
    # m = 14, t = 3: 4004 pairs over 2^14 states, past the default budget.
    # The x1 + ... + x14 code, sent 48 times, hides every single message
    # from 3 others; its 1365 row subsets of the 14 x 48 M would make one
    # stack of 7.3 MiB, ranked in stacks of gf.STACK_ENTRIES entries instead
    inst = complementary_instance(2, 14)
    code = LinearCode(2, [[1] * 48] * 14)
    tracemalloc.start()
    try:
        report = check_security(code, inst, AccessStructure.t_level(3), budget=2 ** 26)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.checks) == 4004 and report.secure
    assert report.decodable == (True,) * 14
    assert {p.conditional_entropy_bits for p in report.checks} == {1.0}
    assert peak < 6 * 2 ** 20


def test_codewords_longer_than_64_bits():
    # 70 binary symbols do not fit one int64 key; only the first three carry
    # information, so a key that dropped its high bits would merge codewords
    # (the table copy is enumerated, the linear code ranked)
    linear = LinearCode(2, [[int(c == j) for c in range(70)] for j in range(3)])
    inst = complementary_instance(2, 3)
    for code in (linear, table_copy(linear)):
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
    code = LinearCode(2, [[1, 0], [1, 0]], [[1, 1]])
    assert check_decodability(code, inst) == [True]
    assert check_security(code, inst, AccessStructure.explicit([[]])).secure


def test_randomized_table_code_one_time_pad():
    # table with a 2-value key alphabet: c = x1 + y, nobody decodes,
    # nothing leaks
    inst = Instance(2, 1, (Receiver(set(), {1}),))
    table = {((x,), y): ((x + y) % 2,) for x in range(2) for y in range(2)}
    pad = TableCode(2, 1, 1, 2, table)
    assert check_decodability(pad, inst) == [False]
    linear_pad = LinearCode(2, [[1]], [[1]])
    assert check_decodability(linear_pad, inst) == [False]


def test_counting_is_exact_mass():
    """Every (codeword, side) group partitions the whole uniform state
    space: group counts must sum to q^m * keys for each checked pair."""
    inst = crossed_pairs_instance(3)
    code = overlapping_sum_code(3)
    total = code.q ** code.m * code.key_count
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


def test_table_code_entropies_are_pinned_to_the_bit():
    # the rendered H(X_B | C, X_A) of a table code is a float sum over its
    # classes in key order; these are its exact values, so a change of the
    # summation order fails here (1.15...168 and 1.15...166 below are the
    # same entropy summed over differently ordered classes)
    majority = TableCode(2, 3, 1, 1, {(x, 0): (int(sum(x) >= 2),) for x in itertools.product(range(2), repeat=3)})
    inst = Instance(2, 3, (Receiver({2}, {1}),))
    for acc, b, expected in [
        (AccessStructure.explicit([[]]), 1, [0.8112781244591329] * 3),
        (AccessStructure.t_level(1), 1, [0.6887218755408671] * 6),
        (AccessStructure.explicit([[]]), 2, [1.5] * 3),
    ]:
        report = check_security(majority, inst, acc, b)
        assert [p.conditional_entropy_bits for p in report.checks] == expected
    # c = [x1 + x2 + y >= 3, x2 + x3 + y] over GF(3), with a uniform key y
    table = {(x, y): (int(x[0] + x[1] + y >= 3), (x[1] + x[2] + y) % 3)
             for x in itertools.product(range(3), repeat=3) for y in range(3)}
    keyed = TableCode(3, 3, 2, 3, table)
    inst = Instance(3, 3, (Receiver({2, 3}, {1}), Receiver({1}, {2, 3})))
    for b, expected in [
        (1, [1.3151768520121088] * 4 + [1.1525709436579168, 1.1525709436579166]),
        (2, [2.3899750004807707, 2.3899750004807707, 2.2273690921265783]),
    ]:
        report = check_security(keyed, inst, AccessStructure.t_level(1), b)
        assert [p.conditional_entropy_bits for p in report.checks] == expected
        assert {p.block_entropy_bits for p in report.checks} == {b * math.log2(3)}
        assert report.decodable == (False, False) and not report.secure


# ---- structural invariants ------------------------------------------------------

def security_passes_at_level(code, inst, t, b=1):
    return check_security(code, inst, AccessStructure.t_level(t), b=b).secure


def corpus_for(q, m):
    """Mixed corpus: constructed, fixed, and seeded-random codes."""
    rng = random.Random(q * 100 + m)
    inst = complementary_instance(q, m)
    yield inst, LinearCode(q, [[1]] * m)
    if m == 4:
        yield crossed_pairs_instance(q), disjoint_sum_code(q)
        yield crossed_pairs_instance(q), overlapping_sum_code(q)
    for _ in range(3):
        gen = [[rng.randrange(q) for _ in range(2)] for _ in range(m)]
        yield inst, LinearCode(q, gen)


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


# ---- the listing pass against its frozenset reference ------------------------------------

@st.composite
def listing_cases(draw):
    """(instance, access structure, b): receivers that may want what they
    know, t-level adversaries, and explicit ones with repeated sets and
    the full set."""
    m = draw(st.integers(1, 6))
    subsets = st.frozensets(st.integers(1, m))
    receivers = draw(st.lists(st.builds(Receiver, subsets, subsets), min_size=1, max_size=4))
    if draw(st.booleans()):
        acc = AccessStructure.t_level(draw(st.integers(0, m - 1)))
    else:
        sets = draw(st.lists(subsets, max_size=4))
        sets += draw(st.lists(st.sampled_from([*sets, frozenset(range(1, m + 1))]), max_size=3))
        acc = AccessStructure.explicit(draw(st.permutations(sets)))
    return Instance(2, m, tuple(receivers)), acc, draw(st.integers(1, 3))


@given(listing_cases())
@example((crossed_pairs_instance(2), AccessStructure.explicit([[1, 2], [1, 2, 3, 4], [], [1, 2], [1, 2, 3, 4]]), 2))
@example((crossed_pairs_instance(2), AccessStructure.explicit([[1, 2, 3, 4]]), 1))
@example((crossed_pairs_instance(2), AccessStructure.t_level(3), 2))
# past 63 messages a slot no longer fits one 64-bit word
@example((ring_instance(2, 64), AccessStructure.t_level(1), 1))
@example((ring_instance(2, 70), AccessStructure.t_level(1), 1))
@settings(max_examples=300, deadline=None)
def test_listing_pass_matches_frozenset_reference(case):
    inst, acc, b = case
    try:
        labels, owner, removed, views, fulls = reference_listing.listing(inst, acc, b)
    except InfeasibleBlockError as expected:
        with pytest.raises(InfeasibleBlockError) as raised:
            list_checks(inst, acc, b)
        assert str(raised.value) == str(expected)
        return
    checks = list_checks(inst, acc, b)
    assert checks.labels == labels and checks.owner == owner and checks.b == b
    assert checks.masks.dtype == np.uint8 and checks.masks.shape == (len(removed), -(-inst.m // 8))
    bits = np.unpackbits(checks.masks, axis=1, bitorder="little")
    assert not bits[:, inst.m:].any()  # the padding past the last message
    assert [frozenset(np.flatnonzero(row).tolist()) for row in bits] == removed
    assert checks.slots.tolist() == [views, fulls]
    assert checks.wanted.tolist() == sorted({j - 1 for r in inst.receivers for j in r.wants - r.knows})
    # equal labels are one object, so the report text renders each once
    for side in (0, 1):
        assert len({id(label[side]) for label in checks.labels}) == len({label[side] for label in labels})


def test_generators_are_screened_past_63_messages():
    # the MDS code is secure against t = 1 on the 70-message ring (t <= K - 1 = 66);
    # a code that also sends x1 in the clear leaks x1 to every access set
    inst = ring_instance(2, 70)
    checks = list_checks(inst, AccessStructure.t_level(1), 1)
    mds = construct_mds_code(inst)
    clear = np.hstack([mds.generator, np.eye(70, 1, dtype=np.int64)])
    assert secure_generators(mds.q, mds.generator[None], checks).tolist() == [True]
    assert secure_generators(mds.q, clear[None], checks).tolist() == [False]


def test_infeasible_block_text_is_pinned():
    inst = crossed_pairs_instance(2)
    with pytest.raises(InfeasibleBlockError) as raised:
        check_security(disjoint_sum_code(2), inst, AccessStructure.explicit([[1], [1, 2, 4]]), b=2)
    assert str(raised.value) == "block size 2 exceeds the 1 messages outside access set [1, 2, 4]"


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
def linear_cases(draw):
    """(linear code, instance, access structure, b): keyed and unkeyed
    codes of length 0-3 over GF(2), GF(3) or GF(5), instances whose
    receivers may want what they know, t-level and explicit adversaries."""
    q = draw(st.sampled_from(sorted(MAX_M)))
    m = draw(st.integers(1, MAX_M[q]))
    length = draw(st.integers(0, 3))

    def matrix(rows):
        entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * length, max_size=rows * length))
        return np.array(entries, dtype=np.int64).reshape(rows, length)

    key_dim = draw(st.integers(0, 2).filter(lambda k: q ** (m + k) <= 243))
    linear = LinearCode(q, matrix(m), matrix(key_dim) if key_dim else None)
    subsets = st.frozensets(st.integers(1, m))
    receivers = draw(st.lists(st.builds(Receiver, subsets, subsets), min_size=1, max_size=3))
    if draw(st.booleans()):
        acc = AccessStructure.t_level(draw(st.integers(0, m - 1)))
    else:
        acc = AccessStructure.explicit(draw(st.lists(subsets, min_size=1, max_size=3)))
    return linear, Instance(q, m, tuple(receivers)), acc, draw(st.sampled_from([1, 2]))


@st.composite
def oracle_cases(draw):
    """A `linear_cases` case whose code may be swapped for a table code:
    its copy, a random table, or threshold symbols."""
    linear, inst, acc, b = draw(linear_cases())
    kind = draw(st.sampled_from(["linear", "copy", "random", "threshold"]))
    if kind == "linear":
        code = linear
    elif kind == "copy":
        code = table_copy(linear)
    else:
        q, m, length = linear.q, linear.m, linear.length
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        # threshold symbols such as majority(x1, x2, x3) make views in which
        # every block value occurs, but not equally often
        cuts = [rng.randint(1, m * (q - 1)) for _ in range(length)]
        table = {}
        for x in itertools.product(range(q), repeat=m):
            for key in range(linear.key_count):
                if kind == "random":
                    word = tuple(rng.randrange(q) for _ in range(length))
                else:
                    word = tuple(int(sum(x) + key >= cut) for cut in cuts)
                table[(x, key)] = word
        code = TableCode(q, m, length, linear.key_count, table)
    return code, inst, acc, b


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


# ---- differential test: rank path against enumeration -----------------------------

@given(linear_cases())
@settings(max_examples=150, deadline=None)
def test_rank_path_matches_enumeration(case):
    # a linear code is ranked, its table copy enumerated: equal verdicts,
    # and the ranked entropy is exactly (b - I) log2 q for the enumerated
    # leak I
    code, inst, acc, b = case
    table = table_copy(code)
    try:
        expected = check_security(table, inst, acc, b=b)
    except InfeasibleBlockError:
        with pytest.raises(InfeasibleBlockError):
            check_security(code, inst, acc, b=b)
        return
    report = check_security(code, inst, acc, b=b)
    assert report.decodable == expected.decodable
    assert check_decodability(code, inst) == check_decodability(table, inst) == list(expected.decodable)
    bits = math.log2(code.q)
    for pair, row in zip(report.checks, expected.checks, strict=True):
        assert (pair.access, pair.block, pair.uniform) == (row.access, row.block, row.uniform)
        assert pair.block_entropy_bits == row.block_entropy_bits == b * bits
        assert abs(pair.conditional_entropy_bits - row.conditional_entropy_bits) <= 1e-9
        leak = round(b - row.conditional_entropy_bits / bits)
        assert pair.uniform == (leak == 0)
        assert pair.conditional_entropy_bits == (b - leak) * bits


# ---- the rank stacks: one stack under the cap, chunks past it ------------------------

def verdicts(report):
    """Everything a report says, entropies included, as one comparable value."""
    return report.decodable, [tuple(p) for p in report.checks]


# caps of 1 entry, of a few matrices and of many: every stack past the first
# is a chunk, and a chunk may end inside a candidate's sets
SMALL_CAPS = [1, 7, 64]


@given(linear_cases(), st.sampled_from(SMALL_CAPS))
@settings(max_examples=150, deadline=None)
@example((LinearCode(2, np.zeros((3, 0), dtype=np.int64)), Instance(2, 3, (Receiver({1}, {2}),)),
          AccessStructure.t_level(1), 1), 1).via("length-0 code")
@example((LinearCode(3, [[1, 2], [0, 1]]), Instance(3, 2, (Receiver({1, 2}, {1}),)),
          AccessStructure.explicit([[1, 2]]), 1), 1).via("no lists")
@example((LinearCode(2, [[1, 0, 1], [1, 1, 0], [0, 1, 1]]), Instance(2, 3, (Receiver({2, 3}, {1}),)),
          AccessStructure.t_level(2), 1), 7).via("a slot removes every message row")
def test_rank_stacks_agree_at_every_cap(case, cap):
    # one stack under the default cap, gathered or masked, and chunks of a
    # few entries under a small one, give one report, to the last float;
    # the table copy's enumeration agrees with both
    code, inst, acc, b = case
    try:
        expected = verdicts(check_security(code, inst, acc, b=b))
    except InfeasibleBlockError:
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(secix.oracle, "STACK_ENTRIES", cap)
        assert verdicts(check_security(code, inst, acc, b=b)) == expected
    table = check_security(table_copy(code), inst, acc, b=b)
    assert table.decodable == expected[0]
    assert [p.uniform for p in table.checks] == [p[2] for p in expected[1]]


@given(linear_cases())
@settings(max_examples=150, deadline=None)
@example((LinearCode(2, [[1, 0], [1, 1], [0, 1]], [[1, 1]]), complementary_instance(2, 3),
          AccessStructure.t_level(1), 1)).via("keyed over GF(2)")
@example((LinearCode(3, [[1, 2], [0, 1], [1, 1]], [[2, 1], [0, 1]]), complementary_instance(3, 3),
          AccessStructure.t_level(1), 2)).via("keyed over GF(3)")
@example((LinearCode(3, [[1, 2], [0, 1]]), Instance(3, 2, (Receiver({1, 2}, {1}),)),
          AccessStructure.explicit([[1, 2]]), 1)).via("no lists")
def test_gains_over_every_list_equal_its_slices(case):
    # every list ranks each slot as it is listed; the receiver lists and
    # then the pair lists, as secure_generators asks for them, rank only
    # the slots they use, and must give the same gains in the same order
    code, inst, acc, b = case
    try:
        checks = list_checks(inst, acc, b)
    except InfeasibleBlockError:
        return
    q, split, lists = code.q, len(checks.owner), checks.slots.shape[1]
    stack = np.stack([code.matrix, (code.matrix + 1) % q])
    whole = secix.oracle._gains(q, stack, checks, None)
    parts = [secix.oracle._gains(q, stack, checks, slice(0, split)),
             secix.oracle._gains(q, stack, checks, slice(split, lists))]
    assert whole.shape == (2, lists)
    assert whole.tolist() == np.hstack(parts).tolist()


@st.composite
def subset_rank_cases(draw):
    """(q, candidates x rows x cols stack, packed removed-row masks over
    the first `messages` rows, cap): wide, tall and square matrices, so
    that both the gathered and the masked stack are drawn.  Over GF(2)
    a stack may also have 60 to 130 rows, its columns sums of a few
    sparse columns, some set only past the first 64 rows: then columns
    span two or three words, repeat and share their highest row, and
    the rows past the last mask byte are key rows."""
    q = draw(st.sampled_from([2, 3, 251]))
    count, cols = draw(st.integers(1, 3)), draw(st.integers(0, 6))
    if q == 2 and draw(st.booleans()):
        rows = draw(st.integers(60, 130))
        messages = draw(st.integers(1, rows))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        sparse = np.zeros((count, rows, draw(st.integers(1, 4))), dtype=np.int64)
        for basis in sparse.transpose(0, 2, 1):
            for column in basis:
                column[rng.integers(draw(st.sampled_from([0, min(64, rows - 1)])), rows, draw(st.integers(1, 3)))] = 1
        matrices = sparse @ rng.integers(0, 2, (sparse.shape[2], cols)) % 2
        removed = (rng.random((draw(st.integers(0, 6)), messages)) < draw(st.sampled_from([0.1, 0.5]))).tolist()
    else:
        rows = draw(st.integers(1, 6))
        messages = draw(st.integers(1, rows))
        entries = draw(st.lists(st.integers(0, q - 1), min_size=count * rows * cols, max_size=count * rows * cols))
        matrices = np.array(entries, dtype=np.int64).reshape(count, rows, cols)
        removed = draw(st.lists(st.lists(st.booleans(), min_size=messages, max_size=messages), max_size=6))
    masks = np.packbits(np.array(removed, dtype=bool).reshape(len(removed), messages), axis=1, bitorder="little")
    cap = draw(st.sampled_from(SMALL_CAPS + [STACK_ENTRIES]))
    return q, matrices, masks, removed, cap


@given(subset_rank_cases())
@settings(max_examples=200, deadline=None)
def test_subset_ranks_are_ranks_without_the_removed_rows(case):
    q, matrices, masks, removed, cap = case
    expected = [[len(reference_rref.rref(q, [row for j, row in enumerate(mat.tolist())
                                             if not (j < len(out) and out[j])])[1]) for out in removed]
                for mat in matrices]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(secix.oracle, "STACK_ENTRIES", cap)
        ranks = secix.oracle._subset_ranks(q, matrices, masks)
    assert ranks.shape == (len(matrices), len(removed)) and ranks.tolist() == expected


def counted_ranks(monkeypatch):
    """The names of the rank kernels that oracle calls, in call order."""
    calls = []
    for name in ("stack_rank", "word_rank"):
        kernel = getattr(secix.oracle, name)
        monkeypatch.setattr(secix.oracle, name, lambda *args, name=name, kernel=kernel:
                            calls.append(name) or kernel(*args))
    return calls


def test_a_small_check_is_one_rank_stack(monkeypatch):
    # x1 + ... + x14 over GF(2) at t = 1: 14 receiver lists and 182 pairs
    # use 120 slots, all ranked in one call of the GF(2) word kernel
    calls = counted_ranks(monkeypatch)
    report = check_security(LinearCode(2, [[1]] * 14), complementary_instance(2, 14), AccessStructure.t_level(1))
    assert len(report.checks) == 182 and report.decodable == (True,) * 14
    assert calls == ["word_rank"]


def test_a_small_check_over_gf3_is_one_rank_stack(monkeypatch):
    # the same check over GF(3): its 120 slots are ranked in one stack_rank
    # call (the budget admits the 3^14 states x 182 pairs it counts)
    calls = counted_ranks(monkeypatch)
    report = check_security(LinearCode(3, [[1]] * 14), complementary_instance(3, 14), AccessStructure.t_level(1),
                            budget=3 ** 14 * 182)
    assert len(report.checks) == 182 and report.decodable == (True,) * 14
    assert calls == ["stack_rank"]


@pytest.mark.parametrize("m, key_dim", [(7, 2), (8, 1), (9, 3)])
def test_key_rows_past_the_packed_slot_bits_are_kept(m, key_dim):
    # a slot packs m bits into whole bytes, and the key rows of [G; Gtilde]
    # read its padding bits (m = 7 and 9) or lie past its last byte (m = 7
    # and 8): either way they are never removed, as the enumeration agrees
    rng = np.random.default_rng(m)
    inst, acc = complementary_instance(2, m), AccessStructure.t_level(1)
    for _ in range(4):
        code = LinearCode(2, rng.integers(0, 2, (m, 3)), rng.integers(0, 2, (key_dim, 3)))
        report, expected = check_security(code, inst, acc), check_security(table_copy(code), inst, acc)
        assert report.decodable == expected.decodable
        assert [p.uniform for p in report.checks] == [p.uniform for p in expected.checks]


# ---- the report text: one fragment per distinct label and tail object ------------------

# objects that compare equal but print differently, each shared by the
# pairs that draw it, so that a fragment keyed by value would be reused
# for a twin that prints otherwise
TWINS_LISTS = [(), (1,), (True,), (1, 2), [1, 2], (1.0, 2), (False, 2), (0,)]
TWINS_SCALARS = [True, False, 1, 0, 0.0, -0.0, 1.0, 1, 0.5, float("inf"), float("nan")]


@st.composite
def hand_built_reports(draw):
    """SecurityReports built by hand from shared objects: 0.0 and -0.0,
    True and 1, False and 0, tuples and lists of equal values."""
    lists, scalars = st.sampled_from(TWINS_LISTS), st.sampled_from(TWINS_SCALARS)
    checks = draw(st.lists(st.builds(PairCheck, lists, lists, scalars, scalars, scalars), max_size=8))
    decodable = draw(st.lists(st.booleans(), max_size=3))
    return SecurityReport(tuple(checks), draw(st.integers(1, 3)), tuple(decodable))


@given(oracle_cases())
@example((disjoint_sum_code(2), crossed_pairs_instance(2), AccessStructure.classical(4), 1))
@example((disjoint_sum_code(2), crossed_pairs_instance(2), AccessStructure.explicit([[1, 2, 3, 4], [3]]), 2))
@example((disjoint_sum_code(2), Instance(2, 4, ()), AccessStructure.classical(4), 1)).via("no pair, no receiver")
@settings(max_examples=150, deadline=None)
def test_report_text_is_json_dumps_indent_2(case):
    # deterministic, keyed and table codes, t-level and explicit
    # adversaries, b = 1 or 2; the classical adversary lists no pair
    code, inst, acc, b = case
    try:
        report = check_security(code, inst, acc, b=b)
    except InfeasibleBlockError:
        return
    assert report.json_text() == json.dumps(report.to_dict(), indent=2)


@given(hand_built_reports())
@example(SecurityReport((PairCheck((1,), (2,), True, 0.0, 0.0), PairCheck((1,), (2,), 1, -0.0, 0.0)), 1, (True,)))
@example(SecurityReport((PairCheck((1,), (2,), False, 1.0, 0.0), PairCheck((1,), (2,), False, 1.0, 1.0)), 1, ()))
@example(SecurityReport((PairCheck((1,), (True,), 0, 1, 0.5), PairCheck((True,), (1,), 0, 1.0, 0.5)), 2, (False,)))
@example(SecurityReport((), 1, ())).via("no pair, no receiver")
@example((lambda shared: SecurityReport((PairCheck(shared, shared, True, 0.0, 0.0), PairCheck((2,), shared, 1, 0.0, 0.0)),
                                        1, ()))((1,))).via("one tuple as A and as B")
@settings(max_examples=300, deadline=None)
def test_hand_built_report_text_is_json_dumps_indent_2(report):
    assert report.json_text() == json.dumps(report.to_dict(), indent=2)


@pytest.mark.parametrize("field", [2, 3, 4])
def test_report_text_refuses_numpy_scalars(field):
    # numpy scalars are never coerced: not np.bool_, and not np.float64,
    # a float subclass that json.dumps would print
    values = [(1,), (2,), True, 1.0, 1.0]
    values[field] = np.float64(1.0) if field > 2 else np.bool_(True)
    report = SecurityReport((PairCheck((1,), (2,), True, 1.0, 1.0), PairCheck(*values)), 1, (True,))
    with pytest.raises(TypeError):
        secix.model.json_text(report.to_dict())
    with pytest.raises(TypeError):
        report.json_text()


def test_secure_is_computed_once():
    # verify reads it twice, for the report text and for the exit code
    calls = []

    class Counted:
        def __bool__(self):
            calls.append(1)
            return True

    report = SecurityReport((PairCheck((), (1,), Counted(), 1.0, 1.0),), 1, ())
    assert report.secure and report.secure
    assert calls == [1]
