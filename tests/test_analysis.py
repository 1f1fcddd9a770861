"""Existence decisions, certificates, bounds, and exhaustive search."""

import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from secix import (
    ANSWER_NO,
    ANSWER_UNKNOWN,
    ANSWER_YES,
    AccessStructure,
    AcyclicCertificate,
    CompromisedReceiverCertificate,
    Instance,
    LinearCode,
    Receiver,
    check_decodability,
    check_security,
    decide,
    length_bounds,
    min_side_info,
    search_linear,
    strip_unwanted,
)
from secix import analysis
from secix.oracle import BudgetExceededError, InfeasibleBlockError, list_checks, secure_generators
import reference_search
from conftest import (
    complementary_instance,
    crossed_pairs_instance,
    known_want_instance,
    random_decodable_code,
    table_copy,
    unwanted_key_instance,
)


# ---- scalars --------------------------------------------------------------------

def test_min_side_info(crossed2):
    assert min_side_info(crossed2) == 1
    assert min_side_info(complementary_instance(5, 4)) == 3


def test_min_side_info_requires_normalized():
    with pytest.raises(ValueError):
        min_side_info(Instance(2, 2, (Receiver({1}, {1}),)))
    with pytest.raises(ValueError):
        min_side_info(Instance(2, 2, ()))


# ---- t-level decisions ------------------------------------------------------------

def test_t_level_yes_with_verified_certificate():
    inst = Instance(3, 3, tuple(Receiver({1, 2, 3} - {i}, {i}) for i in (1, 2, 3)))
    verdict = decide(inst, AccessStructure.t_level(1))
    assert verdict.answer == ANSWER_YES
    assert verdict.code.length == 1
    assert all(check_decodability(verdict.code, inst))
    assert check_security(verdict.code, inst, AccessStructure.t_level(1)).secure


def test_t_level_no_certificate_names_covering_set(crossed2):
    verdict = decide(crossed2, AccessStructure.t_level(1))
    assert verdict.answer == ANSWER_NO
    cert = verdict.certificate
    assert isinstance(cert, CompromisedReceiverCertificate)
    rec = crossed2.receivers[cert.receiver - 1]
    assert rec.knows <= cert.access
    assert rec.wants - cert.access
    assert len(cert.access) == 1


def test_t_level_zero_always_yes_when_someone_knows_something(crossed2):
    assert decide(crossed2, AccessStructure.t_level(0)).answer == ANSWER_YES


def test_t_level_threshold_is_downward_closed():
    inst = complementary_instance(5, 4)  # every receiver knows 3
    answers = [decide(inst, AccessStructure.t_level(t)).answer for t in range(4)]
    assert answers == [ANSWER_YES, ANSWER_YES, ANSWER_YES, ANSWER_NO]
    for t in range(1, 4):
        if answers[t] == ANSWER_YES:
            assert answers[t - 1] == ANSWER_YES


def test_t_level_block_thresholds():
    inst = complementary_instance(5, 4)  # min side info 3
    assert decide(inst, AccessStructure.t_level(1), b=2).answer == ANSWER_YES
    assert decide(inst, AccessStructure.t_level(2), b=2).answer == ANSWER_NO
    verdict = decide(inst, AccessStructure.t_level(2), b=2)
    cert = verdict.certificate
    # with the block threshold crossed below the knowledge minimum, the
    # certificate set sits inside the receiver's knowledge
    assert cert.access < inst.receivers[cert.receiver - 1].knows
    assert len(cert.access) == 2


def test_t_level_range_checks(crossed2):
    with pytest.raises(ValueError):
        decide(crossed2, AccessStructure.t_level(4))
    with pytest.raises(ValueError):
        decide(crossed2, AccessStructure.t_level(-1))
    with pytest.raises(ValueError):
        decide(crossed2, AccessStructure.t_level(1), b=0)


@st.composite
def t_level_cases(draw):
    """(instance, t, b) with q in {2, 3}, m <= 6, normalized receivers,
    t in [0, m - 1] and b in {1, 2}."""
    q = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 6))
    receivers = []
    for _ in range(draw(st.integers(1, 4))):
        knows = draw(st.frozensets(st.integers(1, m), max_size=m - 1))
        lacking = sorted(set(range(1, m + 1)) - knows)
        wants = draw(st.frozensets(st.integers(1, m))) | {draw(st.sampled_from(lacking))}
        receivers.append(Receiver(knows, wants))
    return Instance(q, m, tuple(receivers)), draw(st.integers(0, m - 1)), draw(st.sampled_from([1, 2]))


@given(t_level_cases())
@settings(max_examples=150, deadline=None)
def test_t_level_rule_matches_the_explicit_rules(case):
    # the paper's iff rule lists no access set; the explicit rules, run on
    # every t-subset, are an independent reference for it at b = 1
    inst, t, b = case
    acc = AccessStructure.t_level(t)
    verdict = decide(inst, acc, b=b)
    if b == 1:
        every_subset = AccessStructure.explicit(itertools.combinations(range(1, inst.m + 1), t))
        assert verdict.answer == decide(inst, every_subset).answer
    if verdict.answer == ANSWER_YES:
        report = check_security(verdict.code, inst, acc, b=b, budget=2 ** 40)
        assert all(report.decodable) and report.secure
    else:
        assert verdict.answer == ANSWER_NO and (verdict.lower, verdict.upper) == (None, None)


def test_t_level_decision_lists_no_access_set():
    # C(40, 20) access sets: the rule answers at once, with no listing
    inst = Instance(2, 40, (Receiver({1}, {2}),))
    start = time.perf_counter()
    verdict = decide(inst, AccessStructure.t_level(20))
    elapsed = time.perf_counter() - start
    assert verdict.answer == ANSWER_NO
    assert verdict.certificate == CompromisedReceiverCertificate(1, frozenset({1, *range(3, 22)}))
    assert elapsed < 0.25, f"took {elapsed:.2f}s"


def test_block_sizes_above_1_need_a_t_level_adversary(crossed2):
    with pytest.raises(ValueError, match=r"^block sizes b > 1 are supported for t-level adversaries only$"):
        decide(crossed2, AccessStructure.explicit([[1]]), b=2)


def test_decide_refuses_b_then_normalization_then_t(crossed2):
    lacking_nothing = Instance(2, 2, (Receiver({1}, {1}),))
    t_far = AccessStructure.t_level(9)
    with pytest.raises(ValueError, match="^block size"):
        decide(lacking_nothing, t_far, b=0)
    with pytest.raises(ValueError, match="normalized"):
        decide(lacking_nothing, t_far)
    with pytest.raises(ValueError, match="^access level must satisfy"):
        decide(crossed2, t_far)


# ---- general decisions ---------------------------------------------------------------

def test_decide_single_access_beats_size_comparison(crossed2):
    # the eavesdropper holds more than receiver 1 knows, yet a code exists
    verdict = decide(crossed2, AccessStructure.explicit([[3, 4]]))
    assert verdict.answer == ANSWER_YES
    assert all(check_decodability(verdict.code, crossed2))
    assert check_security(
        verdict.code, crossed2, AccessStructure.explicit([[3, 4]])
    ).secure


def test_decide_keyed_instance_yes_via_small_access(keyed2):
    verdict = decide(keyed2, AccessStructure.explicit([[]]))
    assert verdict.answer == ANSWER_YES
    assert verdict.code.generator.tolist() == [[1], [1]]


def test_decide_stripped_keyed_instance_acyclic(keyed2):
    stripped, acc = strip_unwanted(keyed2, AccessStructure.explicit([[]]))
    verdict = decide(stripped, acc)
    assert verdict.answer == ANSWER_NO
    assert isinstance(verdict.certificate, AcyclicCertificate)


def test_decide_compromised_receiver():
    inst = Instance(2, 2, (Receiver({2}, {1}),))
    verdict = decide(inst, AccessStructure.explicit([[2]]))
    assert verdict.answer == ANSWER_NO
    assert verdict.certificate == CompromisedReceiverCertificate(1, frozenset({2}))


def test_decide_unknown_region(crossed2):
    # two access sets, each as large as the smallest knowledge, no
    # covering pattern, graph has cycles: no rule here settles it.  A code
    # exists (search_linear finds G = [[0,1],[1,0],[1,1],[1,1]]), so
    # unknown means undecided here, not open
    verdict = decide(crossed2, AccessStructure.explicit([[3], [4]]))
    assert verdict.answer == ANSWER_UNKNOWN
    assert verdict.code is None and verdict.certificate is None


def test_decide_classical_structure_yes(crossed2):
    verdict = decide(crossed2, AccessStructure.classical(4))
    assert verdict.answer == ANSWER_YES
    assert all(check_decodability(verdict.code, crossed2))


def test_decide_no_access_set_yes_with_mds(crossed2):
    # no access set: nothing can leak, so the acyclic certificate must not apply
    inst = Instance(2, 2, (Receiver(set(), {1}), Receiver({1}, {2})))
    for case in (inst, crossed2):
        verdict = decide(case, AccessStructure.explicit([]))
        assert verdict.answer == ANSWER_YES
        assert all(check_decodability(verdict.code, case))
    assert decide(inst, AccessStructure.explicit([[]])).certificate == AcyclicCertificate()


def test_decide_single_access_with_known_wants():
    verdict = decide(known_want_instance(), AccessStructure.explicit([[1]]))
    assert verdict.answer == ANSWER_YES
    assert verdict.code.generator.tolist() == [[1, 0], [0, 1], [0, 1]]


@st.composite
def known_want_cases(draw):
    """(instance, explicit adversary) with q in {2, 3, 5, 7}, m <= 6, one
    or two access sets, and receivers that may want messages they know,
    each lacking one it wants."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, 6))
    receivers = []
    for _ in range(draw(st.integers(1, 4))):
        knows = draw(st.frozensets(st.integers(1, m), max_size=m - 1))
        lacking = sorted(set(range(1, m + 1)) - knows)
        wants = {draw(st.sampled_from(lacking))} | draw(st.frozensets(st.integers(1, m)))
        known_wants = draw(st.frozensets(st.sampled_from(sorted(knows)))) if knows else set()
        receivers.append(Receiver(knows, wants | known_wants))
    sets = draw(st.lists(st.frozensets(st.integers(1, m)), min_size=1, max_size=2))
    return Instance(q, m, tuple(receivers)), AccessStructure.explicit(sets)


@given(known_want_cases())
@example((known_want_instance(), AccessStructure.explicit([[1]])))
@settings(max_examples=300, deadline=None)
def test_decide_yes_codes_verify_when_receivers_want_what_they_know(case):
    inst, acc = case
    verdict = decide(inst, acc)
    if verdict.answer == ANSWER_YES:
        report = check_security(verdict.code, inst, acc, budget=2 ** 40)
        assert all(report.decodable) and report.secure


# ---- length bounds ---------------------------------------------------------------------

def complementary_plus(q=2):
    """m=4, minimum knowledge 2, receiver 1 complementary."""
    return Instance(q, 4, (
        Receiver({3, 4}, {1, 2}),
        Receiver({1, 2}, {3}),
    ))


def test_length_bounds_both_present():
    lower, upper = length_bounds(complementary_plus(), AccessStructure.t_level(1))
    assert (lower, upper) == (2, 2)


def test_length_bounds_upper_only():
    inst = Instance(2, 4, (
        Receiver({3, 4}, {1}),       # min knowledge 2, not complementary
        Receiver({1, 2}, {3}),
    ))
    lower, upper = length_bounds(inst, AccessStructure.t_level(1))
    assert lower is None and upper == 2


def test_length_bounds_absent_when_access_too_large():
    lower, upper = length_bounds(complementary_plus(), AccessStructure.t_level(2))
    assert lower is None and upper is None


# ---- exhaustive search -----------------------------------------------------------------

def test_search_finds_lexicographically_first_code(keyed2):
    code = search_linear(keyed2, AccessStructure.explicit([[]]), 1)
    assert code.generator.tolist() == [[1], [1]]


def test_search_zero_length_finds_nothing(keyed2):
    assert search_linear(keyed2, AccessStructure.explicit([[]]), 0) is None


def test_search_settles_single_access_instance(crossed2):
    acc = AccessStructure.explicit([[3]])
    code = search_linear(crossed2, acc, 2)
    assert code is not None
    assert all(check_decodability(code, crossed2))
    assert check_security(code, crossed2, acc).secure


def test_search_budget_guard(crossed2):
    with pytest.raises(BudgetExceededError):
        search_linear(crossed2, AccessStructure.explicit([[3]]), 2, budget=10)


def test_search_confirms_lower_bound_small_case():
    inst = Instance(2, 3, (Receiver({2, 3}, {1}), Receiver({1, 3}, {2})))
    acc = AccessStructure.t_level(1)
    assert search_linear(inst, acc, 1) is not None
    assert search_linear(inst, acc, 0) is None


@st.composite
def search_cases(draw):
    """(instance, adversary, length, b) with q in {2, 3}, m <= 4, length <= 2,
    normalized receivers and a block size every access set leaves room for."""
    q = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 4))
    length = draw(st.integers(0, 2))
    receivers = []
    for _ in range(draw(st.integers(1, 3))):
        knows = draw(st.frozensets(st.integers(1, m), max_size=m - 1))
        lacking = sorted(set(range(1, m + 1)) - knows)
        wants = draw(st.frozensets(st.integers(1, m))) | {draw(st.sampled_from(lacking))}
        receivers.append(Receiver(knows, wants))
    if draw(st.booleans()):
        acc = AccessStructure.t_level(draw(st.integers(0, m - 1)))
    else:
        acc = AccessStructure.explicit(draw(st.lists(st.frozensets(st.integers(1, m)), min_size=1, max_size=2)))
    b = draw(st.sampled_from([1, 2]))
    full = frozenset(range(1, m + 1))
    assume(all(b <= m - len(a) for a in acc.expand(m) if a != full))
    return Instance(q, m, tuple(receivers)), acc, length, b


@given(search_cases())
@example((crossed_pairs_instance(2), AccessStructure.explicit([[3]]), 2, 1))   # found past index 0
@example((unwanted_key_instance(2), AccessStructure.t_level(1), 1, 1))         # no secure code exists
@example((complementary_instance(3, 3), AccessStructure.t_level(1), 1, 2))     # b = 2: none secure
@example((complementary_instance(2, 4), AccessStructure.t_level(1), 1, 2))     # b = 2: found
@settings(max_examples=80, deadline=None)
def test_search_matches_per_candidate_reference(case):
    inst, acc, length, b = case
    found = search_linear(inst, acc, length, b=b)
    expected = reference_search.search(inst, acc, length, b=b)
    assert found == expected


@st.composite
def screen_cases(draw):
    """A `search_cases` case and a stack of its generators: 1-6 random
    ones, and the lex-first secure one when there is one, so that some
    candidates pass."""
    inst, acc, length, b = draw(search_cases())
    q, m = inst.q, inst.m
    entries = st.lists(st.integers(0, q - 1), min_size=m * length, max_size=m * length)
    rows = draw(st.lists(entries, min_size=1, max_size=6))
    found = search_linear(inst, acc, length, b=b)
    if found is not None:
        rows.append(found.generator.ravel().tolist())
    return inst, acc, b, np.array(rows, dtype=np.int64).reshape(len(rows), m, length)


@given(screen_cases())
@example((crossed_pairs_instance(2), AccessStructure.explicit([[3]]), 1,
          np.array([[[0, 0], [0, 0], [0, 0], [0, 0]], [[1, 0], [1, 0], [0, 1], [0, 1]]])))
@settings(max_examples=100, deadline=None)
def test_screen_matches_enumeration_of_table_copies(case):
    # the search screens by ranks; each candidate's table copy is
    # enumerated state by state, a second oracle independent of ranks
    inst, acc, b, stack = case
    screened = secure_generators(inst.q, stack, list_checks(inst, acc, b)).tolist()
    expected = []
    for generator in stack:
        table = table_copy(LinearCode(inst.q, generator))
        expected.append(all(check_decodability(table, inst)) and check_security(table, inst, acc, b=b).secure)
    assert screened == expected


@pytest.mark.parametrize("length", [128, 130])
def test_numpy_length_is_refused_as_its_int(length):
    # m * length is formed from the checked int, so a numpy length cannot
    # wrap in its own dtype before the candidate count is refused
    inst = Instance(2, 2, (Receiver({2}, {1}),))
    refusals = []
    for value in (length, np.uint8(length)):
        with pytest.raises(BudgetExceededError) as info:
            search_linear(inst, AccessStructure.t_level(0), value)
        refusals.append(str(info.value))
    assert refusals[0] == refusals[1]
    assert refusals[0].startswith(f"2^{2 * length} candidate generators exceed the budget")


def test_search_winner_past_first_chunk(monkeypatch, crossed2):
    acc = AccessStructure.explicit([[3]])
    expected = reference_search.search(crossed2, acc, 2)
    assert expected.generator.tolist() != [[0, 0]] * 4
    monkeypatch.setattr(analysis, "_SEARCH_BATCH", 1)  # a first chunk of one candidate
    assert search_linear(crossed2, acc, 2) == expected


def test_search_lists_its_checks_once(monkeypatch):
    # every receiver knows all 4 messages but the one it wants, and t = 3
    # covers that knowledge: all 2^12 generators of length 3 are screened,
    # in several chunks, each on the lists of the search's one listing pass
    inst = complementary_instance(2, 4)
    listed, screened = [], []
    real_list, real_screen = analysis.list_checks, analysis.secure_generators
    monkeypatch.setattr(analysis, "list_checks", lambda *args: listed.append(real_list(*args)) or listed[-1])
    monkeypatch.setattr(analysis, "secure_generators",
                        lambda q, generators, checks: screened.append((len(generators), checks))
                        or real_screen(q, generators, checks))
    assert search_linear(inst, AccessStructure.t_level(3), 3) is None
    assert len(listed) == 1 and len(screened) > 3
    assert sum(count for count, _ in screened) == 2 ** 12
    assert all(checks is listed[0] for _, checks in screened)


def test_search_rejects_bad_block_size_before_any_candidate(crossed2):
    acc = AccessStructure.explicit([[3]])
    for length in (0, 1):
        with pytest.raises(ValueError, match="block size"):
            search_linear(crossed2, acc, length, b=0)
        with pytest.raises(InfeasibleBlockError):
            search_linear(crossed2, acc, length, b=4)


@pytest.mark.parametrize("call", [
    lambda inst: decide(inst, AccessStructure.t_level(0), b=0),
    lambda inst: search_linear(inst, AccessStructure.t_level(0), 1, b=0, budget=1),
    lambda inst: check_security(LinearCode(inst.q, [[1]] * inst.m), inst,
                                AccessStructure.t_level(0), b=0, budget=1),
], ids=["decide", "search_linear", "check_security"])
def test_block_size_refused_alike_before_any_budget(crossed2, call):
    with pytest.raises(ValueError, match=r"^block size must be >= 1, got 0$"):
        call(crossed2)


def test_full_search_scan_stays_small():
    # t = 4 covers a receiver's knowledge, so all 2^20 generators of
    # length 4 are screened: many decode, none is secure
    inst = complementary_instance(2, 5)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        assert search_linear(inst, AccessStructure.t_level(4), 4) is None
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_stepped_pair_phase_stays_small():
    # one receiver knows x2 .. x10 and wants x1: at t = 5 each decoding
    # candidate meets C(10, 5) x 5 = 1260 pair lists, ranked in steps of at
    # most gf.STACK_ENTRIES candidates x lists.  The winner sends 0 and
    # x1 + x5 + ... + x10, which no 5 messages reveal
    inst = Instance(2, 10, (Receiver(set(range(2, 11)), {1}),))
    acc = AccessStructure.t_level(5)
    tracemalloc.start()
    try:
        code = search_linear(inst, acc, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"
    assert code.generator.tolist() == [[0, 1]] + [[0, 0]] * 3 + [[0, 1]] * 6
    assert check_decodability(code, inst) == [True] and check_security(code, inst, acc).secure


def test_search_budget_refusals_allocate_nothing():
    # 2^40 states per candidate, and C(40, 20) access sets that must not be expanded
    inst = Instance(2, 40, (Receiver({1}, {2}),))
    acc = AccessStructure.t_level(20)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match=r"2\^40 candidate"):
            search_linear(inst, acc, 1)
        with pytest.raises(BudgetExceededError, match=r"2\^40 joint states exceed"):
            search_linear(inst, acc, 0)
        # a raised budget does not help once 64-bit state keys could wrap,
        # nor once candidate indices could
        with pytest.raises(BudgetExceededError, match="joint states are too many"):
            search_linear(inst, acc, 0, budget=2 ** 90)
        with pytest.raises(BudgetExceededError, match="candidate generators are too many"):
            search_linear(inst, acc, 2, budget=2 ** 90)
        # refused by its exponent alone: 2^(4 * 10^7) would take 5 MB
        with pytest.raises(BudgetExceededError, match=r"^2\^40000000 candidate generators exceed the budget of"):
            search_linear(inst, acc, 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


# ---- certificate soundness ------------------------------------------------------------

def test_no_certificate_condemns_sampled_codes(crossed2):
    verdict = decide(crossed2, AccessStructure.t_level(1))
    cert = verdict.certificate
    rng = random.Random(5)
    wanted_outside = sorted(
        crossed2.receivers[cert.receiver - 1].wants - cert.access
    )
    for _ in range(10):
        code = random_decodable_code(rng, crossed2)
        report = check_security(
            code, crossed2, AccessStructure.explicit([cert.access])
        )
        leaked = {p.block[0] for p in report.checks if not p.uniform}
        assert set(wanted_outside) & leaked


def test_acyclic_certificate_backed_by_search(keyed2):
    stripped, acc = strip_unwanted(keyed2, AccessStructure.explicit([[]]))
    verdict = decide(stripped, acc)
    assert isinstance(verdict.certificate, AcyclicCertificate)
    for length in range(stripped.m + 1):
        assert search_linear(stripped, acc, length) is None


def test_yes_verdicts_carry_oracle_passing_codes():
    rng = random.Random(11)
    for _ in range(6):
        m = rng.randint(2, 4)
        inst = complementary_instance(5, m)
        t = rng.randint(0, m - 2)
        verdict = decide(inst, AccessStructure.t_level(t))
        assert verdict.answer == ANSWER_YES
        assert all(check_decodability(verdict.code, inst))
        assert check_security(verdict.code, inst, AccessStructure.t_level(t)).secure


# ---- serialization -----------------------------------------------------------------------

def test_verdict_json_shapes(crossed2, keyed2):
    yes = decide(keyed2, AccessStructure.explicit([[]]))
    obj = yes.to_dict()
    assert obj["answer"] == "yes"
    assert obj["certificate"]["kind"] == "linear_det"
    # the lone receiver wants exactly what it lacks, so the bound is tight
    assert obj["bounds"] == {"lower": 1, "upper": 1}

    no = decide(crossed2, AccessStructure.t_level(1))
    obj = no.to_dict()
    assert obj["answer"] == "no"
    assert obj["certificate"]["type"] == "compromised_receiver"
    assert obj["bounds"] == {"lower": None, "upper": None}

    unknown = decide(crossed2, AccessStructure.explicit([[3], [4]]))
    assert unknown.to_dict()["certificate"] is None
