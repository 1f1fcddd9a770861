"""Acceptance suite: one test per release criterion, all exact.

Every criterion prints a single PASS line (visible with `pytest -s`);
a failed assertion marks the criterion failed.  Expected values are
either hand-checkable arithmetic or were derived by the independent
enumerations in the other test modules before being frozen here.
"""

import itertools
import random
import time

from secix import (
    ANSWER_NO,
    ANSWER_YES,
    AccessStructure,
    AcyclicCertificate,
    CompromisedReceiverCertificate,
    FieldMatrix,
    Instance,
    LinearCode,
    Receiver,
    check_decodability,
    check_security,
    construct_mds_code,
    decide,
    decide_t_level,
    derandomize,
    search_linear,
    security_level,
    smallest_prime_at_least,
    strip_unwanted,
    vandermonde,
)
from conftest import (
    complementary_instance,
    crossed_pairs_instance,
    disjoint_sum_code,
    overlapping_sum_code,
    random_decodable_code,
    random_instance,
    unwanted_key_instance,
)


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS  ({text})")


def passes_level(code, inst, t: int, b: int = 1) -> bool:
    return check_security(code, inst, AccessStructure.t_level(t), b=b).secure


# ---- shared grid for criteria 2-4 -----------------------------------------------

def build_grid():
    """m in 2..5 over the smallest adequate prime: two seeded-random
    instances plus the complementary one (which stretches the minimum
    side information to m-1)."""
    grid = []
    for m in range(2, 6):
        q = smallest_prime_at_least(m)
        rng = random.Random(1000 + m)
        grid.append(random_instance(rng, m, q))
        grid.append(random_instance(rng, m, q))
        grid.append(complementary_instance(q, m))
    return grid


GRID = build_grid()


def min_knowledge(inst):
    return min(len(r.knows) for r in inst.receivers)


# ---- criterion 1: non-monotone security reproduction -------------------------------

def test_criterion_1_nonmonotone_reproduction():
    start = time.perf_counter()
    for q in (2, 3):
        inst = crossed_pairs_instance(q)
        pair34 = AccessStructure.explicit([[3, 4]])
        single3 = AccessStructure.explicit([[3]])
        c1, c2 = disjoint_sum_code(q), overlapping_sum_code(q)
        assert check_decodability(c1, inst) == [True] * 4
        assert check_decodability(c2, inst) == [True] * 4
        assert check_security(c1, inst, pair34).secure
        assert not check_security(c1, inst, single3).secure
        assert check_security(c2, inst, single3).secure
        assert not check_security(c2, inst, pair34).secure
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s, limit 1s"
    report(1, f"both codes, both adversaries, q=2 and q=3, {elapsed * 1000:.0f} ms")


# ---- criterion 2: construction is decodable and secure below the threshold ----------

def test_criterion_2_construction_forward():
    start = time.perf_counter()
    checked = 0
    for inst in GRID:
        code = construct_mds_code(inst)
        assert code.length == inst.m - min_knowledge(inst)
        assert all(check_decodability(code, inst))
        for t in range(min_knowledge(inst)):
            assert passes_level(code, inst, t), (inst, t)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, limit 60s"
    assert checked >= 12
    report(2, f"{len(GRID)} instances, {checked} (instance, level) pairs, {elapsed:.1f} s")


# ---- criterion 3: above the threshold nothing works ----------------------------------

def test_criterion_3_construction_converse():
    rng = random.Random(42)
    codes_checked = 0
    for inst in GRID:
        least = min_knowledge(inst)
        samples = [random_decodable_code(rng, inst) for _ in range(50)]
        for t in range(least, inst.m):
            verdict = decide_t_level(inst, t)
            assert verdict.answer == ANSWER_NO
            cert = verdict.certificate
            assert isinstance(cert, CompromisedReceiverCertificate)
            rec = inst.receivers[cert.receiver - 1]
            assert rec.knows <= cert.access and rec.wants - cert.access
            assert len(cert.access) == t
            witness_acc = AccessStructure.explicit([cert.access])
            for code in samples:
                assert not check_security(code, inst, witness_acc).secure
                codes_checked += 1
    report(3, f"{codes_checked} decodable random codes all leak above the threshold")


# ---- criterion 4: level security is downward closed ------------------------------------

def test_criterion_4_level_monotonicity():
    verified = 0
    # the two fixed codes from criterion 1
    for q in (2, 3):
        inst = crossed_pairs_instance(q)
        for code in (disjoint_sum_code(q), overlapping_sum_code(q)):
            passes = [passes_level(code, inst, t) for t in range(inst.m)]
            for t in range(1, inst.m):
                if passes[t]:
                    assert passes[t - 1]
                    verified += 1
    # the constructed codes from criterion 2
    for inst in GRID:
        code = construct_mds_code(inst)
        top = min_knowledge(inst) - 1
        assert passes_level(code, inst, top)
        for t in range(top):
            assert passes_level(code, inst, t), (inst, t)
            verified += 1
    report(4, f"{verified} downward implications verified by the oracle")


# ---- criterion 5: derandomization dominates ----------------------------------------------

def keyed_corpus():
    """Hand-built randomized linear codes that every receiver decodes.

    Entries: (label, instance, code, access structures to compare
    verdicts on).
    """
    entries = []

    def lc(q, g, gt):
        return LinearCode(FieldMatrix(q, g), FieldMatrix(q, gt))

    keyed_q2 = unwanted_key_instance(2)
    keyed_q3 = unwanted_key_instance(3)
    keyed_q5 = unwanted_key_instance(5)
    accs_m2 = [AccessStructure.explicit([[]]), AccessStructure.explicit([[2]])]

    entries.append((
        "pad-and-reveal q2",
        keyed_q2,
        lc(2, [[1, 0], [1, 0]], [[1, 1]]),
        accs_m2,
    ))
    entries.append((
        "pad-and-reveal q3",
        keyed_q3,
        lc(3, [[1, 0], [1, 0]], [[1, 1]]),
        accs_m2,
    ))
    entries.append((
        "scaled pad q5",
        keyed_q5,
        lc(5, [[1, 0], [1, 0]], [[1, 3]]),
        accs_m2,
    ))
    entries.append((
        "two chained keys q2",
        keyed_q2,
        lc(2, [[1, 0, 0], [1, 0, 0]], [[1, 1, 0], [0, 1, 1]]),
        accs_m2,
    ))
    entries.append((
        "duplicate keys q2",
        keyed_q2,
        lc(2, [[1, 0], [1, 0]], [[1, 1], [1, 1]]),
        accs_m2,
    ))
    entries.append((
        "zero key matrix q2",
        keyed_q2,
        lc(2, [[1, 1], [1, 0]], [[0, 0]]),
        accs_m2,
    ))
    entries.append((
        "key on redundant symbol q3",
        keyed_q3,
        lc(3, [[1, 0], [1, 0]], [[0, 1]]),
        accs_m2,
    ))

    two_receivers = Instance(2, 3, (Receiver({2, 3}, {1}), Receiver({1, 3}, {2})))
    entries.append((
        "padded total sum m3 q2",
        two_receivers,
        lc(2, [[1, 0], [1, 0], [1, 0]], [[1, 1]]),
        [AccessStructure.t_level(0), AccessStructure.t_level(1)],
    ))

    comp3 = complementary_instance(3, 3)
    entries.append((
        "padded scaled sum m3 q3",
        comp3,
        lc(3, [[1, 0], [1, 0], [1, 0]], [[1, 2]]),
        [AccessStructure.t_level(0), AccessStructure.t_level(1)],
    ))

    crossed = crossed_pairs_instance(2)
    entries.append((
        "keyed pair sums m4 q2",
        crossed,
        lc(2, [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0]], [[0, 1, 1]]),
        [AccessStructure.explicit([[3, 4]]), AccessStructure.explicit([[3]])],
    ))

    wide = Instance(2, 3, (Receiver({3}, {1, 2}),))
    entries.append((
        "two wants one receiver q2",
        wide,
        lc(2, [[1, 0, 0], [0, 1, 0], [1, 1, 0]], [[1, 1, 1]]),
        [AccessStructure.explicit([[]]), AccessStructure.explicit([[3]])],
    ))

    comp4 = complementary_instance(2, 4)
    entries.append((
        "padded total sum m4 q2",
        comp4,
        lc(2, [[1, 0], [1, 0], [1, 0], [1, 0]], [[1, 1]]),
        [AccessStructure.t_level(t) for t in range(3)],
    ))

    return entries


def test_criterion_5_derandomization_dominates():
    corpus = keyed_corpus()
    assert len(corpus) >= 10
    for label, inst, code, accs in corpus:
        det = derandomize(code, inst)
        assert det.length <= code.length, label
        assert all(check_decodability(det, inst)), label
        assert all(check_decodability(code, inst)), label
        for acc in accs:
            original_secure = check_security(code, inst, acc).secure
            if original_secure:
                assert check_security(det, inst, acc).secure, (label, acc)
    report(5, f"{len(corpus)} keyed codes: shorter or equal, decodable, never less secure")


# ---- criterion 6: search confirms the exact optimal length -------------------------------

def test_criterion_6_optimal_length_at_desk_scale():
    start = time.perf_counter()
    cases = [
        # (instance, access structure); receiver 1 is minimally informed
        # and wants exactly what it lacks, so the optimum is m - K
        (Instance(2, 3, (Receiver({3}, {1, 2}), Receiver({1, 2}, {3}))),
         AccessStructure.explicit([[]])),
        (Instance(2, 3, (Receiver({2, 3}, {1}), Receiver({1, 3}, {2}))),
         AccessStructure.t_level(1)),
        (Instance(2, 4, (Receiver({3, 4}, {1, 2}), Receiver({1, 2}, {3}))),
         AccessStructure.explicit([[]])),
        (complementary_instance(2, 4), AccessStructure.t_level(2)),
    ]
    for inst, acc in cases:
        optimum = inst.m - min_knowledge(inst)
        found = search_linear(inst, acc, optimum)
        assert found is not None, (inst, optimum)
        assert all(check_decodability(found, inst))
        assert check_security(found, inst, acc).secure
        assert search_linear(inst, acc, optimum - 1) is None, (inst, optimum - 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s, limit 120s"
    report(6, f"{len(cases)} instances: found at the bound, nothing below, {elapsed:.1f} s")


# ---- criterion 7: unwanted messages as keys ------------------------------------------------

def test_criterion_7_unwanted_message_keeps_instance_feasible():
    inst = unwanted_key_instance(2)
    acc = AccessStructure.explicit([[]])

    verdict = decide(inst, acc)
    assert verdict.answer == ANSWER_YES
    assert verdict.code.generator.to_lists() == [[1], [1]]  # x1 + x2
    assert all(check_decodability(verdict.code, inst))
    assert check_security(verdict.code, inst, acc).secure

    stripped, stripped_acc = strip_unwanted(inst, acc)
    stripped_verdict = decide(stripped, stripped_acc)
    assert stripped_verdict.answer == ANSWER_NO
    assert isinstance(stripped_verdict.certificate, AcyclicCertificate)
    report(7, "kept key message: secure sum code; stripped: acyclic impossibility")


# ---- criterion 8: block-security threshold --------------------------------------------------

def test_criterion_8_block_threshold():
    instances = [
        complementary_instance(5, 4),
        Instance(5, 4, (
            Receiver({1, 2, 3}, {4}),
            Receiver({2, 3, 4}, {1}),
            Receiver({1, 3, 4}, {2}),
        )),
    ]
    for inst in instances:
        assert min_knowledge(inst) == 3
        yes = decide_t_level(inst, 1, b=2)
        assert yes.answer == ANSWER_YES
        no = decide_t_level(inst, 2, b=2)
        assert no.answer == ANSWER_NO
        assert check_security(
            yes.code, inst, AccessStructure.t_level(1), b=2
        ).secure
    report(8, "blocks of 2: yes at level 1, no at level 2, certificates verified")


# ---- criterion 9: security level of the MDS generator ----------------------------------------

def test_criterion_9_mds_security_level():
    checked = 0
    for m in range(2, 7):
        q = smallest_prime_at_least(m)
        for least in range(1, m):
            code = LinearCode(vandermonde(m, m - least, q))
            assert security_level(code) == least - 1, (m, least, q)
            checked += 1
    report(9, f"{checked} (m, K) pairs over the smallest adequate primes")
