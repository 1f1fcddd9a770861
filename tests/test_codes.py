"""Code kinds, encoding/decoding, and the three constructions."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from secix import (
    AccessStructure,
    Instance,
    LinearCode,
    NoSecureCodeError,
    Decoder,
    Receiver,
    TableCode,
    check_decodability,
    check_security,
    code_to_dict,
    construct_mds_code,
    decode,
    derandomize,
    load_code,
    parse_code,
    save_code,
    search_linear,
    security_level,
    single_access_code,
    vandermonde,
)
import secix.codes
from secix.gf import MAX_MESSAGES, stack_rank
from secix.oracle import BudgetExceededError
import reference_decode
import reference_parse_code
import reference_weight
from conftest import (
    WIDEST_Q,
    complementary_instance,
    crossed_pairs_instance,
    disjoint_sum_code,
    known_want_instance,
    unwanted_key_instance,
)


# ---- encode -------------------------------------------------------------------

def test_encode_disjoint_sums():
    code = disjoint_sum_code(2)
    assert code.encode((1, 1, 1, 0)) == (0, 1)
    assert code.encode((0, 0, 0, 0)) == (0, 0)


def test_encode_dimension_checks():
    code = disjoint_sum_code(2)
    with pytest.raises(ValueError):
        code.encode((1, 1))
    with pytest.raises(ValueError):
        code.encode((1, 1, 1, 0), y=(1,))


def encode_reference(code, x, y=()):
    """x G + y Gtilde with Python ints, one symbol at a time."""
    rows = code.generator.tolist() + (code.key_generator.tolist() if y else [])
    return tuple(sum(v * row[t] for v, row in zip(list(x) + list(y), rows)) % code.q for t in range(code.length))


@given(st.sampled_from([2, 251, WIDEST_Q]), st.data())
@settings(max_examples=60, deadline=None)
def test_encode_matches_python_int_reference(q, data):
    m, length, key_dim = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 4)), data.draw(st.integers(0, 2))
    entries = st.integers(0, q - 1)

    def matrix(rows):
        flat = data.draw(st.lists(entries, min_size=rows * length, max_size=rows * length))
        return np.array(flat, dtype=np.int64).reshape(rows, length)

    code = LinearCode(q, matrix(m), matrix(key_dim) if key_dim else None)
    x = data.draw(st.lists(entries, min_size=m, max_size=m))
    y = data.draw(st.lists(entries, min_size=key_dim, max_size=key_dim))
    assert code.encode(x, y if key_dim else None) == encode_reference(code, x, y)
    # a symbol one field size off is refused, not reduced mod q
    j = data.draw(st.integers(0, m - 1))
    shifted = x[:j] + [x[j] + data.draw(st.sampled_from([-q, q]))] + x[j + 1:]
    with pytest.raises(ValueError, match=rf"^message vector entry {shifted[j]} is outside GF\({q}\)$"):
        code.encode(shifted, y if key_dim else None)


@pytest.mark.parametrize("x, y, problem", [
    ((1, 5, 0), (1,), "message vector entry 5 is outside GF(5)"),
    ((1, 0, -1), (1,), "message vector entry -1 is outside GF(5)"),
    ((1.0, 0, 0), (1,), "message vector entry must be an integer, got 1.0"),
    ((0, True, 0), (1,), "message vector entry must be an integer, got True"),
    ((0, 0, 0), ("1",), "key vector entry must be an integer, got '1'"),
    ((0, 0, 0), (7,), "key vector entry 7 is outside GF(5)"),
], ids=["high", "negative", "float", "bool", "string-key", "high-key"])
def test_encode_refuses_symbols_outside_the_field(x, y, problem):
    code = LinearCode(5, [[1, 0], [1, 1], [0, 1]], [[1, 1]])
    with pytest.raises(ValueError) as info:
        code.encode(x, y)
    assert str(info.value) == problem
    # numpy integers in range are symbols too
    assert code.encode(np.array([1, 2, 3]), np.array([4])) == code.encode((1, 2, 3), (4,))


def test_encode_exact_at_the_size_and_modulus_caps():
    q = WIDEST_Q
    code = LinearCode(q, np.full((MAX_MESSAGES - 1, 2), q - 1), np.full((1, 2), q - 1))
    x, y = [q - 1] * (MAX_MESSAGES - 1), [q - 1]
    assert code.encode(x, y) == encode_reference(code, x, y)
    with pytest.raises(ValueError, match="at most"):
        LinearCode(2, np.zeros((MAX_MESSAGES, 1), dtype=np.int64), np.zeros((1, 1), dtype=np.int64))


def test_randomized_encode_and_key_enumeration():
    code = LinearCode(2, [[1, 0], [1, 0]], [[1, 1]])
    assert code.key_count == 2
    assert code.encode((1, 0), (1,)) == (0, 1)
    with pytest.raises(ValueError):
        code.encode((1, 0))  # key required


def test_table_code_lookup_and_validation():
    table = {}
    for x in itertools.product(range(2), repeat=2):
        table[(x, 0)] = ((x[0] + x[1]) % 2,)
    code = TableCode(2, 2, 1, 1, table)
    assert code.encode((1, 1)) == (0,)
    missing = dict(table)
    del missing[((0, 0), 0)]
    with pytest.raises(ValueError):
        TableCode(2, 2, 1, 1, missing)
    bad_value = dict(table)
    bad_value[((0, 0), 0)] = (7,)
    with pytest.raises(ValueError):
        TableCode(2, 2, 1, 1, bad_value)
    # a wrong length or a key outside the alphabet is named, as LinearCode.encode does
    keyed = TableCode(2, 1, 1, 2, {((x,), y): ((x + y) % 2,) for x in range(2) for y in range(2)})
    with pytest.raises(ValueError, match=r"^message vector has length 2, expected 1$"):
        keyed.encode((0, 0), 1)
    with pytest.raises(ValueError, match=r"^key 5 is outside \[0, 2\)$"):
        keyed.encode((0,), 5)


@pytest.mark.parametrize("q, m, length, text", [
    (1, 2, 1, "field modulus must be prime, got 1"),
    (-1, 2, 0, "field modulus must be prime, got -1"),
    (4, 1, 1, "field modulus must be prime, got 4"),
    (2, 0, 1, "message count m must be >= 1, got 0"),
    (2, -1, 1, "message count m must be >= 1, got -1"),
    (2, 1, -1, "code length must be >= 0, got -1"),
])
def test_table_code_refuses_bad_field_count_or_length(q, m, length, text):
    # each refusal names its field before the table is read; a q = 1 table
    # would pass check_security as decodable and secure, with 0-bit entropies
    with pytest.raises(ValueError) as info:
        TableCode(q, m, length, 1, {})
    assert str(info.value) == text


def test_linear_code_shape_validation():
    with pytest.raises(ValueError, match=r"^key matrix has 1 columns, generator has 2$"):
        LinearCode(2, [[1, 0]], [[1]])
    with pytest.raises(ValueError, match=r"^matrix data must be 2-dimensional, got shape \(2,\)$"):
        LinearCode(2, [1, 0])


def starts_at_row(view, matrix, row):
    """Whether view is matrix[row:row + len(view)] itself, not a copy:
    the same memory, from the same address, with the same strides."""
    address = matrix.__array_interface__["data"][0] + row * matrix.strides[0]
    return (view.__array_interface__["data"][0] == address and view.strides == matrix.strides
            and np.array_equal(view, matrix[row:row + len(view)]))


def test_every_code_keeps_one_checked_array(keyed2):
    # files, lists, numpy ints of any width and layout, the empty rows of
    # a 2 x 0 code, and every construction: one read-only, C-ordered
    # int64 [G; Gtilde] with entries in [0, q), G and Gtilde views of it
    three = Instance(2, 3, (Receiver({2}, {1}), Receiver({1}, {3})))
    wide = np.arange(-6, 6).reshape(3, 4)
    codes = [
        parse_code({"kind": "linear_det", "q": 3, "G": [[1, 2], [0, 1]]}),
        parse_code({"kind": "linear_rand", "q": 3, "G": [[1, 2], [0, 1]], "Gtilde": [[2, 2]]}),
        LinearCode(5, [[7, -1], [0, 4]], [[10, 11]]),
        LinearCode(2, [[], []]),
        LinearCode(2, [[], []], [[]]),
        *(LinearCode(7, wide.astype(dtype), wide[:1].astype(dtype) % 7) for dtype in (np.int8, np.int32, np.int64)),
        LinearCode(7, wide.T),
        LinearCode(7, (wide % 7).astype(np.uint32)),
        construct_mds_code(three),
        single_access_code(three, {3}),
        single_access_code(Instance(2, 3, (Receiver({3}, {1}),)), {1}),
        single_access_code(Instance(2, 4, (Receiver({2}, {1, 3}), Receiver({4}, {1}))), {1}),
        derandomize(LinearCode(2, [[1, 0], [1, 0]], [[1, 1]]), keyed2),
        search_linear(three, AccessStructure.t_level(0), 2),
    ]
    assert codes[4].is_randomized and codes[-3].q == 3  # a moved field
    for code in codes:
        matrix = code.matrix
        assert matrix.dtype == np.int64 and matrix.flags.c_contiguous and not matrix.flags.writeable
        assert matrix.shape == (code.m + code.key_dim, code.length)
        assert ((0 <= matrix) & (matrix < code.q)).all()
        assert starts_at_row(code.generator, matrix, 0) and len(code.generator) == code.m
        if code.is_randomized:
            assert starts_at_row(code.key_generator, matrix, code.m) and len(code.key_generator) == code.key_dim
        else:
            assert code.key_generator is None
        for view in (code.generator, code.key_generator):
            assert view is None or not view.flags.writeable


# ---- MDS construction ------------------------------------------------------------

def test_mds_length_is_messages_minus_min_knowledge():
    inst = Instance(3, 3, tuple(Receiver({j for j in range(1, 4)} - {i}, {i}) for i in (1, 2, 3)))
    code = construct_mds_code(inst)
    assert code.length == 1
    assert code.generator.tolist() == [[1], [1], [1]]


def test_mds_small_case():
    inst = unwanted_key_instance(2)
    code = construct_mds_code(inst)
    assert code.length == 1
    assert code.generator.tolist() == [[1], [1]]


def test_mds_field_substitution_when_q_too_small():
    inst = crossed_pairs_instance(2)  # m=4 but q=2
    code = construct_mds_code(inst)
    assert code.q == 5
    assert code.length == 3
    # any 3 rows of the generator stay independent
    subsets = list(itertools.combinations(range(4), 3))
    assert stack_rank(5, code.generator[subsets]).tolist() == [3] * len(subsets)


def test_mds_requires_normalized_instance():
    lazy = Instance(2, 2, (Receiver({1, 2}, {1}),))
    with pytest.raises(ValueError, match="normalize"):
        construct_mds_code(lazy)


# ---- decode ----------------------------------------------------------------------

def test_decode_matches_encode_on_all_messages():
    """Exhaustive inverse check for the length-1 sum code over GF(3)."""
    inst = Instance(3, 3, (Receiver({2, 3}, {1}),))
    code = construct_mds_code(inst)
    for x in itertools.product(range(3), repeat=3):
        word = code.encode(x)
        got = decode(code, inst, 1, word, (x[1], x[2]))
        assert got == (x[0],)


def test_decode_receiver_three_subtracts_known():
    inst = crossed_pairs_instance(2)
    code = disjoint_sum_code(2)
    for x in itertools.product(range(2), repeat=4):
        word = code.encode(x)
        got = decode(code, inst, 3, word, (x[1], x[3]))  # knows messages 2 and 4
        assert got == (x[2],)
        assert got[0] == (word[1] - x[3]) % 2


def test_decode_pinned_coordinate_in_underdetermined_system():
    # receiver 1 knows only message 2; messages 3 and 4 stay entangled
    # but its wanted coordinate is still determined
    inst = crossed_pairs_instance(2)
    code = disjoint_sum_code(2)
    for x in itertools.product(range(2), repeat=4):
        got = decode(code, inst, 1, code.encode(x), (x[1],))
        assert got == (x[0],)


def test_decode_single_unknown():
    inst = Instance(5, 3, (Receiver({1, 2}, {3}),))
    code = LinearCode(5, [[1], [1], [2]])
    x = (3, 1, 4)
    got = decode(code, inst, 1, code.encode(x), (3, 1))
    assert got == (4,)


def test_decode_failure_signal_when_not_determined():
    inst = Instance(2, 2, (Receiver(set(), {1}),))
    code = LinearCode(2, [[1], [1]])  # receiver sees only x1+x2
    assert decode(code, inst, 1, (1,), ()) is None


def test_decode_inconsistent_codeword():
    inst = Instance(3, 2, (Receiver({2}, {1}),))
    code = LinearCode(3, [[1, 1], [0, 0]])  # duplicated symbol
    assert decode(code, inst, 1, (1, 2), (0,)) is None  # no x with (x1, x1) = (1, 2)


@st.composite
def deterministic_cases(draw):
    """(code, instance) with q in {2, 3, 5}, q^m <= 243 and any receivers,
    including ones that want messages they already know."""
    q = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, {2: 5, 3: 5, 5: 3}[q]))
    length = draw(st.integers(0, 3))
    data = draw(st.lists(st.integers(0, q - 1), min_size=m * length, max_size=m * length))
    knows = st.frozensets(st.integers(1, m), max_size=m)
    wants = st.frozensets(st.integers(1, m), min_size=1, max_size=m)
    receivers = draw(st.lists(st.tuples(knows, wants), min_size=1, max_size=3))
    code = LinearCode(q, np.array(data, dtype=np.int64).reshape(m, length))
    return code, Instance(q, m, tuple(Receiver(k, w) for k, w in receivers))


@given(deterministic_cases())
@settings(max_examples=40, deadline=None)
def test_decode_agrees_with_oracle_decodability(case):
    """decode returns the wanted values for every x iff the oracle says the
    receiver decodes, and None for every x otherwise."""
    code, inst = case
    verdicts = check_decodability(code, inst)
    for i, (rec, decodes) in enumerate(zip(inst.receivers, verdicts), start=1):
        for x in itertools.product(range(code.q), repeat=code.m):
            got = decode(code, inst, i, code.encode(x), [x[j - 1] for j in sorted(rec.knows)])
            assert got == (tuple(x[j - 1] for j in sorted(rec.wants)) if decodes else None)


@st.composite
def decoder_cases(draw):
    """(code, one-receiver instance, lines of codeword + side symbols).

    Lengths run from 0 to m + 2, so the receiver's system is under- and
    overdetermined; half the lines are encodings and half are drawn at
    random, so inconsistent codewords occur too."""
    q = draw(st.sampled_from([2, 3, 5, 251]))
    m = draw(st.integers(1, 5))
    length = draw(st.integers(0, m + 2))
    symbol = st.integers(0, q - 1)
    data = draw(st.lists(symbol, min_size=m * length, max_size=m * length))
    knows = sorted(draw(st.frozensets(st.integers(1, m), max_size=m)))
    wants = draw(st.frozensets(st.integers(1, m), min_size=1, max_size=m))
    code = LinearCode(q, np.array(data, dtype=np.int64).reshape(m, length))
    messages = draw(st.lists(st.lists(symbol, min_size=m, max_size=m), max_size=4))
    width = length + len(knows)
    lines = [list(code.encode(x)) + [x[j - 1] for j in knows] for x in messages]
    lines += draw(st.lists(st.lists(symbol, min_size=width, max_size=width), max_size=4))
    return code, Instance(q, m, (Receiver(knows, wants),)), lines


@given(decoder_cases())
@settings(max_examples=150, deadline=None)
def test_decoder_matches_per_line_reference(case):
    """One reduction per receiver gives, line by line, what a fresh
    reduction of [G_unknown^T | residual] gives: the same values and the
    same None for inconsistent or undecodable words."""
    code, inst, lines = case
    width = code.length + len(inst.receivers[0].knows)
    block = np.array(lines, dtype=np.int64).reshape(len(lines), width)
    values, ok = Decoder(code, inst, 1).apply(block)
    for line, got, flag in zip(lines, values.tolist(), ok):
        word, side = line[: code.length], line[code.length :]
        want = reference_decode.decode(code, inst, 1, word, side)
        assert (tuple(got) if flag else None) == want
        assert decode(code, inst, 1, word, side) == want


def test_decode_rejects_randomized_and_bad_dimensions():
    inst = unwanted_key_instance(2)
    keyed = LinearCode(2, [[1], [1]], [[1]])
    with pytest.raises(ValueError):
        decode(keyed, inst, 1, (0,), (0,))
    det = LinearCode(2, [[1], [1]])
    with pytest.raises(ValueError):
        decode(det, inst, 9, (0,), (0,))
    with pytest.raises(ValueError):
        decode(det, inst, 1, (0, 0), (0,))


@pytest.mark.parametrize("word, side, problem", [
    ((2, 0), (0,), "codeword entry 2 is outside GF(2)"),
    ((0, -1), (0,), "codeword entry -1 is outside GF(2)"),
    ((0, 0.5), (0,), "codeword entry must be an integer, got 0.5"),
    ((0, 0), (3,), "side information entry 3 is outside GF(2)"),
    ((0, 0), (None,), "side information entry must be an integer, got None"),
], ids=["high", "negative", "float", "high-side", "none-side"])
def test_decode_refuses_symbols_outside_the_field(word, side, problem):
    inst = Instance(2, 2, (Receiver({2}, {1}),))
    code = LinearCode(2, [[1, 0], [1, 1]])
    with pytest.raises(ValueError) as info:
        decode(code, inst, 1, word, side)
    assert str(info.value) == problem
    assert decode(code, inst, 1, (1, 1), (1,)) == (0,)


def test_roundtrip_for_constructed_codes():
    """construct -> decode recovers every receiver's wants for every message
    vector (state spaces here are all far below 2^16)."""
    cases = [
        unwanted_key_instance(2),
        unwanted_key_instance(3),
        crossed_pairs_instance(2),
        complementary_instance(5, 4),
    ]
    for inst in cases:
        code = construct_mds_code(inst)
        q = code.q
        for x in itertools.product(range(q), repeat=inst.m):
            word = code.encode(x)
            for i, rec in enumerate(inst.receivers, start=1):
                side = tuple(x[j - 1] for j in sorted(rec.knows))
                got = decode(code, inst, i, word, side)
                assert got == tuple(x[j - 1] for j in sorted(rec.wants))


# ---- derandomize ------------------------------------------------------------------

def padded_key_code(q=2):
    """c = [x1 + x2 + y, y]"""
    return LinearCode(q, [[1, 0], [1, 0]], [[1, 1]])


def test_derandomize_padded_key_code(keyed2):
    det = derandomize(padded_key_code(), keyed2)
    assert det.length == 1
    assert det.generator.tolist() == [[1], [1]]
    assert check_decodability(det, keyed2) == [True]
    assert check_security(det, keyed2, AccessStructure.explicit([[]])).secure


def test_derandomize_zero_key_matrix_keeps_length(keyed2):
    code = LinearCode(2, [[1], [1]], [[0]])
    det = derandomize(code, keyed2)
    assert det.length == 1
    assert check_decodability(det, keyed2) == [True]


def test_derandomize_full_rank_key_matrix_invalidates_witness(keyed2):
    # the key saturates both symbols; no decoding vector can dodge it
    code = LinearCode(2, [[1, 0], [1, 1]], [[1, 0], [0, 1]])
    with pytest.raises(ValueError, match="^receiver 1 cannot decode"):
        derandomize(code, keyed2)


def test_derandomize_requires_randomized_code(keyed2):
    with pytest.raises(ValueError):
        derandomize(LinearCode(2, [[1], [1]]), keyed2)


def test_derandomize_dominates_pair_by_pair():
    """Wherever the keyed code's gap is zero for an (access, block) pair,
    the projected code's gap is zero for that same pair."""
    inst = crossed_pairs_instance(2)
    keyed = LinearCode(2, [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 1, 0]], [[0, 1, 1]])
    det = derandomize(keyed, inst)
    for acc in (AccessStructure.t_level(1), AccessStructure.explicit([[3, 4], [2]])):
        before = check_security(keyed, inst, acc)
        after = check_security(det, inst, acc)
        by_pair = {(p.access, p.block): p.uniform for p in after.checks}
        for pair in before.checks:
            if pair.uniform:
                assert by_pair[(pair.access, pair.block)], (pair.access, pair.block)


@st.composite
def keyed_cases(draw):
    """(keyed code, instance): q in {2, 3, 5}, m <= 4, one or two key
    rows, length <= 4 and q^(m + key rows) <= 4096 joint states, with
    receivers that may want what they know."""
    q = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 4))
    key_dim = draw(st.integers(1, 2).filter(lambda k: q ** (m + k) <= 4096))
    length = draw(st.integers(0, 4))

    def matrix(rows):
        entries = draw(st.lists(st.integers(0, q - 1), min_size=rows * length, max_size=rows * length))
        return np.array(entries, dtype=np.int64).reshape(rows, length)

    subsets = st.frozensets(st.integers(1, m))
    receivers = draw(st.lists(st.builds(Receiver, subsets, subsets), min_size=1, max_size=3))
    return LinearCode(q, matrix(m), matrix(key_dim)), Instance(q, m, tuple(receivers))


@given(keyed_cases())
@settings(max_examples=150, deadline=None)
def test_derandomize_matches_the_oracle(case):
    """derandomize returns a code iff the enumeration says the keyed code
    decodes for every receiver, and otherwise names the first receiver
    it does not; the code is ell - rank(Gtilde) long, decodes, and at
    every t-level keeps uniform each pair the keyed code keeps uniform."""
    keyed, inst = case
    decodes = check_decodability(keyed, inst)
    if not all(decodes):
        with pytest.raises(ValueError, match=f"^receiver {decodes.index(False) + 1} cannot decode"):
            derandomize(keyed, inst)
        return
    det = derandomize(keyed, inst)
    assert det.length == keyed.length - stack_rank(keyed.q, keyed.key_generator[None])[0]
    assert all(check_decodability(det, inst))
    for t in range(inst.m):
        acc = AccessStructure.t_level(t)
        kept = {(p.access, p.block) for p in check_security(det, inst, acc).checks if p.uniform}
        assert {(p.access, p.block) for p in check_security(keyed, inst, acc).checks if p.uniform} <= kept


# ---- single-access construction -----------------------------------------------------

def test_single_access_empty_set_is_mds(keyed2):
    code = single_access_code(keyed2, set())
    assert code.generator.tolist() == [[1], [1]]  # x1 + x2


def test_single_access_full_set_sends_everything(crossed2):
    code = single_access_code(crossed2, {1, 2, 3, 4})
    assert code == LinearCode(2, np.eye(4, dtype=np.int64))


def test_single_access_raises_on_compromised_receiver():
    inst = Instance(2, 2, (Receiver({2}, {1}),))
    with pytest.raises(NoSecureCodeError) as err:
        single_access_code(inst, {2})
    assert err.value.receiver == 1
    assert err.value.access == frozenset({2})


def test_single_access_crossed_instance_passes_oracle(crossed2):
    access = frozenset({3, 4})
    code = single_access_code(crossed2, access)
    assert all(check_decodability(code, crossed2))
    assert check_security(code, crossed2, AccessStructure.explicit([access])).secure


def test_single_access_mixed_receiver_types():
    # receiver 1 protected part only; receiver 2 served by the clear part
    inst = Instance(2, 3, (Receiver({2}, {1}), Receiver({1, 2}, {3})))
    access = frozenset({3})
    code = single_access_code(inst, access)
    assert all(check_decodability(code, inst))
    assert check_security(code, inst, AccessStructure.explicit([access])).secure


def test_single_access_block_skips_receivers_served_in_the_clear():
    # receiver 1 wants x1, sent in the clear, and x3, which it knows: only
    # receiver 2, knowing x3 outside A, sets the block length 2 - 1
    inst = known_want_instance()
    code = single_access_code(inst, {1})
    assert code == LinearCode(5, [[1, 0], [0, 1], [0, 1]])  # [x1 | x2 + x3]
    report = check_security(code, inst, AccessStructure.explicit([[1]]))
    assert all(report.decodable) and report.secure


def test_single_access_empty_block_keeps_the_field():
    # nobody lacks a message outside A = {1}: no block, and GF(2) stays,
    # although GF(2) has fewer than the 2 + 1 points a block would need
    inst = Instance(2, 3, (Receiver({3}, {1}),))
    code = single_access_code(inst, {1})
    assert code == LinearCode(2, [[1], [0], [0]])


def test_single_access_block_substitutes_the_field():
    # 3 messages outside A over GF(2): the block moves to GF(3), and so
    # does the clear column
    inst = Instance(2, 4, (Receiver({2}, {1, 3}), Receiver({4}, {1})))
    code = single_access_code(inst, {1})
    assert code.q == 3
    assert code.generator[:, 0].tolist() == [1, 0, 0, 0]
    report = check_security(code, inst, AccessStructure.explicit([[1]]))
    assert all(report.decodable) and report.secure


# ---- security level ----------------------------------------------------------------

def test_security_level_sum_code():
    code = LinearCode(3, vandermonde(3, 1, 3))
    # span of (1,1,1) over GF(3): weights {3}; level = 3 - 2
    assert security_level(code) == 1


def test_security_level_identity_leaks():
    code = LinearCode(2, np.eye(3, dtype=np.int64))
    assert security_level(code) == -1


def test_security_level_disjoint_sum_code():
    # span over GF(2): {1100, 0011, 1111} -> min weight 2 -> level 0
    code = disjoint_sum_code(2)
    spanned = set()
    for a in range(2):
        for b in range(2):
            if a or b:
                vec = tuple((a * r[0] + b * r[1]) % 2 for r in [(1, 0), (1, 0), (0, 1), (0, 1)])
                spanned.add(vec)
    assert min(sum(v) for v in spanned) == 2
    assert security_level(code) == 0


def test_security_level_zero_generator():
    assert security_level(LinearCode(2, np.zeros((3, 2), dtype=np.int64))) == -1


@given(deterministic_cases())
@settings(max_examples=60, deadline=None)
def test_security_level_is_largest_secure_t_level(case):
    """For b = 1, security_level = min span weight - 2 is the largest t
    whose t-level check passes, or -1 when even t = 0 leaks."""
    code, inst = case
    assume(code.generator.any())
    secure = [
        t for t in range(code.m)
        if check_security(code, inst, AccessStructure.t_level(t), b=1).secure
    ]
    assert security_level(code) == max(secure, default=-1)


def test_security_level_budget():
    code = LinearCode(5, vandermonde(5, 4, 5))
    with pytest.raises(BudgetExceededError):
        security_level(code, budget=10)
    # a span too large to print as a decimal int still gets a readable refusal
    wide = LinearCode(WIDEST_Q, np.eye(560, dtype=np.int64))
    with pytest.raises(BudgetExceededError, match=rf"{WIDEST_Q}\^560 vectors"):
        security_level(wide)


def test_security_level_refuses_wide_span_without_full_reduction(monkeypatch):
    # one row of G^T already spans more than the budget: the refusal comes
    # from the first k + 1 rows, before G^T is reduced
    def unreachable(q, a):
        raise AssertionError("the generator was fully reduced before the refusal")

    monkeypatch.setattr(secix.codes, "rref", unreachable)
    wide = LinearCode(WIDEST_Q, np.eye(560, dtype=np.int64))
    with pytest.raises(BudgetExceededError, match=rf"{WIDEST_Q}\^1 to {WIDEST_Q}\^560 vectors"):
        security_level(wide)


def test_security_level_vandermonde_grid():
    """For Vandermonde generators the level is (m - length) - 1."""
    for m in range(2, 7):
        q = 2 if m <= 2 else (3 if m <= 3 else (5 if m <= 5 else 7))
        for length in range(1, m):
            code = LinearCode(q, vandermonde(m, length, q))
            assert security_level(code) == m - length - 1, (m, length, q)


def subsets_first(q, m, rank):
    """Whether security_level ranks subsets before any span vector: the
    C(m, rank) subsets of the first size are at most the q^rank vectors."""
    return math.comb(m, rank) <= q ** rank


@st.composite
def generators(draw):
    """(q, m x ell generator) over q in {2, 3, 5, 7, 251}, with at most
    2^16 coefficient vectors for the reference and entries biased to 0 so
    that low levels and rank-deficient generators are common."""
    q = draw(st.sampled_from([2, 3, 5, 7, 251]))
    m = draw(st.integers(1, 8))
    length = draw(st.integers(0, 4).filter(lambda ell: q ** ell <= 2 ** 16))
    entry = st.one_of(st.just(0), st.integers(0, q - 1))
    rows = draw(st.lists(st.lists(entry, min_size=length, max_size=length), min_size=m, max_size=m))
    return q, rows


@given(generators())
@settings(max_examples=150, deadline=None)
def test_security_level_matches_brute_force_weight(case):
    q, rows = case
    assert security_level(LinearCode(q, rows)) == reference_weight.security_level(q, rows)


def test_security_level_grid_covers_both_routes():
    """Every level -1 .. m - 2 and ranks 0 .. 4, from generators on both
    sides of the count rule, against the brute-force weight."""
    cases = []
    # one column of weight w: level w - 2, at q = 7 (6 subsets <= 7
    # vectors) and at q = 2 (6 subsets > 2 vectors)
    for q in (2, 7):
        for w in range(0, 7):
            cases.append((q, [[1] if i < w else [0] for i in range(6)]))
    # rank 2 with two rank-1 row pairs: sizes 2 and 3 are ranked, level 2
    cases.append((251, [[1, 0], [1, 0], [1, 1], [1, 1], [0, 1], [0, 1]]))
    # a repeated column, so rank 2 from length 3
    cases.append((5, [[1, 2, 1], [0, 1, 0], [3, 0, 3], [1, 1, 1], [4, 2, 4], [0, 0, 0]]))
    # ranks 3 and 4: MDS codes with subsets first, random ones without
    rng = np.random.default_rng(3)
    cases.append((7, vandermonde(7, 3, 7).tolist()))
    cases.append((11, vandermonde(8, 4, 11).tolist()))
    cases.append((2, rng.integers(0, 2, size=(8, 3)).tolist()))
    cases.append((2, rng.integers(0, 2, size=(8, 4)).tolist()))
    seen_levels, seen_ranks, routes = set(), set(), set()
    for q, rows in cases:
        code = LinearCode(q, rows)
        level = security_level(code)
        assert level == reference_weight.security_level(q, rows), (q, rows)
        rank = stack_rank(q, code.generator[None])[0]
        seen_ranks.add(rank)
        if rank:
            routes.add(subsets_first(q, code.m, rank))
        if code.m == 6:
            seen_levels.add(level)
    assert seen_levels == set(range(-1, 5))
    assert seen_ranks == {0, 1, 2, 3, 4}
    assert routes == {True, False}


def test_security_level_budget_counts_span_vectors():
    # C(10, 3) = 120 subsets would fit a budget of 1000, but the 11^3 span
    # vectors do not, and the budget counts span vectors
    code = LinearCode(11, vandermonde(10, 3, 11))
    assert subsets_first(11, 10, 3)
    with pytest.raises(BudgetExceededError) as exc:
        security_level(code, budget=1000)
    assert str(exc.value) == (
        "11^3 vectors of the column span exceed the budget of 1000; raise the budget to force the enumeration"
    )
    assert security_level(code, budget=11 ** 3) == 6


def test_security_level_subset_stacks_stay_small():
    # 42,504 subsets of 5 of 24 rows: about 8.5 MB as one int64 stack
    code = LinearCode(29, vandermonde(24, 5, 29))
    assert subsets_first(29, 24, 5)
    tracemalloc.start()
    try:
        assert security_level(code, budget=29 ** 5) == 18
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_security_level_refuses_keyed_codes():
    keyed = LinearCode(3, [[1], [1]], [[1]])
    with pytest.raises(ValueError, match="deterministic linear codes"):
        security_level(keyed)


# ---- JSON ----------------------------------------------------------------------------

def test_code_json_roundtrip(tmp_path):
    det = disjoint_sum_code(3)
    path = tmp_path / "code.json"
    save_code(path, det)
    assert load_code(path) == det
    keyed = padded_key_code()
    obj = json.loads(json.dumps(code_to_dict(keyed)))
    assert parse_code(obj) == keyed
    assert obj["kind"] == "linear_rand"


def test_parse_code_errors():
    with pytest.raises(ValueError):
        parse_code({"kind": "linear_det", "q": 2})
    with pytest.raises(ValueError):
        parse_code({"kind": "mystery", "q": 2, "G": [[1]]})
    with pytest.raises(ValueError):
        parse_code({"kind": "linear_rand", "q": 2, "G": [[1]]})
    with pytest.raises(ValueError):
        parse_code({"kind": "linear_det", "q": 2, "G": [[1]], "Gtilde": [[1]]})
    with pytest.raises(ValueError, match=r"^G must have at least one row$"):
        parse_code({"kind": "linear_det", "q": 2, "G": []})
    with pytest.raises(ValueError, match=r"^Gtilde must have at least one row$"):
        parse_code({"kind": "linear_rand", "q": 2, "G": [[1]], "Gtilde": []})


@pytest.mark.parametrize("entry, text", [
    (True, "G row 2 entry must be an integer, got True"),
    (1.5, "G row 2 entry must be an integer, got 1.5"),
    ("3", "G row 2 entry must be an integer, got '3'"),
    (None, "G row 2 entry must be an integer, got None"),
    ([1], "G row 2 entry must be an integer, got [1]"),
    (-1, "G row 2 entry -1 is outside GF(5)"),
    (5, "G row 2 entry 5 is outside GF(5)"),
    (2 ** 63, "G row 2 entry 9223372036854775808 is outside GF(5)"),
    (2 ** 64, "G row 2 entry 18446744073709551616 is outside GF(5)"),
], ids=["true", "float", "string", "null", "list", "minus-1", "q", "2^63", "2^64"])
def test_parse_code_names_the_entry_at_fault(entry, text):
    # a matrix is checked whole, but never coerced: a bool, float or
    # string is refused, not read as 1, 1 or 3, and a value past int64 is
    # named as it is written
    with pytest.raises(ValueError) as raised:
        parse_code({"kind": "linear_det", "q": 5, "G": [[1, 0], [0, entry]]})
    assert str(raised.value) == text
    with pytest.raises(ValueError) as raised:
        parse_code({"kind": "linear_rand", "q": 5, "G": [[1, 0]], "Gtilde": [[1, 0], [0, entry]]})
    assert str(raised.value) == "Gtilde" + text[1:]


@pytest.mark.parametrize("rows, text", [
    ([[1, 0], [1]], "G row 2 has length 1, row 1 has length 2"),
    ([[1, 0, 1], [1, 0]], "G row 2 has length 2, row 1 has length 3"),
    ([[1], [7], [1.5]], "G row 2 entry 7 is outside GF(5)"),
    ([[1], [1.5], [7]], "G row 2 entry must be an integer, got 1.5"),
    ([[7, 1.5]], "G row 1 entry must be an integer, got 1.5"),
    ([[1], 1], "G row 2 must be a list of integers, got 1"),
    (((1, 0), (0, 1)), "G must be a list of integer rows, got ((1, 0), (0, 1))"),
], ids=["ragged-short", "ragged-long", "range-before-type", "type-before-range", "types-first-in-a-row",
        "scalar-row", "tuple-matrix"])
def test_parse_code_names_the_first_row_at_fault(rows, text):
    with pytest.raises(ValueError) as raised:
        parse_code({"kind": "linear_det", "q": 5, "G": rows})
    assert str(raised.value) == text


def test_parse_code_takes_tuple_rows_and_empty_rows():
    # library callers may pass tuple rows; a length-0 code has empty rows
    listed = parse_code({"kind": "linear_det", "q": 5, "G": [[1, 0], [4, 3]]})
    assert parse_code({"kind": "linear_det", "q": 5, "G": [(1, 0), (4, 3)]}) == listed
    assert parse_code({"kind": "linear_det", "q": 5, "G": [[1, 0], (4, 3)]}) == listed
    assert listed.generator.tolist() == [[1, 0], [4, 3]] and listed.generator.dtype == np.int64
    empty = parse_code({"kind": "linear_det", "q": 5, "G": [[], []]})
    assert (empty.m, empty.length) == (2, 0)


# entries the one-array screen must hand to the row-by-row reader: not
# integers, outside GF(q) or past int64, next to plain field symbols
ODD_ENTRIES = [True, False, 0.0, 1.5, "1", None, [1], [], -1, 2 ** 63 - 1, 2 ** 63, 2 ** 64]


@st.composite
def code_objects(draw):
    """Code-file objects: G and Gtilde of equal, ragged or empty rows,
    with entries that are field symbols, q, or any of ODD_ENTRIES; a
    Gtilde that is present, missing or extra, or a matrix or row that
    is no list."""
    q = draw(st.sampled_from([2, 3, 5, 2, 3, 5, 4]))
    width = draw(st.integers(0, 3))
    symbol = st.integers(0, q - 1)
    entry = symbol if draw(st.booleans()) else symbol | st.just(q) | st.sampled_from(ODD_ENTRIES)
    exact = st.lists(entry, min_size=width, max_size=width)
    row = exact | st.lists(entry, max_size=4) | st.sampled_from([(1,) * width, 1, "1", None])
    rows = st.lists(exact, min_size=1, max_size=4)
    matrix = st.one_of(rows, rows, rows, st.lists(row, max_size=4), rows.map(tuple), st.sampled_from([None, 1, {}]))
    keyed = draw(st.booleans())
    obj = {"kind": "linear_rand" if keyed else "linear_det", "q": q, "G": draw(matrix)}
    if draw(st.sampled_from([keyed, keyed, keyed, not keyed])):
        obj["Gtilde"] = draw(matrix)
    return obj


def parsed(parse, obj):
    """The fields and arrays of the code `parse` builds from obj, or its
    exception's type and text."""
    try:
        code = parse(obj)
    except Exception as exc:
        return type(exc), str(exc)
    views = [code.generator] + ([] if code.key_generator is None else [code.key_generator])
    return ((code.q, code.m, code.key_dim, code.length, code.key_count, code.is_randomized),
            (code.matrix.dtype, code.matrix.tolist(), code.matrix.flags.writeable),
            [(view.tolist(), view.flags.writeable, view.base is code.matrix) for view in views])


@given(code_objects())
@example({"kind": "linear_rand", "q": 2, "G": [[1], [0]], "Gtilde": [[1, 0]]})
@example({"kind": "linear_rand", "q": 2, "G": [[]], "Gtilde": [[]]})
@example({"kind": "linear_det", "q": 2, "G": [[0]] * (MAX_MESSAGES + 1)})
@example({"kind": "linear_rand", "q": 2, "G": [[0]] * MAX_MESSAGES, "Gtilde": [[1]]})
@example({"kind": "linear_det", "q": 2, "G": [[0] * (MAX_MESSAGES + 1)]})
@example({"kind": "linear_rand", "q": 5, "G": [[1, 0]], "Gtilde": [[2 ** 64, 0]]})
@settings(max_examples=400, deadline=None)
def test_parse_code_matches_the_matrix_by_matrix_reader(obj):
    assert parsed(parse_code, obj) == parsed(reference_parse_code.parse_code, obj)
