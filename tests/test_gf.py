"""Field arithmetic and matrix algebra, checked against brute force.

Every derived expectation in here was computed by an independent
enumeration (product scans, span-size counts, kernel enumeration)
before being frozen into an assertion; several tests keep the
enumeration inline so the oracle stays visible.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from secix import (
    Decoder,
    Instance,
    LinearCode,
    Receiver,
    derandomize,
    is_prime,
    smallest_prime_at_least,
    vandermonde,
)
from secix.gf import MAX_MESSAGES, MAX_MODULUS, nullspace, radix_digits, rref, stack_rank
from conftest import WIDEST_Q
import reference_rref

SMALL_PRIMES = [2, 3, 5, 7]


# ---- independent oracles ---------------------------------------------------

def span_of_rows(q, rows):
    """All linear combinations of the given row vectors, by enumeration."""
    rows = [tuple(r) for r in rows]
    width = len(rows[0]) if rows else 0
    vectors = set()
    for coeffs in itertools.product(range(q), repeat=len(rows)):
        v = tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) % q for i in range(width))
        vectors.add(v)
    return vectors


def rank_by_span(q, rows):
    size = len(span_of_rows(q, rows))
    r = 0
    while q ** r < size:
        r += 1
    assert q ** r == size, "span size is not a power of q"
    return r


def kernel_by_enumeration(q, mat):
    mat = np.asarray(mat)
    return {v for v in itertools.product(range(q), repeat=mat.shape[1]) if not (mat @ v % q).any()}


def pivot_count(q, mat):
    """The rank as rref's pivot count: the one-matrix reference for stack_rank."""
    return len(rref(q, mat)[1])


# ---- primality helpers -----------------------------------------------------

def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(-3, 25):
        assert is_prime(n) == (n in primes)


def test_smallest_prime_at_least():
    assert smallest_prime_at_least(1) == 2
    assert smallest_prime_at_least(4) == 5
    assert smallest_prime_at_least(5) == 5
    assert smallest_prime_at_least(8) == 11


# ---- element arithmetic ------------------------------------------------------
#
# Field elements are int64 values reduced mod q: a * b % q is the field's
# multiplication and (a + b) % q its addition, and rref of [a | 1]
# scales the row by the inverse of a, leaving a^-1 in the second column.

def inverse(q, a):
    """a^-1 as rref leaves it in [a | 1]; None when a has no pivot."""
    reduced, pivots = rref(q, [[a, 1]])
    return reduced[0, 1] if pivots == (0,) else None


def test_mul_example_against_scan():
    # expected value fixed by scanning all products mod 7
    table = {(a, b): (a * b) % 7 for a in range(7) for b in range(7)}
    assert table[(3, 5)] == 1
    assert (np.array([[3]]) @ np.array([[5]]) % 7).tolist() == [[1]]


def test_inverse_examples():
    assert inverse(5, 2) == 3
    assert inverse(2, 1) == 1


def test_inverse_by_exhaustive_scan_q11():
    matches = [b for b in range(11) if (7 * b) % 11 == 1]
    assert matches == [8]
    assert inverse(11, 7) == 8


def test_inverse_of_zero_rejected():
    for q in SMALL_PRIMES:
        assert inverse(q, 0) is None
        assert inverse(q, q) is None  # q reduces to 0


def test_inverse_property_all_small_fields():
    for q in SMALL_PRIMES + [11]:
        for a in range(1, q):
            assert a * inverse(q, a) % q == 1


def test_field_axioms_exhaustive():
    """Associativity and commutativity of the product, and its
    distributivity over addition, for q <= 7, on every triple at once."""
    for q in SMALL_PRIMES:
        a, b, c = np.meshgrid(*[np.arange(q, dtype=np.int64)] * 3, indexing="ij")
        assert (a * b % q == b * a % q).all()
        assert (a * b % q * c % q == a * (b * c % q) % q).all()
        assert (a * ((b + c) % q) % q == (a * b % q + a * c % q) % q).all()


@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10))
def test_field_axioms_sampled_q11(a, b, c):
    a, b, c = np.int64(a), np.int64(b), np.int64(c)
    assert a * ((b + c) % 11) % 11 == (a * b % 11 + a * c % 11) % 11


def test_composite_modulus_rejected():
    for q in (0, 1, 4, 6, 9, 12):
        with pytest.raises(ValueError):
            LinearCode(q, [[1]])


def test_modulus_above_int64_bound_rejected():
    # 4294967311 is prime, but (q-1)^2 sums would wrap int64
    assert is_prime(4294967311) and 4294967311 > MAX_MODULUS
    with pytest.raises(ValueError, match="exceeds"):
        LinearCode(4294967311, [[1]])
    # the bound keeps a MAX_MESSAGES-term product of maximal entries exact
    assert MAX_MESSAGES * (MAX_MODULUS - 1) ** 2 + MAX_MODULUS - 1 < 2 ** 63
    column = LinearCode(WIDEST_Q, [[WIDEST_Q - 1]] * MAX_MESSAGES)
    assert column.encode([WIDEST_Q - 1] * MAX_MESSAGES) == (MAX_MESSAGES * (WIDEST_Q - 1) ** 2 % WIDEST_Q,)


def test_each_field_is_scanned_once():
    # every checked_modulus asks is_prime about its q; a trial-division
    # scan of WIDEST_Q takes about half a millisecond, so it runs once per
    # process, however many codes over GF(q) are built
    is_prime.cache_clear()
    q = WIDEST_Q
    g = [[1, 1], [1, 0]]
    inst = Instance(q, 2, (Receiver({2}, {1}),))
    assert Decoder(LinearCode(q, g), inst, 1).decodable
    # c = (x1 + x2, x1 + y): the key-free part x1 + x2 serves the receiver
    keyed = LinearCode(q, g, [[0, 1]])
    assert derandomize(keyed, inst).generator.tolist() == [[1], [1]]
    info = is_prime.cache_info()
    # three codes ask: the two built here and the one derandomize builds
    assert (info.misses, info.currsize) == (1, 1) and info.hits >= 2


def test_entries_beyond_64_bits_are_reduced_exactly():
    assert LinearCode(3, [[10 ** 30, -(10 ** 30)]]).matrix.tolist() == [[10 ** 30 % 3, -(10 ** 30) % 3]]


# ---- matrices ----------------------------------------------------------------

def test_rank_trivial_cases():
    eye, zero = np.eye(3, dtype=np.int64), np.zeros((2, 2), dtype=np.int64)
    assert stack_rank(2, eye[None])[0] == pivot_count(2, eye) == 3
    assert stack_rank(2, zero[None])[0] == pivot_count(2, zero) == 0


def test_rank_dependent_rows_q3():
    # (2,1) = 2*(1,2) mod 3, so the span has 3 vectors: rank 1
    rows = [[1, 2], [2, 1]]
    assert rank_by_span(3, rows) == 1
    assert pivot_count(3, rows) == 1
    assert stack_rank(3, np.array([rows]))[0] == 1


def test_rank_matches_span_oracle_on_random_matrices():
    rng = np.random.default_rng(7)
    for q in (2, 3, 5):
        for _ in range(20):
            shape = (rng.integers(1, 4), rng.integers(1, 4))
            data = rng.integers(0, q, size=shape)
            expected = rank_by_span(q, data.tolist())
            assert pivot_count(q, data) == expected
            assert stack_rank(q, data[None])[0] == expected


# ---- batched rank ------------------------------------------------------------

STACK_MODULI = [2, 3, 5, 251, WIDEST_Q]


@st.composite
def rank_stacks(draw):
    """(q, S x r x d int64 stack) whose matrices hold zero rows, repeated
    rows, combinations of earlier rows and all-zero matrices, with entries
    in [0, q) biased towards 0, 1 and q - 1."""
    q = draw(st.sampled_from(STACK_MODULI))
    count, r, d = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1))
    stack = np.zeros((count, r, d), dtype=np.int64)
    for mat in stack:
        if draw(st.booleans()) and draw(st.booleans()):
            continue  # an all-zero matrix
        for i in range(r):
            kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combine"]))
            if kind == "fresh" or i == 0:
                mat[i] = draw(st.lists(entry, min_size=d, max_size=d))
            elif kind == "repeat":
                mat[i] = mat[draw(st.integers(0, i - 1))]
            elif kind == "combine":
                a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
                ca, cb = draw(entry), draw(entry)
                mat[i] = [(ca * int(x) + cb * int(y)) % q for x, y in zip(mat[a], mat[b])]
    return q, stack


@given(rank_stacks())
@settings(max_examples=150, deadline=None)
def test_stack_rank_matches_rref(case):
    q, stack = case
    assert stack_rank(q, stack).tolist() == [pivot_count(q, mat) for mat in stack]


SHAPE_EXAMPLES = [np.random.default_rng(3).integers(0, 7, size=shape)
                  for shape in [(3, 5, 2), (3, 2, 5), (3, 4, 4), (0, 5, 2), (2, 0, 3), (2, 3, 0)]]


@given(rank_stacks())
@settings(max_examples=150, deadline=None)
@example((7, SHAPE_EXAMPLES[0])).via("tall")
@example((7, SHAPE_EXAMPLES[1])).via("wide")
@example((7, SHAPE_EXAMPLES[2])).via("square")
@example((7, SHAPE_EXAMPLES[3])).via("no matrix")
@example((7, SHAPE_EXAMPLES[4])).via("no row")
@example((7, SHAPE_EXAMPLES[5])).via("no column")
def test_stack_rank_ranks_the_transposes_alike(case):
    # a stack with more rows than columns is ranked as its transposes,
    # and no stack is written to
    q, stack = case
    before = stack.copy()
    ranks = stack_rank(q, stack).tolist()
    assert ranks == stack_rank(q, stack.transpose(0, 2, 1)).tolist()
    assert ranks == [pivot_count(q, mat) for mat in stack]
    assert np.array_equal(stack, before)


def test_stack_rank_edge_shapes():
    assert stack_rank(5, np.zeros((0, 3, 4), dtype=np.int64)).shape == (0,)
    assert stack_rank(5, np.ones((2, 3, 0), dtype=np.int64)).tolist() == [0, 0]
    assert stack_rank(5, np.ones((2, 0, 3), dtype=np.int64)).tolist() == [0, 0]
    assert stack_rank(5, np.zeros((1, 3, 3), dtype=np.int64)).tolist() == [0]
    # r > d: three rows in two columns; repeated rows; entries reduced mod q
    tall = [[[1, 0], [0, 1], [1, 1]], [[2, 4], [1, 2], [3, 6]], [[5, 10], [-5, 0], [0, 5]]]
    assert stack_rank(5, np.array(tall)).tolist() == [2, 1, 0]
    # the first column is zero in the working row, so it is no pivot
    assert stack_rank(3, np.array([[[0, 1, 2], [0, 2, 1], [1, 0, 0]]])).tolist() == [2]
    # GF(2) ranks by XOR on `stack & 1`: no matrix, no row, no column, all
    # zeros (even entries included), negative entries and entries >= 2
    assert stack_rank(2, np.zeros((0, 3, 4), dtype=np.int64)).shape == (0,)
    assert stack_rank(2, np.ones((2, 0, 3), dtype=np.int64)).tolist() == [0, 0]
    assert stack_rank(2, np.ones((2, 3, 0), dtype=np.int64)).tolist() == [0, 0]
    assert stack_rank(2, np.array([[[0] * 3] * 3, [[2, -4, 6], [8, 0, -2], [4, 4, 4]]])).tolist() == [0, 0]
    signed = [[[3, -1], [-2, 4]], [[-1, 2], [5, -3]], [[-3, 7], [9, 11]]]
    assert stack_rank(2, np.array(signed)).tolist() == [1, 2, 1]
    # tall, ranked as its transposes, and wide: repeated rows, sums of rows
    tall = [[[1, 0], [0, 1], [1, 1]], [[1, 1], [3, -1], [0, 2]], [[0, 1], [1, 0], [0, 0]]]
    wide = [[[1, 1, 0], [0, 1, 1]], [[1, 0, 1], [3, 2, -1]], [[0, 0, 1], [1, 1, 1]]]
    assert stack_rank(2, np.array(tall)).tolist() == [2, 1, 2]
    assert stack_rank(2, np.array(wide)).tolist() == [2, 1, 2]
    # the input is left as it is, a transposed view included
    for stack in (np.array(signed), np.array(tall), np.array(wide).transpose(0, 2, 1)):
        before = stack.copy()
        ranks = stack_rank(2, stack).tolist()
        assert np.array_equal(stack, before)
        assert ranks == [pivot_count(2, mat) for mat in stack]


@st.composite
def word_stacks(draw):
    """An S x r x d stack of integers whose longer axis, the one the GF(2)
    word kernel packs, holds 1, 63, 64, 65, 128 or 129 entries.  Each
    vector along it is a sum of a few sparse vectors, some set only past
    the first word, so vectors repeat, cancel and share their highest bit;
    entries are then moved by even amounts, so some are negative and
    some above 1.  Both orientations are drawn, the shorter axis may be
    empty, and so may the stack."""
    long = draw(st.sampled_from([1, 63, 64, 65, 128, 129]))
    count, short = draw(st.integers(0, 3)), draw(st.integers(0, min(long, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sparse = np.zeros((count, draw(st.integers(1, 4)), long), dtype=np.int64)
    for basis in sparse:
        for vector in basis:
            start = draw(st.sampled_from([0, long // 2, max(0, long - 64)]))
            vector[rng.integers(start, long, draw(st.integers(1, 3)))] = 1
    sums = rng.integers(0, 2, (count, short, sparse.shape[1]))
    stack = sums @ sparse % 2 + 2 * rng.integers(-2, 2, (count, short, long))
    return stack.transpose(0, 2, 1) if draw(st.booleans()) else stack


@given(word_stacks())
@settings(max_examples=300, deadline=None)
@example(np.zeros((0, 3, 129), dtype=np.int64)).via("no matrix")
@example(np.ones((2, 0, 65), dtype=np.int64)).via("no row")
@example(np.ones((2, 65, 0), dtype=np.int64)).via("no column")
@example(np.array([[[0] * 64 + [1], [0] * 64 + [-1]]])).via("equal vectors set past the first word")
def test_word_kernel_matches_reference_rref(stack):
    # stack_rank over GF(2) packs the longer axis into words and ranks
    # them with the word kernel: the pivot count of the reference's
    # reduced form, entries read mod 2, and the stack left as it is
    before = stack.copy()
    ranks = stack_rank(2, stack)
    assert ranks.shape == (len(stack),)
    assert ranks.tolist() == [len(reference_rref.rref(2, mat.tolist())[1]) for mat in stack]
    assert np.array_equal(stack, before)


def test_stack_rank_widest_field_stays_exact():
    # rows (a, b) and (c, d) near q, dependent iff ad = bc mod q: the
    # fraction-free products reach about q^2 without wrapping int64
    q = WIDEST_Q
    a, b, c = q - 1, q - 2, q - 3
    d = c * b * pow(a, q - 2, q) % q
    stack = np.array([[[a, b], [c, d]], [[a, b], [c, (d + 1) % q]]])
    assert stack_rank(q, stack).tolist() == [1, 2]


@pytest.mark.parametrize("q", [2, 3, 5])
def test_radix_digits_is_the_radix_grid(q):
    # row v spells v in base q, most significant digit first: the
    # lexicographic order of itertools.product
    for width in range(8):
        digits = radix_digits(np.arange(q ** width), q, width)
        assert digits.shape == (q ** width, width)
        assert digits.tolist() == [list(x) for x in itertools.product(range(q), repeat=width)]
    assert radix_digits([6, 24], 5, 3).tolist() == [[0, 1, 1], [0, 4, 4]]


def test_radix_digits_refuses_powers_past_int64():
    # width 63 has 2^62 as its top power; width 64 would need 2^63
    assert radix_digits([2 ** 63 - 1, 1], 2, 63).tolist() == [[1] * 63, [0] * 62 + [1]]
    with pytest.raises(OverflowError):
        radix_digits([1], 2, 64)


# A system A x = b is solved by one rref of [A | b], as decode does: a
# pivot in the last column means inconsistent, otherwise the pivot rows
# give a solution with the free variables set to 0.

def solve(q, a, b):
    cols = np.shape(a)[1]
    reduced, pivots = rref(q, np.column_stack([a, b]))
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[list(pivots)] = reduced[: len(pivots), -1]
    return x.tolist()


def test_solve_identity_and_scalar():
    assert solve(2, np.eye(2, dtype=np.int64), [1, 0]) == [1, 0]
    assert solve(5, [[2]], [1]) == [3]


def test_solve_inconsistent_system():
    # overdetermined over GF(3); exhaustively confirmed unsolvable
    a = [[1], [1]]
    for x in range(3):
        assert [(x) % 3, (x) % 3] != [0, 1]
    assert solve(3, a, [0, 1]) is None


def test_solve_unique_solution_is_returned():
    a = np.array([[1, 2], [3, 4]])
    x = [2, 3]
    assert solve(5, a, a @ x % 5) == x


@st.composite
def matrix_and_vector(draw):
    q = draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    data = draw(
        st.lists(st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
                 min_size=rows, max_size=rows)
    )
    x = draw(st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols))
    return q, np.array(data, dtype=np.int64), x


@given(matrix_and_vector())
@settings(max_examples=60)
def test_solve_roundtrip_property(mx):
    q, mat, x = mx
    b = mat @ x % q
    sol = solve(q, mat, b)
    assert sol is not None
    assert np.array_equal(mat @ sol % q, b)


# MAX_MODULUS itself is not prime: WIDEST_Q, 94859939, is the largest prime below it
RREF_MODULI = [2, 3, 7, 251, WIDEST_Q]


@st.composite
def rref_cases(draw):
    """(q, matrix of up to 8 x 16) with zero rows and rows that repeat or
    combine earlier ones, entries biased towards 0, 1 and q - 1 and now
    and then negative or past q; as a C-ordered array, a transposed view
    or a strided one, each with the same entries."""
    q = draw(st.sampled_from(RREF_MODULI))
    r, d = draw(st.integers(0, 8)), draw(st.integers(0, 16))
    entry = st.one_of(st.sampled_from([0, 1, q - 1]), st.integers(0, q - 1), st.integers(-2 * q, 2 * q))
    mat = np.zeros((r, d), dtype=np.int64)
    for i in range(r):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combine"]))
        if kind == "fresh" or (i == 0 and kind != "zero"):
            mat[i] = draw(st.lists(entry, min_size=d, max_size=d))
        elif kind == "repeat":
            mat[i] = mat[draw(st.integers(0, i - 1))]
        elif kind == "combine":
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            ca, cb = draw(entry), draw(entry)
            mat[i] = [(ca * int(x) + cb * int(y)) % q for x, y in zip(mat[a], mat[b])]
    layout = draw(st.sampled_from(["C", "transposed", "strided"]))
    if layout == "transposed":
        mat = np.ascontiguousarray(mat.T).T
    elif layout == "strided":
        wide = np.zeros((r, 2 * d), dtype=np.int64)
        wide[:, ::2] = mat
        mat = wide[:, ::2]
    return q, mat


@given(rref_cases())
@settings(max_examples=300, deadline=None)
@example((5, np.zeros((0, 3), dtype=np.int64))).via("no row")
@example((5, np.zeros((3, 0), dtype=np.int64))).via("no column")
@example((WIDEST_Q, np.array([[WIDEST_Q - 1, WIDEST_Q - 2], [WIDEST_Q - 3, 1]]).T)).via("widest field, transposed")
def test_rref_matches_the_reference(case):
    # the reduced form is unique: rref gives the reference's rows and
    # pivots, entry for entry, whatever the input's layout, and leaves
    # the input as it was
    q, mat = case
    before = mat.copy()
    reduced, pivots = rref(q, mat)
    assert (reduced.tolist(), pivots) == reference_rref.rref(q, mat.tolist())
    assert reduced.dtype == np.int64 and reduced.flags.c_contiguous and reduced.shape == mat.shape
    assert np.array_equal(mat, before)


def test_rref_reduces_a_copy():
    # entries are reduced mod q, and neither the input nor its layout
    # reaches the result: a transposed view gives a C-ordered array
    a = np.array([[4, -1], [6, 2]])
    reduced, pivots = rref(3, a.T)
    assert (reduced.tolist(), pivots) == ([[1, 0], [0, 1]], (0, 1))
    assert reduced.dtype == np.int64 and reduced.flags.c_contiguous
    assert a.tolist() == [[4, -1], [6, 2]]
    # leftmost pivots: column 1 is no pivot, and column 2 is cleared above its own
    reduced, pivots = rref(5, [[2, 4, 1], [1, 2, 4]])
    assert (reduced.tolist(), pivots) == ([[1, 2, 0], [0, 0, 1]], (0, 2))


def test_nullspace_parity_and_full_rank():
    basis = nullspace(2, [[1, 1]])
    assert basis.shape == (2, 1)
    assert basis.tolist() == [[1], [1]]
    assert nullspace(3, np.eye(2, dtype=np.int64)).shape == (2, 0)


def test_nullspace_matches_kernel_enumeration_q5():
    mat = [[1, 2, 3]]
    kernel = kernel_by_enumeration(5, mat)
    assert len(kernel) == 25  # 5^(3-1): two free dimensions
    basis = nullspace(5, mat)
    assert basis.shape[1] == 2
    spanned = span_of_rows(5, basis.T.tolist())
    assert spanned == kernel


@given(matrix_and_vector())
@settings(max_examples=60)
def test_nullspace_properties(mx):
    q, mat, _ = mx
    basis = nullspace(q, mat)
    assert basis.shape == (mat.shape[1], mat.shape[1] - pivot_count(q, mat))
    assert not (mat @ basis % q).any()
    if basis.shape[1]:
        assert pivot_count(q, basis) == basis.shape[1]


def test_matrix_entries_reduced_and_immutable():
    code = LinearCode(3, [[4, -1], [6, 2]], [[5, 3]])
    assert code.matrix.tolist() == [[1, 2], [0, 2], [2, 0]]
    for array in (code.matrix, code.generator, code.key_generator):
        with pytest.raises(ValueError):
            array[0, 0] = 9
    assert code.matrix.tolist() == [[1, 2], [0, 2], [2, 0]]


# ---- vandermonde -------------------------------------------------------------

def test_vandermonde_small_shapes():
    assert vandermonde(3, 1, 3).tolist() == [[1], [1], [1]]
    assert vandermonde(3, 2, 3).tolist() == [[1, 0], [1, 1], [1, 2]]


def test_vandermonde_every_row_subset_independent():
    for m, l, q in [(4, 2, 5), (5, 3, 5), (6, 4, 7), (4, 3, 5)]:
        mat = vandermonde(m, l, q)
        for subset in itertools.combinations(range(m), l):
            rows = [mat.tolist()[i] for i in subset]
            assert rank_by_span(q, rows) == l, (m, l, q, subset)


def test_vandermonde_field_too_small():
    with pytest.raises(ValueError):
        vandermonde(4, 2, 3)
    with pytest.raises(ValueError):
        vandermonde(3, 4, 5)
