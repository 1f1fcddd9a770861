"""Exact arithmetic and linear algebra over prime fields GF(q).

This module is the package's one arithmetic path: field elements are
ints reduced mod q, held in int64 numpy arrays, and every GF(q)
computation is a numpy product or an elimination over such arrays.
Every rank over GF(2) goes through `word_rank`, on vectors packed into
64-bit words (`pack_words`), and every other rank through `stack_rank`,
one matrix or a whole stack at a time, which hands GF(2) stacks to
`word_rank`; `rref` serves where reduced rows are needed.  The
eliminations are short Python loops of whole-array numpy updates,
because on the small matrices of index coding a numpy call costs more
than its arithmetic: `rref` makes one outer-product update per pivot,
`stack_rank` one update per working row of every matrix at once, and
`word_rank` one min-XOR step per vector of every set at once.  Row
reduction uses leftmost-pivot / first-nonzero-row ordering, so
reduced forms and nullspace bases are deterministic across runs.
Everything is integer-exact -- no floating point anywhere -- because
the moduli and dimensions are capped so that no int64 product can wrap.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

__all__ = [
    "MAX_ACCESS_SETS",
    "MAX_MESSAGES",
    "MAX_MODULUS",
    "STACK_ENTRIES",
    "is_prime",
    "nullspace",
    "pack_words",
    "radix_digits",
    "rref",
    "smallest_prime_at_least",
    "stack_rank",
    "vandermonde",
    "word_rank",
]
# `checked_int`, `checked_ints` and `checked_modulus` stay unlisted, though
# every module calls them: perfbench's tracer wraps what is listed as a span.

# Largest message count m, and largest m + key_dim and length of a code:
# it bounds the dense m x m arrays that constructions and decode build.
MAX_MESSAGES = 2 ** 10
# Largest number of t-level access sets listed at once: about 46 MiB of
# frozensets of 8 messages.
MAX_ACCESS_SETS = 2 ** 16
# Largest field modulus.  With inner dimensions at most MAX_MESSAGES,
# every product the package forms -- a sum of MAX_MESSAGES terms below
# (q-1)^2, plus one reduced term -- stays below 2^63.
MAX_MODULUS = math.isqrt((2 ** 63 - 1) // (MAX_MESSAGES + 1)) + 1


@functools.cache
def is_prime(n: int) -> bool:
    """Trial-division primality test, memoized: every `checked_modulus`
    asks it about its q, and one scan of the largest modulus takes about
    0.5 ms."""
    if n < 2:
        return False
    if n in (2, 3):
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def checked_int(value, what: str) -> int:
    """value as an int when it is a Python or numpy integer; ValueError
    for a bool, a float, a string or any other value.

    The package's one test of whether a value from a file, a flag or a
    library caller is an integer; `checked_ints` applies it to a list.
    """
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def checked_ints(values, what: str, q: int | None = None) -> list:
    """A new list of `checked_int` of each of values; ValueError for a
    string, a dict or a scalar.  With q given, each value must also lie
    in [0, q): it is refused, never reduced mod q.  Types are checked
    before ranges, so the first value that is not an integer is named
    even when an earlier one lies outside GF(q)."""
    try:
        if isinstance(values, (str, bytes, dict)):
            raise TypeError
        values = list(values)
    except TypeError:
        raise ValueError(f"{what} must be a list of integers, got {values!r}") from None
    for v in values:
        if type(v) is not int:
            values = [checked_int(v, f"{what} entry") for v in values]
            break
    if q is not None:
        for v in values:
            if not 0 <= v < q:
                raise ValueError(f"{what} entry {v} is outside GF({q})")
    return values


def smallest_prime_at_least(n: int) -> int:
    candidate = max(2, checked_int(n, "lower bound n"))
    while not is_prime(candidate):
        candidate += 1
    return candidate


def checked_modulus(q) -> int:
    """q as an int when it is a prime no larger than MAX_MODULUS;
    ValueError otherwise."""
    q = checked_int(q, "field modulus")
    if q > MAX_MODULUS:
        raise ValueError(f"field modulus {q} exceeds {MAX_MODULUS}, the largest with exact int64 arithmetic")
    if not is_prime(q):
        raise ValueError(f"field modulus must be prime, got {q}")
    return q


def radix_digits(values, q: int, width: int):
    """Base-q digits of each value, most significant first (len x width).

    The powers are formed as Python ints, so a width whose top power
    would wrap int64 raises OverflowError instead of giving wrong digits.
    """
    powers = np.array([q ** e for e in range(width - 1, -1, -1)], dtype=np.int64)
    return np.asarray(values, dtype=np.int64)[:, None] // powers % q


def rref(q: int, a):
    """Reduced row-echelon form over GF(q) of the integer matrix `a`.

    Returns (reduced int64 array, pivot column indices).  Entries are
    reduced mod q first, into a C-ordered copy; `a` is left as it is.
    Pivoting is deterministic: scan columns left to right, take the
    first row at or below the working row with a nonzero entry.  Each
    pivot costs one update of the whole array: the pivot row is scaled
    by its Fermat inverse, then every other row loses its pivot-column
    entry times the pivot row, one outer product, and is reduced mod q.
    Entries stay in [0, q), so every product stays below q^2 < 2^63.  q
    must be a valid modulus (`checked_modulus`), which this function
    does not check again.
    """
    work = np.remainder(a, q, dtype=np.int64, order="C")
    nrows, ncols = work.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        if not work[r, c]:  # search below only when the working row has no pivot here
            col = work[r:, c]
            p = int((col != 0).argmax())
            if not col[p]:
                continue
            work[[r, r + p]] = work[[r + p, r]]
        row = work[r]
        row *= pow(int(row[c]), q - 2, q)
        row %= q
        factor = work[:, c, None].copy()
        factor[r] = 0  # the pivot row keeps itself
        work -= factor * row
        work %= q
        pivots.append(c)
        r += 1
    return work, tuple(pivots)


def nullspace(q: int, a) -> np.ndarray:
    """Basis of {v : a v = 0} over GF(q), as the columns of an int64
    array: cols - rank of them, so a full-rank `a` yields cols x 0."""
    reduced, pivots = rref(q, a)
    cols = reduced.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    basis[list(pivots)] = -reduced[: len(pivots)][:, free] % q
    return basis


# Most entries per `stack_rank` or `word_rank` call in the package's batched
# callers (`codes.security_level`, `oracle.check_security`): 512 KiB of int64
# entries or uint64 words.  A caller always ranks at least one matrix per
# call, whatever its size.
# `oracle.secure_generators` also ranks at most this many candidates x
# pair lists per step, and at least one list.
STACK_ENTRIES = 2 ** 16


def stack_rank(q: int, stack) -> np.ndarray:
    """Rank over GF(q) of every matrix in an S x r x d integer stack, as
    an int64 array of length S.

    One elimination runs on the whole stack, one row at a time, so the
    Python loop is min(r, d) steps long whatever S is: a stack with r > d
    is ranked as its transposes, which have the same ranks.  `stack`
    itself is left as it is, and may hold any integers.

    Over GF(2) each row, read mod 2 (`stack & 1`, so negative entries
    too), is packed into 64-bit words by `pack_words` and ranked by
    `word_rank`.  Over any other q the elimination is fraction-free, on
    a C-ordered copy whatever the layout of `stack` (a transposed view
    would slow every step): each matrix takes the first nonzero column
    of its working row as pivot, and every row below becomes below *
    pivot - factor * row mod q, which clears the pivot column without an
    inverse.  Entries are reduced mod q first, so every product stays
    below q^2 < 2^63.  A row that is zero when its turn comes lies in the
    span of the rows above it, so the rank is the number of nonzero
    working rows.  q must be a valid modulus (`checked_modulus`), which
    this function does not check again.
    """
    if stack.shape[1] > stack.shape[2]:
        stack = stack.transpose(0, 2, 1)
    if q == 2:
        return word_rank(pack_words(stack & 1))
    work = np.remainder(stack, q, dtype=np.int64, order="C")
    count, nrows, ncols = work.shape
    ranks = np.zeros(count, dtype=np.int64)
    if not ncols:
        return ranks  # no column to pivot on
    every = np.arange(count)
    for i in range(nrows):
        row = work[:, i]
        col = (row != 0).argmax(axis=1)
        pivot = row[every, col]
        found = pivot != 0
        ranks += found
        if i + 1 == nrows:
            break
        # a zero row keeps the rows below as they are: pivot 1, factor * 0
        pivot[~found] = 1
        below = work[:, i + 1 :]
        factor = below[every, :, col]
        below[...] = (below * pivot[:, None, None] - factor[:, :, None] * row[:, None, :]) % q
    return ranks


# bit j of a word as an int64; bit 63 is -2^63, so a sum of distinct bits never wraps
_BITS = np.left_shift(1, np.arange(64, dtype=np.int64))


def pack_words(bits) -> np.ndarray:
    """The rows of an S x r x d stack of 0s and 1s as GF(2) vectors packed
    into words: a W x r x S uint64 array, W = ceil(d / 64), in which bit
    j of word k of row i of matrix s is bits[s, i, 64k + j].  The word
    axis comes first and the matrix axis last, so `word_rank`'s updates
    run over the matrices, not over the few words of a row."""
    count, rows, cols = bits.shape
    words = np.empty((-(-cols // 64), rows, count), dtype=np.int64)
    for k, word in enumerate(words):
        word[...] = (bits[:, :, 64 * k : 64 * k + 64] @ _BITS[: min(64, cols - 64 * k)]).T
    return words.view(np.uint64)


def word_rank(words) -> np.ndarray:
    """Rank over GF(2) of each of the N sets of n vectors in a W x n x N
    uint64 array of packed vectors (`pack_words`' layout: word k of
    vector i of set s is words[k, i, s], and word W - 1 is the most
    significant), as an int64 array of length N.  `words` is reduced in
    place.

    The package's one GF(2) elimination.  Vector i of every set clears
    its highest set bit from every later vector of its set that has it,
    in one step over all sets: w ^ v < w exactly when w has v's highest
    bit, so with one word the step is min(w, w ^ v).  With several
    words the comparison is made on v's most significant nonzero word,
    the only one at which w and w ^ v can differ first.  After its step
    no later vector has v's highest bit, so the nonzero vectors left at
    the end have distinct highest bits: the rank is their count.  The
    loop is n steps long whatever N is, and a zero v changes nothing.
    """
    width, n, count = words.shape
    if width == 1:
        work = words[0]
        for i in range(n - 1):
            below = work[i + 1 :]
            np.minimum(below, below ^ work[i], out=below)
        return (work != 0).sum(axis=0)
    every = np.arange(count)
    for i in range(n - 1 if width else 0):
        v, below = words[:, i], words[:, i + 1 :]
        top = width - 1 - (v[::-1] != 0).argmax(axis=0)  # each set's most significant nonzero word
        lead = below[top, :, every].T
        below ^= v[:, None] * ((lead ^ v[top, every]) < lead)
    return words.any(axis=0).sum(axis=0)


def vandermonde(rows: int, cols: int, q: int) -> np.ndarray:
    """Vandermonde int64 array over GF(q), with evaluation points 0, 1,
    ..., rows-1.

    Row i is [1, a_i, a_i^2, ..., a_i^(cols-1)] with a_i = i.  Distinct
    points make every cols-row subset invertible, which is what makes
    the matrix usable as the transposed generator of an MDS code; this
    needs q >= rows.
    """
    q = checked_modulus(q)
    rows, cols = checked_int(rows, "row count"), checked_int(cols, "column count")
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be nonnegative")
    if cols > rows:
        raise ValueError(f"need cols <= rows, got {rows}x{cols}")
    if q < rows:
        raise ValueError(f"GF({q}) has fewer than {rows} distinct evaluation points; need q >= {rows}")
    points = np.arange(rows, dtype=np.int64)
    data = np.ones((rows, cols), dtype=np.int64)
    for e in range(1, cols):
        data[:, e] = data[:, e - 1] * points % q
    return data
