"""Exact arithmetic and linear algebra over prime fields GF(q).

This module is the package's one arithmetic path: field elements are
ints reduced mod q, held in int64 numpy arrays, and every GF(q)
computation is a numpy product or an elimination over such arrays.
Every rank goes through `stack_rank`, one matrix or a whole stack at a
time; `rref` serves where reduced rows are needed.  Row
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
    "radix_digits",
    "rref",
    "smallest_prime_at_least",
    "stack_rank",
    "vandermonde",
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
    first row at or below the working row with a nonzero entry.  q must
    be a valid modulus (`checked_modulus`), which this function does not
    check again.
    """
    work = np.remainder(a, q, dtype=np.int64, order="C")
    nrows, ncols = work.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        nz = np.nonzero(work[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            work[[r, p]] = work[[p, r]]
        inv = pow(int(work[r, c]), q - 2, q)
        work[r] = (work[r] * inv) % q
        targets = np.flatnonzero(work[:, c])
        targets = targets[targets != r]
        work[targets] = (work[targets] - work[targets, c, None] * work[r]) % q
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


# Most entries per `stack_rank` call in the package's batched callers
# (`codes.security_level`, `oracle.check_security`): 512 KiB of int64.  A
# caller always ranks at least one matrix per call, whatever its size.
# `oracle.secure_generators` also ranks at most this many candidates x
# pair lists per step, and at least one list.
STACK_ENTRIES = 2 ** 16


def stack_rank(q: int, stack) -> np.ndarray:
    """Rank over GF(q) of every matrix in an S x r x d integer stack, as
    an int64 array of length S.

    One elimination runs on the whole stack, one row at a time, so the
    Python loop is min(r, d) steps long whatever S is: a stack with r > d
    is ranked as its transposes, which have the same ranks.  Each matrix
    takes the first nonzero column of its working row as pivot and
    clears that column from the rows below.  A row that is zero when its
    turn comes lies in the span of the rows above it, so the rank is the
    number of nonzero working rows.  The work is a C-ordered copy,
    whatever the layout of `stack` (a transposed view would slow every
    step); `stack` itself is left as it is, and may hold any integers.

    Over GF(2) the copy is boolean (`stack & 1`), and a row below is
    cleared by XOR with the pivot row where its pivot-column entry is
    set: no products, no remainders.  A row never changes after its own
    step, so the rank is counted once, from the rows left nonzero at the
    end.  Over any other q the elimination is fraction-free: entries are
    reduced mod q first, so every product stays below q^2 < 2^63, and
    every row below becomes below * pivot - factor * row mod q, which
    clears the pivot column without an inverse.  q must be a valid
    modulus (`checked_modulus`), which this function does not check
    again.
    """
    if stack.shape[1] > stack.shape[2]:
        stack = stack.transpose(0, 2, 1)
    if q == 2:
        work = (stack & 1).astype(bool, order="C")
        every = np.arange(len(work))
        for i in range(work.shape[1] - 1):
            row = work[:, i]
            below = work[:, i + 1 :]
            below ^= below[every, :, row.argmax(axis=1)][:, :, None] & row[:, None, :]
        # a boolean product is an `any` over each row's columns, and faster
        return (work @ np.ones(work.shape[2], dtype=bool)).sum(axis=1)
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
