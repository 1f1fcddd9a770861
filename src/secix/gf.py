"""Exact arithmetic and linear algebra over prime fields GF(q).

This module is the package's one arithmetic path: field elements are
ints reduced mod q, held in int64 numpy arrays, and every GF(q)
computation is a numpy product or an elimination over such arrays.
Row reduction uses leftmost-pivot / first-nonzero-row ordering, so
reduced forms and nullspace bases are deterministic across runs.
Everything is integer-exact -- no floating point anywhere -- because
the moduli and dimensions are capped so that no int64 product can wrap.
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "FieldMatrix",
    "MAX_ACCESS_SETS",
    "MAX_MESSAGES",
    "MAX_MODULUS",
    "is_prime",
    "radix_digits",
    "smallest_prime_at_least",
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


def is_prime(n: int) -> bool:
    """Trial-division primality test (moduli here are desk-scale)."""
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


class FieldMatrix:
    """Immutable dense matrix over GF(q).

    q must be a prime no larger than MAX_MODULUS.  Entries must be
    integers: a bool, float or string entry raises ValueError.  They are
    stored as a read-only int64 array, reduced mod q at construction.
    Operations between matrices require equal moduli and raise
    ValueError otherwise.
    """

    __slots__ = ("q", "data")

    def __init__(self, q: int, data):
        self.q = q = checked_modulus(q)
        arr = data if type(data) is np.ndarray else np.array(data, dtype=object)
        if arr.ndim != 2:
            raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
        if arr.dtype.kind == "i" or arr.dtype.kind == "u" and arr.itemsize < 8:
            arr = np.remainder(arr, q, dtype=np.int64)
        else:  # lists, and arrays of bools, floats, strings or ints past 63 bits
            entries = checked_ints(arr.ravel().tolist(), "matrix")
            arr = np.array([v % q for v in entries], dtype=np.int64).reshape(arr.shape)
        arr.setflags(write=False)
        self.data = arr

    # ---- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, q: int, rows: int, cols: int) -> "FieldMatrix":
        return cls(q, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, q: int, n: int) -> "FieldMatrix":
        return cls(q, np.eye(n, dtype=np.int64))

    @classmethod
    def column(cls, q: int, values) -> "FieldMatrix":
        return cls(q, [[v] for v in values])

    # ---- shape accessors ----------------------------------------------

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    def to_lists(self):
        """Row-major nested lists of plain ints (for JSON)."""
        return [[int(v) for v in row] for row in self.data]

    def column_values(self, j: int):
        return tuple(int(v) for v in self.data[:, j])

    # ---- comparisons ---------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and other.q == self.q
            and other.data.shape == self.data.shape
            and np.array_equal(other.data, self.data)
        )

    def __hash__(self):
        return hash((self.q, self.data.shape, self.data.tobytes()))

    def __repr__(self):
        return f"FieldMatrix(q={self.q}, {self.to_lists()})"

    def _same_field(self, other: "FieldMatrix", opname: str) -> None:
        if not isinstance(other, FieldMatrix):
            raise TypeError(f"{opname} expects a FieldMatrix, got {type(other).__name__}")
        if other.q != self.q:
            raise ValueError(f"{opname} over mismatched fields GF({self.q}) vs GF({other.q})")

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other):
        self._same_field(other, "addition")
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return FieldMatrix(self.q, (self.data + other.data) % self.q)

    def __sub__(self, other):
        self._same_field(other, "subtraction")
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return FieldMatrix(self.q, (self.data - other.data) % self.q)

    def __matmul__(self, other):
        self._same_field(other, "matrix product")
        if self.cols != other.rows:
            raise ValueError(f"inner dimensions differ: {self.shape} @ {other.shape}")
        return FieldMatrix(self.q, (self.data @ other.data) % self.q)

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.q, self.data.T)

    def is_zero(self) -> bool:
        return not self.data.any()

    # ---- elimination -----------------------------------------------------

    def rref(self):
        """Reduced row-echelon form.

        Returns (reduced matrix, pivot column indices).  Pivoting is
        deterministic: scan columns left to right, take the first row at
        or below the working row with a nonzero entry.
        """
        q = self.q
        work = self.data.copy()
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
        return FieldMatrix(q, work), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> "FieldMatrix":
        """Basis of {v : self @ v = 0}, returned as matrix columns.

        Column count equals cols - rank; a full-rank matrix yields a
        (cols x 0) matrix.
        """
        reduced, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = np.zeros((self.cols, len(free)), dtype=np.int64)
        basis[free, range(len(free))] = 1
        basis[list(pivots)] = -reduced.data[: len(pivots)][:, free] % self.q
        return FieldMatrix(self.q, basis)


def vandermonde(rows: int, cols: int, q: int) -> FieldMatrix:
    """Vandermonde matrix with evaluation points 0, 1, ..., rows-1.

    Row i is [1, a_i, a_i^2, ..., a_i^(cols-1)] with a_i = i.  Distinct
    points make every cols-row subset invertible, which is what makes
    the matrix usable as the transposed generator of an MDS code; this
    needs q >= rows.
    """
    q = checked_modulus(q)
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
    return FieldMatrix(q, data)
