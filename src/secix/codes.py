"""Index codes: linear (deterministic or keyed) and explicit-table kinds,
plus the constructions used by the existence analysis.

Linear-code arithmetic goes through `gf` and numpy only: encoding is one
vector-matrix product mod q, decoding is one row reduction per receiver
and then two products per batch of codewords, and the security level
ranks fixed-size stacks of row subsets of a span basis with
`gf.stack_rank`, or weighs the column span in fixed-size numpy batches
when it has fewer vectors than there are subsets to rank.

The code constructions here:

* `construct_mds_code` -- a broadcast one symbol shorter than the
  messages for every symbol the least-informed receiver already holds,
  with a Vandermonde generator so that any ell rows are independent.
  Every receiver can eliminate what it knows and solve for the rest,
  and the column span has minimum weight m - ell + 1, which caps what
  any bounded eavesdropper can infer.
* `derandomize` -- projects a keyed linear code onto the nullspace of
  its key matrix.  Valid decoding vectors are killed by the key matrix,
  so they live in that nullspace and decoding survives; the projected
  code is a function of the original, so security survives too.  A
  receiver that cannot decode the projection cannot decode the keyed
  code either, and is named in the refusal.
* `single_access_code` -- for a single adversary set A: the A messages
  in the clear, then one MDS block over the rest, which a receiver
  needs iff it lacks a wanted message outside A.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .gf import (
    MAX_MESSAGES,
    STACK_ENTRIES,
    checked_int,
    checked_ints,
    checked_modulus,
    nullspace,
    radix_digits,
    rref,
    smallest_prime_at_least,
    stack_rank,
    vandermonde,
)
from .model import Instance, read_json, require_normalized, write_json
from .oracle import DEFAULT_BUDGET, check_code_matches, checked_budget, refuse

__all__ = [
    "LinearCode",
    "TableCode",
    "Decoder",
    "NoSecureCodeError",
    "decode",
    "derandomize",
    "construct_mds_code",
    "single_access_code",
    "security_level",
    "parse_code",
    "code_to_dict",
    "load_code",
    "save_code",
]

# Span vectors weighed per numpy batch in security_level; larger batches
# buy little speed and raise peak memory.
_SPAN_BATCH = 2 ** 10


class NoSecureCodeError(Exception):
    """No secure code exists: some receiver's side information is covered
    by an access set while it wants a message outside that set."""

    def __init__(self, receiver: int, access):
        self.receiver = receiver
        self.access = frozenset(access)
        super().__init__(
            f"no secure code: receiver {receiver} knows only messages inside "
            f"access set {sorted(self.access)} but wants one outside it"
        )


def _reduced(q: int, data) -> np.ndarray:
    """data as a 2-D int64 array reduced mod q.  Arrays of numpy ints
    that fit in int64 are reduced at once; lists, and arrays of bools,
    floats, strings or ints past 63 bits, go entry by entry through
    `checked_ints`, so a non-integer raises ValueError."""
    arr = data if type(data) is np.ndarray else np.array(data, dtype=object)
    if arr.ndim != 2:
        raise ValueError(f"matrix data must be 2-dimensional, got shape {arr.shape}")
    if arr.dtype.kind == "i" or arr.dtype.kind == "u" and arr.itemsize < 8:
        return np.remainder(arr, q, dtype=np.int64, order="C")
    entries = checked_ints(arr.ravel().tolist(), "matrix")
    return np.array([v % q for v in entries], dtype=np.int64).reshape(arr.shape)


class LinearCode:
    """Linear index code c = x G (+ y Gtilde when a key matrix is given).

    G is m x ell over GF(q), q a prime no larger than gf.MAX_MODULUS; an
    optional key matrix Gtilde is k x ell over the same field, with the
    k key symbols uniform and independent of the messages.  Entries must
    be integers, and are reduced mod q.  The code keeps one read-only
    int64 array, `matrix`, the stack [G; Gtilde]; `generator` and
    `key_generator` (None without a key) are views of it.  m + k and ell
    are each at most gf.MAX_MESSAGES.
    """

    kind = "linear"

    def __init__(self, q: int, generator, key_generator=None):
        self.q = q = checked_modulus(q)
        matrix = _reduced(q, generator)
        self.m, self.length = matrix.shape
        self.key_dim = 0
        if key_generator is not None:
            keys = _reduced(q, key_generator)
            if keys.shape[1] != self.length:
                raise ValueError(f"key matrix has {keys.shape[1]} columns, generator has {self.length}")
            self.key_dim = len(keys)
            matrix = np.vstack([matrix, keys])
        if self.m + self.key_dim > MAX_MESSAGES or self.length > MAX_MESSAGES:
            raise ValueError(
                f"code has {self.m} message + {self.key_dim} key rows and {self.length} columns; "
                f"at most {MAX_MESSAGES} of each are supported"
            )
        self.key_count = q ** self.key_dim
        matrix.setflags(write=False)
        # [G; Gtilde]: the codeword of (x, y) is (x, y) @ matrix mod q
        self.matrix = matrix
        self.generator = matrix[: self.m]
        self.key_generator = None if key_generator is None else matrix[self.m :]

    @property
    def is_randomized(self) -> bool:
        return self.key_generator is not None

    def encode(self, x, y=None) -> tuple:
        """Codeword for message vector x (and key vector y when keyed),
        each symbol an integer in [0, q)."""
        x = checked_ints(x, "message vector", self.q)
        if len(x) != self.m:
            raise ValueError(f"message vector has length {len(x)}, expected {self.m}")
        if self.is_randomized:
            if y is None:
                raise ValueError("randomized code needs a key vector")
            y = checked_ints(y, "key vector", self.q)
            if len(y) != self.key_dim:
                raise ValueError(f"key vector has length {len(y)}, expected {self.key_dim}")
            x += y
        elif y is not None:
            raise ValueError("deterministic code takes no key")
        return tuple(int(v) for v in np.array(x, dtype=np.int64) @ self.matrix % self.q)

    def __repr__(self):
        tail = f", key_dim={self.key_dim}" if self.is_randomized else ""
        return f"LinearCode(q={self.q}, m={self.m}, length={self.length}{tail})"

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and (other.q, other.m, other.is_randomized) == (self.q, self.m, self.is_randomized)
            and np.array_equal(other.matrix, self.matrix)
        )


class TableCode:
    """Explicit truth-table code: a total map (message vector, key) -> codeword.

    Used for verifying arbitrary (possibly nonlinear) encoders; the
    table must cover all q^m * key_count inputs.  q is judged by
    `checked_modulus`, as an instance's is; m must be at least 1 and the
    length at least 0.
    """

    kind = "table"

    def __init__(self, q: int, m: int, length: int, key_count: int, table: dict):
        self.q = checked_modulus(checked_int(q, "field size q"))
        self.m = checked_int(m, "message count m")
        if self.m < 1:
            raise ValueError(f"message count m must be >= 1, got {self.m}")
        self.length = checked_int(length, "code length")
        if self.length < 0:
            raise ValueError(f"code length must be >= 0, got {self.length}")
        self.key_count = checked_int(key_count, "key count")
        if self.key_count < 1:
            raise ValueError("key alphabet must have at least one value")
        self.table = dict(table)
        expected = self.q ** self.m * self.key_count
        if len(self.table) != expected:
            raise ValueError(f"table has {len(self.table)} entries, expected {expected}")
        for x in itertools.product(range(self.q), repeat=self.m):
            for key in range(self.key_count):
                if (x, key) not in self.table:
                    raise ValueError(f"table missing entry for x={x}, key={key}")
        for value in self.table.values():
            if len(checked_ints(value, "table value", self.q)) != self.length:
                raise ValueError(f"table value {value} is not a length-{self.length} word over GF({self.q})")

    @property
    def is_randomized(self) -> bool:
        return self.key_count > 1

    def encode(self, x, y=0) -> tuple:
        x = tuple(checked_ints(x, "message vector", self.q))
        if len(x) != self.m:
            raise ValueError(f"message vector has length {len(x)}, expected {self.m}")
        y = checked_int(y, "key")
        if not 0 <= y < self.key_count:
            raise ValueError(f"key {y} is outside [0, {self.key_count})")
        return tuple(self.table[(x, y)])

    def __repr__(self):
        return f"TableCode(q={self.q}, m={self.m}, length={self.length}, keys={self.key_count})"


class Decoder:
    """Decoding map of one receiver of a deterministic linear code.

    The receiver solves x_U G_U = r for the messages U it lacks, where
    r = c - x_K G_K is the codeword with its side information x_K
    cancelled.  One row reduction of [G_U^T | I] gives T with T G_U^T = R
    in reduced row-echelon form.  T depends on the code and the receiver
    only, never on the codeword, so every line reuses it:

    * r is consistent iff the rows of T past rank(R) send it to 0;
    * then [R | T r] is the reduced form of [G_U^T | r], which is
      unique, and a pivot row of R with no entry in a free column pins
      its unknown to the matching entry of T r.

    `decodable` is False when some wanted message is neither known nor
    pinned; then no line decodes.
    """

    def __init__(self, code: LinearCode, inst: Instance, receiver: int):
        check_code_matches(code, inst)
        if code.is_randomized:
            raise ValueError("decode applies to deterministic linear codes")
        if not 1 <= checked_int(receiver, "receiver index") <= inst.n:
            raise ValueError(f"receiver index {receiver} out of range [1, {inst.n}]")
        rec = inst.receivers[receiver - 1]
        known = sorted(rec.knows)
        unknown = [j for j in inst.messages() if j not in rec.knows]
        g = code.generator
        self.q = code.q
        self.length = code.length
        self.side_count = len(known)
        self._known_rows = g[np.array(known, dtype=np.intp) - 1]
        system = np.hstack([g[np.array(unknown, dtype=np.intp) - 1].T, np.eye(code.length, dtype=np.int64)])
        reduced, pivots = rref(code.q, system)
        lead = [c for c in pivots if c < len(unknown)]
        free = [c for c in range(len(unknown)) if c not in lead]
        # x_j is pinned iff its pivot row, row i for the i-th lead column,
        # has no entry in a free column
        loose = reduced[:len(lead), free].any(axis=1).tolist()
        pinned = {unknown[c]: row for row, c in enumerate(lead) if not loose[row]}
        side_at = {j: p for p, j in enumerate(known)}
        wanted = sorted(rec.wants)
        solved = [j for j in wanted if j not in side_at]
        self.decodable = all(j in pinned for j in solved)
        if not self.decodable:
            solved = wanted = []
        # columns of T r: the wanted unknowns, then the consistency checks
        self._checked_from = len(solved)
        rows = [pinned[j] for j in solved] + list(range(len(lead), code.length))
        self._map = reduced[rows, len(unknown):].T
        # wanted values in ascending order, picked from [T r | side]
        column = {j: i for i, j in enumerate(solved)}
        column.update((j, len(rows) + p) for j, p in side_at.items())
        self._pick = [column[j] for j in wanted]

    def apply(self, lines):
        """Decode an n x (length + side_count) int64 array of field
        symbols, one codeword and its side information per row.

        Returns (n x wanted values, n flags).  A row's flag is False
        when its codeword is inconsistent with its side information or
        the receiver cannot decode; its values then mean nothing.
        """
        words, side = lines[:, : self.length], lines[:, self.length :]
        residual = (words - side @ self._known_rows) % self.q
        solved = residual @ self._map % self.q
        ok = ~solved[:, self._checked_from :].any(axis=1) & self.decodable
        return np.hstack([solved, side])[:, self._pick], ok


def decode(code: LinearCode, inst: Instance, receiver: int, codeword, side):
    """Recover receiver's wanted values from a codeword and its side
    information (values for its known messages in ascending index order),
    each symbol an integer in [0, q).

    Returns the wanted values in ascending index order, or None when
    the codeword is inconsistent with the side information or the
    wanted values are not all pinned down by the available equations.
    This is `Decoder` applied to one line; build the Decoder once to
    decode many codewords for the same receiver.
    """
    decoder = Decoder(code, inst, receiver)
    codeword = checked_ints(codeword, "codeword", code.q)
    side = checked_ints(side, "side information", code.q)
    if len(codeword) != code.length:
        raise ValueError(f"codeword has length {len(codeword)}, expected {code.length}")
    if len(side) != decoder.side_count:
        raise ValueError(f"side information has {len(side)} values, expected {decoder.side_count}")
    values, ok = decoder.apply(np.array([codeword + side], dtype=np.int64))
    return tuple(int(v) for v in values[0]) if ok[0] else None


def derandomize(code: LinearCode, inst: Instance) -> LinearCode:
    """Deterministic code G N from a keyed linear code c = x G + y Gtilde,
    for a nullspace basis N of Gtilde; its length is ell - rank(Gtilde).

    A decoding vector d of the keyed code must satisfy Gtilde d = 0, or
    the key would contaminate the decoded value, so d = N u and G N u
    decodes the same symbol; conversely a decoding vector u of G N gives
    d = N u for the keyed code.  So G N decodes for exactly the receivers
    the keyed code serves, and ValueError names the first receiver it
    fails.  The new codeword c N = x G N is a function of the old one,
    so it leaks nothing the keyed code hides.
    """
    if not code.is_randomized:
        raise ValueError("derandomize applies to randomized linear codes")
    check_code_matches(code, inst)
    projected = LinearCode(code.q, code.generator @ nullspace(code.q, code.key_generator))
    for i in range(1, inst.n + 1):
        if not Decoder(projected, inst, i).decodable:
            raise ValueError(f"receiver {i} cannot decode the keyed code")
    return projected


def construct_mds_code(inst: Instance) -> LinearCode:
    """MDS broadcast of length m - K, where K is the smallest number of
    messages any receiver knows.

    The generator is a Vandermonde matrix, so any ell rows are linearly
    independent: each receiver eliminates its known symbols from the
    codeword and solves for the at most ell remaining ones.  When GF(q)
    has fewer than m evaluation points, `_mds_block` moves to the
    smallest prime >= m, which shows up as code.q != inst.q.
    """
    require_normalized(inst, "MDS construction")
    min_known = min(len(r.knows) for r in inst.receivers)
    return LinearCode(*_mds_block(inst.m, inst.m - min_known, inst.q))


def single_access_code(inst: Instance, access) -> LinearCode:
    """Secure code against the single adversary set `access` = A.

    Sends the A messages in the clear (ascending order), then one MDS
    block over the messages outside A.  A receiver needs the block iff
    it lacks a wanted message outside A; the block has length
    |outside| - K' for the least |knows - A| = K' among those receivers,
    and is empty when there are none.  Raises NoSecureCodeError when
    some receiver's knowledge is inside A while it wants a message
    outside -- then the eavesdropper could decode whatever that
    receiver decodes.
    """
    require_normalized(inst, "single-access construction")
    access = frozenset(checked_ints(access, "access set"))
    for j in access:
        if not 1 <= j <= inst.m:
            raise ValueError(f"access index {j} out of range [1, {inst.m}]")
    outside = [j for j in inst.messages() if j not in access]
    known_outside = []
    for i, rec in enumerate(inst.receivers, start=1):
        if rec.wants - access - rec.knows:
            if rec.knows <= access:
                raise NoSecureCodeError(i, access)
            known_outside.append(len(rec.knows - access))
    if known_outside:
        q, block = _mds_block(len(outside), len(outside) - min(known_outside), inst.q)
    else:
        q, block = inst.q, np.zeros((len(outside), 0), dtype=np.int64)
    clear = np.eye(inst.m, dtype=np.int64)[:, sorted(j - 1 for j in access)]
    protected = np.zeros((inst.m, block.shape[1]), dtype=np.int64)
    protected[[j - 1 for j in outside]] = block
    return LinearCode(q, np.hstack([clear, protected]))


def _mds_block(rows: int, length: int, q: int):
    """(q, Vandermonde generator) of `rows` messages and `length` symbols,
    so that any `length` rows are independent.  It needs `rows` distinct
    evaluation points: when GF(q) has fewer, the smallest prime >= rows
    is used instead, and the code shows it as code.q != inst.q."""
    if q < rows:
        q = smallest_prime_at_least(rows)
    return q, vandermonde(rows, length, q)


def security_level(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Largest access level the code provably withstands.

    That is (minimum Hamming weight of the column span of G) - 2: an
    eavesdropper needs that many plus one messages before any span
    vector lets it peel off a symbol.  -1 means some single message is
    readable outright.  Works for any generator; for a Vandermonde
    generator the value is m - ell - 1.

    A span vector vanishes on a set of messages iff the rows of G there
    have rank below rank G.  So the level is m - s - 1 for the least s
    at which every s rows of a span basis have full rank, and s starts
    at rank G.  The subsets are ranked in fixed-size stacks, and a size
    stops at its first rank-deficient subset.  When the subsets to rank
    would outnumber the q^rank span vectors, the span is enumerated
    instead, in fixed-size batches.  A span of more than `budget`
    vectors, or of 2^63 or more, raises BudgetExceededError, whichever
    route would answer.
    """
    if code.is_randomized:
        raise ValueError("security level is defined for deterministic linear codes")
    budget = checked_budget(budget)
    # q^k <= budget < q^(k+1): k + 1 independent columns of G already
    # refuse the span, without the full reduction, and its rank is at most top
    k = 0
    while code.q ** (k + 1) <= budget:
        k += 1
    top = min(code.m, code.length)
    if k < top and stack_rank(code.q, code.generator[None, :, : k + 1])[0] == k + 1:
        shown = f"{code.q}^{top}" if k + 1 == top else f"{code.q}^{k + 1} to {code.q}^{top}"
        refuse(code.q ** (k + 1), f"{shown} vectors of the column span", budget)
    basis, pivots = rref(code.q, code.generator.T)
    rank = len(pivots)
    if rank == 0:
        return -1  # trivial span: the code sends nothing
    span = code.q ** rank
    refuse(span, f"{code.q}^{rank} vectors of the column span", budget)
    rows = basis[:rank]
    size = _least_full_rank_size(rows, code.q, span)
    if size is not None:
        return code.m - size - 1
    min_weight = code.m
    # span vector i has the base-q digits of i as coefficients; 0 is skipped
    for start in range(1, span, _SPAN_BATCH):
        coeffs = radix_digits(np.arange(start, min(start + _SPAN_BATCH, span)), code.q, rank)
        min_weight = min(min_weight, int(np.count_nonzero(coeffs @ rows % code.q, axis=1).min()))
        if min_weight == 1:
            break
    return max(min_weight - 2, -1)


def _least_full_rank_size(rows, q: int, most: int):
    """Least s such that every s columns of the full-rank rank x m array
    `rows` have rank `rank`, or None when reaching it would mean ranking
    more than `most` subsets in all.  Sizes are tried from rank upwards;
    a size is left at its first rank-deficient subset."""
    rank, m = rows.shape
    listed = 0
    for size in range(rank, m):
        listed += math.comb(m, size)
        if listed > most:
            return None
        subsets = itertools.combinations(range(m), size)
        per_stack = max(1, STACK_ENTRIES // (rank * size))
        while True:
            chunk = itertools.chain.from_iterable(itertools.islice(subsets, per_stack))
            flat = np.fromiter(chunk, dtype=np.intp)
            if not flat.size:
                return size  # every subset of this size has full rank
            # stack entry j holds subset j's columns as its size rows
            if (stack_rank(q, rows.T[flat.reshape(-1, size)]) < rank).any():
                break
    return m  # all m columns: the basis itself


# ---- JSON code files -------------------------------------------------------

def _field_matrix(q: int, rows, what: str) -> np.ndarray:
    """The int64 array of `rows` (the matrix `what` of a code file) when
    it is a non-empty list of equally long rows of integers in [0, q);
    ValueError naming the matrix or the row otherwise.  No entry is
    reduced mod q.  q must already be a valid modulus, so every entry
    that passes fits in int64."""
    if not isinstance(rows, list):
        raise ValueError(f"{what} must be a list of integer rows, got {rows!r}")
    if not rows:
        raise ValueError(f"{what} must have at least one row")
    checked = []
    for i, row in enumerate(rows, start=1):
        checked.append(checked_ints(row, f"{what} row {i}", q))
        if len(row) != len(rows[0]):
            raise ValueError(f"{what} row {i} has length {len(row)}, row 1 has length {len(rows[0])}")
    return np.array(checked, dtype=np.int64)


def parse_code(obj) -> LinearCode:
    """Build a LinearCode from a parsed JSON object.

    Schema: {"kind": "linear_det" | "linear_rand", "q": int,
             "G": [[int...]...], "Gtilde": [[int...]...]}
    Matrices are row-major, with entries in [0, q); G has m rows and ell
    columns, Gtilde is required exactly for "linear_rand".
    """
    if not isinstance(obj, dict):
        raise ValueError("code file must contain a JSON object")
    for key in ("kind", "q", "G"):
        if key not in obj:
            raise ValueError(f"code file missing required field {key!r}")
    kind = obj["kind"]
    if kind not in ("linear_det", "linear_rand"):
        raise ValueError(f"unknown code kind {kind!r}")
    q = checked_modulus(checked_int(obj["q"], "q"))
    generator = _field_matrix(q, obj["G"], "G")
    key_generator = None
    if kind == "linear_rand":
        if "Gtilde" not in obj:
            raise ValueError("linear_rand code needs a 'Gtilde' matrix")
        key_generator = _field_matrix(q, obj["Gtilde"], "Gtilde")
    elif "Gtilde" in obj:
        raise ValueError("linear_det code must not carry a 'Gtilde' matrix")
    return LinearCode(q, generator, key_generator)


def code_to_dict(code: LinearCode) -> dict:
    obj = {
        "kind": "linear_rand" if code.is_randomized else "linear_det",
        "q": code.q,
        "G": code.generator.tolist(),
    }
    if code.is_randomized:
        obj["Gtilde"] = code.key_generator.tolist()
    return obj


def load_code(path) -> LinearCode:
    return parse_code(read_json(path))


def save_code(path, code: LinearCode) -> None:
    write_json(path, code_to_dict(code))
