"""Index codes: linear (deterministic or keyed) and explicit-table kinds,
plus the constructions used by the existence analysis.

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
  code is a function of the original, so security survives too.
* `single_access_code` -- for a single adversary set A: send the A
  messages in the clear, and protect the rest with an MDS code over the
  reduced instance restricted to messages outside A.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .gf import FieldMatrix, smallest_prime_at_least, vandermonde
from .model import Instance, Receiver, checked_int, checked_ints
from .oracle import DEFAULT_BUDGET, BudgetExceededError

__all__ = [
    "LinearCode",
    "TableCode",
    "DecoderWitness",
    "NoSecureCodeError",
    "InvalidWitnessError",
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


class InvalidWitnessError(Exception):
    """A decoding witness does not actually decode the given code."""


class LinearCode:
    """Linear index code c = x G (+ y Gtilde when a key matrix is given).

    G is m x ell over GF(q); an optional key matrix Gtilde is k x ell
    over the same field, with the k key symbols uniform and independent
    of the messages.
    """

    kind = "linear"

    def __init__(self, generator: FieldMatrix, key_generator: FieldMatrix | None = None):
        self.generator = generator
        self.key_generator = key_generator
        if key_generator is not None:
            if key_generator.q != generator.q:
                raise ValueError(
                    f"key matrix over GF({key_generator.q}) does not match GF({generator.q})"
                )
            if key_generator.cols != generator.cols:
                raise ValueError(
                    f"key matrix has {key_generator.cols} columns, generator has {generator.cols}"
                )
        self.q = generator.q
        self.m = generator.rows
        self.length = generator.cols
        self.key_dim = 0 if key_generator is None else key_generator.rows
        self.key_count = self.q ** self.key_dim
        # plain-int row copies: encode and decode work one vector at a time
        self._rows = tuple(tuple(int(v) for v in row) for row in generator.data)
        self._key_rows = (
            ()
            if key_generator is None
            else tuple(tuple(int(v) for v in row) for row in key_generator.data)
        )

    @property
    def is_randomized(self) -> bool:
        return self.key_generator is not None

    def key_vector(self, key_index: int) -> tuple:
        """Key symbols for an enumeration index (last symbol varies fastest)."""
        digits = [0] * self.key_dim
        for pos in range(self.key_dim - 1, -1, -1):
            key_index, digits[pos] = divmod(key_index, self.q)
        return tuple(digits)

    def encode(self, x, y=None) -> tuple:
        """Codeword for message vector x (and key vector y when keyed)."""
        x = tuple(int(v) for v in x)
        if len(x) != self.m:
            raise ValueError(f"message vector has length {len(x)}, expected {self.m}")
        if self.is_randomized:
            if y is None:
                raise ValueError("randomized code needs a key vector")
            y = tuple(int(v) for v in y)
            if len(y) != self.key_dim:
                raise ValueError(f"key vector has length {len(y)}, expected {self.key_dim}")
        elif y is not None:
            raise ValueError("deterministic code takes no key")
        acc = [0] * self.length
        for xv, row in zip(x, self._rows):
            if xv:
                for t in range(self.length):
                    acc[t] += xv * row[t]
        if self.is_randomized:
            for yv, row in zip(y, self._key_rows):
                if yv:
                    for t in range(self.length):
                        acc[t] += yv * row[t]
        return tuple(v % self.q for v in acc)

    def encode_state(self, x, key_index: int) -> tuple:
        if self.is_randomized:
            return self.encode(x, self.key_vector(key_index))
        return self.encode(x)

    def __repr__(self):
        tail = f", key_dim={self.key_dim}" if self.is_randomized else ""
        return f"LinearCode(q={self.q}, m={self.m}, length={self.length}{tail})"

    def __eq__(self, other):
        return (
            isinstance(other, LinearCode)
            and other.generator == self.generator
            and other.key_generator == self.key_generator
        )


class TableCode:
    """Explicit truth-table code: a total map (message vector, key) -> codeword.

    Used for verifying arbitrary (possibly nonlinear) encoders; the
    table must cover all q^m * key_count inputs.
    """

    kind = "table"

    def __init__(self, q: int, m: int, length: int, key_count: int, table: dict):
        if key_count < 1:
            raise ValueError("key alphabet must have at least one value")
        self.q = int(q)
        self.m = int(m)
        self.length = int(length)
        self.key_count = int(key_count)
        self.table = dict(table)
        expected = self.q ** self.m * self.key_count
        if len(self.table) != expected:
            raise ValueError(f"table has {len(self.table)} entries, expected {expected}")
        for x in itertools.product(range(self.q), repeat=self.m):
            for key in range(self.key_count):
                if (x, key) not in self.table:
                    raise ValueError(f"table missing entry for x={x}, key={key}")
        for value in self.table.values():
            if len(value) != self.length or any(not 0 <= v < self.q for v in value):
                raise ValueError(f"table value {value} is not a length-{self.length} word over GF({self.q})")

    @property
    def is_randomized(self) -> bool:
        return self.key_count > 1

    def encode(self, x, y=0) -> tuple:
        return tuple(self.table[(tuple(int(v) for v in x), int(y))])

    def encode_state(self, x, key_index: int) -> tuple:
        return tuple(self.table[(tuple(x), key_index)])

    def __repr__(self):
        return f"TableCode(q={self.q}, m={self.m}, length={self.length}, keys={self.key_count})"


@dataclass(frozen=True)
class DecoderWitness:
    """Decoding vectors for a keyed linear code.

    entries maps (receiver, wanted message) to (d, e): the wanted symbol
    equals codeword . d + side_information . e for every message and
    key assignment.  Pairs where the receiver already knows the wanted
    message need no entry (side information alone recovers them).
    """

    entries: dict

    def get(self, receiver: int, message: int):
        return self.entries.get((receiver, message))


def _selection_matrix(q: int, m: int, indices) -> FieldMatrix:
    """m x len(indices) matrix picking out the given 1-based coordinates."""
    sel = np.zeros((m, len(indices)), dtype=np.int64)
    for pos, j in enumerate(indices):
        sel[j - 1, pos] = 1
    return FieldMatrix(q, sel)


def decode(code: LinearCode, inst: Instance, receiver: int, codeword, side):
    """Recover receiver's wanted values from a codeword and its side
    information (values for its known messages in ascending index order).

    Returns the wanted values in ascending index order, or None when
    they are not all pinned down by the available equations.  The solve
    always succeeds when the generator rows of the unknown messages are
    linearly independent; it also succeeds whenever the wanted
    coordinates happen to be determined in an underdetermined system.
    """
    if code.is_randomized:
        raise ValueError("decode applies to deterministic linear codes")
    if code.m != inst.m:
        raise ValueError(f"code is for {code.m} messages, instance has {inst.m}")
    if not 1 <= receiver <= inst.n:
        raise ValueError(f"receiver index {receiver} out of range [1, {inst.n}]")
    rec = inst.receivers[receiver - 1]
    known = sorted(rec.knows)
    wanted = sorted(rec.wants)
    codeword = tuple(int(v) for v in codeword)
    side = tuple(int(v) for v in side)
    if len(codeword) != code.length:
        raise ValueError(f"codeword has length {len(codeword)}, expected {code.length}")
    if len(side) != len(known):
        raise ValueError(f"side information has {len(side)} values, expected {len(known)}")

    q = code.q
    side_by_index = dict(zip(known, side))
    # residual = c - sum of known contributions, as a column
    residual = list(codeword)
    for j, value in side_by_index.items():
        if value % q:
            row = code._rows[j - 1]
            for t in range(code.length):
                residual[t] -= value * row[t]
    unknown = [j for j in inst.messages() if j not in rec.knows]
    system = FieldMatrix(q, code.generator.data[[j - 1 for j in unknown], :]).transpose()
    solution = system.solve(FieldMatrix.column(q, residual))
    if solution is None:
        return None
    kernel = system.nullspace()
    pinned = {
        j: int(solution.data[pos, 0])
        for pos, j in enumerate(unknown)
        if not kernel.data[pos, :].any()
    }
    values = []
    for j in wanted:
        if j in side_by_index:
            values.append(side_by_index[j] % q)
        elif j in pinned:
            values.append(pinned[j])
        else:
            return None
    return tuple(values)


def derandomize(code: LinearCode, inst: Instance, witness: DecoderWitness) -> LinearCode:
    """Deterministic code from a keyed linear code, given decoding vectors.

    Every witness vector d must satisfy Gtilde d = 0 (otherwise the key
    would contaminate the decoded value, so the original code was not
    decodable and InvalidWitnessError is raised) and G d + S e = e_j
    where S selects the receiver's known coordinates.  The new
    generator is G N for a nullspace basis N of Gtilde; its length is
    ell - rank(Gtilde), every d lies in the span of N, and the new
    codeword is a function of the old one.
    """
    if not code.is_randomized:
        raise ValueError("derandomize applies to randomized linear codes")
    if code.m != inst.m:
        raise ValueError(f"code is for {code.m} messages, instance has {inst.m}")
    q = code.q
    for (receiver, message) in witness.entries:
        if not 1 <= receiver <= inst.n:
            raise InvalidWitnessError(f"witness names receiver {receiver}, instance has {inst.n}")
        if message not in inst.receivers[receiver - 1].wants:
            raise InvalidWitnessError(
                f"witness entry ({receiver}, {message}) is not a wanted message of that receiver"
            )
    for i, rec in enumerate(inst.receivers, start=1):
        for j in sorted(rec.wants - rec.knows):
            if witness.get(i, j) is None:
                raise InvalidWitnessError(f"witness missing entry for receiver {i}, message {j}")
    for (receiver, message), (d_vec, e_vec) in sorted(witness.entries.items()):
        rec = inst.receivers[receiver - 1]
        known = sorted(rec.knows)
        d = FieldMatrix.column(q, d_vec)
        e = FieldMatrix.column(q, e_vec)
        if d.rows != code.length:
            raise InvalidWitnessError(
                f"witness ({receiver}, {message}): d has {d.rows} entries, expected {code.length}"
            )
        if e.rows != len(known):
            raise InvalidWitnessError(
                f"witness ({receiver}, {message}): e has {e.rows} entries, expected {len(known)}"
            )
        if not (code.key_generator @ d).is_zero():
            raise InvalidWitnessError(
                f"witness ({receiver}, {message}): d is not in the nullspace of the key matrix, "
                "so the keyed code cannot decode with it"
            )
        unit = FieldMatrix.zeros(q, code.m, 1).data.copy()
        unit[message - 1, 0] = 1
        recovered = code.generator @ d
        if known:
            recovered = recovered + (_selection_matrix(q, code.m, known) @ e)
        if recovered != FieldMatrix(q, unit):
            raise InvalidWitnessError(
                f"witness ({receiver}, {message}) does not recover the wanted symbol"
            )
    basis = code.key_generator.nullspace()
    return LinearCode(code.generator @ basis)


def _require_normalized(inst: Instance, what: str) -> None:
    if inst.n < 1:
        raise ValueError(f"{what} needs at least one receiver")
    if not inst.is_normalized():
        raise ValueError(
            f"{what} needs a normalized instance (some receiver wants nothing it lacks); "
            "call normalize() first"
        )


def construct_mds_code(inst: Instance) -> LinearCode:
    """MDS broadcast of length m - K, where K is the smallest number of
    messages any receiver knows.

    The generator is a Vandermonde matrix, so any ell rows are linearly
    independent: each receiver eliminates its known symbols from the
    codeword and solves for the at most ell remaining ones.  When the
    instance field is too small for m distinct evaluation points, the
    smallest prime >= m is used instead; the substitution shows up as
    code.q != inst.q.
    """
    _require_normalized(inst, "MDS construction")
    min_known = min(len(r.knows) for r in inst.receivers)
    length = inst.m - min_known
    q_used = inst.q if inst.q >= inst.m else smallest_prime_at_least(inst.m)
    return LinearCode(vandermonde(inst.m, length, q_used))


def single_access_code(inst: Instance, access) -> LinearCode:
    """Secure code against the single adversary set `access`.

    Sends the accessed messages in the clear (ascending order), followed
    by an MDS code over the instance reduced to the remaining messages
    and to the receivers that want and know something outside `access`.
    Receivers whose wants lie inside `access` read them off directly.
    Raises NoSecureCodeError when some receiver's knowledge is inside
    `access` while it wants a message outside -- then the eavesdropper
    could decode whatever that receiver decodes.
    """
    _require_normalized(inst, "single-access construction")
    access = frozenset(int(v) for v in access)
    for j in access:
        if not 1 <= j <= inst.m:
            raise ValueError(f"access index {j} out of range [1, {inst.m}]")
    outside = [j for j in inst.messages() if j not in access]
    reduced_receivers = []
    for i, rec in enumerate(inst.receivers, start=1):
        if rec.knows <= access:
            if rec.wants - access:
                raise NoSecureCodeError(i, access)
            continue  # wants inside access: served by the clear part
        if rec.wants - access:
            reduced_receivers.append(rec)  # needs the protected part too

    inner = None
    q_used = inst.q
    if reduced_receivers:
        remap = {old: new for new, old in enumerate(outside, start=1)}
        reduced = Instance(
            inst.q,
            len(outside),
            tuple(
                Receiver(
                    frozenset(remap[j] for j in rec.knows if j in remap),
                    frozenset(remap[j] for j in rec.wants if j in remap),
                )
                for rec in reduced_receivers
            ),
        )
        inner = construct_mds_code(reduced)
        q_used = inner.q
    inner_length = 0 if inner is None else inner.length
    clear = sorted(access)
    data = np.zeros((inst.m, len(clear) + inner_length), dtype=np.int64)
    for pos, j in enumerate(clear):
        data[j - 1, pos] = 1
    if inner is not None:
        for new_row, old in enumerate(outside):
            data[old - 1, len(clear):] = inner.generator.data[new_row, :]
    return LinearCode(FieldMatrix(q_used, data))


def security_level(code: LinearCode, budget: int = DEFAULT_BUDGET) -> int:
    """Largest access level the code provably withstands.

    Enumerates the column span of the generator exactly and returns
    (minimum Hamming weight) - 2: an eavesdropper needs that many plus
    one messages before any span vector lets it peel off a symbol.  -1
    means some single message is readable outright.  Works for any
    generator; for a Vandermonde generator the value is m - ell - 1.
    """
    if code.is_randomized:
        raise ValueError("security level is defined for deterministic linear codes")
    basis, pivots = code.generator.transpose().rref()
    rank = len(pivots)
    if rank == 0:
        return -1  # trivial span: the code sends nothing
    if code.q ** rank > budget:
        raise BudgetExceededError(
            f"column span has {code.q ** rank} vectors, exceeding the budget of {budget}"
        )
    rows = basis.data[:rank]
    q = code.q
    min_weight = None
    for coeffs in itertools.product(range(q), repeat=rank):
        if not any(coeffs):
            continue
        vec = np.zeros(code.m, dtype=np.int64)
        for cf, row in zip(coeffs, rows):
            if cf:
                vec += cf * row
        weight = int(np.count_nonzero(vec % q))
        if min_weight is None or weight < min_weight:
            min_weight = weight
            if min_weight == 1:
                break
    return max(min_weight - 2, -1)


# ---- JSON code files -------------------------------------------------------

def _int_matrix(rows, what: str) -> list:
    if not isinstance(rows, list):
        raise ValueError(f"{what} must be a list of integer rows, got {rows!r}")
    return [checked_ints(row, f"{what} row") for row in rows]


def parse_code(obj) -> LinearCode:
    """Build a LinearCode from a parsed JSON object.

    Schema: {"kind": "linear_det" | "linear_rand", "q": int,
             "G": [[int...]...], "Gtilde": [[int...]...]}
    Matrices are row-major; G has m rows and ell columns, Gtilde is
    required exactly for "linear_rand".
    """
    if not isinstance(obj, dict):
        raise ValueError("code file must contain a JSON object")
    for key in ("kind", "q", "G"):
        if key not in obj:
            raise ValueError(f"code file missing required field {key!r}")
    kind = obj["kind"]
    if kind not in ("linear_det", "linear_rand"):
        raise ValueError(f"unknown code kind {kind!r}")
    q = checked_int(obj["q"], "q")
    generator = FieldMatrix(q, _int_matrix(obj["G"], "G"))
    key_generator = None
    if kind == "linear_rand":
        if "Gtilde" not in obj:
            raise ValueError("linear_rand code needs a 'Gtilde' matrix")
        key_generator = FieldMatrix(q, _int_matrix(obj["Gtilde"], "Gtilde"))
    elif "Gtilde" in obj:
        raise ValueError("linear_det code must not carry a 'Gtilde' matrix")
    return LinearCode(generator, key_generator)


def code_to_dict(code: LinearCode) -> dict:
    obj = {
        "kind": "linear_rand" if code.is_randomized else "linear_det",
        "q": code.q,
        "G": code.generator.to_lists(),
    }
    if code.is_randomized:
        obj["Gtilde"] = code.key_generator.to_lists()
    return obj


def load_code(path) -> LinearCode:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    return parse_code(obj)


def save_code(path, code: LinearCode) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(code_to_dict(code), fh, indent=2)
        fh.write("\n")
