"""Matrix-by-matrix reference for `codes.parse_code`: G and Gtilde are
each read whole or, failing that, row by row, and the code is built by
the public `LinearCode` constructor, which reduces both matrices and
stacks them.  The one-array parser must give an equal code, or raise
the same exception with the same text, on every object."""

import itertools

import numpy as np

from secix import LinearCode
from secix.gf import checked_int, checked_ints, checked_modulus


def field_matrix(q: int, rows, what: str) -> np.ndarray:
    if not isinstance(rows, list):
        raise ValueError(f"{what} must be a list of integer rows, got {rows!r}")
    if not rows:
        raise ValueError(f"{what} must have at least one row")
    if all(type(row) is list for row in rows) and len(set(map(len, rows))) == 1 \
            and set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
        try:
            matrix = np.array(rows, dtype=np.int64)
            if (matrix.view(np.uint64) < q).all():
                return matrix
        except OverflowError:
            pass
    checked = []
    for i, row in enumerate(rows, start=1):
        checked.append(checked_ints(row, f"{what} row {i}", q))
        if len(row) != len(rows[0]):
            raise ValueError(f"{what} row {i} has length {len(row)}, row 1 has length {len(rows[0])}")
    return np.array(checked, dtype=np.int64)


def parse_code(obj) -> LinearCode:
    if not isinstance(obj, dict):
        raise ValueError("code file must contain a JSON object")
    for key in ("kind", "q", "G"):
        if key not in obj:
            raise ValueError(f"code file missing required field {key!r}")
    kind = obj["kind"]
    if kind not in ("linear_det", "linear_rand"):
        raise ValueError(f"unknown code kind {kind!r}")
    q = checked_modulus(checked_int(obj["q"], "q"))
    generator = field_matrix(q, obj["G"], "G")
    key_generator = None
    if kind == "linear_rand":
        if "Gtilde" not in obj:
            raise ValueError("linear_rand code needs a 'Gtilde' matrix")
        key_generator = field_matrix(q, obj["Gtilde"], "Gtilde")
    elif "Gtilde" in obj:
        raise ValueError("linear_det code must not carry a 'Gtilde' matrix")
    return LinearCode(q, generator, key_generator)
