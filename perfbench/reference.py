"""Reference verdicts for linear index codes, independent of secix.

Messages x (m symbols) and keys y (k symbols) are uniform and
independent over GF(q); the codeword is c = x G + y Gt.  Every
information quantity the oracle counts is then a rank over GF(q).
With M_S = [rows of G for the messages in S ; Gt]:

* H(C | X_A) = rank(M_{not A}) log q, so the leakage about a block B
  given X_A is I = rank(M_{not A}) - rank(M_{not A, not B}) symbols and
  H(X_B | C, X_A) = (|B| - I) log q; the pair is uniform iff I = 0;
* receiver (S, W) decodes iff
  rank(M_{not S}) - rank(M_{not S, not W}) = |W \\ S|.

Ranks come from sympy's DomainMatrix over GF(q).  Nothing here imports
secix, so the corpus answers do not share code with the program under
test.
"""

from __future__ import annotations

import itertools
import math

from sympy.polys.domains import GF
from sympy.polys.matrices import DomainMatrix

_FIELDS = {}


def rank(q: int, rows) -> int:
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    field = _FIELDS.get(q)
    if field is None:
        field = _FIELDS[q] = GF(q)
    return DomainMatrix.from_list(rows, field).rank()


def _stack(G, Gt, messages):
    """M_S: the generator rows of the given 1-based messages, then Gt."""
    return [G[j - 1] for j in sorted(messages)] + list(Gt)


def decodes(q, m, G, Gt, knows, wants) -> bool:
    rest = set(range(1, m + 1)) - set(knows)
    gain = rank(q, _stack(G, Gt, rest)) - rank(q, _stack(G, Gt, rest - set(wants)))
    return gain == len(set(wants) - set(knows))


def leakage(q, m, G, Gt, access, block) -> int:
    """Symbols of X_B revealed by (C, X_A)."""
    rest = set(range(1, m + 1)) - set(access)
    return rank(q, _stack(G, Gt, rest)) - rank(q, _stack(G, Gt, rest - set(block)))


def access_sets(m, adversary):
    """Access sets in the order secix expands them (sorted tuples)."""
    if adversary["type"] == "t_level":
        return [tuple(a) for a in itertools.combinations(range(1, m + 1), adversary["t"])]
    seen, out = set(), []
    for a in adversary["sets"]:
        key = frozenset(a)
        if key not in seen:
            seen.add(key)
            out.append(tuple(sorted(key)))
    return out


def pairs(m, adversary, b):
    full = set(range(1, m + 1))
    out = []
    for a in access_sets(m, adversary):
        if set(a) == full:
            continue
        for block in itertools.combinations(sorted(full - set(a)), b):
            out.append((a, block))
    return out


def verify_report(q, m, G, Gt, receivers, adversary, b):
    """The verdicts `secix verify --json` must print, from ranks alone."""
    decodable = [decodes(q, m, G, Gt, r["knows"], r["wants"]) for r in receivers]
    bits = math.log2(q)
    checks = []
    for a, block in pairs(m, adversary, b):
        leak = leakage(q, m, G, Gt, a, block)
        checks.append({
            "A": list(a),
            "B": list(block),
            "uniform": leak == 0,
            "H_B_bits": b * bits,
            "H_B_given_CA_bits": (b - leak) * bits,
        })
    return {
        "pairs": checks,
        "secure": all(c["uniform"] for c in checks),
        "block_size": b,
        "decodable": decodable,
    }


def secure_and_decodable(q, m, G, receivers, adversary, b) -> bool:
    if not all(decodes(q, m, G, [], r["knows"], r["wants"]) for r in receivers):
        return False
    return all(leakage(q, m, G, [], a, block) == 0 for a, block in pairs(m, adversary, b))


def lex_first_code(q, m, length, receivers, adversary, b):
    """First generator, in row-major lexicographic order of its entries,
    that decodes for every receiver and leaks nothing; None if none."""
    for entries in itertools.product(range(q), repeat=m * length):
        G = [list(entries[i * length:(i + 1) * length]) for i in range(m)]
        if secure_and_decodable(q, m, G, receivers, adversary, b):
            return G
    return None
