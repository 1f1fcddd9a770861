"""Existence decisions, impossibility certificates, length bounds, and
small-scale exhaustive search for secure index codes.

`decide` is the one existence decision.  It pivots on two scalars: the
smallest amount of side information any receiver holds, and the largest
set the eavesdropper might hold.  For a t-level eavesdropper these
settle every instance (the paper's iff rule).  For explicit access sets,
when every receiver knows strictly more than the eavesdropper can
access, the MDS broadcast is secure; when some access set covers a
receiver's entire knowledge while that receiver wants something outside
it, no code can help; and for the classical-looking instances (acyclic
side-information graph, every message wanted), the codeword alone
already reveals everything.  Everything in between is reported as
unknown: no rule here settles it, whether or not a code exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import LinearCode, code_to_dict, construct_mds_code, single_access_code
from .gf import checked_int, radix_digits
from .model import AccessStructure, Instance, every_message_wanted, is_acyclic, require_normalized
from .oracle import (
    DEFAULT_BUDGET,
    check_block_size,
    check_budget,
    checked_budget,
    list_checks,
    refuse,
    secure_generators,
)

__all__ = [
    "ANSWER_YES",
    "ANSWER_NO",
    "ANSWER_UNKNOWN",
    "CompromisedReceiverCertificate",
    "AcyclicCertificate",
    "ExistenceVerdict",
    "min_side_info",
    "decide",
    "length_bounds",
    "search_linear",
]

ANSWER_YES = "yes"
ANSWER_NO = "no"
ANSWER_UNKNOWN = "unknown"

# Generator entries in the first search chunk, and in the largest: each
# chunk is twice as large as the one before.  A winner early in the
# lexicographic order ends the search after a small chunk, and a long
# scan pays the per-chunk cost fewer times, in bounded memory.
_SEARCH_BATCH = 2 ** 10
_SEARCH_BATCH_MOST = 2 ** 14


@dataclass(frozen=True)
class CompromisedReceiverCertificate:
    """Impossibility witness: an access set covering everything receiver
    `receiver` knows, while that receiver wants a message outside it.
    Whatever the receiver decodes, an eavesdropper holding the access
    set decodes too."""

    receiver: int
    access: frozenset

    def to_dict(self) -> dict:
        return {
            "type": "compromised_receiver",
            "receiver": self.receiver,
            "access": sorted(self.access),
        }


@dataclass(frozen=True)
class AcyclicCertificate:
    """Impossibility witness: the receiver/message graph is acyclic and
    every message is wanted, so any working codeword determines all
    messages even without side information."""

    def to_dict(self) -> dict:
        return {"type": "acyclic"}


@dataclass(frozen=True)
class ExistenceVerdict:
    """Outcome of an existence decision.

    `yes` always carries a concrete code; `no` carries a
    machine-checkable certificate.  Bounds on the optimal secure
    codelength are attached when the structural conditions for them
    hold.
    """

    answer: str
    code: LinearCode | None = None
    certificate: object = None
    lower: int | None = None
    upper: int | None = None

    def to_dict(self) -> dict:
        if self.answer == ANSWER_YES:
            certificate = code_to_dict(self.code)
        elif self.certificate is not None:
            certificate = self.certificate.to_dict()
        else:
            certificate = None
        return {
            "answer": self.answer,
            "certificate": certificate,
            "bounds": {"lower": self.lower, "upper": self.upper},
        }


def min_side_info(inst: Instance) -> int:
    """Smallest number of messages any receiver knows."""
    require_normalized(inst, "analysis")
    return min(len(r.knows) for r in inst.receivers)


def decide(inst: Instance, acc: AccessStructure, b: int = 1) -> ExistenceVerdict:
    """Existence of a code that protects every block of b messages (b = 1
    by default) from every access set of `acc`.

    A t-level adversary is decided by the paper's rule, without listing
    its access sets: secure codes exist iff t <= K - b, where K is the
    least side-information size.  Yes comes with the MDS construction.
    No comes with a compromised-receiver certificate: for t >= K the
    certificate set covers a minimal receiver's knowledge outright; for
    K - b < t < K it sits inside that knowledge, and the eavesdropper's
    missing symbols plus the receiver's wanted one form a readable block
    of at most b messages.

    An explicit adversary takes b = 1 only.  Impossibility is checked
    first (the graph-level certificate before the per-receiver one,
    since the former condemns the instance as a whole); then the two
    constructive sufficient conditions.  When none of these rules
    settles the instance the answer is unknown, which says nothing about
    whether a code exists.
    """
    b = check_block_size(b)
    t_level = acc.kind == AccessStructure.KIND_T_LEVEL
    if b != 1 and not t_level:
        raise ValueError("block sizes b > 1 are supported for t-level adversaries only")
    least = min_side_info(inst)  # refuses an instance that is not normalized
    if t_level:
        t = acc.max_size(inst.m)  # refuses t outside [0, m - 1]
        if t <= least - b:
            lower, upper = length_bounds(inst, acc)
            return ExistenceVerdict(ANSWER_YES, code=construct_mds_code(inst), lower=lower, upper=upper)
        idx, rec = min(enumerate(inst.receivers, start=1), key=lambda pair: len(pair[1].knows))
        j = min(rec.wants - rec.knows)
        known = sorted(rec.knows)
        if t >= least:
            padding = [v for v in inst.messages() if v not in rec.knows and v != j]
            access = frozenset(known) | frozenset(padding[: t - least])
        else:
            access = frozenset(known[:t])
        return ExistenceVerdict(ANSWER_NO, certificate=CompromisedReceiverCertificate(idx, access))

    expanded = acc.expand(inst.m)
    lower, upper = length_bounds(inst, acc)

    # the acyclic certificate needs an access set that leaves a message out
    full = frozenset(inst.messages())
    exposed = any(a != full for a in expanded)
    if exposed and every_message_wanted(inst) and is_acyclic(inst):
        return ExistenceVerdict(ANSWER_NO, certificate=AcyclicCertificate(), lower=lower, upper=upper)

    for a in expanded:
        for i, rec in enumerate(inst.receivers, start=1):
            if rec.knows <= a and rec.wants - a:
                return ExistenceVerdict(
                    ANSWER_NO,
                    certificate=CompromisedReceiverCertificate(i, a),
                    lower=lower,
                    upper=upper,
                )

    # with no access set there is nothing to hide, and the MDS code decodes
    if not expanded or acc.max_size(inst.m) < least:
        return ExistenceVerdict(ANSWER_YES, code=construct_mds_code(inst), lower=lower, upper=upper)

    if len(expanded) == 1:
        code = single_access_code(inst, expanded[0])
        return ExistenceVerdict(ANSWER_YES, code=code, lower=lower, upper=upper)

    return ExistenceVerdict(ANSWER_UNKNOWN, lower=lower, upper=upper)


def length_bounds(inst: Instance, acc: AccessStructure):
    """(lower, upper) bounds on the optimal secure codelength at this q.

    When the eavesdropper always accesses fewer messages than every
    receiver knows, the MDS construction gives upper = m - K.  If
    additionally some minimally informed receiver wants exactly the
    messages it lacks, counting symbols forces lower = m - K as well.
    A bound is None when its condition does not hold.
    """
    least = min_side_info(inst)  # refuses an instance that is not normalized
    if acc.max_size(inst.m) >= least:
        return None, None
    upper = inst.m - least
    full = frozenset(inst.messages())
    complementary = any(
        len(r.knows) == least and (r.knows | r.wants) == full for r in inst.receivers
    )
    lower = upper if complementary else None
    return lower, upper


def search_linear(
    inst: Instance,
    acc: AccessStructure,
    length: int,
    b: int = 1,
    budget: int = DEFAULT_BUDGET,
):
    """Exhaustive search over all m x length generators over GF(q).

    Returns the first (in lexicographic order of the row-major entries)
    deterministic linear code that both decodes for every receiver and
    passes the exact security check, or None when no generator of this
    length works.  Independent of the constructions above, so it can
    confirm their optimality at tiny scale and settle instances the
    structural decision leaves unknown.

    Generators are screened by rank identities in chunks of consecutive
    candidates, each chunk in one call of `secure_generators` on the
    checks of one `list_checks` pass: the first chunk holds about
    _SEARCH_BATCH generator entries, and each later one twice as many as
    the one before, up to _SEARCH_BATCH_MOST.  `budget` bounds
    the q^(m*length) candidates, then, as `check_security` would for each
    candidate, its q^m states and those states times the (access set,
    block) pairs.
    """
    require_normalized(inst, "analysis")
    budget = checked_budget(budget)
    length = checked_int(length, "code length")
    if length < 0:
        raise ValueError(f"code length must be >= 0, got {length}")
    b = check_block_size(b)
    q, m = inst.q, inst.m
    width = m * length
    # q^width >= 2^width > budget from this width on: refused, with no power built
    candidates = q ** width if width < budget.bit_length() else budget + 1
    refuse(candidates, f"{q}^{width} candidate generators", budget)
    check_budget(q, m, 1, f"{q}^{m}", acc, b, budget)
    checks = list_checks(inst, acc, b)
    chunk = max(1, _SEARCH_BATCH // max(1, width))
    most = max(1, _SEARCH_BATCH_MOST // max(1, width))
    start = 0
    while start < candidates:
        stop = min(start + chunk, candidates)
        # base-q digits of consecutive indices run in itertools.product order
        generators = radix_digits(np.arange(start, stop), q, width).reshape(stop - start, m, length)
        hits = np.flatnonzero(secure_generators(q, generators, checks))
        if hits.size:
            return LinearCode(q, generators[hits[0]])
        start, chunk = stop, min(2 * chunk, most)
    return None
