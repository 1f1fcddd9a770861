"""Secure index-coding instances and their directed bipartite graph view.

An instance is (q, m, receivers): one sender holds m messages over
GF(q); each receiver knows a subset of them and wants another subset.
The eavesdropper is described separately by an access structure: either
an explicit collection of message subsets, or "t-level" access meaning
every proper subset of size t.  Message and receiver indices are
1-based in every public interface, matching the usual broadcast
notation.
"""

from __future__ import annotations

import graphlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import ClassVar

from .gf import MAX_ACCESS_SETS, MAX_MESSAGES, checked_int, checked_ints, checked_modulus

__all__ = [
    "Receiver",
    "Instance",
    "AccessStructure",
    "validate",
    "normalize",
    "every_message_wanted",
    "strip_unwanted",
    "is_acyclic",
    "to_dot",
    "parse_instance",
    "instance_to_dict",
    "load_instance",
    "save_instance",
]


@dataclass(frozen=True)
class Receiver:
    """One receiver: the messages it knows and the messages it wants."""

    knows: frozenset
    wants: frozenset

    def __post_init__(self):
        object.__setattr__(self, "knows", frozenset(checked_ints(self.knows, "receiver knows")))
        object.__setattr__(self, "wants", frozenset(checked_ints(self.wants, "receiver wants")))

    def missing_wants(self) -> frozenset:
        """Wanted messages not already known."""
        return self.wants - self.knows


@dataclass(frozen=True)
class Instance:
    """A secure index-coding instance: field size, message count, receivers.

    Valid by construction: q is a prime no larger than MAX_MODULUS, m
    lies in [1, MAX_MESSAGES], every receiver is a `Receiver` and every
    receiver index lies in [1, m], or the constructor raises ValueError
    with the violations of `validate` joined by "; ".  So no caller
    checks an index again.  Receivers may be absent or want nothing they
    lack: `normalize` drops the latter, and `require_normalized` refuses
    both on every verdict path.
    """

    q: int
    m: int
    receivers: tuple

    def __post_init__(self):
        object.__setattr__(self, "q", checked_int(self.q, "field size q"))
        object.__setattr__(self, "m", checked_int(self.m, "message count m"))
        object.__setattr__(self, "receivers", tuple(self.receivers))
        violations = validate(self)
        if violations:
            raise ValueError("; ".join(violations))

    @property
    def n(self) -> int:
        return len(self.receivers)

    def messages(self) -> range:
        return range(1, self.m + 1)

    def is_normalized(self) -> bool:
        return all(r.missing_wants() for r in self.receivers)


def validate(inst: Instance) -> list:
    """The rules every `Instance` meets, as a list of violations: the
    field, the message count, every receiver a `Receiver` and every
    receiver index, each violation naming the receiver or index at
    fault.

    The constructor calls it on the fields it has just set, so a built
    instance always gives an empty list.
    """
    violations = []
    if not 1 <= inst.m <= MAX_MESSAGES:
        violations.append(f"message count must be in [1, {MAX_MESSAGES}], got {inst.m}")
    try:
        checked_modulus(inst.q)
    except ValueError as exc:
        violations.append(str(exc))
    for i, r in enumerate(inst.receivers, start=1):
        if not isinstance(r, Receiver):
            violations.append(f"receiver {i}: must be a Receiver, got {type(r).__name__}")
            continue
        for label, indices in (("knows", r.knows), ("wants", r.wants)):
            for j in sorted(indices):
                if not 1 <= j <= inst.m:
                    violations.append(f"receiver {i}: {label} index {j} out of range [1, {inst.m}]")
    return violations


def normalize(inst: Instance) -> Instance:
    """Drop receivers that want nothing beyond what they know.

    Messages wanted by no receiver are retained: they can still serve
    as keys that protect other messages.  Idempotent.
    """
    kept = tuple(r for r in inst.receivers if r.missing_wants())
    if len(kept) == len(inst.receivers):
        return inst
    return Instance(inst.q, inst.m, kept)


def require_normalized(inst: Instance, what: str) -> None:
    """ValueError unless inst has receivers and each lacks something it
    wants."""
    if inst.n < 1:
        raise ValueError(f"{what} needs at least one receiver")
    if not inst.is_normalized():
        raise ValueError(
            f"{what} needs a normalized instance (some receiver wants nothing it lacks); "
            "call normalize() first"
        )


def every_message_wanted(inst: Instance) -> bool:
    wanted = set()
    for r in inst.receivers:
        wanted |= r.wants
    return all(j in wanted for j in inst.messages())


def strip_unwanted(inst: Instance, acc: "AccessStructure | None" = None):
    """Remove messages wanted by no receiver, renumbering the rest.

    This is the classical simplification; for secure instances it can
    destroy feasibility because unwanted messages may act as keys, so
    it is never applied implicitly.  With an access structure given,
    returns (instance, remapped access structure); explicit access sets
    are range-checked against [1, m], then intersected with the
    surviving messages and renumbered.  An instance that wants no
    message strips to m = 0, which `Instance` refuses.
    """
    wanted = set()
    for r in inst.receivers:
        wanted |= r.wants
    kept = sorted(j for j in inst.messages() if j in wanted)
    remap = {old: new for new, old in enumerate(kept, start=1)}
    receivers = tuple(
        Receiver(
            frozenset(remap[j] for j in r.knows if j in remap),
            frozenset(remap[j] for j in r.wants),
        )
        for r in inst.receivers
    )
    stripped = Instance(inst.q, len(kept), receivers)
    if acc is None:
        return stripped
    if acc.kind == AccessStructure.KIND_T_LEVEL:
        if acc.t > len(kept) - 1:
            raise ValueError(f"access level {acc.t} infeasible with {len(kept)} messages")
        return stripped, acc
    remapped = [frozenset(remap[j] for j in a if j in remap) for a in acc.expand(inst.m)]
    return stripped, AccessStructure.explicit(remapped)


@dataclass(frozen=True)
class AccessStructure:
    """The collection of message subsets the eavesdropper might hold.

    Two kinds: explicit (a concrete list of subsets, deduplicated) and
    t-level (all proper subsets of size t, kept symbolic until
    expansion so size-based analysis never materializes them).
    """

    KIND_T_LEVEL: ClassVar[str] = "t_level"
    KIND_EXPLICIT: ClassVar[str] = "explicit"

    kind: str
    t: int | None = None
    sets: tuple | None = None

    @classmethod
    def t_level(cls, t: int) -> "AccessStructure":
        t = checked_int(t, "access level t")
        if t < 0:
            raise ValueError(f"access level must be >= 0, got {t}")
        return cls(cls.KIND_T_LEVEL, t=t)

    @classmethod
    def explicit(cls, sets) -> "AccessStructure":
        deduped = []
        seen = set()
        for a in sets:
            fa = frozenset(checked_ints(a, "access set"))
            if fa not in seen:
                seen.add(fa)
                deduped.append(fa)
        return cls(cls.KIND_EXPLICIT, sets=tuple(deduped))

    @classmethod
    def classical(cls, m: int) -> "AccessStructure":
        """The no-security-constraint structure {[m]}."""
        return cls.explicit([range(1, m + 1)])

    def expand(self, m: int) -> list:
        """All access sets for an instance with m messages.

        t-level expands to every size-t proper subset in lexicographic
        order, and refuses more than gf.MAX_ACCESS_SETS of them; explicit
        sets pass through (already deduplicated) after a range check.
        """
        if self.kind == self.KIND_T_LEVEL:
            count = math.comb(m, self.max_size(m))
            if count > MAX_ACCESS_SETS:
                raise ValueError(
                    f"t-level {self.t} access on {m} messages has {count} access sets, "
                    f"more than the {MAX_ACCESS_SETS} that can be listed"
                )
            return [frozenset(c) for c in itertools.combinations(range(1, m + 1), self.t)]
        for a in self.sets:
            for j in a:
                if not 1 <= j <= m:
                    raise ValueError(f"access set index {j} out of range [1, {m}]")
        return list(self.sets)

    def max_size(self, m: int) -> int:
        """Largest access set size, without materializing t-level sets."""
        if self.kind == self.KIND_T_LEVEL:
            if not 0 <= self.t <= m - 1:
                raise ValueError(f"access level must satisfy 0 <= t <= {m - 1}, got {self.t}")
            return self.t
        return max((len(a) for a in self.sets), default=0)

    def to_dict(self) -> dict:
        if self.kind == self.KIND_T_LEVEL:
            return {"type": "t_level", "t": self.t}
        return {"type": "explicit", "sets": [sorted(a) for a in self.sets]}

    @classmethod
    def from_dict(cls, obj) -> "AccessStructure":
        if not isinstance(obj, dict) or "type" not in obj:
            raise ValueError("adversary must be an object with a 'type' field")
        kind = obj["type"]
        if kind == "t_level":
            if "t" not in obj:
                raise ValueError("t_level adversary needs a 't' field")
            return cls.t_level(obj["t"])
        if kind == "explicit":
            sets = obj.get("sets")
            if not isinstance(sets, list):
                raise ValueError("explicit adversary needs a 'sets' list")
            return cls.explicit(sets)
        raise ValueError(f"unknown adversary type {kind!r}")

    def __repr__(self):
        if self.kind == self.KIND_T_LEVEL:
            return f"AccessStructure.t_level({self.t})"
        return f"AccessStructure.explicit({[sorted(a) for a in self.sets]})"


def is_acyclic(inst: Instance) -> bool:
    """True iff the receiver/message graph has no directed cycle.

    Its arcs run from each receiver to the messages it knows and from
    each message to the receivers that want it.  Eavesdropper vertices
    have no incoming arcs, so they cannot lie on a cycle and are left
    out.  Messages are nodes j and receivers nodes -i.
    """
    order = graphlib.TopologicalSorter()
    for i, r in enumerate(inst.receivers, start=1):
        order.add(-i, *r.wants)
        for j in r.knows:
            order.add(j, -i)
    try:
        order.prepare()
    except graphlib.CycleError:
        return False
    return True


def to_dot(inst: Instance, acc: AccessStructure) -> str:
    """DOT text of the directed bipartite graph of an instance and its
    access structure.

    Vertices: messages by number, receivers r1..., and one eavesdropper
    v1... per explicit access set.  Arcs: r_i -> j when receiver i knows
    message j; j -> r_i when it wants j; v_k -> j for every j in the k-th
    access set.  A t-level adversary, which may hold any t messages, is
    one vertex v1 labelled with its t and has no arcs.
    """
    lines = ["digraph secure_index_instance {"]
    lines += [f"  {j};" for j in inst.messages()]
    lines += [f"  r{i};" for i in range(1, inst.n + 1)]
    if acc.kind == AccessStructure.KIND_T_LEVEL:
        lines.append(f'  v1 [label="t = {acc.max_size(inst.m)}"];')
        access_sets = []
    else:
        access_sets = acc.expand(inst.m)
        lines += [f"  v{k};" for k in range(1, len(access_sets) + 1)]
    for i, r in enumerate(inst.receivers, start=1):
        lines += [f"  r{i} -> {j};" for j in sorted(r.knows)]
        lines += [f"  {j} -> r{i};" for j in sorted(r.wants)]
    for k, a in enumerate(access_sets, start=1):
        lines += [f"  v{k} -> {j};" for j in sorted(a)]
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---- JSON files ------------------------------------------------------------

_ENCODE_STR = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(obj, indent: str = "") -> str:
    """Exactly `json.dumps(obj, indent=2)`, nested `indent` deep.

    The one writer of indented JSON: `--json` output, code files and
    instance files.  It dispatches on the exact type of each value, so a
    subclass of int or float (a numpy float64, an IntEnum) raises
    TypeError, as a numpy int64 does in `json.dumps`, and is never
    coerced.  Dict keys must be str: any other key raises TypeError.
    """
    t = type(obj)
    if t is str:
        return _ENCODE_STR(obj)
    if t is int:
        return int.__repr__(obj)
    if t is float:
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    if t is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = indent + "  "
        if all(type(v) is int for v in obj):
            items = map(int.__repr__, obj)
        else:
            items = [json_text(v, inner) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if t is dict:
        if not obj:
            return "{}"
        inner = indent + "  "
        items = [_ENCODE_STR(k) + ": " + json_text(v, inner) for k, v in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def read_json(path):
    """The JSON value in the file at `path`.  ValueError naming the line
    and column when the file is not valid JSON; OSError when it cannot
    be read."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc


def write_json(path, obj) -> None:
    """Write `obj` to the file at `path` as `json_text(obj)` and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(obj) + "\n")


def parse_instance(obj):
    """Build (Instance, AccessStructure | None) from a parsed JSON object.

    Schema: {"q": int, "m": int,
             "receivers": [{"knows": [int...], "wants": [int...]}...],
             "adversary": {"type": "t_level", "t": int}
                        | {"type": "explicit", "sets": [[int...]...]}}
    Indices are 1-based, and `Instance` refuses a bad q, m or index
    first; then an empty receiver list is refused.  The adversary field
    is optional; commands fall back to the classical structure (access
    to everything) when absent.
    """
    if not isinstance(obj, dict):
        raise ValueError("instance file must contain a JSON object")
    for key in ("q", "m", "receivers"):
        if key not in obj:
            raise ValueError(f"instance file missing required field {key!r}")
    if not isinstance(obj["receivers"], list):
        raise ValueError("'receivers' must be a list")
    receivers = []
    for pos, r in enumerate(obj["receivers"], start=1):
        if not isinstance(r, dict) or "knows" not in r or "wants" not in r:
            raise ValueError(f"receiver {pos} must be an object with 'knows' and 'wants'")
        knows = checked_ints(r["knows"], f"receiver {pos} knows")
        wants = checked_ints(r["wants"], f"receiver {pos} wants")
        receivers.append(Receiver(knows, wants))
    inst = Instance(checked_int(obj["q"], "q"), checked_int(obj["m"], "m"), tuple(receivers))
    if not receivers:
        raise ValueError("instance has no receivers")
    acc = AccessStructure.from_dict(obj["adversary"]) if "adversary" in obj else None
    return inst, acc


def instance_to_dict(inst: Instance, acc: AccessStructure | None = None) -> dict:
    obj = {
        "q": inst.q,
        "m": inst.m,
        "receivers": [
            {"knows": sorted(r.knows), "wants": sorted(r.wants)} for r in inst.receivers
        ],
    }
    if acc is not None:
        obj["adversary"] = acc.to_dict()
    return obj


def load_instance(path):
    return parse_instance(read_json(path))


def save_instance(path, inst: Instance, acc: AccessStructure | None = None) -> None:
    write_json(path, instance_to_dict(inst, acc))
