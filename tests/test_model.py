"""Instance validation, normalization, access structures, the graph view,
and the integer check at every entry point."""

import dataclasses
import itertools
import json
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import secix.model
from secix.gf import MAX_MESSAGES, MAX_MODULUS
from secix import (
    AccessStructure,
    Decoder,
    Instance,
    LinearCode,
    Receiver,
    TableCode,
    check_decodability,
    check_security,
    construct_mds_code,
    decide,
    decode,
    derandomize,
    every_message_wanted,
    instance_to_dict,
    is_acyclic,
    length_bounds,
    load_instance,
    min_side_info,
    normalize,
    parse_instance,
    save_instance,
    search_linear,
    security_level,
    single_access_code,
    smallest_prime_at_least,
    strip_unwanted,
    to_dot,
    validate,
    vandermonde,
)
from conftest import random_instance, unwanted_key_instance


# ---- validate / normalize ----------------------------------------------------

def test_validate_accepts_crossed_instance(crossed2):
    assert validate(crossed2) == []


def test_validate_flags_expungeable_receiver():
    # a receiver that wants nothing it lacks is well formed: normalize
    # drops it, and require_normalized refuses an instance that keeps it
    inst = Instance(2, 2, (Receiver({1}, {1}), Receiver(set(), set()), Receiver({2}, {1})))
    assert validate(inst) == []
    assert normalize(inst).receivers == (Receiver({2}, {1}),)


def test_validate_flags_out_of_range_index():
    # the constructor applies validate's rules and raises their texts
    with pytest.raises(ValueError) as info:
        Instance(2, 4, (Receiver({5}, {1}),))
    assert str(info.value) == "receiver 1: knows index 5 out of range [1, 4]"


def test_validate_flags_composite_field():
    # the field is judged by gf.checked_modulus, in its words
    with pytest.raises(ValueError) as info:
        Instance(4, 1, (Receiver(set(), {1}),))
    assert str(info.value) == "field modulus must be prime, got 4"


def test_validate_flags_sizes_beyond_the_caps():
    assert validate(Instance(2, MAX_MESSAGES, (Receiver({2}, {1}),))) == []
    for m in (0, MAX_MESSAGES + 1):
        with pytest.raises(ValueError) as info:
            Instance(2, m, ())
        assert str(info.value) == f"message count must be in [1, {MAX_MESSAGES}], got {m}"
    # prime, but too wide for exact int64 products; refused without a primality scan
    with pytest.raises(ValueError) as info:
        Instance(4294967311, 2, (Receiver({2}, {1}),))
    assert str(info.value) == (
        f"field modulus 4294967311 exceeds {MAX_MODULUS}, the largest with exact int64 arithmetic"
    )


def test_normalize_drops_satisfied_receiver():
    inst = Instance(2, 2, (Receiver({1, 2}, {1}), Receiver({2}, {1})))
    result = normalize(inst)
    assert result.n == 1
    assert result.receivers[0].knows == frozenset({2})


def test_normalize_keeps_unwanted_message(keyed2):
    assert normalize(keyed2) == keyed2
    assert keyed2.m == 2  # message 2 stays even though nobody wants it


def instances(max_m=5):
    @st.composite
    def build(draw):
        m = draw(st.integers(1, max_m))
        q = draw(st.sampled_from([2, 3, 5]))
        n = draw(st.integers(1, 4))
        recs = []
        for _ in range(n):
            knows = draw(st.frozensets(st.integers(1, m), max_size=m))
            wants = draw(st.frozensets(st.integers(1, m), max_size=m))
            recs.append(Receiver(knows, wants))
        return Instance(q, m, tuple(recs))

    return build()


@given(instances())
@settings(max_examples=80)
def test_normalize_idempotent(inst):
    once = normalize(inst)
    assert normalize(once) == once
    assert once.q == inst.q and once.m == inst.m


# ---- access structures ---------------------------------------------------------

def test_t_level_expansion_counts_and_order():
    acc = AccessStructure.t_level(1)
    assert acc.expand(3) == [frozenset({1}), frozenset({2}), frozenset({3})]
    assert AccessStructure.t_level(0).expand(3) == [frozenset()]
    for m in range(2, 6):
        for t in range(m):
            sets = AccessStructure.t_level(t).expand(m)
            assert len(sets) == len(list(itertools.combinations(range(m), t)))
            assert all(len(a) == t for a in sets)


def test_expand_refuses_more_t_level_sets_than_the_cap(monkeypatch):
    monkeypatch.setattr(secix.model, "MAX_ACCESS_SETS", 6)
    assert len(AccessStructure.t_level(2).expand(4)) == 6
    with pytest.raises(ValueError, match="10 access sets"):
        AccessStructure.t_level(2).expand(5)
    # explicit sets are already listed and pass through
    assert len(AccessStructure.explicit([[j] for j in range(1, 8)]).expand(7)) == 7


def test_explicit_deduplicates():
    acc = AccessStructure.explicit([[3, 4], [4, 3]])
    assert acc.expand(4) == [frozenset({3, 4})]


def test_t_level_out_of_range():
    with pytest.raises(ValueError):
        AccessStructure.t_level(3).expand(3)
    with pytest.raises(ValueError):
        AccessStructure.t_level(-1)


def test_explicit_out_of_range_index():
    with pytest.raises(ValueError):
        AccessStructure.explicit([[5]]).expand(4)


def test_max_size_symbolic():
    assert AccessStructure.t_level(2).max_size(4) == 2
    assert AccessStructure.explicit([[3, 4], [1]]).max_size(4) == 2
    assert AccessStructure.explicit([[]]).max_size(4) == 0


# ---- every entry point takes integers only ---------------------------------------

# values int() would silently read as 1 or 2
NOT_INTEGERS = [1.5, 2.0, "1", True, np.float64(1.0)]

SUM = LinearCode(2, [[1], [1]])  # c = x1 + x2
ONE = Instance(2, 2, (Receiver({2}, {1}),))


def parity_table(value=0):
    return {((0,), 0): (value,), ((1,), 0): (1,)}


# (what the refusal names, the call with v in the checked place, a valid v)
ENTRY_POINTS = {
    "Receiver-knows": ("receiver knows entry", lambda v: Receiver({v}, {2}), 1),
    "Receiver-wants": ("receiver wants entry", lambda v: Receiver({1}, [2, v]), 2),
    "Instance-q": ("field size q", lambda v: Instance(v, 3, ()), 2),
    "Instance-m": ("message count m", lambda v: Instance(2, v, ()), 3),
    "explicit": ("access set entry", lambda v: AccessStructure.explicit([np.array([1]), [v]]), 2),
    "t_level": ("access level t", AccessStructure.t_level, 1),
    "LinearCode-modulus": ("field modulus", lambda v: LinearCode(v, [[1]]), 2),
    "LinearCode-entry": ("matrix entry", lambda v: LinearCode(2, [[0, v]]).matrix.tolist(), 1),
    "TableCode-q": ("field size q", lambda v: TableCode(v, 1, 1, 1, parity_table()), 2),
    "TableCode-m": ("message count m", lambda v: TableCode(2, v, 1, 1, parity_table()), 1),
    "TableCode-length": ("code length", lambda v: TableCode(2, 1, v, 1, parity_table()), 1),
    "TableCode-keys": ("key count", lambda v: TableCode(2, 1, 1, v, parity_table()), 1),
    "TableCode-value": ("table value entry", lambda v: TableCode(2, 1, 1, 1, parity_table(v)), 1),
    "TableCode-encode": ("message vector entry", lambda v: TableCode(2, 1, 1, 1, parity_table()).encode([v]), 1),
    "TableCode-key": ("key", lambda v: TableCode(2, 1, 1, 1, parity_table()).encode([1], v), 0),
    "single_access_code": ("access set entry", lambda v: single_access_code(ONE, [v]), 1),
    "smallest_prime_at_least": ("lower bound n", smallest_prime_at_least, 2),
    "LinearCode-encode": ("message vector entry", lambda v: SUM.encode([0, v]), 1),
    "decode-codeword": ("codeword entry", lambda v: decode(SUM, ONE, 1, [v], [0]), 1),
    "decode-side": ("side information entry", lambda v: decode(SUM, ONE, 1, [0], [v]), 1),
    "decode-receiver": ("receiver index", lambda v: decode(SUM, ONE, v, [0], [0]), 1),
    "decide-b": ("block size", lambda v: decide(ONE, AccessStructure.t_level(0), b=v), 1),
    "check_security-b": ("block size", lambda v: check_security(SUM, ONE, AccessStructure.t_level(0), b=v), 1),
    "search_linear-b": ("block size", lambda v: search_linear(ONE, AccessStructure.t_level(0), 1, b=v), 1),
    "search_linear-length": ("code length", lambda v: search_linear(ONE, AccessStructure.t_level(0), v), 1),
    "check_security-budget": ("budget", lambda v: check_security(SUM, ONE, AccessStructure.t_level(0), budget=v), 9),
    "search_linear-budget": ("budget", lambda v: search_linear(ONE, AccessStructure.t_level(0), 1, budget=v), 9),
    "security_level-budget": ("budget", lambda v: security_level(SUM, budget=v), 9),
    "vandermonde-rows": ("row count", lambda v: vandermonde(v, 1, 3), 2),
    "vandermonde-cols": ("column count", lambda v: vandermonde(3, v, 3), 2),
}


@pytest.mark.parametrize("what, call, good", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_entry_points_refuse_non_integers(what, call, good):
    for bad in NOT_INTEGERS:
        with pytest.raises(ValueError) as info:
            call(bad)
        assert str(info.value) == f"{what} must be an integer, got {bad!r}"
    # numpy integers are integers: read as the same plain int
    for make in (np.int64, np.int32, np.uint8):
        assert repr(call(make(good))) == repr(call(good))


BUDGET_TAKERS = {
    "check_security": lambda v: check_security(SUM, ONE, AccessStructure.t_level(0), budget=v),
    "check_decodability": lambda v: check_decodability(SUM, ONE, budget=v),
    "security_level": lambda v: security_level(SUM, budget=v),
    "search_linear": lambda v: search_linear(ONE, AccessStructure.t_level(0), 1, budget=v),
}


@pytest.mark.parametrize("call", BUDGET_TAKERS.values(), ids=BUDGET_TAKERS.keys())
def test_entry_points_refuse_negative_budgets(call):
    # refused as a usage error, in the CLI's words, never read as a budget
    # that every count exceeds
    with pytest.raises(ValueError) as info:
        call(-1)
    assert str(info.value) == "budget must be >= 0, got -1"
    call(2 ** 10)


def test_instance_refuses_receivers_of_another_type():
    # a receiver as a dict or a tuple has no frozenset fields to check: it is
    # named, not read through into an AttributeError
    for receiver, kind in [({"knows": [1], "wants": [2]}, "dict"), (([1], [2]), "tuple")]:
        with pytest.raises(ValueError) as info:
            Instance(2, 2, [Receiver([2], [1]), receiver])
        assert str(info.value) == f"receiver 2: must be a Receiver, got {kind}"
        with pytest.raises(ValueError) as info:
            Instance(2, 2, [receiver])
        assert str(info.value) == f"receiver 1: must be a Receiver, got {kind}"


def test_instance_is_valid_by_construction():
    # index -1 would read as message m and index 0 would be dropped; an index
    # past m would fall off the listing pass, and strip_unwanted and to_dot
    # would misread both: no verdict path or helper is handed either instance
    wrapped = (Receiver([-1], [1]), Receiver([0, 2], [3]))
    past_m = (Receiver([2], [1]), Receiver([1], [2, 4]))
    for receivers, text in [
        (wrapped, "receiver 1: knows index -1 out of range [1, 3]; receiver 2: knows index 0 out of range [1, 3]"),
        (past_m, "receiver 2: wants index 4 out of range [1, 3]"),
    ]:
        with pytest.raises(ValueError) as info:
            Instance(2, 3, receivers)
        assert str(info.value) == text
    # every violation at once, in validate's order: m, q, then each index
    with pytest.raises(ValueError) as info:
        Instance(4, 0, (Receiver([1], [2]),))
    assert str(info.value) == (
        f"message count must be in [1, {MAX_MESSAGES}], got 0; field modulus must be prime, got 4; "
        "receiver 1: knows index 1 out of range [1, 0]; receiver 1: wants index 2 out of range [1, 0]"
    )
    # having no receivers is allowed; the verdict paths refuse it
    empty = Instance(2, 3, ())
    assert validate(empty) == []
    with pytest.raises(ValueError, match=r"^analysis needs at least one receiver$"):
        min_side_info(empty)


# index -1 would read as message m and index 0 would vanish from a row bitmask,
# and an index past m would fall off the end of the listing pass
WRAPPED = ((Receiver([-1], [1]), Receiver([0, 2], [3])),
           "receiver 1: knows index -1 out of range [1, 3]; receiver 2: knows index 0 out of range [1, 3]")
PAST_M = ((Receiver([2], [1]), Receiver([1], [2, 4])), "receiver 2: wants index 4 out of range [1, 3]")
GOOD3 = Instance(2, 3, (Receiver([2, 3], [1]), Receiver([1, 2], [3])))
G3 = LinearCode(2, [[1], [0], [1]])  # c = x1 + x3
KEYED3 = LinearCode(2, [[1, 0], [0, 0], [1, 1]], [[0, 1]])  # [x1 + x3 + k, x3 + k]
T0 = AccessStructure.t_level(0)

INDEX_CHECKS = {
    "check_security": lambda inst: check_security(G3, inst, T0),
    "check_decodability": lambda inst: check_decodability(G3, inst),
    "Decoder": lambda inst: Decoder(G3, inst, 1).decodable,
    "derandomize": lambda inst: derandomize(KEYED3, inst),
    "decide-t_level": lambda inst: decide(inst, T0),
    "decide-explicit": lambda inst: decide(inst, AccessStructure.explicit([[1]])),
    "length_bounds": lambda inst: length_bounds(inst, T0),
    "search_linear": lambda inst: search_linear(inst, T0, 1),
    "construct_mds_code": construct_mds_code,
    "single_access_code": lambda inst: single_access_code(inst, [1]),
}


@pytest.mark.parametrize("call", INDEX_CHECKS.values(), ids=INDEX_CHECKS.keys())
def test_verdict_paths_refuse_out_of_range_indices(call):
    # the path answers on a valid instance over the same messages
    call(GOOD3)
    # and no out-of-range index reaches it: the instance it would be handed,
    # built directly or as a copy of a valid one, is refused with validate's text
    for receivers, text in (WRAPPED, PAST_M):
        for build in (lambda: Instance(2, 3, receivers),
                      lambda: dataclasses.replace(GOOD3, receivers=receivers)):
            with pytest.raises(ValueError) as info:
                call(build())
            assert str(info.value) == text


# ---- graph view ------------------------------------------------------------------

def dot_vertices(dot):
    return [line.strip().rstrip(";") for line in dot.splitlines()[1:-1] if " -> " not in line]


def dot_arcs(dot):
    """(tail, head) of every arc line of DOT text."""
    return [tuple(line.strip().rstrip(";").split(" -> ")) for line in dot.splitlines() if " -> " in line]


def test_graph_arcs_for_keyed_instance(keyed2):
    dot = to_dot(keyed2, AccessStructure.explicit([[]]))
    arcs = dot_arcs(dot)
    assert ("1", "r1") in arcs
    assert ("r1", "2") in arcs
    assert [v for v in dot_vertices(dot) if v.startswith("v")] == ["v1"]
    assert not any(u == "v1" for u, _ in arcs)  # empty access set: no out-arcs


def test_graph_arcs_for_crossed_instance(crossed2):
    arcs = dot_arcs(to_dot(crossed2, AccessStructure.explicit([[3, 4]])))
    assert ("r3", "2") in arcs and ("r3", "4") in arcs
    assert ("3", "r3") in arcs
    assert ("v1", "3") in arcs and ("v1", "4") in arcs


def test_graph_arc_counts(crossed2):
    # the t = 1 access sets, listed: one vertex per set and one arc per
    # message in it; as a t-level adversary, one vertex and no arcs
    acc = AccessStructure.explicit(AccessStructure.t_level(1).expand(crossed2.m))
    arcs = dot_arcs(to_dot(crossed2, acc))
    know_total = sum(len(r.knows) for r in crossed2.receivers)
    want_total = sum(len(r.wants) for r in crossed2.receivers)
    access_total = sum(len(a) for a in acc.expand(crossed2.m))
    r_to_m = sum(1 for u, v in arcs if u.startswith("r"))
    m_to_r = sum(1 for u, v in arcs if v.startswith("r"))
    v_to_m = sum(1 for u, v in arcs if u.startswith("v"))
    assert (r_to_m, m_to_r, v_to_m) == (know_total, want_total, access_total)
    t_level = to_dot(crossed2, AccessStructure.t_level(1))
    assert [v for v in dot_vertices(t_level) if v.startswith("v")] == ['v1 [label="t = 1"]']
    assert dot_arcs(t_level) == [arc for arc in arcs if not arc[0].startswith("v")]


def test_acyclic_examples(keyed2, crossed2):
    assert is_acyclic(keyed2)
    two_cycle = Instance(2, 2, (Receiver({2}, {1}), Receiver({1}, {2})))
    assert not is_acyclic(two_cycle)
    assert not is_acyclic(crossed2)
    lonely = Instance(2, 1, (Receiver(set(), {1}),))
    assert is_acyclic(lonely)
    assert not any(u == "r1" for u, _ in dot_arcs(to_dot(lonely, AccessStructure.explicit([[]]))))  # knows nothing


def test_acyclic_matches_networkx_on_random_instances():
    rng = random.Random(20240)
    answers = []
    for _ in range(60):
        m = rng.randint(1, 4)
        inst = random_instance(rng, max(m, 2), 2)
        # built from knows/wants alone: arc r -> j when r knows j, j -> r when r wants j
        dg = nx.DiGraph()
        dg.add_nodes_from(("message", j) for j in inst.messages())
        for i, r in enumerate(inst.receivers, start=1):
            dg.add_node(("receiver", i))
            dg.add_edges_from((("receiver", i), ("message", j)) for j in r.knows)
            dg.add_edges_from((("message", j), ("receiver", i)) for j in r.wants)
        answers.append(nx.is_directed_acyclic_graph(dg))
        assert is_acyclic(inst) == answers[-1]
    assert 0 < sum(answers) < len(answers)


def test_every_message_wanted(keyed2, crossed2):
    assert not every_message_wanted(keyed2)
    assert every_message_wanted(crossed2)
    assert every_message_wanted(Instance(2, 1, (Receiver(set(), {1}),)))


def test_strip_unwanted_remaps(keyed2):
    stripped, acc = strip_unwanted(keyed2, AccessStructure.explicit([[]]))
    assert stripped.m == 1
    assert stripped.receivers[0] == Receiver(frozenset(), frozenset({1}))
    assert acc.expand(1) == [frozenset()]


def test_strip_unwanted_without_access(crossed2):
    assert strip_unwanted(crossed2) == crossed2  # everything is wanted


def test_strip_unwanted_range_checks_explicit_sets():
    # indices outside [1, m] are refused, as decide and to_dot refuse them,
    # never dropped while the sets are remapped
    inst = Instance(2, 3, (Receiver([2], [1]), Receiver([1], [2])))
    with pytest.raises(ValueError, match=r"^access set index 5 out of range \[1, 3\]$"):
        strip_unwanted(inst, AccessStructure.explicit([[5], [0, 3], [-1]]))
    with pytest.raises(ValueError, match=r"^access set index 0 out of range \[1, 3\]$"):
        to_dot(inst, AccessStructure.explicit([[0, 3]]))
    # message 3, wanted by no one, leaves every set it was in
    assert strip_unwanted(inst, AccessStructure.explicit([[3], [1, 3]]))[1] == AccessStructure.explicit([[], [1]])
    # with no message wanted, nothing is left to be an instance
    with pytest.raises(ValueError, match=r"^message count must be in \[1, 1024\], got 0$"):
        strip_unwanted(Instance(2, 2, (Receiver([1], []),)))


def test_dot_export(keyed2):
    dot = to_dot(keyed2, AccessStructure.explicit([[]]))
    assert dot.startswith("digraph")
    assert ("1", "r1") in dot_arcs(dot)
    assert ("r1", "2") in dot_arcs(dot)
    assert "v1" in dot_vertices(dot)


# ---- JSON ------------------------------------------------------------------------

def test_instance_json_roundtrip(tmp_path, crossed2):
    acc = AccessStructure.explicit([[3, 4]])
    path = tmp_path / "inst.json"
    save_instance(path, crossed2, acc)
    loaded, loaded_acc = load_instance(path)
    assert loaded == crossed2
    assert loaded_acc == acc


def test_instance_json_t_level_roundtrip(crossed2):
    obj = instance_to_dict(crossed2, AccessStructure.t_level(1))
    inst, acc = parse_instance(json.loads(json.dumps(obj)))
    assert inst == crossed2
    assert acc == AccessStructure.t_level(1)


def test_instance_json_without_adversary(crossed2):
    inst, acc = parse_instance(instance_to_dict(crossed2))
    assert inst == crossed2
    assert acc is None


def test_parse_instance_errors():
    with pytest.raises(ValueError):
        parse_instance([1, 2])
    with pytest.raises(ValueError):
        parse_instance({"q": 2, "m": 2})
    with pytest.raises(ValueError):
        parse_instance({"q": 2, "m": 2, "receivers": [{"knows": [1]}]})
    with pytest.raises(ValueError):
        parse_instance(
            {"q": 2, "m": 2, "receivers": [], "adversary": {"type": "mystery"}}
        )


def test_load_instance_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="line"):
        load_instance(path)


# ---- the indented-JSON writer -------------------------------------------------------

JSON_SCALARS = (
    st.integers()  # unbounded: past 64 bits and negative
    | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1.5e300, float("nan"), float("inf"), float("-inf")])
    | st.booleans()
    | st.none()
    | st.text()  # any code point, astral ones included
    | st.text(alphabet=st.sampled_from('"\\/\x00\x08\t\n\x0c\r\x1f\x7fé \U0001f600'))
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(st.integers(), max_size=4)  # the all-int join
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_json_text_is_json_dumps_indent_2(value):
    assert secix.model.json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {}, [], (), {"a": []}, {"a": {}}, [[], {}, [[]]], {"k": [1, True, 2]}, [2 ** 64, -(2 ** 70)], -0.0,
    "\ud800",
], ids=repr)
def test_json_text_edge_values(value):
    assert secix.model.json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    np.int64(3), [1, np.int64(3)], {"a": np.int64(3)}, {1, 2}, b"x",
], ids=repr)
def test_json_text_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as raised:
        secix.model.json_text(value)
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("value", [{"H": np.float64(1.0)}, {1: "x"}, {None: 0}, {(1, 2): 3}], ids=repr)
def test_json_text_never_coerces(value):
    # json.dumps takes a np.float64 (a float subclass) and turns int and
    # None keys into strings; the writer refuses them
    with pytest.raises(TypeError):
        secix.model.json_text(value)


def test_instance_file_is_json_dumps_indent_2(tmp_path, crossed2):
    acc = AccessStructure.explicit([[3, 4]])
    path = tmp_path / "inst.json"
    save_instance(path, crossed2, acc)
    assert path.read_text() == json.dumps(instance_to_dict(crossed2, acc), indent=2) + "\n"
