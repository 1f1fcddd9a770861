"""Instance validation, normalization, access structures, the graph view,
and the integer check at every entry point."""

import itertools
import json
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import secix.model
from secix.gf import MAX_MESSAGES
from secix import (
    AccessStructure,
    FieldMatrix,
    Instance,
    LinearCode,
    Receiver,
    TableCode,
    build_graph,
    decide_t_level,
    decode,
    every_message_wanted,
    instance_to_dict,
    load_instance,
    normalize,
    parse_instance,
    save_instance,
    search_linear,
    single_access_code,
    smallest_prime_at_least,
    strip_unwanted,
    validate,
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
    inst = Instance(2, 4, (Receiver({5}, {1}),))
    assert any("index 5 out of range" in v for v in validate(inst))


def test_validate_flags_composite_field():
    inst = Instance(4, 1, (Receiver(set(), {1}),))
    assert any("prime" in v for v in validate(inst))


def test_validate_flags_sizes_beyond_the_caps():
    assert validate(Instance(2, MAX_MESSAGES, (Receiver({2}, {1}),))) == []
    too_many = Instance(2, MAX_MESSAGES + 1, (Receiver({2}, {1}),))
    assert any("message count" in v for v in validate(too_many))
    # prime, but too wide for exact int64 products; refused without a primality scan
    wide = Instance(4294967311, 2, (Receiver({2}, {1}),))
    assert any("at most" in v for v in validate(wide))


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

SUM = LinearCode(FieldMatrix(2, [[1], [1]]))  # c = x1 + x2
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
    "FieldMatrix-modulus": ("field modulus", lambda v: FieldMatrix(v, [[1]]), 2),
    "FieldMatrix-entry": ("matrix entry", lambda v: FieldMatrix(2, [[0, v]]), 1),
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
    "decide_t_level-b": ("block size", lambda v: decide_t_level(ONE, 0, b=v), 1),
    "search_linear-length": ("code length", lambda v: search_linear(ONE, AccessStructure.t_level(0), v), 1),
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


# ---- graph view ------------------------------------------------------------------

def test_graph_arcs_for_keyed_instance(keyed2):
    g = build_graph(keyed2, AccessStructure.explicit([[]]))
    assert ("1", "r1") in g.arcs
    assert ("r1", "2") in g.arcs
    assert len(g.access_sets) == 1
    assert not any(u == "v1" for u, _ in g.arcs)  # empty access set: no out-arcs


def test_graph_arcs_for_crossed_instance(crossed2):
    g = build_graph(crossed2, AccessStructure.explicit([[3, 4]]))
    assert ("r3", "2") in g.arcs and ("r3", "4") in g.arcs
    assert ("3", "r3") in g.arcs
    assert ("v1", "3") in g.arcs and ("v1", "4") in g.arcs


def test_graph_arc_counts(crossed2):
    acc = AccessStructure.t_level(1)
    g = build_graph(crossed2, acc)
    know_total = sum(len(r.knows) for r in crossed2.receivers)
    want_total = sum(len(r.wants) for r in crossed2.receivers)
    access_total = sum(len(a) for a in acc.expand(crossed2.m))
    r_to_m = sum(1 for u, v in g.arcs if u.startswith("r"))
    m_to_r = sum(1 for u, v in g.arcs if v.startswith("r"))
    v_to_m = sum(1 for u, v in g.arcs if u.startswith("v"))
    assert (r_to_m, m_to_r, v_to_m) == (know_total, want_total, access_total)


def test_acyclic_examples(keyed2, crossed2):
    assert build_graph(keyed2, AccessStructure.explicit([[]])).is_acyclic()
    two_cycle = Instance(2, 2, (Receiver({2}, {1}), Receiver({1}, {2})))
    assert not build_graph(two_cycle, AccessStructure.explicit([[]])).is_acyclic()
    assert not build_graph(crossed2, AccessStructure.explicit([[3]])).is_acyclic()
    lonely = Instance(2, 1, (Receiver(set(), {1}),))
    lonely_graph = build_graph(lonely, AccessStructure.explicit([[]]))
    assert lonely_graph.is_acyclic()
    assert not any(u == "r1" for u, _ in lonely_graph.arcs)  # knows nothing


def test_acyclic_matches_networkx_on_random_instances():
    rng = random.Random(20240)
    for _ in range(60):
        m = rng.randint(1, 4)
        q = 2
        inst = random_instance(rng, max(m, 2), q)
        g = build_graph(inst, AccessStructure.t_level(rng.randint(0, inst.m - 1)))
        dg = nx.DiGraph()
        dg.add_nodes_from([str(j) for j in range(1, inst.m + 1)])
        dg.add_nodes_from([f"r{i}" for i in range(1, inst.n + 1)])
        dg.add_edges_from((u, v) for u, v in g.arcs if not u.startswith("v"))
        assert g.is_acyclic() == nx.is_directed_acyclic_graph(dg)


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


def test_dot_export(keyed2):
    dot = build_graph(keyed2, AccessStructure.explicit([[]])).to_dot()
    assert dot.startswith("digraph")
    assert "1 -> r1;" in dot
    assert "r1 -> 2;" in dot
    assert "v1;" in dot


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
