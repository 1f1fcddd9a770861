"""Command-line behaviour: exit codes, file formats, filters, round trips."""

import errno
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from secix import (
    AccessStructure,
    Instance,
    Receiver,
    analysis,
    cli,
    code_to_dict,
    instance_to_dict,
    load_code,
    normalize,
    oracle,
    save_instance,
)
from secix.cli import main
from conftest import (
    complementary_instance,
    crossed_pairs_instance,
    unwanted_key_instance,
)


def write_instance(tmp_path, inst, acc=None, name="inst.json"):
    path = tmp_path / name
    save_instance(path, inst, acc)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- analyze -------------------------------------------------------------------

def test_analyze_yes(tmp_path, capsys, keyed2):
    path = write_instance(tmp_path, keyed2, AccessStructure.explicit([[]]))
    code, out, _ = run(capsys, "analyze", "--instance", path, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["answer"] == "yes"
    assert obj["certificate"]["G"] == [[1], [1]]


def test_analyze_no_acyclic(tmp_path, capsys):
    # the keyed instance with its key message removed
    from secix import Instance, Receiver

    stripped = Instance(2, 1, (Receiver(set(), {1}),))
    path = write_instance(tmp_path, stripped, AccessStructure.explicit([[]]))
    code, out, _ = run(capsys, "analyze", "--instance", path, "--json")
    assert code == 2
    assert json.loads(out)["certificate"]["type"] == "acyclic"


def test_analyze_unknown(tmp_path, capsys, crossed2):
    path = write_instance(tmp_path, crossed2, AccessStructure.explicit([[3], [4]]))
    code, out, _ = run(capsys, "analyze", "--instance", path)
    assert code == 3
    assert "unknown" in out


def test_analyze_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run(capsys, "analyze", "--instance", str(bad))
    assert code == 1
    assert "line" in err


def test_analyze_adversary_override(tmp_path, capsys, crossed2):
    path = write_instance(tmp_path, crossed2, AccessStructure.explicit([[3], [4]]))
    code, out, _ = run(capsys, "analyze", "--instance", path, "--t-level", "0", "--json")
    assert code == 0
    assert json.loads(out)["answer"] == "yes"
    code, out, _ = run(capsys, "analyze", "--instance", path, "--access", "[[3,4]]", "--json")
    assert code == 0


def test_analyze_conflicting_overrides(tmp_path, capsys, crossed2):
    path = write_instance(tmp_path, crossed2)
    code, _, err = run(capsys, "analyze", "--instance", path,
                       "--t-level", "1", "--access", "[[1]]")
    assert code == 1 and "at most one" in err


def test_analyze_block_size(tmp_path, capsys):
    inst = complementary_instance(5, 4)
    path = write_instance(tmp_path, inst)
    code, out, _ = run(capsys, "analyze", "--instance", path,
                       "--t-level", "1", "--b", "2", "--json")
    assert code == 0
    code, _, _ = run(capsys, "analyze", "--instance", path,
                     "--t-level", "2", "--b", "2", "--json")
    assert code == 2


def test_analyze_uses_file_adversary(tmp_path, capsys):
    inst = complementary_instance(5, 4)
    path = write_instance(tmp_path, inst, AccessStructure.t_level(2))
    code, out, _ = run(capsys, "analyze", "--instance", path, "--json")
    assert code == 0
    assert json.loads(out)["answer"] == "yes"


def test_analyze_block_size_needs_t_level(tmp_path, capsys, crossed2):
    path = write_instance(tmp_path, crossed2, AccessStructure.explicit([[3, 4]]))
    code, _, err = run(capsys, "analyze", "--instance", path, "--b", "2")
    assert code == 1
    assert "t-level" in err


# receiver 1 knows nothing: the graph is acyclic and every message is wanted
OPEN_INSTANCE = {"q": 2, "m": 2, "receivers": [{"knows": [], "wants": [1]}, {"knows": [1], "wants": [2]}]}


def test_no_access_set_answers_yes_as_search_and_verify_do(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(OPEN_INSTANCE))
    code_path = str(tmp_path / "code.json")
    base = ("--instance", str(inst_path), "--access", "[]")
    code, out, _ = run(capsys, "analyze", *base, "--json")
    assert code == 0 and json.loads(out)["answer"] == "yes"
    code, _, _ = run(capsys, "construct", *base, "--code", code_path)
    assert code == 0 and load_code(code_path).length == 2
    code, out, _ = run(capsys, "verify", *base, "--code", code_path)
    assert code == 0 and out.endswith("secure: True\n")
    code, _, _ = run(capsys, "search", *base, "--length", "2")
    assert code == 0


@pytest.mark.parametrize("command", ["analyze", "construct"])
def test_empty_access_set_keeps_the_acyclic_certificate(tmp_path, capsys, command):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(OPEN_INSTANCE))
    code, out, _ = run(capsys, command, "--instance", str(inst_path), "--access", "[[]]", "--json")
    assert code == 2 and json.loads(out)["certificate"] == {"type": "acyclic"}


# ---- construct / verify ------------------------------------------------------------

def test_construct_writes_code_and_reports_length(tmp_path, capsys, crossed2):
    inst_path = write_instance(tmp_path, crossed2)
    code_path = str(tmp_path / "code.json")
    code, out, _ = run(capsys, "construct", "--instance", inst_path,
                       "--t-level", "0", "--code", code_path, "--json")
    assert code == 0
    summary = json.loads(out)
    assert summary["length"] == 3
    assert summary["min_side_info"] == 1
    assert summary["field_substituted_from"] == 2  # m=4 needs GF(5)
    stored = json.loads(open(code_path).read())
    assert stored["kind"] == "linear_det" and len(stored["G"]) == 4


def test_construct_then_verify_roundtrip(tmp_path, capsys):
    cases = [
        (unwanted_key_instance(2), AccessStructure.explicit([[]])),
        (complementary_instance(5, 4), AccessStructure.t_level(2)),
        (crossed_pairs_instance(2), AccessStructure.explicit([[3, 4]])),
    ]
    for idx, (inst, acc) in enumerate(cases):
        inst_path = write_instance(tmp_path, inst, acc, name=f"i{idx}.json")
        code_path = str(tmp_path / f"c{idx}.json")
        code, _, _ = run(capsys, "construct", "--instance", inst_path, "--code", code_path)
        assert code == 0
        code, _, _ = run(capsys, "verify", "--instance", inst_path, "--code", code_path)
        assert code == 0


def test_construct_reports_impossibility(tmp_path, capsys, crossed2):
    inst_path = write_instance(tmp_path, crossed2)
    code, out, _ = run(capsys, "construct", "--instance", inst_path, "--t-level", "1")
    assert code == 2


def test_verify_flags_leaked_message(tmp_path, capsys, crossed2):
    inst_path = write_instance(tmp_path, crossed2, AccessStructure.explicit([[3]]))
    code_path = tmp_path / "c1.json"
    code_path.write_text(json.dumps(
        {"kind": "linear_det", "q": 2, "G": [[1, 0], [1, 0], [0, 1], [0, 1]]}
    ))
    code, out, _ = run(capsys, "verify", "--instance", inst_path,
                       "--code", str(code_path), "--json")
    assert code == 2
    report = json.loads(out)
    assert report["decodable"] == [True, True, True, True]
    leaks = [p for p in report["pairs"] if not p["uniform"]]
    assert leaks and all(p["B"] == [4] for p in leaks)


def test_verify_secure_code_exits_zero(tmp_path, capsys, crossed2):
    inst_path = write_instance(tmp_path, crossed2, AccessStructure.explicit([[3, 4]]))
    code_path = tmp_path / "c1.json"
    code_path.write_text(json.dumps(
        {"kind": "linear_det", "q": 2, "G": [[1, 0], [1, 0], [0, 1], [0, 1]]}
    ))
    code, _, _ = run(capsys, "verify", "--instance", inst_path, "--code", str(code_path))
    assert code == 0


def test_verify_is_one_pass(tmp_path, capsys, monkeypatch, crossed2):
    # decodability and security come from one check_security call and one
    # state table; perfbench/selfcheck.py injects its failing job there
    inst_path = write_instance(tmp_path, crossed2, AccessStructure.t_level(1))
    code_path = tmp_path / "c1.json"
    code_path.write_text(json.dumps(
        {"kind": "linear_det", "q": 2, "G": [[1, 0], [1, 0], [0, 1], [0, 1]]}
    ))
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("check_security", "check_decodability", "_state_table"):
        monkeypatch.setattr(oracle, name, counted(name, getattr(oracle, name)))
    code, out, _ = run(capsys, "verify", "--instance", inst_path, "--code", str(code_path), "--json")
    assert code == 2
    assert calls == ["check_security", "_state_table"]
    report = json.loads(out)
    assert list(report)[-1] == "decodable" and report["decodable"] == [True] * 4


def test_verify_accepts_receiver_wanting_only_what_it_knows(tmp_path, capsys):
    # receiver 1 gets no decodability row and decodes; receiver 2 does not
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({"q": 2, "m": 2, "receivers": [
        {"knows": [1, 2], "wants": [1]}, {"knows": [], "wants": [2]}]}))
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps({"kind": "linear_det", "q": 2, "G": [[1], [1]]}))
    code, out, err = run(capsys, "verify", "--instance", str(inst_path), "--code", str(code_path),
                         "--t-level", "0")
    assert (code, err) == (2, "")
    assert out.splitlines()[:2] == ["receiver 1: decodes", "receiver 2: CANNOT DECODE"]


def test_verify_dimension_mismatch(tmp_path, capsys, crossed2):
    inst_path = write_instance(tmp_path, crossed2)
    code_path = tmp_path / "tiny.json"
    code_path.write_text(json.dumps({"kind": "linear_det", "q": 2, "G": [[1], [1]]}))
    code, _, err = run(capsys, "verify", "--instance", inst_path, "--code", str(code_path))
    assert code == 1
    assert "messages" in err


def test_verify_budget_exceeded(tmp_path, capsys, crossed2):
    inst_path = write_instance(tmp_path, crossed2, AccessStructure.explicit([[3, 4]]))
    code_path = tmp_path / "c1.json"
    code_path.write_text(json.dumps(
        {"kind": "linear_det", "q": 2, "G": [[1, 0], [1, 0], [0, 1], [0, 1]]}
    ))
    code, _, err = run(capsys, "verify", "--instance", inst_path,
                       "--code", str(code_path), "--budget", "5")
    assert code == 4
    assert "budget" in err.lower()


def test_verify_refuses_bad_block_size_before_the_state_budget(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({"q": 2, "m": 24, "receivers": [{"knows": [2], "wants": [1]}]}))
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps({"kind": "linear_det", "q": 2, "G": [[1]] * 24}))
    argv = ("verify", "--instance", str(inst_path), "--code", str(code_path))
    code, _, err = run(capsys, *argv)
    assert code == 4 and "2^24 joint states exceed" in err
    code, out, err = run(capsys, *argv, "--b", "0")
    assert_one_error_line(code, err)
    assert err == "error: block size must be >= 1, got 0\n" and out == ""


# the largest prime below gf.MAX_MODULUS: q^600 has more than 4300 decimal digits
BIG_Q = 94859939


def test_verify_budget_refusal_prints_count_as_power(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(
        {"q": BIG_Q, "m": 600, "receivers": [{"knows": [2], "wants": [1]}]}
    ))
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps({"kind": "linear_det", "q": BIG_Q, "G": [[1]] * 600}))
    code, out, err = run(capsys, "verify", "--instance", str(inst_path), "--code", str(code_path))
    assert code == 4
    assert "budget" in err and f"{BIG_Q}^600" in err and "Traceback" not in err
    assert out == ""


def test_verify_never_renders_negative_zero(tmp_path, capsys, crossed2):
    # the identity code hands every block to the eavesdropper: H = 0 everywhere
    inst_path = write_instance(tmp_path, crossed2, AccessStructure.t_level(1))
    code_path = tmp_path / "identity.json"
    code_path.write_text(json.dumps(
        {"kind": "linear_det", "q": 2, "G": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}
    ))
    code, out, _ = run(capsys, "verify", "--instance", inst_path, "--code", str(code_path), "--json")
    assert code == 2
    values = [p["H_B_given_CA_bits"] for p in json.loads(out)["pairs"]]
    assert values and all(v == 0.0 and math.copysign(1.0, v) == 1.0 for v in values)
    assert "-0.0" not in out


# ---- strict integer schema ---------------------------------------------------------------

def assert_one_error_line(code, err):
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "matrices, named",
    [
        ({"G": [[1.9], [True]]}, "G row 1"),
        ({"G": [[1], ["1"]]}, "G row 2"),
        ({"G": [[1], [3]]}, "G row 2"),
        ({"G": [[-1], [1]]}, "G row 1"),
        ({"G": [[1, 0], [1]]}, "G row 2"),
        ({"G": [[1], [1]], "Gtilde": [[0], [2]]}, "Gtilde row 2"),
        ({"G": [[1], [1]], "Gtilde": [[1], [0, 1]]}, "Gtilde row 2"),
    ],
    ids=["float-bool", "string", "entry-3", "entry-minus-1", "ragged", "gtilde-entry-2", "gtilde-ragged"],
)
def test_verify_rejects_non_integer_generator(tmp_path, capsys, keyed2, matrices, named):
    # code files are never reduced mod q or padded: a GF(2) entry of 3 or -1
    # is refused, not read as 1
    inst_path = write_instance(tmp_path, keyed2, AccessStructure.explicit([[]]))
    code_path = tmp_path / "c.json"
    kind = "linear_rand" if "Gtilde" in matrices else "linear_det"
    code_path.write_text(json.dumps({"kind": kind, "q": 2, **matrices}))
    code, _, err = run(capsys, "verify", "--instance", inst_path, "--code", str(code_path))
    assert_one_error_line(code, err)
    assert named + " " in err


@pytest.mark.parametrize(
    "field, value",
    [("q", 2.5), ("knows", [[2]]), ("knows", None), ("sets", [3])],
    ids=["float-q", "nested-knows", "null-knows", "bare-set"],
)
def test_instance_rejects_non_integer_fields(tmp_path, capsys, keyed2, field, value):
    obj = instance_to_dict(keyed2, AccessStructure.explicit([[]]))
    if field == "q":
        obj["q"] = value
    elif field == "knows":
        obj["receivers"][0]["knows"] = value
    else:
        obj["adversary"]["sets"] = value
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "analyze", "--instance", str(path))
    assert_one_error_line(code, err)


@pytest.mark.parametrize("access", ["[[1.5]]", "[[true]]"], ids=["float", "bool"])
def test_access_flag_rejects_non_integer_index(tmp_path, capsys, keyed2, access):
    inst_path = write_instance(tmp_path, keyed2)
    code, _, err = run(capsys, "analyze", "--instance", inst_path, "--access", access)
    assert_one_error_line(code, err)


# ---- size limits ---------------------------------------------------------------------------

def test_message_count_cap_refuses_before_allocating(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "q": 2, "m": 10 ** 6,
        "receivers": [{"knows": [2], "wants": [1]}],
        "adversary": {"type": "explicit", "sets": [[1]]},
    }))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, _, err = run(capsys, "analyze", "--instance", str(path))
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_one_error_line(code, err)
    assert "message count" in err
    assert elapsed < 1.0 and peak < 2 ** 20


def test_verify_refuses_states_times_pairs_before_building_states(tmp_path, capsys):
    # 2^20 states pass the state budget, but each of the C(20, 10) * 10
    # (A, B) pairs would sort all of them
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({"q": 2, "m": 20, "receivers": [{"knows": [2], "wants": [1]}]}))
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps({"kind": "linear_det", "q": 2, "G": [[1, 0, 0, 0, 1]] * 20}))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run(capsys, "verify", "--instance", str(inst_path), "--code", str(code_path),
                             "--t-level", "10")
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4
    assert "budget" in err and "2^20 joint states x 1847560 " in err and "Traceback" not in err
    assert out == ""
    assert elapsed < 1.0 and peak < 2 ** 20


def test_graph_refuses_too_many_access_sets(tmp_path, capsys):
    # C(60, 12) = 1399358844975 access sets would not fit in memory
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({"q": 2, "m": 60, "receivers": [{"knows": [2], "wants": [1]}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "graph", "--instance", str(inst_path), "--t-level", "12")
    elapsed = time.perf_counter() - start
    assert_one_error_line(code, err)
    assert "1399358844975" in err and out == ""
    assert elapsed < 1.0


# q = 4294967311 is prime, but products of its elements overflow int64
WIDE_Q = 4294967311


def write_wide_field_files(tmp_path):
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps(
        {"kind": "linear_det", "q": WIDE_Q, "G": [[1, 0], [WIDE_Q - 1, 1], [WIDE_Q - 2, 3]]}
    ))
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(
        {"q": WIDE_Q, "m": 3, "receivers": [{"knows": [1], "wants": [2, 3]}]}
    ))
    return str(code_path), str(inst_path)


def test_encode_refuses_field_beyond_int64(tmp_path, capsys, monkeypatch):
    code_path, _ = write_wide_field_files(tmp_path)
    feed_stdin(monkeypatch, "5 4294967300 4294967001\n")
    code, out, err = run(capsys, "encode", "--code", code_path)
    assert_one_error_line(code, err)
    assert out == ""


def test_decode_refuses_field_beyond_int64(tmp_path, capsys, monkeypatch):
    code_path, inst_path = write_wide_field_files(tmp_path)
    feed_stdin(monkeypatch, "636 4294966370 5\n")
    code, out, err = run(capsys, "decode", "--instance", inst_path, "--code", code_path, "--receiver", "1")
    assert_one_error_line(code, err)
    assert out == ""


# ---- encode / decode filters ----------------------------------------------------------

def feed_stdin(monkeypatch, text):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))


def test_encode_filter(tmp_path, capsys, monkeypatch):
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps(
        {"kind": "linear_det", "q": 2, "G": [[1, 0], [1, 0], [0, 1], [0, 1]]}
    ))
    feed_stdin(monkeypatch, "1 1 1 0\n0 0 0 0\n")
    code, out, _ = run(capsys, "encode", "--code", str(code_path))
    assert code == 0
    assert out.splitlines() == ["0 1", "0 0"]


def test_encode_randomized_takes_key_symbols(tmp_path, capsys, monkeypatch):
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps(
        {"kind": "linear_rand", "q": 2, "G": [[1, 0], [1, 0]], "Gtilde": [[1, 1]]}
    ))
    feed_stdin(monkeypatch, "1 0 1\n")
    code, out, _ = run(capsys, "encode", "--code", str(code_path))
    assert code == 0
    assert out.strip() == "0 1"


def test_encode_rejects_non_field_symbol(tmp_path, capsys, monkeypatch):
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps({"kind": "linear_det", "q": 2, "G": [[1], [1]]}))
    feed_stdin(monkeypatch, "1 7\n")
    code, _, err = run(capsys, "encode", "--code", str(code_path))
    assert code == 1 and "symbol" in err
    feed_stdin(monkeypatch, "1 x\n")
    code, _, err = run(capsys, "encode", "--code", str(code_path))
    assert code == 1


def test_decode_filter(tmp_path, capsys, monkeypatch, crossed2):
    inst_path = write_instance(tmp_path, crossed2)
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps(
        {"kind": "linear_det", "q": 2, "G": [[1, 0], [1, 0], [0, 1], [0, 1]]}
    ))
    # receiver 3 knows messages 2 and 4: codeword (0,1), side (1, 0) -> x3 = 1
    feed_stdin(monkeypatch, "0 1 1 0\n")
    code, out, _ = run(capsys, "decode", "--instance", inst_path,
                       "--code", str(code_path), "--receiver", "3")
    assert code == 0
    assert out.strip() == "1"


def test_decode_reports_failure(tmp_path, capsys, monkeypatch):
    from secix import Instance, Receiver

    inst = Instance(2, 2, (Receiver(set(), {1}),))
    inst_path = write_instance(tmp_path, inst)
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps({"kind": "linear_det", "q": 2, "G": [[1], [1]]}))
    feed_stdin(monkeypatch, "1\n")
    code, _, err = run(capsys, "decode", "--instance", inst_path,
                       "--code", str(code_path), "--receiver", "1")
    assert code == 2
    assert "cannot decode" in err


@pytest.mark.parametrize("code_obj, receiver, message", [
    ({"kind": "linear_rand", "q": 2, "G": [[1], [1]], "Gtilde": [[1]]}, "1",
     "decode applies to deterministic linear codes"),
    ({"kind": "linear_det", "q": 2, "G": [[1], [1]]}, "5", "receiver index 5 out of range [1, 1]"),
    ({"kind": "linear_det", "q": 2, "G": [[1], [1], [1]]}, "1", "code is for 3 messages, instance has 2"),
], ids=["keyed", "receiver", "messages"])
def test_decode_preconditions_are_one_error_line(tmp_path, capsys, monkeypatch, code_obj, receiver, message):
    inst_path = write_instance(tmp_path, Instance(2, 2, (Receiver({2}, {1}),)))
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps(code_obj))
    feed_stdin(monkeypatch, "0 0\n")
    code, out, err = run(capsys, "decode", "--instance", inst_path, "--code", str(code_path),
                         "--receiver", receiver)
    assert_one_error_line(code, err)
    assert err == f"error: {message}\n"
    assert out == ""


# c = (x1 + x2, x2 + x3) over GF(5): receiver 1 solves for x1, receiver 2 for x2 and x3
FILTER_CODE = {"kind": "linear_det", "q": 5, "G": [[1, 0], [1, 1], [0, 1]]}
FILTER_INSTANCE = {"q": 5, "m": 3, "receivers": [{"knows": [2, 3], "wants": [1]},
                                                 {"knows": [1], "wants": [2, 3]}]}
FILTER_MESSAGES = [(1, 2, 3), (4, 4, 4), (0, 1, 0), (3, 0, 2), (2, 2, 1)]


def filter_lines(receiver=None):
    """(stdin lines, expected stdout lines) of encode, or of decode for a receiver."""
    words = [((x1 + x2) % 5, (x2 + x3) % 5) for x1, x2, x3 in FILTER_MESSAGES]
    if receiver is None:
        rows = [(list(x), list(w)) for x, w in zip(FILTER_MESSAGES, words)]
    elif receiver == 1:
        rows = [(list(w) + [x[1], x[2]], [x[0]]) for x, w in zip(FILTER_MESSAGES, words)]
    else:
        rows = [(list(w) + [x[0]], [x[1], x[2]]) for x, w in zip(FILTER_MESSAGES, words)]
    return [" ".join(map(str, i)) for i, _ in rows], [" ".join(map(str, o)) for _, o in rows]


def run_filter(tmp_path, capsys, monkeypatch, lines, receiver=None):
    code_path = tmp_path / "filter.code.json"
    code_path.write_text(json.dumps(FILTER_CODE))
    feed_stdin(monkeypatch, "".join(line + "\n" for line in lines))
    if receiver is None:
        return run(capsys, "encode", "--code", str(code_path))
    inst_path = tmp_path / "filter.instance.json"
    inst_path.write_text(json.dumps(FILTER_INSTANCE))
    return run(capsys, "decode", "--instance", str(inst_path), "--code", str(code_path),
               "--receiver", str(receiver))


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("receiver", [None, 1, 2], ids=["encode", "decode1", "decode2"])
def test_filters_across_block_edges(tmp_path, capsys, monkeypatch, batch, receiver):
    monkeypatch.setattr(cli, "_LINE_BATCH", batch)
    lines, expected = filter_lines(receiver)
    # a blank line still counts as a line and as a slot in its block
    code, out, err = run_filter(tmp_path, capsys, monkeypatch, lines[:2] + [""] + lines[2:], receiver)
    assert (code, out.splitlines(), err) == (0, expected, "")


# the parent's stderr line and exit code for a bad line k
FILTER_FAILURES = {
    "encode-count": (None, "1 2", "error: stdin line {k}: expected 3 symbols (3 message + 0 key), got 2\n", 1),
    "encode-field": (None, "1 7 2", "error: stdin line {k}: symbol 7 outside GF(5)\n", 1),
    "encode-huge": (None, "1 99999999999999999999 2",
                    "error: stdin line {k}: symbol 99999999999999999999 outside GF(5)\n", 1),
    "decode-count": (2, "1 1 1 1", "error: stdin line {k}: expected 3 symbols (2 codeword + 1 side), got 4\n", 1),
    "decode-field": (1, "1 2 3 5", "error: stdin line {k}: symbol 5 outside GF(5)\n", 1),
    # x2 + x3 = 0 contradicts the side information x2 = 1, x3 = 1
    "decode-inconsistent": (1, "3 0 1 1", "receiver 1 cannot decode this code\n", 2),
}


@pytest.mark.parametrize("batch, k", [(1, 3), (2, 3), (2, 4), (3, 2), (1024, 4)],
                         ids=["batch1", "block-start", "block-end", "mid-block", "one-block"])
@pytest.mark.parametrize("failure", sorted(FILTER_FAILURES))
def test_filter_failure_prints_lines_before_it(tmp_path, capsys, monkeypatch, batch, k, failure):
    receiver, bad, message, status = FILTER_FAILURES[failure]
    monkeypatch.setattr(cli, "_LINE_BATCH", batch)
    lines, expected = filter_lines(receiver)
    # a later unparseable line must not take the report from line k
    lines = lines[: k - 1] + [bad, "x"] + lines[k - 1 :]
    code, out, err = run_filter(tmp_path, capsys, monkeypatch, lines, receiver)
    assert (code, out.splitlines(), err) == (status, expected[: k - 1], message.format(k=k))


def test_decode_empty_stdin_prints_nothing(tmp_path, capsys, monkeypatch):
    for lines in ([], ["", "  "]):
        assert run_filter(tmp_path, capsys, monkeypatch, lines, receiver=1) == (0, "", "")


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff13", "+3", "-0"],
                         ids=["underscore", "arabic-indic", "fullwidth", "plus", "minus-zero"])
@pytest.mark.parametrize("receiver", [None, 1], ids=["encode", "decode"])
def test_filters_take_only_ascii_decimal_symbols(tmp_path, capsys, monkeypatch, token, receiver):
    # int() reads each token as a symbol of GF(11)
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps({"kind": "linear_det", "q": 11, "G": [[1], [1]]}))
    inst_path = write_instance(tmp_path, Instance(11, 2, (Receiver({2}, {1}),)))
    feed_stdin(monkeypatch, f"2 1\n{token} 1\n")
    if receiver is None:
        code, out, err = run(capsys, "encode", "--code", str(code_path))
        assert out == "3\n"
    else:
        code, out, err = run(capsys, "decode", "--instance", inst_path, "--code", str(code_path),
                             "--receiver", "1")
        assert out == "1\n"
    assert_one_error_line(code, err)
    assert "stdin line 2:" in err and repr(token) in err


# ---- graph / search ----------------------------------------------------------------------

def test_graph_dot_output(tmp_path, capsys, keyed2):
    inst_path = write_instance(tmp_path, keyed2, AccessStructure.explicit([[]]))
    code, out, _ = run(capsys, "graph", "--instance", inst_path)
    assert code == 0
    assert "1 -> r1;" in out and "r1 -> 2;" in out
    dot_path = tmp_path / "g.dot"
    code, _, _ = run(capsys, "graph", "--instance", inst_path, "--dot", str(dot_path))
    assert code == 0
    assert "digraph" in dot_path.read_text()


def test_search_finds_and_misses(tmp_path, capsys, keyed2):
    inst_path = write_instance(tmp_path, keyed2, AccessStructure.explicit([[]]))
    code, out, _ = run(capsys, "search", "--instance", inst_path, "--length", "1", "--json")
    assert code == 0
    assert json.loads(out)["code"]["G"] == [[1], [1]]
    code, out, _ = run(capsys, "search", "--instance", inst_path, "--length", "0", "--json")
    assert code == 2
    assert json.loads(out) == {"found": False, "length": 0}


def test_search_code_file_like_construct(tmp_path, capsys, keyed2):
    # with --code the code goes to the file only, as construct does it
    inst_path = write_instance(tmp_path, keyed2, AccessStructure.explicit([[]]))
    code_path = tmp_path / "found.code.json"
    code, out, _ = run(capsys, "search", "--instance", inst_path, "--length", "1", "--code", str(code_path))
    assert code == 0
    assert out == f"code written to {code_path}\n"
    assert json.loads(code_path.read_text())["G"] == [[1], [1]]
    code_path.unlink()
    code, out, _ = run(capsys, "search", "--instance", inst_path, "--length", "1", "--code", str(code_path),
                       "--json")
    assert code == 0
    assert json.loads(out) == {"found": True, "length": 1}
    assert json.loads(code_path.read_text())["G"] == [[1], [1]]
    code, out, _ = run(capsys, "search", "--instance", inst_path, "--length", "1")
    assert code == 0
    assert json.loads(out)["G"] == [[1], [1]]


def test_search_budget(tmp_path, capsys, crossed2):
    inst_path = write_instance(tmp_path, crossed2, AccessStructure.explicit([[3]]))
    code, _, err = run(capsys, "search", "--instance", inst_path,
                       "--length", "2", "--budget", "3")
    assert code == 4


def test_search_budget_refusal_prints_count_as_power(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({"q": 3, "m": 4, "receivers": [{"knows": [2], "wants": [1]}]}))
    code, out, err = run(capsys, "search", "--instance", str(inst_path), "--length", "3000")
    assert code == 4
    assert "budget" in err and "3^12000" in err and "Traceback" not in err
    assert out == ""


def test_search_refuses_states_times_pairs_before_listing_pairs(tmp_path, capsys):
    # 2^20 candidates and 2^20 states pass their budgets, but every chunk
    # that decodes would sort its states for C(20, 5) * 15 (A, B) pairs
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({"q": 2, "m": 20, "receivers": [{"knows": [1, 2], "wants": [3]}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "search", "--instance", str(inst_path), "--length", "1", "--t-level", "5")
    elapsed = time.perf_counter() - start
    assert code == 4
    assert "budget" in err and "2^20 joint states x 232560 " in err and "Traceback" not in err
    assert out == ""
    assert elapsed < 1.0


# two receivers want message 4, one wants 1; every access set leaves 3 messages outside
BLOCK_CHECK_INSTANCE = {
    "q": 2, "m": 4,
    "receivers": [{"knows": [1, 2, 3], "wants": [4]}, {"knows": [1, 2, 3], "wants": [4]},
                  {"knows": [2, 3, 4], "wants": [1]}],
    "adversary": {"type": "explicit", "sets": [[2], [4]]},
}


@pytest.mark.parametrize("length", ["0", "1"])
@pytest.mark.parametrize("b", ["0", "4"])
def test_search_rejects_bad_block_size_before_scanning(tmp_path, capsys, length, b):
    # at length 0 no candidate decodes, so a check made per decodable
    # candidate would never run and the search would report found: false
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(BLOCK_CHECK_INSTANCE))
    code, out, err = run(capsys, "search", "--instance", str(inst_path),
                         "--length", length, "--b", b, "--json")
    assert_one_error_line(code, err)
    assert out == ""


def test_construct_refuses_wide_span_without_full_reduction(tmp_path, capsys):
    # the MDS code has a 700 x 699 generator: a full reduction of it takes seconds
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({
        "q": BIG_Q, "m": 700,
        "receivers": [{"knows": [1], "wants": [2]}, {"knows": [2], "wants": [1]}],
    }))
    start = time.perf_counter()
    code, out, err = run(capsys, "construct", "--instance", str(inst_path), "--t-level", "0")
    elapsed = time.perf_counter() - start
    assert code == 4
    assert "budget" in err and f"{BIG_Q}^699 vectors" in err and "Traceback" not in err
    assert out == ""
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


# ---- one parser for every call -------------------------------------------------------------

def test_back_to_back_calls_carry_no_option_over(tmp_path, capsys, crossed2):
    inst_path = write_instance(tmp_path, crossed2, AccessStructure.t_level(1))
    code_path = tmp_path / "c1.json"
    code_path.write_text(json.dumps(
        {"kind": "linear_det", "q": 2, "G": [[1, 0], [1, 0], [0, 1], [0, 1]]}
    ))
    argv = ["verify", "--instance", inst_path, "--code", str(code_path)]
    _, out, _ = run(capsys, *argv, "--b", "2", "--json")
    assert {len(p["B"]) for p in json.loads(out)["pairs"]} == {2}
    _, out, _ = run(capsys, *argv)
    assert out.startswith("receiver 1:")
    blocks = [line.split(" B=")[1].split(":")[0] for line in out.splitlines() if line.startswith("A=")]
    assert blocks and all(len(json.loads(block)) == 1 for block in blocks)


@pytest.mark.parametrize("argv", [
    ("analyze", "--budget", "5"),
    ("graph", "--b", "2"),
    ("graph", "--budget", "5"),
    ("graph", "--json"),
])
def test_unread_options_are_refused(tmp_path, capsys, keyed2, argv):
    inst_path = write_instance(tmp_path, keyed2, AccessStructure.explicit([[]]))
    code, out, err = run(capsys, argv[0], "--instance", inst_path, *argv[1:])
    assert code == 1
    assert argv[1] in err and out == ""


def test_main_calls_the_command_bound_at_call_time(tmp_path, capsys, monkeypatch, keyed2):
    import secix.cli

    inst_path = write_instance(tmp_path, keyed2, AccessStructure.explicit([[]]))
    seen = []
    monkeypatch.setattr(secix.cli, "cmd_graph", lambda args: seen.append(args.instance) or 3)
    code, _, _ = run(capsys, "graph", "--instance", inst_path)
    assert code == 3 and seen == [inst_path]


# ---- output bytes: json.dumps(obj, indent=2) and a newline -------------------------------

SUMS = [[1, 0], [1, 0], [0, 1], [0, 1]]  # [x1+x2, x3+x4]


def indented(obj):
    return json.dumps(obj, indent=2) + "\n"


@pytest.mark.parametrize("code_obj, acc, secure, has_pairs", [
    ({"kind": "linear_rand", "q": 2, "G": [row + [0] for row in SUMS], "Gtilde": [[0, 0, 1]]},
     AccessStructure.explicit([[3, 4]]), True, True),
    ({"kind": "linear_det", "q": 2, "G": SUMS}, AccessStructure.t_level(1), False, True),
    ({"kind": "linear_det", "q": 2, "G": SUMS}, AccessStructure.explicit([[1, 2, 3, 4]]), True, False),
], ids=["keyed", "leaky", "no-pairs"])
def test_verify_json_is_json_dumps_indent_2(tmp_path, capsys, crossed2, code_obj, acc, secure, has_pairs):
    inst_path = write_instance(tmp_path, crossed2, acc)
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps(code_obj))
    report = oracle.check_security(load_code(code_path), crossed2, acc)
    assert report.secure == secure and all(report.decodable) and bool(report.checks) == has_pairs
    code, out, err = run(capsys, "verify", "--instance", inst_path, "--code", str(code_path), "--json")
    assert (code, err) == (0 if secure else 2, "")
    assert out == indented(report.to_dict())


def test_search_not_found_json_is_json_dumps_indent_2(tmp_path, capsys, keyed2):
    inst_path = write_instance(tmp_path, keyed2, AccessStructure.explicit([[]]))
    code, out, _ = run(capsys, "search", "--instance", inst_path, "--length", "0", "--json")
    assert code == 2
    assert out == indented({"found": False, "length": 0})


def test_analyze_null_certificate_json_is_json_dumps_indent_2(tmp_path, capsys, crossed2):
    acc = AccessStructure.explicit([[3], [4]])
    inst_path = write_instance(tmp_path, crossed2, acc)
    verdict = analysis.decide(normalize(crossed2), acc).to_dict()
    assert verdict["certificate"] is None
    code, out, _ = run(capsys, "analyze", "--instance", inst_path, "--json")
    assert code == 3
    assert out == indented(verdict)


def test_construct_code_file_is_json_dumps_indent_2(tmp_path, capsys, crossed2):
    inst_path = write_instance(tmp_path, crossed2)
    code_path = tmp_path / "code.json"
    code, _, _ = run(capsys, "construct", "--instance", inst_path, "--t-level", "0", "--code", str(code_path))
    assert code == 0
    assert code_path.read_text() == indented(code_to_dict(load_code(code_path)))


# ---- output paths --------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("construct", "--t-level", "0", "--code"),
    ("search", "--length", "1", "--code"),
    ("search", "--length", "1", "--json", "--code"),
    ("graph", "--dot"),
], ids=["construct", "search", "search-json", "graph"])
def test_unwritable_output_path_is_one_error_line(tmp_path, capsys, keyed2, argv):
    inst_path = write_instance(tmp_path, keyed2, AccessStructure.explicit([[]]))
    out_path = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, argv[0], "--instance", inst_path, *argv[1:], str(out_path))
    assert_one_error_line(code, err)
    assert err == f"error: cannot write {out_path}: No such file or directory\n"
    assert out == ""


class FailingStdout(io.StringIO):
    """A stdout whose flushes raise `error`, and its writes too when
    `on_write`: a buffered stream meets a full device or a closed pipe
    at a write or only at the flush."""

    def __init__(self, error, on_write):
        super().__init__()
        self.error, self.on_write = error, on_write

    def write(self, text):
        if self.on_write:
            raise self.error
        return super().write(text)

    def flush(self):
        raise self.error


@pytest.mark.parametrize("on_write", [True, False], ids=["write", "flush"])
@pytest.mark.parametrize("error, err", [
    (BrokenPipeError(errno.EPIPE, "Broken pipe"), ""),
    (OSError(errno.ENOSPC, "No space left on device"), "error: cannot write stdout: No space left on device\n"),
], ids=["closed-pipe", "full-device"])
def test_failed_stdout_write_exits_1_without_traceback(tmp_path, capsys, monkeypatch, on_write, error, err):
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps({"kind": "linear_det", "q": 2, "G": [[1], [1]]}))
    feed_stdin(monkeypatch, "1 0\n" * 3)
    monkeypatch.setattr(sys, "stdout", FailingStdout(error, on_write))
    code = main(["encode", "--code", str(code_path)])
    assert code == 1
    assert capsys.readouterr().err == err


# ---- subcommand dispatch -------------------------------------------------------------------

def top_level_parse(capsys, argv):
    """Exit code, stdout and stderr of `argv` parsed by the top-level
    parser alone, as main parsed every argv before it dispatched a
    subcommand directly."""
    with pytest.raises(SystemExit) as exc:
        cli._PARSER.parse_args(argv)
    captured = capsys.readouterr()
    return cli.EXIT_USAGE if exc.value.code else cli.EXIT_OK, captured.out, captured.err


def verify_argv(tmp_path, crossed2):
    inst_path = write_instance(tmp_path, crossed2, AccessStructure.t_level(1))
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps({"kind": "linear_det", "q": 2, "G": SUMS}))
    return ["verify", "--instance", inst_path, "--code", str(code_path)]


@pytest.mark.parametrize("head, tail", [
    ([], []), (["-h"], []), (["bogus"], []), (["--"], []), (["verify", "-h"], []), (["verify"], []),
    (None, ["--bogus"]), (None, ["extra"]), (None, ["extra", "--bogus", "--json"]), (None, ["--", "x"]),
    (None, ["--b", "x"]),
], ids=repr)
def test_usage_errors_match_the_top_level_parse(tmp_path, capsys, crossed2, head, tail):
    argv = (verify_argv(tmp_path, crossed2) if head is None else head) + tail
    expected = top_level_parse(capsys, argv)
    assert run(capsys, *argv) == expected
    assert expected[0] == (cli.EXIT_OK if "-h" in argv else cli.EXIT_USAGE)
    if tail in (["--bogus"], ["extra"]):
        assert expected[2].endswith(f"secix: error: unrecognized arguments: {' '.join(tail)}\n")


@pytest.mark.parametrize("argv", [
    ["analyze", "--instance", "i.json", "--t-level", "1", "--b", "2", "--json"],
    ["construct", "--instance", "i.json", "--access", "[[1]]", "--budget", "9", "--code", "c.json"],
    ["verify", "--instance", "i.json", "--code", "c.json", "--json"],
    ["encode", "--code", "c.json"],
    ["decode", "--instance", "i.json", "--code", "c.json", "--receiver", "1"],
    ["graph", "--instance", "i.json", "--dot", "g.dot"],
    ["search", "--instance", "i.json", "--length", "2", "--b", "2"],
], ids=lambda argv: argv[0])
def test_direct_dispatch_gives_the_top_level_namespace(argv):
    assert cli._parse_args(argv) == cli._PARSER.parse_args(argv)


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch, crossed2):
    argv = verify_argv(tmp_path, crossed2)
    for args, expected in ((argv + ["--json"], run(capsys, *argv, "--json")),
                           (argv + ["--bogus"], top_level_parse(capsys, argv + ["--bogus"]))):
        monkeypatch.setattr(sys, "argv", ["secix"] + args)
        code = main(None)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected


# ---- process-level smoke test --------------------------------------------------------------

def test_console_entrypoint_runs(tmp_path, keyed2):
    inst_path = write_instance(tmp_path, keyed2, AccessStructure.explicit([[]]))
    proc = subprocess.run(
        [sys.executable, "-m", "secix.cli", "analyze", "--instance", inst_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "yes" in proc.stdout


def run_process(argv, stdout, stdin=None):
    """(exit code, stderr) of `secix argv` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-m", "secix.cli", *argv], input=stdin, stdout=stdout,
                          stderr=subprocess.PIPE, text=True)
    return proc.returncode, proc.stderr


def test_closed_stdout_pipe_exits_1_with_nothing_on_stderr(tmp_path):
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps({"kind": "linear_det", "q": 2, "G": [[1], [1]]}))
    read, write = os.pipe()
    os.close(read)
    try:
        status, err = run_process(["encode", "--code", str(code_path)], write, "1 0\n" * 200000)
    finally:
        os.close(write)
    assert (status, err) == (1, "")


def test_full_stdout_device_exits_1_with_one_error_line(tmp_path, crossed2):
    argv = ["verify", "--instance", write_instance(tmp_path, crossed2), "--code", str(tmp_path / "c.json"), "--json"]
    (tmp_path / "c.json").write_text(json.dumps(
        {"kind": "linear_det", "q": 2, "G": [[1, 0], [1, 0], [0, 1], [0, 1]]}
    ))
    with open("/dev/full", "w") as full:
        status, err = run_process(argv, full)
    assert (status, err) == (1, "error: cannot write stdout: No space left on device\n")
