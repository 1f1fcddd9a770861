"""Command-line behaviour: exit codes, file formats, filters, round trips."""

import argparse
import contextlib
import copy
import errno
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

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
    parse_code,
    parse_instance,
    save_instance,
)
from secix.cli import main
from conftest import (
    complementary_instance,
    crossed_pairs_instance,
    known_want_instance,
    table_copy,
    unwanted_key_instance,
)
import reference_decode
import reference_read_json
import reference_symbols


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


@pytest.mark.parametrize("name", sorted(set(reference_read_json.NAMES) - {"crlf"}))
def test_unreadable_files_are_one_line_as_the_text_reader_names_them(tmp_path, capsys, crossed2, name):
    path = str(reference_read_json.make(tmp_path, name))
    with pytest.raises((OSError, ValueError)) as raised:
        reference_read_json.read_json(path)
    assert run(capsys, "analyze", "--instance", path) == (1, "", f"error: cannot read instance: {raised.value}\n")
    argv = verify_argv(tmp_path, crossed2)[:-1] + [path]  # the file as the code
    assert run(capsys, *argv) == (1, "", f"error: cannot read code: {raised.value}\n")


@pytest.mark.parametrize("receivers, reason", [
    ([{"knows": [5], "wants": [1]}], "receiver 1: knows index 5 out of range [1, 2]"),
    ([], "instance has no receivers"),
], ids=["index", "no-receivers"])
def test_invalid_instance_is_one_exact_line(tmp_path, capsys, receivers, reason):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"q": 2, "m": 2, "receivers": receivers}))
    code, out, err = run(capsys, "analyze", "--instance", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: cannot read instance: {reason}\n"


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


def test_single_access_with_known_wants_exits_0(tmp_path, capsys):
    # receiver 1 wants x1, sent in the clear, and x3, which it knows
    path = write_instance(tmp_path, known_want_instance())
    code_path = str(tmp_path / "c.json")
    code, _, err = run(capsys, "analyze", "--instance", path, "--access", "[[1]]")
    assert (code, err) == (0, "")
    code, _, err = run(capsys, "construct", "--instance", path, "--access", "[[1]]", "--code", code_path)
    assert (code, err) == (0, "")
    assert load_code(code_path).generator.tolist() == [[1, 0], [0, 1], [0, 1]]
    code, out, _ = run(capsys, "verify", "--instance", path, "--code", code_path, "--access", "[[1]]")
    assert code == 0 and out.endswith("secure: True\n")


def test_analyze_block_size_needs_t_level(tmp_path, capsys, crossed2):
    path = write_instance(tmp_path, crossed2, AccessStructure.explicit([[3, 4]]))
    code, _, err = run(capsys, "analyze", "--instance", path, "--b", "2")
    assert code == 1
    assert "t-level" in err


def test_explicit_block_size_refusal_is_one_exact_line(tmp_path, capsys, crossed2):
    path = write_instance(tmp_path, crossed2)
    code, out, err = run(capsys, "analyze", "--instance", path, "--access", "[[1]]", "--b", "2")
    assert_one_error_line(code, err)
    assert err == "error: block sizes b > 1 are supported for t-level adversaries only\n" and out == ""


@pytest.mark.parametrize("command", ["analyze", "construct"])
@pytest.mark.parametrize("b", ["0", "-3"])
@pytest.mark.parametrize("source", ["file", "--access"])
def test_bad_block_size_is_named_for_any_adversary(tmp_path, capsys, crossed2, command, b, source):
    # the block size is checked before the adversary kind, as t-level runs
    # and search do, so an explicit adversary does not blame b > 1
    path = write_instance(tmp_path, crossed2, AccessStructure.explicit([[3, 4]]))
    flags = ["--access", "[[3]]"] if source == "--access" else []
    code, out, err = run(capsys, command, "--instance", path, *flags, "--b", b)
    assert_one_error_line(code, err)
    assert err == f"error: block size must be >= 1, got {b}\n" and out == ""


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
    stored = json.loads((tmp_path / "code.json").read_text())
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


def counted_calls(monkeypatch, module, names):
    """The names of module's functions among `names`, in call order."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_verify_is_one_pass(tmp_path, capsys, monkeypatch, crossed2):
    # decodability and security come from one check_security call and one
    # state table; perfbench/selfcheck.py injects its failing job there.
    # A table code is enumerated, so the code file is served as one.
    inst_path = write_instance(tmp_path, crossed2, AccessStructure.t_level(1))
    code_path = tmp_path / "c1.json"
    code_path.write_text(json.dumps(
        {"kind": "linear_det", "q": 2, "G": [[1, 0], [1, 0], [0, 1], [0, 1]]}
    ))
    load = cli._load_code
    monkeypatch.setattr(cli, "_load_code", lambda args: table_copy(load(args)))
    calls = counted_calls(monkeypatch, oracle, ("check_security", "check_decodability", "_state_table"))
    code, out, _ = run(capsys, "verify", "--instance", inst_path, "--code", str(code_path), "--json")
    assert code == 2
    assert calls == ["check_security", "_state_table"]
    report = json.loads(out)
    assert list(report)[-1] == "decodable" and report["decodable"] == [True] * 4


def verify_in_one_stack(tmp_path, capsys, monkeypatch, q):
    """The oracle calls of `verify --json` on a code of two disjoint sums
    over GF(q), and its report: 4 receiver and 12 pair checks, ranks of
    at most 32 row subsets."""
    inst_path = write_instance(tmp_path, crossed_pairs_instance(q), AccessStructure.t_level(1))
    code_path = tmp_path / "c1.json"
    code_path.write_text(json.dumps(
        {"kind": "linear_det", "q": q, "G": [[1, 0], [1, 0], [0, 1], [0, 1]]}
    ))
    calls = counted_calls(monkeypatch, oracle,
                          ("check_security", "check_decodability", "_state_table", "stack_rank", "word_rank"))
    code, out, _ = run(capsys, "verify", "--instance", inst_path, "--code", str(code_path), "--json")
    assert code == 2
    report = json.loads(out)
    assert report["decodable"] == [True] * 4 and len(report["pairs"]) == 12 and not report["secure"]
    return calls


def test_verify_ranks_a_linear_code_in_one_stack(tmp_path, capsys, monkeypatch):
    # a linear code builds no state table: over GF(2) its checks take one
    # call of the word kernel
    assert verify_in_one_stack(tmp_path, capsys, monkeypatch, 2) == ["check_security", "word_rank"]


def test_verify_ranks_a_gf3_code_in_one_stack(tmp_path, capsys, monkeypatch):
    # over any other field they take one stack_rank call
    assert verify_in_one_stack(tmp_path, capsys, monkeypatch, 3) == ["check_security", "stack_rank"]


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


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_verify_takes_a_block_size_past_the_float_range_without_pairs(tmp_path, capsys, json_flag):
    # no adversary in the file: the classical fallback lists no pair, so a
    # b of 401 digits enters no float, and verify answers as at --b 2 but
    # for block_size
    inst_path, code_path = tmp_path / "inst.json", tmp_path / "c.json"
    inst_path.write_text(json.dumps({"q": 2, "m": 3, "receivers": [
        {"knows": [j for j in (1, 2, 3) if j != i], "wants": [i]} for i in (1, 2, 3)]}))
    code_path.write_text(json.dumps({"kind": "linear_det", "q": 2, "G": [[1], [1], [1]]}))
    argv, huge = ("verify", "--instance", str(inst_path), "--code", str(code_path), *json_flag), "1" + "0" * 400
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--b", huge)
    elapsed = time.perf_counter() - start
    expected = run(capsys, *argv, "--b", "2")
    assert elapsed < 1.0 and err == expected[2] == ""
    assert (code, out) == (expected[0], expected[1].replace('"block_size": 2,', f'"block_size": {huge},'))
    assert code == 0 and (huge in out) == bool(json_flag)


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


def test_verify_names_an_empty_code_matrix(tmp_path, capsys, keyed2):
    inst_path = write_instance(tmp_path, keyed2, AccessStructure.explicit([[]]))
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps({"kind": "linear_det", "q": 2, "G": []}))
    code, out, err = run(capsys, "verify", "--instance", inst_path, "--code", str(code_path))
    assert_one_error_line(code, err)
    assert (out, err) == ("", "error: cannot read code: G must have at least one row\n")


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


def test_graph_draws_one_vertex_for_a_t_level_adversary(tmp_path, capsys):
    # t = 12 of 60 messages is C(60, 12) = 1399358844975 access sets, none
    # of them listed: the adversary is one labelled vertex with no arcs.
    # A t of m or more is still one error line
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps({"q": 2, "m": 60, "receivers": [{"knows": [2], "wants": [1]}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "graph", "--instance", str(inst_path), "--t-level", "12")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert [line for line in out.splitlines() if line.startswith("  v")] == ['  v1 [label="t = 12"];']
    assert elapsed < 1.0
    code, out, err = run(capsys, "graph", "--instance", str(inst_path), "--t-level", "60")
    assert_one_error_line(code, err)
    assert err == "error: access level must satisfy 0 <= t <= 59, got 60\n" and out == ""


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
    # int() reads at most 4300 digits: a longer symbol is named by its length
    "encode-5000-digits": (None, "1 " + "9" * 5000 + " 2",
                           "error: stdin line {k}: symbol of 5000 digits outside GF(5)\n", 1),
    "decode-5000-digits": (2, "1 " + "9" * 5000 + " 2",
                           "error: stdin line {k}: symbol of 5000 digits outside GF(5)\n", 1),
    # and so is a longer one in any script of decimal digits
    "encode-5000-arabic-indic-digits": (None, "1 " + "\u0661" * 5000 + " 2",
                                        "error: stdin line {k}: symbol of 5000 digits outside GF(5)\n", 1),
    "decode-5000-arabic-indic-digits": (2, "1 " + "\u0661" * 5000 + " 2",
                                        "error: stdin line {k}: symbol of 5000 digits outside GF(5)\n", 1),
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


@pytest.mark.parametrize("batch", [1, 1024])
@pytest.mark.parametrize("receiver", [None, 2], ids=["encode", "decode"])
def test_filters_read_leading_zeros_past_int_digit_limit(tmp_path, capsys, monkeypatch, batch, receiver):
    # 5000 zeros before a symbol leave the symbol, whether its block is
    # read whole (batch 1) or line by line to name the bad last line
    monkeypatch.setattr(cli, "_LINE_BATCH", batch)
    lines, expected = filter_lines(receiver)
    padded = ["0" * 5000 + line for line in lines] + ["x"]
    code, out, err = run_filter(tmp_path, capsys, monkeypatch, padded, receiver)
    assert (code, out.splitlines(), err) == (1, expected, f"error: stdin line {len(padded)}: non-integer symbol\n")


@pytest.mark.parametrize("token", ["+" + "9" * 5000, "-" + "0" * 5000 + "3", "\u0661" * 5000,
                                   "\u0660" * 5000 + "\u0663", "1_" * 2200 + "1", "\u0661" * 4301 + "x",
                                   "\u0661" * 4301 + "\u00b2", "1__" + "1" * 5000],
                         ids=["plus", "minus-zeros", "arabic-indic", "arabic-indic-zeros", "underscores",
                              "junk-after", "superscript-after", "double-underscore"])
def test_line_problem_reads_long_tokens_as_the_reference(token):
    # a token past int()'s digit limit is named as int() would read it
    # without that limit, whatever its script, sign or underscores
    for tokens in ([token, "1", "2"], ["1", token]):
        assert cli._line_problem(tokens, 5, 3, "(3 message)") == reference_symbols.line_problem(
            tokens, 5, 3, "(3 message)")


# what str.split() separates symbols at, ASCII or not, and what int() reads
# inside a token or refuses
SYMBOL_SEPARATORS = [" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", "\x85", "\u2028"]
SYMBOL_JUNK = ["+", "-", "_", "x", "\u0661"]


@st.composite
def symbol_token(draw, clean):
    """A token for GF(5): a symbol, at times with leading zeros; unless
    clean, also 19-30 digits, a value past q or a symbol with junk in it."""
    kind = draw(st.sampled_from(["symbol"] * 4 + ["zeros"] + ([] if clean else ["long", "outside", "junk"])))
    if kind == "long":
        return draw(st.text("0123456789", min_size=19, max_size=30))
    token = str(draw(st.integers(5, 99) if kind == "outside" else st.integers(0, 4)))
    if kind == "zeros":
        token = "0" * draw(st.integers(1, 3)) + token
    if kind == "junk":
        at = draw(st.integers(0, len(token)))
        token = token[:at] + draw(st.sampled_from(SYMBOL_JUNK)) + token[at:]
    return token


@st.composite
def symbol_text(draw, expect):
    """Stdin text of 0-6 lines, blank or holding tokens, split by any
    separators; in a clean text every token is a symbol and every
    non-blank line holds `expect` of them."""
    clean = draw(st.booleans())
    edge = st.text(st.sampled_from(SYMBOL_SEPARATORS), max_size=2)
    gap = st.text(st.sampled_from(SYMBOL_SEPARATORS), min_size=1, max_size=2)
    counts = [0, expect] if clean else [0, expect, expect, expect - 1, expect + 1]
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        tokens = [draw(symbol_token(clean)) for _ in range(draw(st.sampled_from(counts)))]
        lines.append(draw(edge) + "".join(token + draw(gap) for token in tokens) + draw(edge))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


def reference_filter(text, receiver):
    """(exit code, stdout, stderr) of encode (receiver None) or decode on
    FILTER_CODE, reading `text` line by line with reference_symbols."""
    code, (inst, _) = parse_code(FILTER_CODE), parse_instance(FILTER_INSTANCE)
    if receiver is None:
        expect, counted = code.m, f"({code.m} message + 0 key)"
    else:
        side = len(inst.receivers[receiver - 1].knows)
        expect, counted = code.length + side, f"({code.length} codeword + {side} side)"
    rows, status, err = [], 0, ""
    try:
        for row in reference_symbols.read_symbols(io.StringIO(text), code.q, expect, counted):
            if receiver is None:
                rows.append([sum(x * g for x, g in zip(row, column)) % code.q for column in zip(*FILTER_CODE["G"])])
                continue
            wanted = reference_decode.decode(code, inst, receiver, row[: code.length], row[code.length :])
            if wanted is None:
                status, err = 2, f"receiver {receiver} cannot decode this code\n"
                break
            rows.append(wanted)
    except ValueError as exc:
        status, err = 1, f"error: {exc}\n"
    return status, "".join(" ".join(map(str, row)) + "\n" for row in rows), err


@pytest.fixture(scope="module")
def filter_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("filter")
    (folder / "code.json").write_text(json.dumps(FILTER_CODE))
    (folder / "instance.json").write_text(json.dumps(FILTER_INSTANCE))
    return str(folder / "code.json"), str(folder / "instance.json")


@pytest.mark.parametrize("batch", [1, 2, 1024])
@pytest.mark.parametrize("receiver", [None, 1, 2], ids=["encode", "decode1", "decode2"])
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_stdin_reader_matches_per_line_reference(filter_files, batch, receiver, data):
    # the block reader gives what splitting each line with str.split()
    # gives: the same exit code, output and error line
    code_path, inst_path = filter_files
    text = data.draw(symbol_text(4 if receiver == 1 else 3))
    argv = ["encode", "--code", code_path] if receiver is None else \
        ["decode", "--instance", inst_path, "--code", code_path, "--receiver", str(receiver)]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_LINE_BATCH", batch), mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    assert (status, out.getvalue(), err.getvalue()) == reference_filter(text, receiver)


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


def dot_text(vertices, arcs):
    return "".join(["digraph secure_index_instance {\n", *(f"  {v};\n" for v in vertices),
                    *(f"  {u} -> {v};\n" for u, v in arcs), "}\n"])


KEYED2_ARCS = [("r1", 2), (1, "r1")]
CROSSED2_ARCS = [("r1", 2), (1, "r1"), ("r2", 1), (2, "r2"), ("r3", 2), ("r3", 4), (3, "r3"),
                 ("r4", 2), ("r4", 3), (4, "r4")]
GRAPH_CASES = {
    "keyed-explicit": (unwanted_key_instance(2), "--access", "[[]]",
                       dot_text([1, 2, "r1", "v1"], KEYED2_ARCS)),
    "keyed-t-level": (unwanted_key_instance(2), "--t-level", "1",
                      dot_text([1, 2, "r1", 'v1 [label="t = 1"]'], KEYED2_ARCS)),
    "crossed-explicit": (crossed_pairs_instance(2), "--access", "[[3, 4], [1]]",
                         dot_text([1, 2, 3, 4, "r1", "r2", "r3", "r4", "v1", "v2"],
                                  CROSSED2_ARCS + [("v1", 3), ("v1", 4), ("v2", 1)])),
    "crossed-t-level": (crossed_pairs_instance(2), "--t-level", "1",
                        dot_text([1, 2, 3, 4, "r1", "r2", "r3", "r4", 'v1 [label="t = 1"]'], CROSSED2_ARCS)),
}


@pytest.mark.parametrize("inst, flag, value, expected", GRAPH_CASES.values(), ids=GRAPH_CASES.keys())
def test_graph_prints_exact_dot(tmp_path, capsys, inst, flag, value, expected):
    inst_path = write_instance(tmp_path, inst)
    code, out, err = run(capsys, "graph", "--instance", inst_path, flag, value)
    assert (code, out, err) == (0, expected, "")
    dot_path = tmp_path / "g.dot"
    code, out, _ = run(capsys, "graph", "--instance", inst_path, flag, value, "--dot", str(dot_path))
    assert (code, out) == (0, "")
    assert dot_path.read_bytes() == expected.encode()


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


@pytest.mark.parametrize("command", [
    ("construct",),
    ("verify", "--code", "CODE"),
    ("search", "--length", "1"),
])
def test_negative_budget_is_a_usage_error(tmp_path, capsys, crossed2, command):
    inst_path = write_instance(tmp_path, crossed2, AccessStructure.explicit([[3]]))
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps({"kind": "linear_det", "q": 2, "G": [[1], [1], [1], [1]]}))
    argv = [str(code_path) if a == "CODE" else a for a in command]
    code, out, err = run(capsys, *argv, "--instance", inst_path, "--budget", "-1")
    assert_one_error_line(code, err)
    assert err == "error: budget must be >= 0, got -1\n" and out == ""
    # a budget of 0 is legal: it refuses the first count, with exit 4
    code, out, err = run(capsys, *argv, "--instance", inst_path, "--budget", "0")
    assert code == 4 and "exceed the budget of 0" in err and out == ""


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
    """Exit code, stdout and stderr of main on `argv` parsed by the
    top-level parser alone, as main parsed every argv before it read
    argvs from the option tables and dispatched subcommands directly."""
    with mock.patch.object(cli, "_parse_args", cli._PARSER.parse_args):
        return run(capsys, *argv)


def verify_argv(tmp_path, crossed2):
    inst_path = write_instance(tmp_path, crossed2, AccessStructure.t_level(1))
    code_path = tmp_path / "c.json"
    code_path.write_text(json.dumps({"kind": "linear_det", "q": 2, "G": SUMS}))
    return ["verify", "--instance", inst_path, "--code", str(code_path)]


@pytest.mark.parametrize("head, tail", [
    ([], []), (["-h"], []), (["bogus"], []), (["--"], []), (["verify", "-h"], []), (["verify"], []),
    (None, ["--bogus"]), (None, ["extra"]), (None, ["extra", "--bogus", "--json"]), (None, ["--", "x"]),
    (None, ["--b", "x"]),
    # argvs the option tables leave to argparse: an abbreviation, --opt=value,
    # a value that starts with "-"
    (None, ["--inst"]), (None, ["--b=2"]), (None, ["--b", "-1"]), (None, ["--instance", "-"]),
], ids=repr)
def test_usage_errors_match_the_top_level_parse(tmp_path, capsys, crossed2, head, tail):
    argv = (verify_argv(tmp_path, crossed2) if head is None else head) + tail
    expected = top_level_parse(capsys, argv)
    assert run(capsys, *argv) == expected
    # at b = 2 the code leaks, and the argv is no usage error
    assert expected[0] == (cli.EXIT_OK if "-h" in argv else cli.EXIT_NO if tail == ["--b=2"] else cli.EXIT_USAGE)
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
] + [pytest.param(argv, id=repr(argv)) for argv in (
    ["analyze", "--t-level", "0", "--instance", "i.json"],
    ["analyze", "--instance", "i.json", "--t-level", "+3", "--t-level", " 2", "--json", "--json"],
    ["verify", "--instance", "i.json", "--code", "c.json", "--access", "[]", "--budget", "0"],
    ["verify", "--code", "c.json", "--instance", "", "--budget", "1_0", "--b", "\u0663"],
    ["search", "--length", "0", "--instance", "i.json", "--budget", "99999999999999999999", "--json"],
    ["search", "--instance", "i.json", "--length", "3", "--access", "[[1, 2]]", "--code", "c.json"],
    ["decode", "--receiver", "12", "--code", "c.json", "--instance", "i.json"],
)], ids=lambda argv: argv[0])
def test_direct_dispatch_gives_the_top_level_namespace(argv):
    expected = cli._PARSER.parse_args(argv)
    # a plain argv is read from the option tables: a silent fallback to
    # argparse would give the same namespace, and lose the tables' gain
    with mock.patch.object(argparse.ArgumentParser, "parse_known_args", side_effect=AssertionError(argv)):
        assert cli._parse_args(argv) == expected


# the values a fuzzed argv gives its options: int() reads some that are not ASCII digits
ARGV_VALUES = ["", "-", "-1", " 2", "+3", "\u0663", "1_0", "x", "2", "i.json"]


@st.composite
def fuzzed_argvs(draw):
    """A subcommand and a run of its options, each in its own shape, led
    by its required options; or, half the time, one that may also hold
    option strings without their value, abbreviations, --opt=value
    forms, "--", "-h" and bare values, and may lack a required option."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    options = cli._COMMANDS[name][1]
    value = st.just("2") | st.sampled_from(ARGV_VALUES)  # "2" half the time: every option reads it
    flag = st.sampled_from([flag for flag, _ in options])
    # an option in its own shape: a switch alone, any other with a value
    piece = st.sampled_from(options).flatmap(
        lambda option: st.just(option[:1]) if "action" in option[1] else st.tuples(st.just(option[0]), value))
    odd = draw(st.booleans())
    if odd:
        piece |= st.one_of(
            st.tuples(flag), st.tuples(flag, value), st.tuples(value), st.sampled_from([("--",), ("-h",)]),
            st.tuples(flag.flatmap(lambda f: st.integers(3, max(3, len(f) - 1)).map(lambda n: f[:n])), value),
            st.tuples(st.builds("{}={}".format, flag, value)),
        )
    required = [flag for flag, kwargs in options if kwargs.get("required")]
    head = [token for flag in required for token in (flag, "2")] if not (odd and draw(st.booleans())) else []
    return [name] + head + [token for tokens in draw(st.lists(piece, max_size=6)) for token in tokens]


def parse_outcome(parse, argv):
    """The namespace `parse` gives argv, or its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parse(argv)
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


@given(argv=fuzzed_argvs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_option_tables_answer_as_argparse(argv):
    expected = parse_outcome(cli._PARSER.parse_args, argv)
    table = cli._table_args(argv)
    if table is not None:
        assert table == expected
    assert parse_outcome(cli._parse_args, argv) == expected


def test_main_reads_sys_argv(tmp_path, capsys, monkeypatch, crossed2):
    argv = verify_argv(tmp_path, crossed2)
    for args, expected in ((argv + ["--json"], run(capsys, *argv, "--json")),
                           (argv + ["--bogus"], top_level_parse(capsys, argv + ["--bogus"]))):
        monkeypatch.setattr(sys, "argv", ["secix"] + args)
        code = main(None)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected


# ---- fuzzed input files --------------------------------------------------------------------

# a valid instance and keyed code, and what a mutation may put in their place
FUZZ_INSTANCE = {"q": 3, "m": 3, "receivers": [{"knows": [2, 3], "wants": [1]}, {"knows": [1, 3], "wants": [2]}],
                 "adversary": {"type": "t_level", "t": 1}}
FUZZ_CODE = {"kind": "linear_rand", "q": 3, "G": [[1, 0], [1, 0], [1, 1]], "Gtilde": [[0, 1]]}
ODD_VALUES = [
    None, True, False, 0, 1, 2, 3, 4, -1, 251, 0.5, 2.0, float("nan"), float("inf"), 2 ** 64, -2 ** 70, 10 ** 30,
    "", "1", "linear_det", "explicit", "t_level", [], {}, [[]], [[1], [1, 2]], [1, [2]], [[2 ** 63]],
    {"type": "explicit", "sets": [[1], [9]]}, {"type": "explicit", "sets": [[3], [1, 2]]}, {"type": "t_level", "t": 7},
]
FUZZ_COMMANDS = [("verify", "--code", "CODE"), ("analyze",), ("construct",), ("search", "--length", "1"), ("graph",)]


def json_paths(obj, path=()):
    """The path of every value in a JSON tree, the root's first."""
    yield path
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from json_paths(value, path + (key,))


@st.composite
def fuzzed_files(draw):
    """[instance object, code object], with 1-3 values replaced by odd
    ones, deleted, or joined by an odd sibling."""
    files = copy.deepcopy([FUZZ_INSTANCE, FUZZ_CODE])
    for _ in range(draw(st.integers(1, 3))):
        which = draw(st.integers(0, 1))
        path = draw(st.sampled_from(list(json_paths(files[which]))))
        action = draw(st.sampled_from(["replace", "delete", "append"]))
        value = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
        if not path:
            files[which] = value
            continue
        parent = files[which]
        for key in path[:-1]:
            parent = parent[key]
        if action == "replace":
            parent[path[-1]] = value
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent[path[-1]], list):
            parent[path[-1]].append(value)
        elif isinstance(parent, dict):
            parent["extra"] = value
        else:
            parent.append(value)
    return files


@given(files=fuzzed_files())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_fuzzed_files_exit_0_to_4_with_one_error_line(tmp_path_factory, files):
    # every command returns an exit code of the API, and a usage error is
    # one line, never a traceback
    folder = tmp_path_factory.mktemp("fuzz")
    inst_path, code_path = folder / "inst.json", folder / "code.json"
    inst_path.write_text(json.dumps(files[0]))
    code_path.write_text(json.dumps(files[1]))
    for command in FUZZ_COMMANDS:
        argv = [str(code_path) if a == "CODE" else a for a in command] + ["--instance", str(inst_path)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        assert status in range(5), (argv, status, err.getvalue())
        if status == 1:
            assert_one_error_line(status, err.getvalue())
            assert err.getvalue().startswith("error: ")


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
