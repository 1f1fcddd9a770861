"""Command-line interface.

Subcommands
-----------
    analyze    decide whether a secure code exists; print verdict and bounds
    construct  build a secure code and write it as a JSON code file
    verify     check a code file against an instance: decodability + security
    encode     filter: message symbols (and key symbols) -> codeword symbols
    decode     filter: codeword + side-information symbols -> wanted symbols
    graph      export the instance's directed bipartite graph as DOT
    search     exhaustive search for a secure linear code of a given length

`analyze` and `construct` take their verdict from `analysis.decide`,
the one existence decision: a t-level adversary is decided by the
paper's rule t <= K - b at any size, and an explicit one (b = 1 only)
by the structural rules.

Exit codes are the API: 0 success/secure, 1 usage or parse error or a
failed write to stdout, 2 proven impossible (or verification failed),
3 unknown (no rule settles the instance), 4 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from . import analysis, codes, gf, model, oracle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO = 2
EXIT_UNKNOWN = 3
EXIT_BUDGET = 4


def _load_instance(args):
    try:
        return model.load_instance(args.instance)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read instance: {exc}")


def _resolve_access(args, file_acc, m):
    if args.t_level is not None and args.access is not None:
        raise ValueError("give at most one of --t-level and --access")
    if args.t_level is not None:
        return model.AccessStructure.t_level(args.t_level)
    if args.access is not None:
        try:
            sets = json.loads(args.access)
        except json.JSONDecodeError as exc:
            raise ValueError(f"--access is not valid JSON: {exc}")
        if not isinstance(sets, list):
            raise ValueError("--access must be a JSON list of index lists, e.g. '[[3,4]]'")
        return model.AccessStructure.explicit([gf.checked_ints(a, "--access set") for a in sets])
    if file_acc is not None:
        return file_acc
    # no adversary anywhere: fall back to the classical no-constraint case
    return model.AccessStructure.classical(m)


def _load_code(args):
    try:
        return codes.load_code(args.code)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read code: {exc}")


def _print_json(obj):
    sys.stdout.write(model.json_text(obj) + "\n")


def _describe_verdict(verdict):
    lines = [f"answer: {verdict.answer}"]
    if verdict.answer == analysis.ANSWER_YES:
        code = verdict.code
        lines.append(f"certificate: linear code of length {code.length} over GF({code.q})")
        for j, row in enumerate(code.generator.tolist(), start=1):
            lines.append(f"  g_{j} = {row}")
    elif verdict.certificate is not None:
        cert = verdict.certificate.to_dict()
        if cert["type"] == "compromised_receiver":
            lines.append(
                f"certificate: receiver {cert['receiver']} is compromised by access set {cert['access']}"
            )
        else:
            lines.append("certificate: acyclic receiver/message graph with every message wanted")
    lines.append(f"codelength bounds: lower={verdict.lower} upper={verdict.upper}")
    return "\n".join(lines)


def _print_verdict(verdict, args) -> int:
    """Print the verdict, as JSON with --json; returns its exit code."""
    if args.json:
        _print_json(verdict.to_dict())
    else:
        print(_describe_verdict(verdict))
    if verdict.answer == analysis.ANSWER_YES:
        return EXIT_OK
    if verdict.answer == analysis.ANSWER_NO:
        return EXIT_NO
    return EXIT_UNKNOWN


def _print_code(code, args, summary: dict, lines=()) -> None:
    """Write the code to the --code file, if one is given, and print the
    summary: with --json, the object `summary`, holding the code under
    "code" when no file is written; otherwise the text `lines`, then the
    file written or the code as one JSON line."""
    if args.code:
        try:
            codes.save_code(args.code, code)
        except OSError as exc:
            raise ValueError(f"cannot write {args.code}: {exc.strerror or exc}")
    if args.json:
        if not args.code:
            summary = {**summary, "code": codes.code_to_dict(code)}
        _print_json(summary)
        return
    for line in lines:
        print(line)
    print(f"code written to {args.code}" if args.code else json.dumps(codes.code_to_dict(code)))


def cmd_analyze(args) -> int:
    inst, file_acc = _load_instance(args)
    inst = model.normalize(inst)
    acc = _resolve_access(args, file_acc, inst.m)
    return _print_verdict(analysis.decide(inst, acc, args.b), args)


def cmd_construct(args) -> int:
    inst, file_acc = _load_instance(args)
    inst = model.normalize(inst)
    acc = _resolve_access(args, file_acc, inst.m)
    verdict = analysis.decide(inst, acc, args.b)
    if verdict.answer != analysis.ANSWER_YES:
        return _print_verdict(verdict, args)
    code = verdict.code
    level = codes.security_level(code, budget=args.budget)
    least = analysis.min_side_info(inst)
    summary = {
        "length": code.length,
        "min_side_info": least,
        "security_level": level,
        "q": code.q,
    }
    lines = [f"length: {code.length}", f"min side information: {least}", f"security level: {level}"]
    if code.q != inst.q:
        summary["field_substituted_from"] = inst.q
        lines.append(f"field: GF({code.q}) (instance field GF({inst.q}) too small)")
    _print_code(code, args, summary, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    inst, file_acc = _load_instance(args)
    acc = _resolve_access(args, file_acc, inst.m)
    code = _load_code(args)
    # one call: it refuses states x pairs before any pair is listed
    report = oracle.check_security(code, inst, acc, b=args.b, budget=args.budget)
    decodable = report.decodable
    if args.json:
        sys.stdout.write(report.json_text() + "\n")
    else:
        for i, ok in enumerate(decodable, start=1):
            print(f"receiver {i}: {'decodes' if ok else 'CANNOT DECODE'}")
        for check in report.checks:
            status = "uniform" if check.uniform else "LEAKS"
            print(f"A={list(check.access)} B={list(check.block)}: {status}")
        print(f"secure: {report.secure}")
    return EXIT_OK if (all(decodable) and report.secure) else EXIT_NO


# Stdin lines per block in encode and decode: a block is parsed and
# checked as a whole, computed with numpy products and written at once,
# so memory stays bounded for any input length.
_LINE_BATCH = 2 ** 10


def _line_problem(tokens, q, expect, counted):
    """Why the tokens of one stdin line are refused, or None.

    A token that int() reads but that is not plain ASCII digits, such as
    "+3", "-0", "1_0" or a non-ASCII digit, is reported only when the
    line breaks no other rule."""
    try:
        values = [int(tok) for tok in tokens]
    except ValueError:
        return "non-integer symbol"
    for v in values:
        if not 0 <= v < q:
            return f"symbol {v} outside GF({q})"
    if len(values) != expect:
        return f"expected {expect} symbols {counted}, got {len(values)}"
    for tok in tokens:
        if not (tok.isascii() and tok.isdigit()):
            return f"symbol {tok!r} is not an ASCII decimal number"
    return None


def _block_values(rows, q, expect):
    """The rows of tokens as an n x expect int64 array, or None unless
    every token is an ASCII decimal number below q and every row holds
    `expect` of them.  The block is checked as a whole, with no Python
    work per token."""
    digits = "".join(map("".join, rows))
    if not (digits.isascii() and digits.isdigit()) or any(len(tokens) != expect for tokens in rows):
        return None
    # parsing saturates past int64, so a symbol that large fails the range check
    values = np.fromstring(" ".join(map(" ".join, rows)), dtype=np.int64, sep=" ")
    if values.size != len(rows) * expect or (values >= q).any():
        return None
    return values.reshape(len(rows), expect)


def _symbol_blocks(q, expect, counted):
    """Stdin in blocks of at most _LINE_BATCH lines, each yielded as an
    n x expect int64 array of the symbols on its non-blank lines.

    Every non-blank line must hold `expect` symbols (`counted` says of
    what), each an ASCII decimal number below q.  At the first line that
    does not, the lines before it are yielded and a ValueError naming
    the line is raised.
    """
    lineno = 0
    while True:
        block = list(itertools.islice(sys.stdin, _LINE_BATCH))
        if not block:
            return
        numbered = [(n, tokens) for n, tokens in enumerate(map(str.split, block), start=lineno + 1) if tokens]
        lineno += len(block)
        if not numbered:
            continue
        rows = [tokens for _, tokens in numbered]
        values = _block_values(rows, q, expect)
        if values is not None:
            yield values
            continue
        for good, (number, tokens) in enumerate(numbered):
            problem = _line_problem(tokens, q, expect, counted)
            if problem:
                break
        if good:
            yield _block_values(rows[:good], q, expect)
        raise ValueError(f"stdin line {number}: {problem}")


def _write_rows(rows):
    """Print each row of a 2-D int array as a line of space-separated symbols."""
    sys.stdout.write("".join(" ".join(map(str, row)) + "\n" for row in rows.tolist()))


def cmd_encode(args) -> int:
    code = _load_code(args)
    counted = f"({code.m} message + {code.key_dim} key)"
    for block in _symbol_blocks(code.q, code.m + code.key_dim, counted):
        _write_rows(block @ code.matrix % code.q)
    return EXIT_OK


def cmd_decode(args) -> int:
    inst, _ = _load_instance(args)
    code = _load_code(args)
    decoder = codes.Decoder(code, inst, args.receiver)
    counted = f"({code.length} codeword + {decoder.side_count} side)"
    for block in _symbol_blocks(code.q, code.length + decoder.side_count, counted):
        values, ok = decoder.apply(block)
        if ok.all():
            _write_rows(values)
            continue
        _write_rows(values[: ok.argmin()])  # up to the first word that does not decode
        print(f"receiver {args.receiver} cannot decode this code", file=sys.stderr)
        return EXIT_NO
    return EXIT_OK


def cmd_graph(args) -> int:
    inst, file_acc = _load_instance(args)
    acc = _resolve_access(args, file_acc, inst.m)
    dot = model.to_dot(inst, acc)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(dot)
        except OSError as exc:
            raise ValueError(f"cannot write {args.dot}: {exc.strerror or exc}")
    else:
        sys.stdout.write(dot)
    return EXIT_OK


def cmd_search(args) -> int:
    inst, file_acc = _load_instance(args)
    inst = model.normalize(inst)
    acc = _resolve_access(args, file_acc, inst.m)
    code = analysis.search_linear(inst, acc, args.length, b=args.b, budget=args.budget)
    if code is None:
        if args.json:
            _print_json({"found": False, "length": args.length})
        else:
            print(f"no secure linear code of length {args.length} over GF({inst.q})")
        return EXIT_NO
    _print_code(code, args, {"found": True, "length": args.length})
    return EXIT_OK


# Each option once; each subcommand lists only the options its cmd_* reads.
_INSTANCE = ("--instance", {"required": True, "help": "instance JSON file"})
_CODE_IN = ("--code", {"required": True, "help": "code JSON file"})
_CODE_OUT = ("--code", {"help": "write the code JSON here (default: stdout)"})
_T_LEVEL = ("--t-level", {"dest": "t_level", "type": int,
                          "help": "override adversary: all subsets of this size"})
_ACCESS = ("--access", {"help": "override adversary: explicit JSON sets, e.g. '[[3,4]]'"})
_B = ("--b", {"type": int, "default": 1, "help": "block size for joint security (default 1)"})
_BUDGET = ("--budget", {"type": int, "default": oracle.DEFAULT_BUDGET,
                        "help": "most units of work: joint states and states x pairs (verify, search), "
                                "candidate generators (search), span vectors (construct)"})
_JSON = ("--json", {"action": "store_true", "help": "machine-readable output"})
_INSTANCE_ADVERSARY = (_INSTANCE, _T_LEVEL, _ACCESS)

_COMMANDS = {
    "analyze": ("decide secure-code existence", _INSTANCE_ADVERSARY + (_B, _JSON)),
    "construct": ("construct a secure code", _INSTANCE_ADVERSARY + (_B, _BUDGET, _JSON, _CODE_OUT)),
    "verify": ("verify a code file against an instance",
               _INSTANCE_ADVERSARY + (_CODE_IN, _B, _BUDGET, _JSON)),
    "encode": ("encode whitespace-separated symbols from stdin", (_CODE_IN,)),
    "decode": ("decode codeword+side symbols from stdin", (
        _INSTANCE, _CODE_IN,
        ("--receiver", {"type": int, "required": True, "help": "1-based receiver index"}))),
    "graph": ("export the bipartite graph as DOT", _INSTANCE_ADVERSARY + (
        ("--dot", {"help": "write DOT here (default: stdout)"}),)),
    "search": ("exhaustive search for a secure linear code", _INSTANCE_ADVERSARY + (
        ("--length", {"type": int, "required": True, "help": "codeword length to search"}),
        _B, _BUDGET, _JSON, _CODE_OUT)),
}


def _build_parser():
    """The `secix` parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="secix",
        description="Secure index coding: constructions and exact verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser, sub.choices


_PARSER, _SUBPARSERS = _build_parser()


def _parse_args(argv):
    """`_PARSER.parse_args(argv)`, with argv led by a subcommand name
    handed straight to that subcommand's parser: the same namespace,
    help and error text and exit code, without the top-level parse."""
    if argv and argv[0] in _SUBPARSERS:
        args, extras = _SUBPARSERS[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            _PARSER.error("unrecognized arguments: " + " ".join(extras))
        return args
    return _PARSER.parse_args(argv)


def _silence_stdout() -> None:
    """Point the stdout file descriptor at the null device, so that the
    interpreter's last flush drops what could not be written.  A stream
    with no descriptor, such as an in-process io.StringIO, is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors; our API reserves 2 for proven-no
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        try:
            # construct, verify and search take a budget; 0 refuses any work
            if hasattr(args, "budget"):
                oracle.checked_budget(args.budget)
            # looked up per call, so a rebound cmd_* (a tracer, a test) is used
            return globals()["cmd_" + args.command](args)
        finally:
            sys.stdout.flush()  # a failed write shows here, not at exit
    except oracle.BudgetExceededError as exc:
        status, message = EXIT_BUDGET, f"budget exceeded: {exc}"
    except codes.NoSecureCodeError as exc:
        status, message = EXIT_NO, str(exc)
    except ValueError as exc:
        status, message = EXIT_USAGE, f"error: {exc}"
    except OSError as exc:  # the commands turn errors of the files they name into ValueErrors
        _silence_stdout()
        if isinstance(exc, BrokenPipeError):
            return EXIT_USAGE  # the reader has gone: there is no one to tell
        status, message = EXIT_USAGE, f"error: cannot write stdout: {exc.strerror or exc}"
    print(message, file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
