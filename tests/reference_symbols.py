"""Per-line reference for the stdin reader of `secix encode` and `secix
decode`: each line is split with str.split() and its tokens are read one
at a time.  Slow, but it never reads a block of lines whole, so the
CLI's block reader is tested against it."""

import re
import unicodedata

# int() reads at most this many digits by default
INT_DIGITS = 4300


def _value(tok):
    """The integer an all-ASCII-digit token names, or None when it has
    more significant digits than int() reads."""
    digits = tok.lstrip("0") or "0"
    return int(digits) if len(digits) <= INT_DIGITS else None


def _integer(tok):
    """The integer of a token that is not all ASCII digits, as int() reads
    it without its digit limit (None past INT_DIGITS significant digits);
    ValueError for a token int() refuses whatever its length."""
    if re.fullmatch(r"[+-]?\d+(?:_\d+)*", tok) is None:
        raise ValueError(tok)
    value = _value("".join(str(unicodedata.decimal(c)) for c in tok if c.isdecimal()))
    return -value if value is not None and tok.startswith("-") else value


def line_problem(tokens, q, expect, counted):
    """Why a line of tokens is refused, or None.  The rules, in order:
    a token that is neither ASCII digits nor read by int(), whatever its
    number of digits; the first value outside [0, q); a count other than
    `expect`; the first token that int() reads but that is not ASCII
    digits."""
    plain = [re.fullmatch("[0-9]+", tok) is not None for tok in tokens]
    values = []
    for tok, is_plain in zip(tokens, plain):
        if is_plain:
            values.append(_value(tok))
            continue
        try:
            values.append(_integer(tok))
        except ValueError:
            return "non-integer symbol"
    for tok, value in zip(tokens, values):
        if value is None:
            return f"symbol of {sum(c.isdecimal() for c in tok)} digits outside GF({q})"
        if value < 0 or value >= q:
            return f"symbol {value} outside GF({q})"
    if len(tokens) != expect:
        return f"expected {expect} symbols {counted}, got {len(tokens)}"
    for tok, is_plain in zip(tokens, plain):
        if not is_plain:
            return f"symbol {tok!r} is not an ASCII decimal number"
    return None


def read_symbols(lines, q, expect, counted):
    """Yield the symbols of each non-blank line as a list of ints; at the
    first line refused, raise ValueError("stdin line N: why")."""
    for number, line in enumerate(lines, start=1):
        tokens = line.split()
        if not tokens:
            continue
        problem = line_problem(tokens, q, expect, counted)
        if problem:
            raise ValueError(f"stdin line {number}: {problem}")
        yield [_value(tok) for tok in tokens]
