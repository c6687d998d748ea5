"""Text forms: signatures and multivector expressions.

Signature text is either a count triple `p,q,z` or a role string over
{+, -, 0} such as `++-0`; role strings are relabelled to the canonical
generator order and the permutation (user index -> canonical index) is
returned alongside.

Expression grammar (whitespace-insensitive):

    expr     := sign? product (('+' | '-') product)*
    product  := atom ('*' atom)*
    atom     := rational GEN? | GEN | '(' expr ')'
    rational := INT ('/' INT)?

INT, the index of GEN (`e<index>`), the signature counts and any other
count read from text (`parse_count`) are runs of the ASCII digits 0-9,
at most MAX_DIGITS long.

The canonical printed form of a multivector is the flat sum
`c*<blade> +- ...` with the terms in ascending blade-mask order, and it
always parses back to an equal value.  Parenthesised products such as
`(1+e2)*(1-e2)` are accepted on input.  Generators may appear in any
order and may repeat; products are normalised through the algebra, so
`e1*e0` parses to the negated canonical blade and a repeated null
generator annihilates the term.  A `*` between two generators is
mandatory (so multi-digit indices like `e12` stay unambiguous), while a
coefficient may touch its blade (`2e0`).  Parentheses may nest at most
MAX_NESTING deep, which keeps the recursive descent inside Python's
recursion limit.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .blades import Signature
from .multivector import Multivector

MAX_NESTING = 200
# Python's default int_max_str_digits: int() refuses a longer run with no
# position and a pointer to a Python setting, so `_int` refuses it first
MAX_DIGITS = 4300

# ASCII only: int() alone also reads "1_0", "+2" and other scripts' digits
_DIGITS = "[0-9]+"
_COUNT = re.compile(f"-?{_DIGITS}")
# One group per token kind: operator, whitespace, generator index, integer
# and any other character.  A whitespace run is its own token, so no
# alternative rescans a run.
_TOKEN = re.compile(rf"([-+*/()\u2212])|(\s+)|e({_DIGITS})|({_DIGITS})|(.)", re.S)


class ExprSyntaxError(ValueError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def parse_signature(text: str) -> tuple[Signature, tuple[int, ...]]:
    """Parse signature text; returns (signature, relabelling permutation).

    The permutation maps each input generator position to its canonical
    index; it is the identity for the `p,q,z` form.
    """
    s = text.strip()
    if "," in s:
        parts = [t.strip() for t in s.split(",")]
        if len(parts) != 3:
            raise ValueError(
                f"signature {text!r} must have exactly three counts p,q,z"
            )
        if not all(_COUNT.fullmatch(t) for t in parts):
            raise ValueError(f"signature {text!r} has non-integer counts")
        sig = Signature(*(_int(t, "signature count") for t in parts))
        return sig, tuple(range(sig.n))
    roles = s.replace("\u2212", "-")
    if roles.strip("+-0"):
        raise ValueError(
            f"cannot parse signature {text!r}: use 'p,q,z' or a role "
            "string over +, -, 0"
        )
    if not roles:
        raise ValueError("empty signature text")
    p = roles.count("+")
    q = roles.count("-")
    sig = Signature(p, q, len(roles) - p - q)
    next_index = {"+": 0, "-": p, "0": p + q}
    perm = []
    for ch in roles:
        perm.append(next_index[ch])
        next_index[ch] += 1
    return sig, tuple(perm)


def parse_count(text: str, what: str) -> int:
    """Parse an integer written in ASCII digits, with an optional '-'.

    Surrounding whitespace is ignored; ValueError names `what` and the text.
    """
    s = text.strip()
    if not _COUNT.fullmatch(s):
        raise ValueError(f"{what} {text!r} is not an integer")
    return _int(s, what)


def _int(run: str, what: str, position: int | None = None) -> int:
    """The value of a run of ASCII digits with an optional '-'.

    A run longer than MAX_DIGITS is an ExprSyntaxError at `position` in
    an expression, and a ValueError naming `what` anywhere else.
    """
    if len(run) - run.startswith("-") > MAX_DIGITS:
        message = f"{what} has more than {MAX_DIGITS} digits"
        if position is None:
            raise ValueError(message)
        raise ExprSyntaxError(message, position)
    return int(run)


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """Tokens (kind, integer value, position); U+2212 reads as '-'."""
    tokens = []
    pos = 0
    # findall makes no match objects, so positions are summed lengths
    for op, space, gen, num, other in _TOKEN.findall(text):
        if op:
            tokens.append(("-" if op == "\u2212" else op, 0, pos))
            pos += 1
        elif gen:
            tokens.append(("gen", _int(gen, "generator index", pos + 1), pos))
            pos += 1 + len(gen)
        elif num:
            tokens.append(("int", _int(num, "integer", pos), pos))
            pos += len(num)
        elif space:
            pos += len(space)
        else:
            raise ExprSyntaxError(f"unexpected character {other!r}", pos)
    return tokens


class _ExprParser:
    def __init__(self, sig: Signature, text: str):
        self.sig = sig
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def _peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def _next(self) -> tuple[str, int, int]:
        if self.i >= len(self.tokens):
            raise ExprSyntaxError("unexpected end of expression", len(self.text))
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> Multivector:
        value = self._expr()
        if self.i < len(self.tokens):
            kind, _, pos = self.tokens[self.i]
            raise ExprSyntaxError(f"unexpected {kind!r} token", pos)
        return value

    def _expr(self) -> Multivector:
        sign = 1
        if self._peek() in ("+", "-"):
            sign = -1 if self._next()[0] == "-" else 1
        value = self._product() * sign
        while self._peek() in ("+", "-"):
            sign = -1 if self._next()[0] == "-" else 1
            value = value + self._product() * sign
        return value

    def _product(self) -> Multivector:
        value, was_rational = self._atom()
        while True:
            kind = self._peek()
            if kind == "*":
                self.i += 1
            elif kind != "gen" or not was_rational:
                # only a coefficient may touch its blade, e.g. 2e0
                return value
            nxt, was_rational = self._atom()
            value = value * nxt

    def _atom(self) -> tuple[Multivector, bool]:
        kind = self._peek()
        if kind == "(":
            open_pos = self.tokens[self.i][2]
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", open_pos
                )
            self.depth += 1
            self.i += 1
            value = self._expr()
            if self._peek() != ")":
                raise ExprSyntaxError("unbalanced parenthesis", open_pos)
            self.i += 1
            self.depth -= 1
            return value, False
        if kind == "int":
            return Multivector.scalar(self.sig, self._rational()), True
        if kind == "gen":
            return self._generator(), False
        pos = self.tokens[self.i][2] if self.i < len(self.tokens) else len(self.text)
        raise ExprSyntaxError("expected a term", pos)

    def _rational(self) -> Fraction:
        _, num, _ = self._next()
        if self._peek() == "/":
            slash_pos = self.tokens[self.i][2]
            self.i += 1
            kind, den, pos = self._next()
            if kind != "int":
                raise ExprSyntaxError("expected an integer denominator", pos)
            if den == 0:
                raise ExprSyntaxError("zero denominator", slash_pos + 1)
            return Fraction(num, den)
        return Fraction(num)

    def _generator(self) -> Multivector:
        _, index, pos = self._next()
        if index >= self.sig.n:
            raise IndexError(
                f"generator index {index} out of range for signature "
                f"{self.sig} (at position {pos})"
            )
        return Multivector.generator(self.sig, index)


def parse_expression(sig: Signature, text: str) -> Multivector:
    """Parse an expression into a multivector over `sig`."""
    return _ExprParser(sig, text).parse()
