"""Plain-text element syntax for algebra elements.

Grammar: sums of terms separated by '+' or '-'; each term is a '*'-separated
product of integer coefficients and generator powers ``name^exp`` (exponents
may be negative only on an invertible generator, as in ``g1^-1``).  '-' is an
operator, never part of a number: ``g2^2-1`` is ``g2^2 - 1`` and ``3*-2`` is
-6.  Parentheses are not supported: ``(g1+g2)*g1`` is rejected, and is
written ``g1^2 + g2*g1``.  Generator names come from the presentation, e.g.
g1..g4 for Weyl generators or u, v, gb3, gb4 on the boundary chart.
"""

from __future__ import annotations

import re

from .errors import InvalidFormError
from .presentations import NCPoly, Presentation

_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9]*|\^|\d+|[+\-*])")


def _tokenize(text: str) -> list[str]:
    if "(" in text or ")" in text:
        raise InvalidFormError(f"parentheses are not supported in element expressions: {text!r}")
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise InvalidFormError(f"bad character at position {pos}: {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_element(text: str, P: Presentation) -> NCPoly:
    """Parse an element expression and return its normal form."""
    tokens = _tokenize(text)
    if not tokens:
        raise InvalidFormError("empty element expression")
    name_index = {nm: i for i, nm in enumerate(P.names)}
    total = P.zero()
    pos = 0

    def parse_term(pos: int, sign: int):
        coeff = sign
        word: list[tuple[int, int]] = []
        expect_factor = True
        while pos < len(tokens):
            tok = tokens[pos]
            if tok in ("+", "-") and not expect_factor:
                break
            if tok == "*":
                if expect_factor:
                    raise InvalidFormError("misplaced '*'")
                expect_factor = True
                pos += 1
                continue
            if not expect_factor:
                raise InvalidFormError(f"missing '*' before {tok!r}")
            if tok == "-":  # the sign of the next factor
                coeff = -coeff
                pos += 1
                continue
            if tok.isdigit():
                coeff *= int(tok)
                pos += 1
            elif tok in name_index:
                g = name_index[tok]
                e = 1
                pos += 1
                if pos < len(tokens) and tokens[pos] == "^":
                    negative = tokens[pos + 1 : pos + 2] == ["-"]
                    pos += 2 if negative else 1
                    if pos >= len(tokens) or not tokens[pos].isdigit():
                        raise InvalidFormError("'^' must be followed by an integer")
                    e = -int(tokens[pos]) if negative else int(tokens[pos])
                    pos += 1
                word.append((g, e))
            else:
                raise InvalidFormError(f"unknown generator {tok!r}")
            expect_factor = False
        if expect_factor:
            raise InvalidFormError("dangling operator in element expression")
        return pos, P.normal_form_word(tuple(word), coeff)

    sign = 1
    pending_sign = False
    while pos < len(tokens):
        tok = tokens[pos]
        if tok in ("+", "-"):
            sign = -sign if tok == "-" else sign
            pending_sign = True
            pos += 1
            continue
        pos, term = parse_term(pos, sign)
        total = total + term
        sign = 1
        pending_sign = False
    if pending_sign:
        raise InvalidFormError("dangling operator in element expression")
    return total


def format_element(x: NCPoly, P: Presentation) -> str:
    return x.format(P.names)
