"""Text grammar for group recipes.

    spec := atom ("x" atom)*
    atom := "C" int | "D" int | "SD(" k "," l ";" t ")"
          | "SDZ2(" n ";" s ")" | "Hol(" spec ")" | "A4"

Whitespace-insensitive.  Product chains are canonically left-associated,
and ``canonical_text`` of a parsed spec parses back to an identical spec.
Syntax errors carry position and expected-token information; parameter
problems (e.g. a twist that is not a unit) raise SpecSemanticError
instead.  The bounds below are syntax errors too, so no recipe meets
Python's limits on integer text or recursion.
"""

from __future__ import annotations

import re

from .errors import SpecSyntaxError
from .factory import (
    Alternating4,
    Cyclic,
    Dihedral,
    DirectProduct,
    GroupSpec,
    Holomorph,
    SemidirectCC,
    SemidirectZ2,
    validate_spec,
)

MAX_DIGITS = 100   # digits in one integer
MAX_NESTING = 8    # "Hol(" levels open at once
MAX_FACTORS = 16   # atoms in one "x" chain

_TOKEN_RE = re.compile(r"(SDZ2|SD|Hol|A4|C|D|x|\(|\)|,|;|\d+)")

# The atoms other than "Hol(": each keyword's spec class and the tokens
# after the keyword, "n" standing for an integer, as in the grammar above.
_ATOMS = {
    "C": (Cyclic, "n"),
    "D": (Dihedral, "n"),
    "SD": (SemidirectCC, "(n,n;n)"),
    "SDZ2": (SemidirectZ2, "(n;n)"),
    "A4": (Alternating4, ""),
}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SpecSyntaxError(f"unrecognized input {text[pos]!r}", pos)
        tokens.append((m.group(1), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def _peek(self):
        if self.i < len(self.tokens):
            return self.tokens[self.i]
        return (None, len(self.text))

    def _advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect(self, kind: str):
        tok, pos = self._peek()
        if tok != kind:
            raise SpecSyntaxError(
                f"found {tok!r}" if tok else "unexpected end of input",
                pos,
                expected=repr(kind),
            )
        self._advance()

    def _int(self) -> int:
        tok, pos = self._peek()
        if tok is None or not tok.isdigit():
            raise SpecSyntaxError(
                f"found {tok!r}" if tok else "unexpected end of input",
                pos,
                expected="integer",
            )
        if len(tok) > MAX_DIGITS:
            raise SpecSyntaxError(f"integer of more than {MAX_DIGITS} digits", pos)
        self._advance()
        return int(tok)

    def parse(self) -> GroupSpec:
        spec = self._product()
        tok, pos = self._peek()
        if tok is not None:
            raise SpecSyntaxError(f"trailing input {tok!r}", pos, expected="end of input")
        return spec

    def _product(self, nesting=0) -> GroupSpec:
        """A chain of atoms inside ``nesting`` open ``Hol(``."""
        spec, factors = self._atom(nesting), 1
        while True:
            tok, pos = self._peek()
            if tok != "x":
                return spec
            if factors == MAX_FACTORS:
                raise SpecSyntaxError(f"more than {MAX_FACTORS} factors", pos)
            self._advance()
            spec = DirectProduct(spec, self._atom(nesting))
            factors += 1

    def _atom(self, nesting) -> GroupSpec:
        tok, pos = self._peek()
        if tok in _ATOMS:
            self._advance()
            make, shape = _ATOMS[tok]
            args = []
            for part in shape:
                if part == "n":
                    args.append(self._int())
                else:
                    self._expect(part)
            return make(*args)
        if tok == "Hol":
            if nesting == MAX_NESTING:
                raise SpecSyntaxError(f"Hol nested more than {MAX_NESTING} deep", pos)
            self._advance()
            self._expect("(")
            inner = self._product(nesting + 1)
            self._expect(")")
            return Holomorph(inner)
        raise SpecSyntaxError(
            f"found {tok!r}" if tok else "unexpected end of input",
            pos,
            expected="one of C, D, SD, SDZ2, Hol, A4",
        )


def parse_group_spec(text: str) -> GroupSpec:
    """Parse and semantically validate a group recipe."""
    spec = _Parser(text).parse()
    validate_spec(spec)
    return spec


def canonical_text(spec: GroupSpec) -> str:
    return spec.text()
