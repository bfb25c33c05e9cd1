"""WLog tokenizer.

Prolog-style lexical structure plus WLog's literal extensions:

* **percent literals**: ``95%`` (probabilistic requirement levels);
* **duration literals**: ``10h``, ``30m``, ``45s`` -- normalized to
  seconds at lex time;
* comments are ``/* ... */`` only (the ``%`` character is reserved for
  percent literals, as in all of the paper's listings).

Token kinds: ``ATOM``, ``VAR``, ``NUM``, ``PERCENT``, ``PUNCT``
(including multi-character operators), ``END`` (the clause terminator
``.``), ``EOF``.

One compiled regex makes one match per token: the match skips the
whitespace and comments before the token, and its named group says what
the token is.  Lines and columns come from offsets, so a newline counts
as a line wherever it is -- also escaped inside a quoted atom.
"""

from __future__ import annotations

import re
from itertools import accumulate
from typing import Any, NamedTuple

from repro.common.errors import WLogSyntaxError

__all__ = ["Token", "tokenize", "scan"]

#: Multi-character operators, longest first so prefixes don't shadow them.
_OPERATORS = (
    ":-", "\\==", "==", "=<", ">=", "=:=", "=\\=", "->", "\\+",
    "=", "<", ">", "+", "-", "*", "/", ",", "(", ")", "[", "]", "|", "!",
)

_UNIT_SECONDS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}

# ``\d`` is a decimal digit (what ``float`` reads) and ``\w`` is
# ``str.isalnum()`` or ``_``.  Alternatives are tried in order, the
# common kinds first; BAD* stop the scan with an error, and so does a
# WORD that starts with a digit that is not decimal (``²``).  A
# terminated comment is consumed by the possessive skip and never given
# back, and ``/`` is an operator only when no ``*`` follows it, so
# ``/*`` reaches BADCOMMENT only when no ``*/`` follows.
_TOKEN = re.compile(
    r"""(?:[ \t\r\n]+|/\*[\s\S]*?\*/)*+(?:
      (?P<VAR>[A-Z_]\w*)
    | (?P<ATOM>[a-z]\w*)
    | (?P<PUNCT>%s)
    | (?P<NUM>\d+(?:\.\d+)?|\.\d+)(?:(?P<PERCENT>%%)|(?P<DURATION>[smhd])(?!\w))?
    | (?P<END>\.)
    | (?P<QUOTED>'(?:[^'\\\n]|\\[\s\S])*'|"(?:[^"\\\n]|\\[\s\S])*")
    | (?P<BADQUOTE>['"])
    | (?P<WORD>\w+)
    | (?P<BADCOMMENT>/\*)
    | (?P<EOF>\Z)
    | (?P<BAD>[\s\S])
    )"""
    % "|".join(re.escape(op) + ("(?!\\*)" if op == "/" else "") for op in _OPERATORS),
    re.VERBOSE,
)
_ESCAPE = re.compile(r"\\([\s\S])")
_ESCAPED = {"n": "\n", "t": "\t"}
_ERRORS = {"BADCOMMENT": "unterminated /* comment", "BADQUOTE": "unterminated quoted atom"}


class Token(NamedTuple):
    """One lexical token with its source position (1-based)."""

    kind: str
    value: object
    line: int
    column: int

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{self.kind}({self.value!r})@{self.line}:{self.column}"


def _unescape(match: re.Match[str]) -> str:
    return _ESCAPED.get(match[1], match[1])


def scan(text: str) -> list[tuple[str, Any, int, int]]:
    """Tokenize into ``(tag, value, line, column)`` tuples.

    A token's tag is its kind, except that a ``PUNCT`` token's tag is
    the operator itself -- so a parser decides on one string compare.
    The last token is ``EOF``.  Raises :class:`WLogSyntaxError` at the
    first character that starts no token.
    """
    tokens: list[tuple[str, Any, int, int]] = []
    append = tokens.append
    # The offset each line after the first starts at, then one past the
    # text: a token is on the line after every start at or before it.
    line_starts = list(accumulate(len(row) + 1 for row in text.split("\n")))
    line, line_start, next_line_start = 1, 0, line_starts[0]
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        assert kind is not None  # every alternative is a named group
        start, end = match.span(kind)
        while start >= next_line_start:
            line_start = next_line_start
            next_line_start = line_starts[line]
            line += 1
        if kind == "VAR" or kind == "ATOM":
            append((kind, text[start:end], line, start - line_start + 1))
        elif kind == "PUNCT":
            op = text[start:end]
            append((op, op, line, start - line_start + 1))
        elif kind == "NUM" or kind == "PERCENT" or kind == "DURATION":
            number = float(match["NUM"])
            if kind == "DURATION":
                kind, number = "NUM", number * _UNIT_SECONDS[text[start]]
            start = match.start("NUM")
            append((kind, number, line, start - line_start + 1))
        elif kind == "END":
            append((kind, ".", line, start - line_start + 1))
        elif kind == "QUOTED":
            name = text[start + 1 : end - 1]
            if "\\" in name:
                name = _ESCAPE.sub(_unescape, name)
            append(("ATOM", name, line, start - line_start + 1))
        elif kind == "WORD" and text[start].isalpha():
            kind = "VAR" if text[start].isupper() else "ATOM"
            append((kind, text[start:end], line, start - line_start + 1))
        elif kind == "EOF":
            append((kind, None, line, start - line_start + 1))
            break  # after trailing blanks, finditer would match EOF again
        else:
            message = _ERRORS.get(kind) or f"unexpected character {text[start]!r}"
            raise WLogSyntaxError(message, line, start - line_start + 1, source=text)
    return tokens


_KINDS = {op: "PUNCT" for op in _OPERATORS}


def tokenize(text: str) -> list[Token]:
    """Tokenize WLog source text; raises :class:`WLogSyntaxError` on junk."""
    return [
        Token(_KINDS.get(tag, tag), value, line, column) for tag, value, line, column in scan(text)
    ]
