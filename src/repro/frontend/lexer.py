"""The lexer for the surface language's concrete syntax.

Tokens carry full source spans (1-based line/column of both ends) so the
parser and the driver can attach precise locations to diagnostics.  The
token language is the small Haskell subset the paper's examples use:

* identifiers with optional trailing ``#`` marks (``sumTo#``, ``Int#``,
  ``quotInt#``) and primes;
* symbolic operators (``+#``, ``==##``, ``$``, ``.``, ``->``, ``::``, …);
* unboxed literals ``3#`` and ``2.5##`` alongside boxed ``3``;
* string and character literals with the usual escapes;
* unboxed tuple brackets ``(#`` / ``#)``, parens, brackets, braces;
* ``--`` line comments and nested ``{- … -}`` block comments.

There is no layout algorithm: a token in column 1 always begins a new
top-level declaration (the parser enforces this), and ``case``/``of``
alternatives use explicit ``{ … ; … }`` braces — the same concrete form
:meth:`repro.surface.ast.ECase.pretty` prints.

:func:`tokenize` matches one compiled master regex per token, not per
character (design: docs/PERF.md, "Frontend").
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from typing import List

from ..core.errors import ParseError

#: Characters that may make up a symbolic operator.
SYMBOL_CHARS = set("!#$%&*+./<=>?^|-~:@")

#: Keywords of the surface language.
KEYWORDS = frozenset({
    "forall", "let", "in", "if", "then", "else", "case", "of",
    "where", "data", "class", "instance", "module", "import",
})

#: Symbolic tokens with reserved meaning (never infix operators).
RESERVED_SYMBOLS = frozenset({"::", "->", "=>", "=", "|", "@"})


class _Value:
    """Frozen-dataclass semantics (fields compare and hash as a tuple and
    cannot be assigned or deleted) for slotted classes whose constructors,
    run once per token, set slots through the slot descriptors: about twice
    as fast as a frozen dataclass's ``object.__setattr__`` calls."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class Span(_Value):
    """A half-open source region, 1-based lines and columns."""

    __slots__ = ("line", "column", "end_line", "end_column")

    def __init__(self, line: int, column: int, end_line: int,
                 end_column: int) -> None:
        _set_line(self, line)
        _set_column(self, column)
        _set_end_line(self, end_line)
        _set_end_column(self, end_column)

    def merge(self, other: "Span") -> "Span":
        return Span(self.line, self.column, other.end_line, other.end_column)

    def pretty(self) -> str:
        return f"{self.line}:{self.column}"

    def __repr__(self) -> str:
        return f"Span({self.line}:{self.column}-{self.end_line}:{self.end_column})"


_set_line = Span.line.__set__
_set_column = Span.column.__set__
_set_end_line = Span.end_line.__set__
_set_end_column = Span.end_column.__set__


class Token(_Value):
    """One lexeme with its kind, semantic value and source span."""

    #: kind is one of: conid varid symbol keyword int inthash doublehash
    #: string char lparen rparen lhash rhash lbracket rbracket lbrace
    #: rbrace comma semi backslash underscore eof
    __slots__ = ("kind", "text", "value", "span")

    def __init__(self, kind: str, text: str, value: object,
                 span: Span) -> None:
        _set_kind(self, kind)
        _set_text(self, text)
        _set_value(self, value)
        _set_span(self, span)

    @property
    def line(self) -> int:
        return self.span.line

    @property
    def column(self) -> int:
        return self.span.column

    def is_symbol(self, text: str) -> bool:
        return self.kind == "symbol" and self.text == text

    def is_keyword(self, text: str) -> bool:
        return self.kind == "keyword" and self.text == text

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.span.pretty()})"


_set_kind = Token.kind.__set__
_set_text = Token.text.__set__
_set_value = Token.value.__set__
_set_span = Token.span.__set__


_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\",
            '"': '"', "'": "'", "0": "\0"}


def _char_class(chars) -> str:
    return "[" + "".join(re.escape(ch) for ch in sorted(chars)) + "]"


_SYMBOL = _char_class(SYMBOL_CHARS)
_ESCAPE = r"\\[ntr\\" + "\"'0]"

#: One alternative per token shape, tried in this order after the trivia
#: prefix.  The order settles the overlaps: ``{-`` before ``{``, ``(#``
#: before ``(``, ``#)`` before a symbol, well-formed literals before the
#: bare quote that reports what is wrong with them, and the numeric shapes
#: longest first.  ``other`` must stay last: because some alternative always
#: matches once the trivia is consumed, the engine never backtracks into the
#: trivia prefix (Python 3.10 has no atomic groups), so no token is ever
#: taken from inside a comment.
_TOKEN_SHAPES = [
    ("newline", r"\n"),
    ("varid", r"[a-z_][\w']*#*"),
    ("lhash", r"\(#(?!" + _SYMBOL + ")"),
    ("lparen", r"\("),
    ("rparen", r"\)"),
    ("rhash", r"#\)"),
    ("symbol", _SYMBOL + "+"),
    ("conid", r"[A-Z][\w']*#*"),
    ("doublehash", r"[0-9]+(?:\.[0-9]+)?##"),
    ("fractional", r"[0-9]+\.[0-9]+#?"),
    ("inthash", r"[0-9]+#"),
    ("int", r"[0-9]+"),
    ("comma", ","),
    ("semi", ";"),
    ("comment", r"\{-"),
    ("lbrace", r"\{"),
    ("rbrace", r"\}"),
    ("lbracket", r"\["),
    ("rbracket", r"\]"),
    ("backslash", r"\\"),
    ("string", r'"(?:[^"\\\n]|' + _ESCAPE + ')*"'),
    ("char", r"'(?:[^\\\n]|" + _ESCAPE + ")'"),
    ("bad_literal", "[\"']"),
    ("name", r"\w[\w']*#*"),     # a non-ASCII first character
    ("eof", r"\Z"),
    ("other", r"(?s:.)"),
]

#: Leading blanks and ``--`` line comments, then exactly one token (or a
#: newline, which keeps the line count a plain increment).  A ``--``
#: followed by another symbol character (``-->``) is an operator.
_TOKEN = re.compile(
    r"(?:[ \t\r]+|--(?!" + _char_class(SYMBOL_CHARS - {"-"}) + r")[^\n]*)*"
    "(?:" + "|".join(f"(?P<{kind}>{shape})" for kind, shape in _TOKEN_SHAPES)
    + ")")

_STRING_ESCAPE = re.compile(r"\\(.)")

#: Token kinds whose text is also their value.
_PLAIN = frozenset({"lparen", "rparen", "lhash", "rhash", "symbol", "conid",
                    "comma", "semi", "lbrace", "rbrace", "lbracket",
                    "rbracket", "backslash"})


def tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenise ``source``; the final token always has kind ``eof``."""
    tokens: List[Token] = []
    append = tokens.append
    match = _TOKEN.match
    pos = line_start = 0
    line = 1
    while True:
        found = match(source, pos)
        kind = found.lastgroup
        start = found.start(kind)
        pos = found.end()
        if kind == "newline":
            line += 1
            line_start = pos
            continue
        column = start - line_start + 1
        text = source[start:pos]
        if kind == "varid":
            value = text
            if text in KEYWORDS:
                kind = "keyword"
            elif text == "_":
                kind = "underscore"
        elif kind in _PLAIN:
            value = text
        elif kind == "int":
            value = int(text)
        elif kind == "inthash":
            value = int(text[:-1])
        elif kind == "doublehash":
            value = float(text[:-2])
        elif kind == "string":
            value = text[1:-1]
            if "\\" in value:
                value = _STRING_ESCAPE.sub(
                    lambda escape: _ESCAPES[escape.group(1)], value)
        elif kind == "char":
            value = _ESCAPES[text[2]] if text[1] == "\\" else text[1]
            text = repr(value)
        elif kind == "comment":
            pos = _skip_block_comment(source, pos, line, column)
            newlines = source.count("\n", start, pos)
            if newlines:
                line += newlines
                line_start = source.rfind("\n", start, pos) + 1
            continue
        elif kind == "eof":
            append(Token("eof", "", None, Span(line, column, line, column)))
            return tokens
        elif kind == "name" and text[0].isalpha():
            kind = "conid" if text[0].isupper() else "varid"
            value = text
        else:
            raise _token_error(kind, text, source, start, line, column)
        append(Token(kind, text, value,
                     Span(line, column, line, column + pos - start)))


def _skip_block_comment(source: str, pos: int, line: int, column: int) -> int:
    """The offset just past a nested ``{- -}`` comment whose body starts at
    ``pos``; ``line``/``column`` locate its opener for the diagnostic."""
    depth = 1
    opener = source.find("{-", pos)
    closer = source.find("-}", pos)
    while closer >= 0:
        if 0 <= opener < closer:
            depth += 1
            pos = opener + 2
            opener = source.find("{-", pos)
            if closer < pos:  # "{-}": the '-' opened, so it cannot close
                closer = source.find("-}", pos)
        else:
            depth -= 1
            pos = closer + 2
            if not depth:
                return pos
            closer = source.find("-}", pos)
    raise ParseError("unterminated block comment", line, column)


def _token_error(kind: str, text: str, source: str, start: int,
                 line: int, column: int) -> ParseError:
    """The diagnostic for a match that is not a token."""
    if kind == "fractional":
        if text.endswith("#"):
            return ParseError(
                f"malformed literal {text!r}: a fractional literal needs "
                "two trailing hashes (Double#)", line, column)
        return ParseError(
            f"unsupported literal {text!r}: boxed fractional literals "
            "are not in the surface language (use e.g. 2.5##)", line, column)
    if kind != "bad_literal":
        return ParseError(f"unexpected character {text[0]!r}", line, column)
    # A string or character literal the pattern rejected: find the first
    # fault, scanning as far as the literal may reach (it cannot cross a
    # newline, so columns are offsets from ``start``).
    if text == "'":
        escape = source[start + 2:start + 3]
        if source[start + 1:start + 2] == "\\" and escape not in _ESCAPES:
            return _escape_error(escape, line, column + 1)
        return ParseError("unterminated character literal", line, column)
    pos = start + 1
    while True:
        ch = source[pos:pos + 1]
        if ch == "" or ch == "\n":
            return ParseError("unterminated string literal", line, column)
        if ch == "\\":
            escape = source[pos + 1:pos + 2]
            if escape not in _ESCAPES:
                return _escape_error(escape, line, column + pos - start)
            pos += 2
        else:
            pos += 1


def _escape_error(escape: str, line: int, column: int) -> ParseError:
    """An unknown escape whose backslash is at ``line``/``column``; the
    position reported is just past the escape character."""
    if escape == "\n":
        return ParseError("unknown escape \\\n", line + 1, 1)
    return ParseError(f"unknown escape \\{escape}",
                      line, column + 1 + len(escape))
