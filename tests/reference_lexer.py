"""The character-at-a-time lexer the frontend shipped with, kept as a test oracle.

:func:`repro.frontend.lexer.tokenize` replaced this scanner with one compiled
master regex.  The class below is the old implementation, unchanged: the
property tests in ``test_frontend_roundtrip.py`` require the production
lexer to produce the same tokens (kind, text, value and span) or the same
:class:`~repro.core.errors.ParseError` (message, line and column) on every
input.  Do not use it outside the tests.
"""

from __future__ import annotations

from typing import List

from repro.core.errors import ParseError
from repro.frontend.lexer import KEYWORDS, SYMBOL_CHARS, Span, Token

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\",
            '"': '"', "'": "'", "0": "\0"}

#: ASCII digits only: unicode "digits" like '²' satisfy str.isdigit() but
#: are not valid in numeric literals (found by the parser fuzz test).
_ASCII_DIGITS = frozenset("0123456789")


class Lexer:
    """Tokenise surface-language source text."""

    def __init__(self, source: str, filename: str = "<input>") -> None:
        self.source = source
        self.filename = filename
        self.pos = 0
        self.line = 1
        self.column = 1

    # -- low-level cursor ----------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.source[index] if index < len(self.source) else ""

    def _advance(self, count: int = 1) -> str:
        taken = self.source[self.pos:self.pos + count]
        for ch in taken:
            if ch == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return taken

    def _error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.column)

    def _span_from(self, line: int, column: int) -> Span:
        return Span(line, column, self.line, self.column)

    # -- whitespace and comments --------------------------------------------

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "-" and self._peek(1) == "-" and \
                    self._peek(2) not in SYMBOL_CHARS - {"-"}:
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "{" and self._peek(1) == "-":
                self._skip_block_comment()
            else:
                return

    def _skip_block_comment(self) -> None:
        start_line, start_column = self.line, self.column
        self._advance(2)
        depth = 1
        while depth:
            if self.pos >= len(self.source):
                raise ParseError("unterminated block comment",
                                 start_line, start_column)
            if self._peek() == "{" and self._peek(1) == "-":
                self._advance(2)
                depth += 1
            elif self._peek() == "-" and self._peek(1) == "}":
                self._advance(2)
                depth -= 1
            else:
                self._advance()

    # -- token scanners ------------------------------------------------------

    def _scan_name(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        while True:
            ch = self._peek()
            if ch and (ch.isalnum() or ch in "_'"):
                self._advance()
            else:
                break
        while self._peek() == "#":
            self._advance()
        text = self.source[start:self.pos]
        span = self._span_from(line, column)
        if text in KEYWORDS:
            return Token("keyword", text, text, span)
        if text == "_":
            return Token("underscore", text, text, span)
        kind = "conid" if text[0].isupper() else "varid"
        return Token(kind, text, text, span)

    def _scan_number(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        while self._peek() in _ASCII_DIGITS:
            self._advance()
        has_dot = False
        if self._peek() == "." and self._peek(1) in _ASCII_DIGITS:
            has_dot = True
            self._advance()
            while self._peek() in _ASCII_DIGITS:
                self._advance()
        digits = self.source[start:self.pos]
        hashes = 0
        while self._peek() == "#" and hashes < 2:
            self._advance()
            hashes += 1
        span = self._span_from(line, column)
        text = self.source[start:self.pos]
        if hashes == 2:
            return Token("doublehash", text, float(digits), span)
        if hashes == 1:
            if has_dot:
                raise ParseError(
                    f"malformed literal {text!r}: a fractional literal needs "
                    "two trailing hashes (Double#)", line, column)
            return Token("inthash", text, int(digits), span)
        if has_dot:
            raise ParseError(
                f"unsupported literal {text!r}: boxed fractional literals "
                "are not in the surface language (use e.g. 2.5##)",
                line, column)
        return Token("int", text, int(digits), span)

    def _scan_string(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        self._advance()  # opening quote
        chunks: List[str] = []
        while True:
            ch = self._peek()
            if ch == "" or ch == "\n":
                raise ParseError("unterminated string literal", line, column)
            if ch == '"':
                self._advance()
                break
            if ch == "\\":
                self._advance()
                escape = self._advance()
                if escape not in _ESCAPES:
                    raise ParseError(f"unknown escape \\{escape}",
                                     self.line, self.column)
                chunks.append(_ESCAPES[escape])
            else:
                chunks.append(self._advance())
        span = self._span_from(line, column)
        return Token("string", self.source[start:self.pos],
                     "".join(chunks), span)

    def _scan_char(self) -> Token:
        line, column = self.line, self.column
        self._advance()  # opening quote
        ch = self._peek()
        if ch == "\\":
            self._advance()
            escape = self._advance()
            if escape not in _ESCAPES:
                raise ParseError(f"unknown escape \\{escape}",
                                 self.line, self.column)
            value = _ESCAPES[escape]
        elif ch == "" or ch == "\n":
            raise ParseError("unterminated character literal", line, column)
        else:
            value = self._advance()
        if self._peek() != "'":
            raise ParseError("unterminated character literal", line, column)
        self._advance()
        return Token("char", repr(value), value,
                     self._span_from(line, column))

    def _scan_symbol(self) -> Token:
        line, column = self.line, self.column
        start = self.pos
        while self._peek() in SYMBOL_CHARS:
            self._advance()
        text = self.source[start:self.pos]
        return Token("symbol", text, text, self._span_from(line, column))

    # -- the main loop -------------------------------------------------------

    def tokens(self) -> List[Token]:
        out: List[Token] = []
        while True:
            self._skip_trivia()
            if self.pos >= len(self.source):
                out.append(Token("eof", "", None,
                                 Span(self.line, self.column,
                                      self.line, self.column)))
                return out
            out.append(self._next_token())

    _SINGLE = {
        ")": "rparen", "[": "lbracket", "]": "rbracket",
        "{": "lbrace", "}": "rbrace", ",": "comma", ";": "semi",
    }

    def _next_token(self) -> Token:
        ch = self._peek()
        line, column = self.line, self.column

        if ch == "(":
            if self._peek(1) == "#" and self._peek(2) not in SYMBOL_CHARS:
                self._advance(2)
                return Token("lhash", "(#", "(#",
                             self._span_from(line, column))
            self._advance()
            return Token("lparen", "(", "(", self._span_from(line, column))

        if ch == "#" and self._peek(1) == ")":
            self._advance(2)
            return Token("rhash", "#)", "#)", self._span_from(line, column))

        if ch in self._SINGLE:
            self._advance()
            return Token(self._SINGLE[ch], ch, ch,
                         self._span_from(line, column))

        if ch == "\\":
            self._advance()
            return Token("backslash", "\\", "\\",
                         self._span_from(line, column))

        if ch == '"':
            return self._scan_string()
        if ch == "'":
            return self._scan_char()
        if ch in _ASCII_DIGITS:
            return self._scan_number()
        if ch.isalpha() or ch == "_":
            return self._scan_name()
        if ch in SYMBOL_CHARS:
            return self._scan_symbol()

        raise self._error(f"unexpected character {ch!r}")


def reference_tokenize(source: str, filename: str = "<input>") -> List[Token]:
    """Tokenise ``source`` one character at a time."""
    return Lexer(source, filename).tokens()
