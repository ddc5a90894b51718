"""Lexer for Soda source text.

Line-oriented scanner with offside-rule layout: indentation changes become
``indent``/``dedent`` tokens against a stack of indentation levels, and each
content line at bracket depth zero ends with a ``newline`` token. A line is
scanned first and its layout decided after, so a line that holds no token
(blank, a comment, only illegal characters) has no layout, as in Python's
tokenizer. Inside parentheses or brackets the layout tokens are suppressed,
so bracketed expressions may span lines freely.

A ``//`` comment is no token: it runs to the end of its line and goes to
``LexResult.comments`` with its position, as Go's ``go/scanner`` keeps
comments out of the token stream. The parser attaches a comment to the
declaration after it by position.

Directive blocks are special: after a line whose first token is the
``directive`` reserved word, every following line that is blank or indented
deeper than the directive line is captured verbatim as a ``raw_line`` token.
Raw lines carry target-language text and are never scanned as Soda.

Tokens go to parallel lists (``LexResult``): kind, text, line and column; a
token lies on one line and is as wide as its text. ``parse`` reads the lists
and builds spans only for nodes and diagnostics, as Go's ``token.Pos`` and
rustc's ``Span`` leave positions to a ``token.File`` or ``SourceMap``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

from .syntax import (
    Diagnostic,
    RESERVED_WORDS,
    SourceSpan,
    Token,
    TokenKind,
    error,
    has_errors,
)

# One master pattern, matched at the cursor after the blanks between
# tokens, as in the ``re`` documentation's "Writing a Tokenizer". A group
# named after a token kind gives that kind. ``[^\W\d]`` admits letters and
# "_" but also non-letters such as "½" and "Ⅻ", which ``_scan_content``
# turns away: an identifier starts with ``isalpha()`` or "_". Integer
# literals are runs of decimal digits, which is what ``int`` accepts.
# Operators go longest first; "." only appears in qualified package and
# import names. A string literal is Friedl's "unrolled loop" (*Mastering
# Regular Expressions*, ch. 6): its body is runs of plain characters, each
# escape a backslash and the character after it (if any), and the closing
# quote may be missing at the end of a line. When no group matches, the
# character at the cursor (if any) starts no token.
_TOKEN = re.compile(
    r"""[ \t]*(?:
        (?P<comment>//.*)
      | (?P<string>"(?P<body>[^"\\]*(?:\\.?[^"\\]*)*)"?)
      | (?P<integer_literal>\d+)
      | (?P<word>[^\W\d]\w*)
      | (?P<annotation>@\w+)
      | (?P<open>[(\[])
      | (?P<close>[)\]])
      | (?P<operator_symbol>-->|==>|:=|==|<=|>=|<:|>:|[:=<>+\-*/.])
    )?""",
    re.VERBOSE,
).match

# One escape in a string literal's body.
_ESCAPE = re.compile(r"\\(.?)")

_BRACKETS = {
    "(": TokenKind.OPEN_PAREN,
    ")": TokenKind.CLOSE_PAREN,
    "[": TokenKind.OPEN_BRACKET,
    "]": TokenKind.CLOSE_BRACKET,
}


@dataclass
class LexResult:
    """Token ``i`` is ``kinds[i]`` with lexeme ``texts[i]``, from column
    ``cols[i]`` of line ``lines[i]`` of ``file``, ``len(texts[i])`` wide.
    Each comment is a ``(line, column, text)`` entry of ``comments``, in
    source order; its text runs from the ``//`` to the end of the line."""

    file: str
    kinds: list[str] = field(default_factory=list)
    texts: list[str] = field(default_factory=list)
    lines: list[int] = field(default_factory=list)
    cols: list[int] = field(default_factory=list)
    comments: list[tuple[int, int, str]] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def span(self, i: int) -> SourceSpan:
        """Token ``i``'s span; ``tuple.__new__`` skips ``SourceSpan.__new__``."""
        line, col = self.lines[i], self.cols[i]
        return tuple.__new__(SourceSpan, (self.file, line, col, line, col + len(self.texts[i])))

    @cached_property
    def tokens(self) -> list[Token]:
        """The tokens as ``Token`` values, built when first read."""
        return [Token(self.kinds[i], self.texts[i], self.span(i)) for i in range(len(self.kinds))]

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)


@dataclass
class _Scanner:
    """Mutable cursor over one source text. One instance per tokenize call."""

    source: str
    out: LexResult
    indent_stack: list[int] = field(default_factory=lambda: [0])
    bracket_depth: int = 0
    raw_margin: int | None = None  # the open directive line's indentation, else None

    def span(self, line: int, col_start: int, col_end: int) -> SourceSpan:
        return SourceSpan(self.out.file, line, col_start, line, col_end)

    def emit(self, kind: str, text: str, line: int, col: int) -> None:
        out = self.out
        out.kinds.append(kind)
        out.texts.append(text)
        out.lines.append(line)
        out.cols.append(col)

    def run(self) -> LexResult:
        lines = self.source.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        for lineno, raw in enumerate(lines, start=1):
            self._scan_line(raw[:-1] if raw.endswith("\r") else raw, lineno)
        eof_line = len(lines) + 1
        while len(self.indent_stack) > 1:
            self.indent_stack.pop()
            self.emit(TokenKind.DEDENT, "", eof_line, 1)
        self.emit(TokenKind.END_OF_INPUT, "", eof_line, 1)
        return self.out

    def _layout(self, indent: int, lineno: int, mark: int) -> list[str]:
        """The indent or the dedents that a line at ``indent`` opens or
        closes; a dedent to no enclosing level is reported at ``mark``."""
        stack = self.indent_stack
        if indent > stack[-1]:
            stack.append(indent)
            return [TokenKind.INDENT]
        dedents = []
        while indent < stack[-1]:
            if indent > stack[-2]:
                message = (f"dedent to column {indent + 1} does not match"
                           " any enclosing indentation level")
                span = self.span(lineno, indent + 1, indent + 1)
                self.out.diagnostics.insert(mark, error("E-LEX-004", message, span))
                # Recover by keeping the line in the level it leaves only in
                # part, so no dedent is emitted without its indent.
                break
            stack.pop()
            dedents.append(TokenKind.DEDENT)
        return dedents

    def _scan_line(self, line: str, lineno: int) -> None:
        """Scan the line's tokens, then decide its layout: a line with no
        token gets none; any other line that starts at bracket depth zero
        gets its indent or dedents before its first token. Inside a
        directive block the line is a ``raw_line``."""
        out = self.out
        indent = len(line) - len(line.lstrip(" \t"))
        if self.raw_margin is not None:
            if line.strip() == "":
                self.emit(TokenKind.RAW_LINE, "", lineno, 1)
                return
            if indent > self.raw_margin:
                self.emit(TokenKind.RAW_LINE, line, lineno, 1)
                return
            self.raw_margin = None
        at_depth_zero = self.bracket_depth == 0
        if at_depth_zero and (tab := line.find("\t", 0, indent)) >= 0:
            span = self.span(lineno, tab + 1, tab + 2)
            out.diagnostics.append(error("E-LEX-003", "tab character in indentation", span))
        mark, first = len(out.diagnostics), len(out.kinds)
        self._scan_content(line, lineno, indent)
        if len(out.kinds) == first:
            return
        if at_depth_zero:
            if out.texts[first] == "directive" and out.kinds[first] == TokenKind.RESERVED_WORD:
                self.raw_margin = indent
            if indent != self.indent_stack[-1] and (layout := self._layout(indent, lineno, mark)):
                n = len(layout)
                out.kinds[first:first] = layout
                out.texts[first:first] = [""] * n
                out.lines[first:first] = [lineno] * n
                out.cols[first:first] = [indent + 1] * n
        if self.bracket_depth == 0:
            self.emit(TokenKind.NEWLINE, "", lineno, len(line) + 1)

    def _scan_content(self, line: str, lineno: int, col: int) -> None:
        out, n = self.out, len(line)
        kinds, texts, lines, cols = out.kinds.append, out.texts.append, out.lines.append, out.cols.append
        while True:
            m = _TOKEN(line, col)
            group = m.lastgroup
            if group is None:
                col = m.end()
                if col == n:
                    return
                self._illegal(line, lineno, col)
                col += 1
                continue
            start, col = m.span(group)
            text = m[group]
            if group == "word":
                if not (text[0].isalpha() or text[0] == "_"):
                    self._illegal(line, lineno, start)
                    col = start + 1
                    continue
                kind = TokenKind.RESERVED_WORD if text in RESERVED_WORDS else TokenKind.IDENTIFIER
            elif group == "open":
                self.bracket_depth += 1
                kind = _BRACKETS[text]
            elif group == "close":
                self.bracket_depth = max(0, self.bracket_depth - 1)
                kind = _BRACKETS[text]
            elif group == "string":
                kind = TokenKind.STRING_LITERAL
                if "\\" in text or m.end("body") == col:
                    self._check_string(m, lineno)
            elif group == "comment":  # it runs to the end of the line
                out.comments.append((lineno, start + 1, text))
                return
            else:
                kind = group
            kinds(kind)
            texts(text)
            lines(lineno)
            cols(start + 1)

    def _illegal(self, line: str, lineno: int, col: int) -> None:
        ch = line[col]
        message = "stray '@'" if ch == "@" else f"illegal character {ch!r}"
        self.out.diagnostics.append(error("E-LEX-002", message, self.span(lineno, col + 1, col + 2)))

    def _check_string(self, m: re.Match, lineno: int) -> None:
        """Report each escape in string literal ``m`` other than ``\\\"`` and
        ``\\\\``, and a missing closing quote."""
        start, end = m.span("body")
        for e in _ESCAPE.finditer(m.string, start, end):
            if e[1] != '"' and e[1] != "\\":
                message = f"illegal escape sequence {e[0]!r} in string literal"
                span = self.span(lineno, e.start() + 1, e.end() + 1)
                self.out.diagnostics.append(error("E-LEX-002", message, span))
        if end == m.end():
            span = self.span(lineno, start, end + 1)
            self.out.diagnostics.append(error("E-LEX-001", "unterminated string literal", span))


def decode_string_text(text: str) -> str:
    """Decode a string literal lexeme to its value: each escape becomes the
    character after its backslash, and a backslash that ends an unclosed
    literal stays."""
    return _ESCAPE.sub(lambda e: e[1] or e[0], _TOKEN(text)["body"])


def tokenize(source: str, file: str = "<input>") -> LexResult:
    """Tokenize one Soda source text.

    Always returns tokens ending in ``end_of_input``, with balanced
    indent/dedent tokens, even when diagnostics were produced.
    """
    return _Scanner(source, LexResult(file)).run()
