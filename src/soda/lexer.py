"""Lexer for Soda source text.

Line-oriented scanner with offside-rule layout: indentation changes become
``indent``/``dedent`` tokens against a stack of indentation levels, and each
content line at bracket depth zero ends with a ``newline`` token. Inside
parentheses or brackets the layout tokens are suppressed, so bracketed
expressions may span lines freely.

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
# import names. When no group matches, the character at the cursor (if any)
# starts no token.
_TOKEN = re.compile(
    r"""[ \t]*(?:
        (?P<comment>//.*)
      | (?P<string>")
      | (?P<integer_literal>\d+)
      | (?P<word>[^\W\d]\w*)
      | (?P<annotation>@\w+)
      | (?P<open>[(\[])
      | (?P<close>[)\]])
      | (?P<operator_symbol>-->|==>|:=|==|<=|>=|<:|>:|[:=<>+\-*/.])
    )?""",
    re.VERBOSE,
).match

_BRACKETS = {
    "(": TokenKind.OPEN_PAREN,
    ")": TokenKind.CLOSE_PAREN,
    "[": TokenKind.OPEN_BRACKET,
    "]": TokenKind.CLOSE_BRACKET,
}


@dataclass
class LexResult:
    """Token ``i`` is ``kinds[i]`` with lexeme ``texts[i]``, from column
    ``cols[i]`` of line ``lines[i]`` of ``file``, ``len(texts[i])`` wide."""

    file: str
    kinds: list[str] = field(default_factory=list)
    texts: list[str] = field(default_factory=list)
    lines: list[int] = field(default_factory=list)
    cols: list[int] = field(default_factory=list)
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
    raw_mode: bool = False
    raw_threshold: int = 0

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
            line = raw[:-1] if raw.endswith("\r") else raw
            if self.raw_mode and self._try_raw_line(line, lineno):
                continue
            self._scan_line(line, lineno)
        eof_line = len(lines) + 1
        while len(self.indent_stack) > 1:
            self.indent_stack.pop()
            self.emit(TokenKind.DEDENT, "", eof_line, 1)
        self.emit(TokenKind.END_OF_INPUT, "", eof_line, 1)
        return self.out

    # ---------- raw (directive) lines ----------

    def _try_raw_line(self, line: str, lineno: int) -> bool:
        """Capture one directive-body line; False ends raw mode and hands the
        line back to normal scanning."""
        if line.strip() == "":
            self.emit(TokenKind.RAW_LINE, "", lineno, 1)
            return True
        indent = len(line) - len(line.lstrip(" \t"))
        if indent > self.raw_threshold:
            self.emit(TokenKind.RAW_LINE, line, lineno, 1)
            return True
        self.raw_mode = False
        return False

    # ---------- normal lines ----------

    def _measure_indent(self, line: str, lineno: int) -> int:
        col = 0
        tab_reported = False
        while col < len(line) and line[col] in " \t":
            if line[col] == "\t" and not tab_reported:
                self.out.diagnostics.append(
                    error("E-LEX-003", "tab character in indentation", self.span(lineno, col + 1, col + 2))
                )
                tab_reported = True
            col += 1
        return col

    def _apply_layout(self, indent: int, lineno: int) -> tuple[int, ...]:
        """Emit the indent or the dedents that a line at ``indent`` opens or
        closes, and return the levels closed, innermost first."""
        if indent > self.indent_stack[-1]:
            self.indent_stack.append(indent)
            self.emit(TokenKind.INDENT, "", lineno, indent + 1)
            return ()
        closed = ()
        while indent < self.indent_stack[-1]:
            if indent > self.indent_stack[-2]:
                message = (f"dedent to column {indent + 1} does not match"
                           " any enclosing indentation level")
                span = self.span(lineno, indent + 1, indent + 1)
                self.out.diagnostics.append(error("E-LEX-004", message, span))
                # Recover by keeping the line in the level it leaves only in
                # part, so no dedent is emitted without its indent.
                break
            closed += (self.indent_stack.pop(),)
            self.emit(TokenKind.DEDENT, "", lineno, indent + 1)
        return closed

    def _scan_line(self, line: str, lineno: int) -> None:
        out = self.out
        layout_index = len(out.kinds)
        if self.bracket_depth == 0:
            indent = self._measure_indent(line, lineno)
            rest = line[indent:]
            if rest == "":
                return
            if rest.startswith("//"):
                self.emit(TokenKind.COMMENT, rest, lineno, indent + 1)
                return
            closed = self._apply_layout(indent, lineno)
            col = indent
        else:
            col, closed = 0, ()

        first_token_index = len(out.kinds)
        line_opened_at_depth_zero = self.bracket_depth == 0
        self._scan_content(line, lineno, col)
        if first_token_index == len(out.kinds):
            # Only illegal characters: the line lexes as a blank one, so its
            # layout tokens are taken back and it gets no newline.
            if first_token_index > layout_index:
                if out.kinds[layout_index] == TokenKind.INDENT:
                    self.indent_stack.pop()
                self.indent_stack += reversed(closed)
                for column in (out.kinds, out.texts, out.lines, out.cols):
                    del column[layout_index:]
            return
        if self.bracket_depth == 0:
            self.emit(TokenKind.NEWLINE, "", lineno, len(line) + 1)
        if (
            line_opened_at_depth_zero
            and first_token_index < len(self.out.kinds)
            and self.out.kinds[first_token_index] == TokenKind.RESERVED_WORD
            and self.out.texts[first_token_index] == "directive"
        ):
            self.raw_mode = True
            self.raw_threshold = len(line) - len(line.lstrip(" \t"))

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
                col = self._scan_string(line, lineno, start)
                continue
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

    def _scan_string(self, line: str, lineno: int, col: int) -> int:
        """Scan a string literal from its opening quote. Only ``\\\"`` and
        ``\\\\`` escapes exist; anything else after a backslash is an error.
        An unterminated literal is closed at end of line."""
        n = len(line)
        end = col + 1
        while end < n:
            ch = line[end]
            if ch == '"':
                self.emit(TokenKind.STRING_LITERAL, line[col : end + 1], lineno, col + 1)
                return end + 1
            if ch == "\\":
                if end + 1 < n and line[end + 1] in ('"', "\\"):
                    end += 2
                    continue
                bad = line[end : end + 2]
                self.out.diagnostics.append(
                    error(
                        "E-LEX-002",
                        f"illegal escape sequence {bad!r} in string literal",
                        self.span(lineno, end + 1, end + 1 + len(bad)),
                    )
                )
                end += 2
                continue
            end += 1
        self.out.diagnostics.append(
            error("E-LEX-001", "unterminated string literal", self.span(lineno, col + 1, n + 1))
        )
        self.emit(TokenKind.STRING_LITERAL, line[col:n], lineno, col + 1)
        return n


def decode_string_text(text: str) -> str:
    """Decode a string literal lexeme (quotes included when present) to its
    value. Tolerates the recovery forms the scanner can produce."""
    body = text[1:] if text.startswith('"') else text
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            out.append(body[i + 1])
            i += 2
            continue
        if ch == '"':
            break
        out.append(ch)
        i += 1
    return "".join(out)


def tokenize(source: str, file: str = "<input>") -> LexResult:
    """Tokenize one Soda source text.

    Always returns tokens ending in ``end_of_input``, with balanced
    indent/dedent tokens, even when diagnostics were produced.
    """
    return _Scanner(source, LexResult(file)).run()
