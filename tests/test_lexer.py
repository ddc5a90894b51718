"""Token-level behavior: classification, layout, strings, raw capture."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from astgen import random_program
from soda import DIAGNOSTIC_CODES, SourceSpan, TokenKind, parse, pretty_print, tokenize
from soda.lexer import decode_string_text
from soda.syntax import error, escape_string


def kinds(source):
    return [t.kind for t in tokenize(source).tokens]


def texts(source, kind):
    return [t.text for t in tokenize(source).tokens if t.kind == kind]


def codes(source):
    return [d.code for d in tokenize(source).diagnostics]


def test_reserved_words_are_not_identifiers():
    res = tokenize("class lambda match widget end")
    words = [(t.kind, t.text) for t in res.tokens if t.kind in
             (TokenKind.RESERVED_WORD, TokenKind.IDENTIFIER)]
    assert words == [
        (TokenKind.RESERVED_WORD, "class"),
        (TokenKind.RESERVED_WORD, "lambda"),
        (TokenKind.RESERVED_WORD, "match"),
        (TokenKind.IDENTIFIER, "widget"),
        (TokenKind.RESERVED_WORD, "end"),
    ]


def test_operator_maximal_munch():
    assert texts("a --> b ==> c := d", TokenKind.OPERATOR_SYMBOL) == [
        "-->", "==>", ":="]
    assert texts("x<=y>=z==w", TokenKind.OPERATOR_SYMBOL) == ["<=", ">=", "=="]
    assert texts("A<:B>:C", TokenKind.OPERATOR_SYMBOL) == ["<:", ">:"]
    # '-->' must not decompose into '-' '-' '>'
    assert texts("f:Int-->Bool", TokenKind.OPERATOR_SYMBOL) == [":", "-->"]


def test_underscore_is_an_identifier():
    res = tokenize("_ x_ _y")
    names = [t.text for t in res.tokens if t.kind == TokenKind.IDENTIFIER]
    assert names == ["_", "x_", "_y"]


def test_integer_literal_token():
    res = tokenize("value = 120")
    lits = [t for t in res.tokens if t.kind == TokenKind.INTEGER_LITERAL]
    assert len(lits) == 1 and lits[0].text == "120"


def test_integer_literals_are_runs_of_decimal_digits():
    # "٣" (ARABIC-INDIC DIGIT THREE) is a decimal digit: it lexes as an
    # integer literal and reads as 3, as int() reads it. "²" is a digit but
    # not a decimal one and "½" is a number but not a digit: at token start
    # both are illegal characters, and inside an identifier they stay part
    # of it.
    def lex(text):
        res = tokenize(text)
        toks = [(t.kind, t.text) for t in res.tokens if t.kind not in _LAYOUT]
        return toks, [(d.code, d.message, d.span.col_start) for d in res.diagnostics]

    assert lex("٣") == ([(TokenKind.INTEGER_LITERAL, "٣")], [])
    assert lex("²") == ([], [("E-LEX-002", "illegal character '²'", 1)])
    assert lex("½") == ([], [("E-LEX-002", "illegal character '½'", 1)])
    assert lex("1²") == (
        [(TokenKind.INTEGER_LITERAL, "1")], [("E-LEX-002", "illegal character '²'", 2)])
    assert lex("a²b a½ _٣") == (
        [(TokenKind.IDENTIFIER, "a²b"), (TokenKind.IDENTIFIER, "a½"), (TokenKind.IDENTIFIER, "_٣")], [])

    def parsed(text):
        return parse(f"class A\n\n  x : Int = {text}\n\nend\n")

    res = parsed("٣")
    assert res.diagnostics == [] and res.program.items[0].members[0].body.value == 3
    for text, col in (("²", 13), ("½", 13), ("1²", 14)):
        assert ("E-LEX-002", col) in [(d.code, d.span.col_start) for d in parsed(text).diagnostics]


def test_string_with_valid_escapes():
    res = tokenize('greet = "say \\"hi\\" and \\\\ back"')
    assert res.ok
    lits = [t for t in res.tokens if t.kind == TokenKind.STRING_LITERAL]
    assert len(lits) == 1


def test_string_with_unknown_escape_is_rejected():
    assert "E-LEX-002" in codes('bad = "a\\nb"')


def test_unterminated_string_is_rejected_and_closed_at_line_end():
    res = tokenize('bad = "runs off\nnext = 1')
    assert any(d.code == "E-LEX-001" for d in res.diagnostics)
    # recovery: the next line still tokenizes
    assert "next" in [t.text for t in res.tokens if t.kind == TokenKind.IDENTIFIER]


@given(st.text(st.characters(blacklist_characters="\n\r"), max_size=40))
@settings(max_examples=300, deadline=None)
def test_an_escaped_string_lexes_as_one_literal_and_decodes_back(value):
    res = tokenize(f'"{escape_string(value)}"')
    assert res.diagnostics == []
    assert res.kinds == [TokenKind.STRING_LITERAL, TokenKind.NEWLINE, TokenKind.END_OF_INPUT]
    assert decode_string_text(res.texts[0]) == value


# The per-character string scanner and decoder that the one string pattern
# replaced, kept as the reference for the property below.
def _reference_scan_string(line, col, tokens, diagnostics):
    n = len(line)
    end = col + 1
    while end < n:
        ch = line[end]
        if ch == '"':
            tokens.append((TokenKind.STRING_LITERAL, line[col : end + 1], col + 1))
            return end + 1
        if ch == "\\":
            if end + 1 < n and line[end + 1] in ('"', "\\"):
                end += 2
                continue
            bad = line[end : end + 2]
            diagnostics.append(("E-LEX-002", f"illegal escape sequence {bad!r} in string literal",
                                end + 1, end + 1 + len(bad)))
            end += 2
            continue
        end += 1
    diagnostics.append(("E-LEX-001", "unterminated string literal", col + 1, n + 1))
    tokens.append((TokenKind.STRING_LITERAL, line[col:n], col + 1))
    return n


def _reference_decode(text):
    body = text[1:] if text.startswith('"') else text
    out = []
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


def _reference_line(line):
    """The tokens (kind, text, column), comments (line, column, text) and
    diagnostics of one line over the alphabet below, with strings read by
    the reference scanner."""
    tokens, comments, diagnostics, i = [], [], [], 0
    while i < len(line):
        ch = line[i]
        if ch in " \t":
            i += 1
        elif line.startswith("//", i):
            comments.append((1, i + 1, line[i:]))
            break
        elif ch == "/":
            tokens.append((TokenKind.OPERATOR_SYMBOL, ch, i + 1))
            i += 1
        elif ch in "ab":
            start = i
            while i < len(line) and line[i] in "ab":
                i += 1
            tokens.append((TokenKind.IDENTIFIER, line[start:i], start + 1))
        elif ch == '"':
            i = _reference_scan_string(line, i, tokens, diagnostics)
        else:
            diagnostics.append(("E-LEX-002", f"illegal character {ch!r}", i + 1, i + 2))
            i += 1
    return tokens, comments, [error(code, message, SourceSpan("<input>", 1, a, 1, b)).render()
                              for code, message, a, b in diagnostics]


@given(st.text(st.sampled_from(['"', "\\", "a", "b", " ", "\t", "/", "\r", "\x0c", "\xa0"]), max_size=30))
@example('"a\\')
@example('"\\"')
@settings(max_examples=1000, deadline=None)
def test_string_literals_lex_and_decode_as_the_per_character_scanner_did(text):
    line = "a " + text  # no leading blank, so no layout and no E-LEX-003
    want_tokens, want_comments, want_diagnostics = _reference_line(line.removesuffix("\r"))
    res = tokenize(line)
    got = [(k, t, c) for k, t, c in zip(res.kinds, res.texts, res.cols) if k not in _LAYOUT]
    assert got == want_tokens
    assert res.comments == want_comments
    assert [d.render() for d in res.diagnostics] == want_diagnostics
    for kind, text, _ in got:
        if kind == TokenKind.STRING_LITERAL:
            assert decode_string_text(text) == _reference_decode(text)


def test_tab_in_indentation_is_rejected_once_per_line():
    res = tokenize("class A\n\tx : Int = 1\n\ty : Int = 2\nend\n")
    assert codes("class A\n\tx : Int = 1\n\ty : Int = 2\nend\n").count("E-LEX-003") == 2
    assert not res.ok


def test_inconsistent_dedent_is_reported_and_recovers():
    source = "class A\n    x = 1\n  y = 2\nend\n"
    assert "E-LEX-004" in codes(source)


def test_inconsistent_dedent_keeps_indents_and_dedents_balanced():
    # The odd line stays in the level it leaves only in part, so every
    # dedent closes a level that an indent opened.
    for source in ("    a\n  b", "class A\n    x = 1\n  y = 2\nz = 3\n", "    case \n  x : Int = "):
        ks = kinds(source)
        assert "E-LEX-004" in codes(source)
        assert ks.count(TokenKind.INDENT) == ks.count(TokenKind.DEDENT) == 1


def test_layout_blank_and_comment_lines_are_transparent():
    source = "class A\n\n  // note\n  x = 1\nend\n"
    ks = kinds(source)
    assert ks.count(TokenKind.INDENT) == 1
    assert ks.count(TokenKind.DEDENT) == 1
    # the blank line and the comment line emit no token of their own: the
    # comment is set aside with its position
    res = tokenize(source)
    assert [t.kind for t in res.tokens if t.span.line_start in (2, 3)] == []
    assert res.comments == [(3, 3, "// note")]


@pytest.mark.parametrize("source", [
    "class A\n$\n  x = 1\nend\n",
    "class A\n$\n  x : Int = 1\n\nend\n",
    "class A\n\n  abstract\n$\n    v : Int\n\nend\n",
    "class A\n$ // note\n  x = 1\nend\n",
    "class A\n\n  abstract\n$ // note\n    v : Int\n\nend\n",
    "class A\n\n  x : Int = 1\n$ // note\n  y : Int = 2\n\nend\n",
])
def test_a_line_of_only_illegal_characters_lexes_as_a_blank_line(source):
    # No layout token and no newline, so the parser reports nothing more.
    blank = tokenize(source.replace("$", ""))
    assert (kinds(source), tokenize(source).lines) == (blank.kinds, blank.lines)
    assert [d.code for d in parse(source).diagnostics] == ["E-LEX-002"]


def test_a_bad_dedent_is_reported_only_on_a_line_with_content_and_first():
    # A line that lexes as blank or as a comment has no layout, so it
    # cannot dedent to a column that matches no level.
    for source in ("class A\n    x = 1\n  $\n", "class A\n    x = 1\n  $ // c\n"):
        assert codes(source) == ["E-LEX-002"]
    # On a line with content, the dedent's error comes before the errors
    # of the line's characters, after a tab in its indentation.
    assert codes('class A\n    x = 1\n  y = $ "\\q"\n') == ["E-LEX-004", "E-LEX-002", "E-LEX-002"]
    assert codes("class A\n    x = 1\n \ty = $\n") == ["E-LEX-003", "E-LEX-004", "E-LEX-002"]


def test_newline_suppressed_inside_brackets():
    source = "x = f (1 +\n  2)\ny = 3\n"
    res = tokenize(source)
    line1_and_2 = [
        t.kind
        for t in res.tokens
        if t.span.line_start in (1, 2) and t.kind in
        (TokenKind.NEWLINE, TokenKind.INDENT, TokenKind.DEDENT)
    ]
    # only the NEWLINE that ends the bracketed logical line survives
    assert line1_and_2 == [TokenKind.NEWLINE]


def test_annotation_token():
    assert texts("@tailrec\nloop = 1\n", TokenKind.ANNOTATION) == ["@tailrec"]


def test_directive_body_is_captured_verbatim():
    source = (
        "directive lean\n"
        "  theorem one : 1 = 1 := rfl\n"
        "\n"
        "  class Foo -- not tokenized\n"
        "x = 1\n"
    )
    res = tokenize(source)
    raws = [t.text for t in res.tokens if t.kind == TokenKind.RAW_LINE]
    assert raws == [
        "  theorem one : 1 = 1 := rfl",
        "",
        "  class Foo -- not tokenized",
    ]
    # capture stops at the first line back at or left of the directive margin
    assert "x" in [t.text for t in res.tokens if t.kind == TokenKind.IDENTIFIER]


def test_final_token_is_end_of_input():
    for source in ("", "x = 1", "class A\n  x = 1\nend"):
        toks = tokenize(source).tokens
        assert toks[-1].kind == TokenKind.END_OF_INPUT


_LAYOUT = (TokenKind.NEWLINE, TokenKind.INDENT, TokenKind.DEDENT,
           TokenKind.END_OF_INPUT)


@given(st.text(alphabet=st.characters(codec="ascii"), max_size=200))
@example("'//")
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_never_breaks_the_lexer(source):
    res = tokenize(source)
    ks = [t.kind for t in res.tokens]
    assert ks[-1] == TokenKind.END_OF_INPUT
    assert ks.count(TokenKind.INDENT) == ks.count(TokenKind.DEDENT)
    for d in res.diagnostics:
        assert d.code in DIAGNOSTIC_CODES
    # Layout lies only on a line with a token, or at the end of input; a
    # comment is no token, and runs from its "//" to the end of its line.
    content = {line for kind, line in zip(res.kinds, res.lines) if kind not in _LAYOUT}
    for kind, line in zip(res.kinds, res.lines):
        if kind in _LAYOUT:
            assert line in content or line == res.lines[-1], (kind, line)
    lines = source.split("\n")
    for line, col, text in res.comments:
        assert text.startswith("//") and lines[line - 1].removesuffix("\r")[col - 1:] == text


# Lines of any code points, drawing a Unicode number as often as anything
# else (the digit and identifier rules turn on the number categories Nd, Nl
# and No, a sliver of the code space). A line may follow the head of a
# definition and the text may open a class, so that characters also land
# where the parser reads a literal or a name.
_LINE = st.tuples(
    st.sampled_from(["", "  x : Int = ", "  f (n : Int) : Int = n + ", "    case "]),
    st.text(st.characters() | st.characters(categories=("N",)), max_size=12),
).map("".join)
_ANY_TEXT = st.tuples(st.sampled_from(["", "class A\n"]), st.lists(_LINE, max_size=8)).map(
    lambda t: t[0] + "\n".join(t[1])
)


@given(_ANY_TEXT)
@settings(max_examples=300, deadline=None)
def test_arbitrary_unicode_text_never_breaks_the_lexer_or_the_parser(source):
    res = tokenize(source)
    assert res.tokens[-1].kind == TokenKind.END_OF_INPUT
    parsed = parse(source)
    for d in res.diagnostics + parsed.diagnostics:
        assert d.code in DIAGNOSTIC_CODES


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_token_spans_slice_the_source_exactly(seed):
    source = pretty_print(random_program(seed))
    lines = source.split("\n")
    res = tokenize(source, "gen.soda")
    assert res.ok
    for t in res.tokens:
        if t.kind in _LAYOUT:
            continue
        assert t.span.line_start == t.span.line_end
        line = lines[t.span.line_start - 1]
        assert line[t.span.col_start - 1 : t.span.col_end - 1] == t.text
