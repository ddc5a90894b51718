"""Grammar coverage: expressions, declarations, layout, and error codes."""

import sys
from pathlib import Path

import pytest

from astgen import random_program
from soda import parse, parse_expression, pretty_print, tokenize
from soda.syntax import (
    BinaryOp,
    BoolLiteral,
    Call,
    ConstructorPattern,
    FunctionType,
    Identifier,
    If,
    IntLiteral,
    Lambda,
    LiteralPattern,
    Match,
    NamedArg,
    NamedType,
    SelfRef,
    StringLiteral,
    TypeArg,
    UnaryNot,
    VarBindPattern,
    SourceSpan,
    Token,
    TokenKind,
    WildcardPattern,
    scoped_walk,
    synthetic_span,
)

# spans are excluded from node equality, so one synthetic span serves for all
S = synthetic_span()


def parse_ok(source):
    res = parse(source, "test.soda")
    assert res.ok, [d.render() for d in res.diagnostics]
    return res.program


def errors_of(source):
    res = parse(source, "test.soda")
    return [d.code for d in res.diagnostics if d.severity == "error"]


def body_of(source_expr):
    prog = parse_ok(f"class A\n\n  probe = {source_expr}\n\nend\n")
    return prog.classes[0].definitions[0].body


def test_minimal_class():
    prog = parse_ok("class Point\n\n  x : Int = 1\n\nend\n")
    cls = prog.classes[0]
    assert cls.name == "Point"
    assert [d.name for d in cls.definitions] == ["x"]
    assert cls.definitions[0].body == IntLiteral(1, S)


def test_arithmetic_precedence():
    assert body_of("1 + 2 * 3") == BinaryOp(
        "+", IntLiteral(1, S), BinaryOp("*", IntLiteral(2, S), IntLiteral(3, S), S), S
    )
    assert body_of("(1 + 2) * 3") == BinaryOp(
        "*", BinaryOp("+", IntLiteral(1, S), IntLiteral(2, S), S), IntLiteral(3, S), S
    )


def test_subtraction_is_left_associative():
    assert body_of("10 - 3 - 2") == BinaryOp(
        "-", BinaryOp("-", IntLiteral(10, S), IntLiteral(3, S), S), IntLiteral(2, S), S
    )


def test_boolean_operators_bind_looser_than_comparison():
    e = body_of("1 < 2 and 3 < 4 or false")
    assert isinstance(e, BinaryOp) and e.op == "or"
    assert isinstance(e.left, BinaryOp) and e.left.op == "and"


def test_not_binds_tighter_than_and():
    e = body_of("not true and false")
    assert e == BinaryOp(
        "and", UnaryNot(BoolLiteral(True, S), S), BoolLiteral(False, S), S
    )


def test_negative_literal_is_folded():
    assert body_of("-5") == IntLiteral(-5, S)
    assert body_of("1 - -5") == BinaryOp("-", IntLiteral(1, S), IntLiteral(-5, S), S)


def test_unary_minus_on_expression_becomes_zero_minus():
    assert body_of("- x") == BinaryOp("-", IntLiteral(0, S), Identifier("x", S), S)


def test_application_requires_parenthesized_arguments():
    assert body_of("f (1) (2)") == Call(
        Identifier("f", S), (IntLiteral(1, S), IntLiteral(2, S)), S
    )


def test_application_binds_tighter_than_operators():
    e = body_of("f (1) + g (2)")
    assert isinstance(e, BinaryOp) and e.op == "+"
    assert isinstance(e.left, Call) and isinstance(e.right, Call)


def test_named_argument_application():
    assert body_of("f (snd := 2)") == Call(
        Identifier("f", S), (NamedArg("snd", IntLiteral(2, S), S),), S
    )


def test_type_argument_application():
    assert body_of("f [Int]") == Call(
        Identifier("f", S), (TypeArg(NamedType("Int", S), S),), S
    )


def test_a_call_keeps_arguments_of_every_kind_in_source_order():
    a, b = Identifier("a", S), Identifier("b", S)
    assert body_of("f [Int] (a) (n := b) [Bool] (m := a)") == Call(
        Identifier("f", S),
        (TypeArg(NamedType("Int", S), S), a, NamedArg("n", b, S),
         TypeArg(NamedType("Bool", S), S), NamedArg("m", a, S)),
        S,
    )


def test_a_parenthesized_call_given_more_arguments_is_one_call():
    f_a_b = Call(Identifier("f", S), (Identifier("a", S), Identifier("b", S)), S)
    assert body_of("(f (a)) (b)") == body_of("f (a) (b)") == f_a_b
    assert body_of("((f [Int]) (n := 1)) (2)") == body_of("f [Int] (n := 1) (2)")
    # The call runs from its function to its last argument.
    span = body_of("(f (a)) (b)").span
    assert (span.line_start, span.col_start, span.line_end, span.col_end) == (3, 12, 3, 22)


def test_no_parsed_call_has_a_call_as_its_function():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import gen  # the compile workload's corpus

    texts = [pretty_print(random_program(seed)) for seed in range(100)]
    texts += [f.text for f in gen.compile_corpus(1)]
    texts.append("class A\n\n  f = (g (a)) (b) + ((h [Int]) (n := 1)) ((k (c)) (d))\n\nend\n")
    calls = 0
    for text in texts:
        program = parse(text).program
        for c in program.classes if program else ():
            for d in c.definitions:
                for node, _ in scoped_walk(d.body, {}) if d.body else ():
                    if type(node) is Call:
                        calls += 1
                        assert type(node.function) is not Call, pretty_print(program)
    assert calls > 1000


def test_lambda_multi_parameter_sugar_nests_right():
    assert body_of("lambda x y --> x") == Lambda(
        "x", None, Lambda("y", None, Identifier("x", S), S), S
    )


def test_lambda_typed_parameter():
    assert body_of("lambda (n : Int) --> n") == Lambda(
        "n", NamedType("Int", S), Identifier("n", S), S
    )


def test_if_requires_else():
    assert body_of("if a then 1 else 2") == If(
        Identifier("a", S), IntLiteral(1, S), IntLiteral(2, S), S
    )
    assert "E-PAR-010" in errors_of("class A\n\n  x = if a then 1\n\nend\n")


def test_match_with_cases():
    e = body_of('match n case 0 ==> "zero" case _ ==> "more"')
    assert isinstance(e, Match)
    assert e.scrutinee == Identifier("n", S)
    assert e.cases[0].pattern == LiteralPattern(0, S)
    assert e.cases[0].result == StringLiteral("zero", S)
    assert e.cases[1].pattern == WildcardPattern(S)


def test_match_requires_at_least_one_case():
    assert "E-PAR-011" in errors_of("class A\n\n  x = match y\n\nend\n")


def test_nested_match_in_case_result_needs_parentheses():
    e = body_of("match a case 1 ==> (match b case 2 ==> 3) case _ ==> 9")
    assert len(e.cases) == 2
    inner = e.cases[0].result
    assert isinstance(inner, Match) and len(inner.cases) == 1


def test_constructor_pattern_shapes():
    e = body_of("match p case Pair_ (a) (b) ==> a case Nil_ ==> 0 case x ==> x")
    pats = [c.pattern for c in e.cases]
    assert pats[0] == ConstructorPattern(
        "Pair_", (VarBindPattern("a", S), VarBindPattern("b", S)), S
    )
    assert pats[1] == ConstructorPattern("Nil_", (), S)
    assert pats[2] == VarBindPattern("x", S)


def test_negative_literal_pattern():
    e = body_of("match n case -1 ==> true case _ ==> false")
    assert e.cases[0].pattern == LiteralPattern(-1, S)


def test_this_parses_to_self_reference():
    assert body_of("this") == SelfRef(S)


def test_bad_pattern_reports_dedicated_code():
    assert "E-PAR-012" in errors_of(
        "class A\n\n  x = match y case + ==> 1\n\nend\n"
    )


def test_function_types_are_right_associative():
    prog = parse_ok("class A\n\n  f : Int --> Int --> Bool = g\n\nend\n")
    t = prog.classes[0].definitions[0].result_type
    assert t == FunctionType(
        NamedType("Int", S),
        FunctionType(NamedType("Int", S), NamedType("Bool", S), S),
        S,
    )


def test_body_continues_on_deeper_indented_lines():
    prog = parse_ok(
        "class A\n\n  big : Int =\n    1 +\n      2\n\n  next : Int = 3\n\nend\n"
    )
    defs = prog.classes[0].definitions
    assert defs[0].body == BinaryOp("+", IntLiteral(1, S), IntLiteral(2, S), S)
    assert defs[1].body == IntLiteral(3, S)


def test_blank_lines_do_not_end_a_continued_body():
    prog = parse_ok("class A\n\n  big : Int = 1 +\n\n    2\n\nend\n")
    assert prog.classes[0].definitions[0].body == BinaryOp(
        "+", IntLiteral(1, S), IntLiteral(2, S), S
    )


def test_abstract_block_members_are_typed_and_bodiless():
    prog = parse_ok(
        "class P\n\n  abstract\n    fst : Int\n    snd : Int\n\nend\n"
    )
    names = [m.name for m in prog.classes[0].abstract_members]
    assert names == ["fst", "snd"]
    assert all(m.body is None for m in prog.classes[0].abstract_members)


def test_abstract_member_requires_a_type():
    assert "E-PAR-001" in errors_of("class P\n\n  abstract\n    fst\n\nend\n")


def test_extends_inline_and_as_first_member_line():
    inline = parse_ok("class A extends P Q\n\n  x = 1\n\nend\n")
    assert inline.classes[0].extends_list == (
        NamedType("P", S), NamedType("Q", S))
    form2 = parse_ok("class A\n\n  extends P\n\n  x = 1\n\nend\n")
    assert form2.classes[0].extends_list == (NamedType("P", S),)


def test_type_parameters_with_bounds():
    prog = parse_ok(
        "class A [X : Type] [Y subtype X] [Z supertype Y]\n\n  v = 1\n\nend\n"
    )
    tps = prog.classes[0].type_params
    assert [tp.name for tp in tps] == ["X", "Y", "Z"]
    assert [tp.bound_kind for tp in tps] == ["none", "subtype", "supertype"]
    assert tps[1].bound == NamedType("X", S)


def test_bound_symbol_spellings_are_accepted():
    prog = parse_ok("class A [Y <: Q] [Z >: Q]\n\n  v = 1\n\nend\n")
    tps = prog.classes[0].type_params
    assert [tp.bound_kind for tp in tps] == ["subtype", "supertype"]


def test_tailrec_annotation_attaches_to_next_definition():
    prog = parse_ok(
        "class A\n\n  @tailrec\n  loop (n : Int) : Int = loop (n)\n\nend\n"
    )
    assert prog.classes[0].definitions[0].is_tailrec_annotated


def test_package_and_imports():
    prog = parse_ok(
        "package com.example.core\n\nimport a.b\nimport c\n\n"
        "class A\n\n  x = 1\n\nend\n"
    )
    assert prog.package_name == "com.example.core"
    assert prog.imports == ("a.b", "c")


def test_package_must_come_first():
    assert "E-PAR-003" in errors_of(
        "import a.b\n\npackage late\n\nclass A\n\n  x = 1\n\nend\n"
    )


def test_class_name_must_not_end_in_underscore():
    assert "E-PAR-004" in errors_of("class Broken_\n\n  x = 1\n\nend\n")


def test_missing_end_is_reported():
    assert "E-PAR-002" in errors_of("class A\n\n  x = 1\n")


def test_directive_lines_are_normalized():
    prog = parse_ok(
        "directive coq\n    Line one.\n\n      Indented.\n"
    )
    block = prog.items[0]
    assert block.target == "coq"
    assert block.raw_lines == ("Line one.", "", "  Indented.")


def test_directives_keep_their_position_among_members():
    prog = parse_ok(
        "class A\n\n  x = 1\n\n  directive scala\n    val y = 2\n\n  z = 3\n\nend\n"
    )
    kinds = [type(m).__name__ for m in prog.classes[0].members]
    assert kinds == ["Definition", "DirectiveBlock", "Definition"]


def test_leading_comments_attach_to_declarations():
    prog = parse_ok(
        "// the whole point\nclass A\n\n  // doubles its input\n"
        "  twice (n : Int) : Int = n * 2\n\nend\n"
    )
    assert prog.classes[0].leading_comments == (" the whole point",)
    assert prog.classes[0].definitions[0].leading_comments == (
        " doubles its input",)


# Each header line below once broke the block under it when a comment
# ended it.
HEADER_LINES = {
    "class": "class A // c\n\n  x : Int = 1\n\nend\n",
    "class with a type parameter": "class A [T : Type] // c\n\n  x : T = 1\n\nend\n",
    "abstract": "class A\n\n  abstract // c\n    x : Int\n\n  y : Int = x\n\nend\n",
    "top-level directive": "directive scala // c\n  object B\n\nclass A\n\n  x : Int = 1\n\nend\n",
    "member directive": (
        "class A\n\n  directive lean // c\n    theorem t : 1 = 1 := rfl\n\n  x : Int = 1\n\nend\n"),
}


@pytest.mark.parametrize("shape", sorted(HEADER_LINES))
def test_a_comment_on_a_header_line_is_dropped(shape):
    source = HEADER_LINES[shape]
    res = parse(source)
    assert res.diagnostics == []
    assert pretty_print(res.program) == pretty_print(parse_ok(source.replace(" // c", "")))


@pytest.mark.parametrize("pattern", ["1", '"s"', "true", "_", "-1", "x", "Pair_ (a) (b)"])
def test_the_arrow_of_a_case_may_start_a_continuation_line(pattern):
    def with_arrow_after(gap):
        return parse_ok(
            f"class A\n\n  f (p : Int) : Int =\n    match p\n      case {pattern}{gap}==> 1\n"
            "      case _ ==> 0\n\nend\n")

    same_line = with_arrow_after(" ")
    assert with_arrow_after("\n        ") == same_line
    assert with_arrow_after(" // c\n        ") == same_line


def test_program_is_none_exactly_when_errors_exist():
    good = parse("class A\n\n  x = 1\n\nend\n")
    assert good.ok and good.program is not None
    bad = parse("class A\n\n  x = \n\nend\n")
    assert not bad.ok and bad.program is None


def test_recovery_reports_errors_in_later_classes_too():
    res = parse(
        "class A\n\n  x = if 1 then 2\n\nend\n\n"
        "class B\n\n  y = match z\n\nend\n",
        "t.soda",
    )
    assert "E-PAR-010" in [d.code for d in res.diagnostics]
    assert "E-PAR-011" in [d.code for d in res.diagnostics]


def test_inconsistent_dedent_is_the_only_error_reported():
    # The line at the odd column stays in the class body, so the parser
    # reads y = 2 as the next member and adds no error of its own.
    res = parse("class A\n    x = 1\n  y = 2\nend\n", "d.soda")
    assert [(d.code, tuple(d.span)) for d in res.diagnostics] == [
        ("E-LEX-004", ("d.soda", 3, 3, 3, 3))
    ]
    res = parse("class A\n    x = 1\n  y = 2\n  z = 3\nend\n", "d.soda")
    assert [(d.code, d.span.line_start) for d in res.diagnostics] == [
        ("E-LEX-004", 3), ("E-LEX-004", 4)
    ]


def test_parse_expression_entry_point():
    toks = tokenize("Pair_ (1) (2)").tokens
    expr, _ = parse_expression(toks)
    assert expr == Call(
        Identifier("Pair_", S), (IntLiteral(1, S), IntLiteral(2, S)), S
    )


def test_diagnostic_positions_are_one_based():
    res = parse("class A\n\n  x = if 1 then 2\n\nend\n", "pos.soda")
    err = [d for d in res.diagnostics if d.code == "E-PAR-010"][0]
    assert err.span.line_start == 3
    assert err.span.col_start >= 1
    assert "pos.soda:3:" in err.render()


# --- parse_expression over a caller's token list ---


def _other(line, col, end_line, end_col):
    return SourceSpan("other.soda", line, col, end_line, end_col)


def test_parse_expression_keeps_the_spans_of_a_hand_made_token_list():
    # f (x) + "a…b", placed from line 7 of another file; the string token is
    # given a span over two lines, which no lexer would produce.
    toks = [
        Token(TokenKind.IDENTIFIER, "f", _other(7, 5, 7, 6)),
        Token(TokenKind.OPEN_PAREN, "(", _other(7, 7, 7, 8)),
        Token(TokenKind.IDENTIFIER, "x", _other(7, 8, 7, 9)),
        Token(TokenKind.CLOSE_PAREN, ")", _other(7, 9, 7, 10)),
        Token(TokenKind.OPERATOR_SYMBOL, "+", _other(7, 11, 7, 12)),
        Token(TokenKind.STRING_LITERAL, '"ab"', _other(7, 13, 8, 3)),
        Token(TokenKind.END_OF_INPUT, "", _other(8, 3, 8, 3)),
    ]
    expr, next_position = parse_expression(toks)
    assert expr == BinaryOp(
        "+", Call(Identifier("f", S), (Identifier("x", S),), S), StringLiteral("ab", S), S
    )
    assert next_position == 6
    assert expr.span == _other(7, 5, 8, 3)
    assert expr.left.span == _other(7, 5, 7, 10)
    assert expr.left.function.span == _other(7, 5, 7, 6)
    assert expr.left.args[0].span == _other(7, 8, 7, 9)
    assert expr.right.span == _other(7, 13, 8, 3)


def test_parse_expression_from_a_later_position():
    toks = tokenize("f (1) (2) g\nh = b + c * 2 d").tokens
    expr, next_position = parse_expression(toks, 2)
    assert expr == IntLiteral(1, S)
    assert next_position == 3 and toks[3].kind == TokenKind.CLOSE_PAREN
    start = [t.text for t in toks].index("b")
    expr, next_position = parse_expression(toks, start)
    assert expr == BinaryOp(
        "+", Identifier("b", S), BinaryOp("*", Identifier("c", S), IntLiteral(2, S), S), S
    )
    assert toks[next_position].text == "d"
    assert expr.span == ("<input>", 2, 5, 2, 14)


def test_parse_expression_without_end_of_input():
    span = _other(1, 1, 1, 2)
    toks = [
        Token(TokenKind.IDENTIFIER, "x", span),
        Token(TokenKind.OPERATOR_SYMBOL, "+", span),
        Token(TokenKind.INTEGER_LITERAL, "2", span),
    ]
    expr, next_position = parse_expression(toks)
    assert expr == BinaryOp("+", Identifier("x", S), IntLiteral(2, S), S)
    assert next_position == 3 and len(toks) == 3
    assert parse_expression(toks[:2]) == (None, 2)
    assert parse_expression([]) == (None, 0)


# --- no Token on the parse path ---


def test_parse_builds_no_token_and_tokens_are_built_once_on_request(monkeypatch):
    built = []
    new = Token.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Token, "__new__", staticmethod(counting_new))
    source = (Path(__file__).parent / "goldens" / "pair_param.soda").read_text()
    assert parse(source, "pair_param.soda").ok
    lexed = tokenize(source, "pair_param.soda")
    assert built == []
    tokens = lexed.tokens
    assert len(built) == len(tokens) == len(lexed.kinds) > 20
    assert lexed.tokens is tokens and len(built) == len(tokens)
    assert [(t.kind, t.text, t.span) for t in tokens] == [
        (lexed.kinds[i], lexed.texts[i], lexed.span(i)) for i in range(len(tokens))
    ]


# --- error recovery ---

# Each input holds a malformed construct and a later error, so the rendered
# diagnostics show both the message and the token where parsing resumes.
RECOVERY = {
    "junk_after_declaration": (
        "class A\n\n  x = 1 2\n\n  y = )\n\nend\n",
        ["t.soda:3:9: error[E-PAR-001]: unexpected '2' after declaration",
         "t.soda:5:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "junk_after_continued_declaration": (
        "class A\n\n  x = 1\n    + 2 3\n  y = if 1 then 2\n\nend\n",
        ["t.soda:4:9: error[E-PAR-001]: unexpected '3' after declaration",
         "t.soda:5:7: error[E-PAR-010]: 'if' requires an 'else' branch"],
    ),
    "junk_before_comment_lines": (
        "class A\n\n  x = 1 +\n    2 3 // trailing\n    // more\n  y = )\n\nend\n",
        ["t.soda:4:7: error[E-PAR-001]: unexpected '3' after declaration",
         "t.soda:6:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "bad_abstract_member": (
        "class A\n\n  abstract\n    1\n    x : Int\n    y = 2\n\nend\n",
        ["t.soda:4:5: error[E-PAR-001]: expected an abstract member declaration, found '1'",
         "t.soda:6:5: error[E-PAR-001]: abstract member 'y' cannot have a body"],
    ),
    "bad_abstract_member_after_comments": (
        "class A\n\n  abstract\n  // lead\n    // inner\n    = 1\n    x : Int\n\n  y = )\n\nend\n",
        ["t.soda:6:5: error[E-PAR-001]: expected an abstract member declaration, found '='",
         "t.soda:9:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "bad_class_member": (
        "class A\n\n  1 + 2\n  x = 3\n  = 4\n\nend\n",
        ["t.soda:3:3: error[E-PAR-001]: expected a class member, found '1'",
         "t.soda:5:3: error[E-PAR-001]: expected a class member, found '='"],
    ),
    "comments_around_members": (
        "class A\n// c\n  x = 1 2\n  // d\n  y = )\nend\n",
        ["t.soda:3:9: error[E-PAR-001]: unexpected '2' after declaration",
         "t.soda:5:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "unknown_annotation": (
        "class A\n\n  @inline\n  f (n : Int) : Int = n\n\n  g = )\n\nend\n",
        ["t.soda:3:3: error[E-PAR-001]: unknown annotation '@inline'",
         "t.soda:6:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "tailrec_without_definition": (
        "class A\n\n  @tailrec\n\nend\n\nclass B\n\n  y = )\n\nend\n",
        ["t.soda:3:3: error[E-PAR-001]: '@tailrec' is not followed by a definition",
         "t.soda:9:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "indentation_at_top_level": (
        "  x = 1\nclass A\n\n  y = )\n\nend\n",
        ["t.soda:1:3: error[E-PAR-001]: unexpected indentation at top level",
         "t.soda:4:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "package_after_import": (
        "import a.b\npackage c\nclass A\n\n  y = )\n\nend\n",
        ["t.soda:2:1: error[E-PAR-003]: 'package' must be the first declaration",
         "t.soda:5:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "junk_at_top_level": (
        "x = 1\nclass A\n\n  y = )\n\nend\n",
        ["t.soda:1:1: error[E-PAR-001]: expected 'class', 'directive', 'package', or 'import', found 'x'",
         "t.soda:4:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "bad_pattern": (
        "class A\n\n  f (x : Int) : Int =\n    match x\n      case + ==> 1\n      case _ ==> 2\n\n  g = )\n\nend\n",
        ["t.soda:5:12: error[E-PAR-012]: expected a pattern (constructor, literal,"
         " variable, or '_'), found '+'",
         "t.soda:8:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "negative_pattern_without_integer": (
        "class A\n\n  f (x : Int) : Int =\n    match x\n      case - y ==> 1\n      case (1 ==> 2\n\nend\n",
        ["t.soda:5:14: error[E-PAR-001]: expected an integer literal, found 'y'",
         "t.soda:5:14: error[E-PAR-001]: expected '==>', found 'y'",
         "t.soda:5:16: error[E-PAR-001]: unexpected '==>' after declaration",
         "t.soda:6:7: error[E-PAR-001]: expected a class member, found 'case'",
         "t.soda:1:1: error[E-PAR-002]: missing 'end' for class 'A'"],
    ),
    "empty_extends_member_line": (
        "class A\n  extends\n  x = )\nend\n",
        ["t.soda:2:10: error[E-PAR-001]: expected a type after 'extends'",
         "t.soda:3:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "junk_after_extends_header": (
        "class A extends B 1\n\n  x = )\n\nend\n",
        ["t.soda:1:19: error[E-PAR-001]: unexpected '1' after declaration",
         "t.soda:3:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "unclosed_named_argument": (
        "class A\n\n  x = f (a := 1\n\n  y = g (2\n\nend\n",
        ["t.soda:5:3: error[E-PAR-001]: expected ')', found 'y'",
         "t.soda:5:3: error[E-PAR-001]: unexpected 'y' after declaration",
         "t.soda:1:1: error[E-PAR-002]: missing 'end' for class 'A'"],
    ),
    "unclosed_type_argument": (
        "class A\n\n  f (x : List [Int) : Int = x\n\n  g : ( = 1\n\nend\n",
        ["t.soda:3:19: error[E-PAR-001]: expected ']', found ')'",
         "t.soda:5:3: error[E-PAR-001]: unexpected 'g' after declaration",
         "t.soda:1:1: error[E-PAR-002]: missing 'end' for class 'A'"],
    ),
    "lambda_without_parameters": (
        "class A\n\n  x = lambda --> 1\n\n  y = )\n\nend\n",
        ["t.soda:3:14: error[E-PAR-001]: lambda requires at least one parameter",
         "t.soda:5:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "if_without_then": (
        "class A\n\n  x = if a 1 else 2\n\n  y = )\n\nend\n",
        ["t.soda:3:12: error[E-PAR-001]: expected 'then', found '1'",
         "t.soda:5:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "type_parameter_without_type": (
        "class A [T : Int]\n\n  y = )\n\nend\n",
        ["t.soda:1:14: error[E-PAR-001]: type parameter 'T' must be declared ': Type'",
         "t.soda:3:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "definition_without_body": (
        "class A\n\n  f (x : Int) : Int\n\n  y = )\n\nend\n",
        ["t.soda:3:3: error[E-PAR-001]: definition of 'f' requires '=' and a body",
         "t.soda:5:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "abstract_member_without_type": (
        "class A\n\n  abstract\n    x\n\n  y = )\n\nend\n",
        ["t.soda:4:5: error[E-PAR-001]: abstract member 'x' requires a declared type",
         "t.soda:6:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "parameter_without_type": (
        "class A\n\n  f (x : ) : Int = 1\n\n  y = )\n\nend\n",
        ["t.soda:3:10: error[E-PAR-001]: expected a type, found ')'",
         "t.soda:3:12: error[E-PAR-001]: expected ')', found ':'",
         "t.soda:5:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "result_type_opening_with_a_bracket": (
        "class A\n\n  f : [Int] = 1\n\n  y = )\n\nend\n",
        ["t.soda:3:7: error[E-PAR-001]: expected a type, found '['",
         "t.soda:5:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "empty_type_argument": (
        "class A\n\n  f : List [] = 1\n\n  y = )\n\nend\n",
        ["t.soda:3:13: error[E-PAR-001]: expected a type, found ']'",
         "t.soda:3:15: error[E-PAR-001]: expected ']', found '='",
         "t.soda:5:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "empty_type_argument_of_a_call": (
        "class A\n\n  f : Int = g (x) [ ] (y)\n\n  y = )\n\nend\n",
        ["t.soda:3:21: error[E-PAR-001]: expected a type, found ']'",
         "t.soda:3:23: error[E-PAR-001]: expected ']', found '('",
         "t.soda:5:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "unclosed_parenthesized_type": (
        "class A\n\n  f : (Int = 1\n\n  y = )\n\nend\n",
        ["t.soda:3:12: error[E-PAR-001]: expected ')', found '='",
         "t.soda:5:3: error[E-PAR-001]: unexpected 'y' after declaration"],
    ),
    "arrow_type_without_a_result": (
        "class A\n\n  f : Int --> = 1\n\n  y = )\n\nend\n",
        ["t.soda:3:15: error[E-PAR-001]: expected a type, found '='",
         "t.soda:5:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
    "arrow_type_without_a_domain": (
        "class A\n\n  f : --> Int = 1\n\n  y = )\n\nend\n",
        ["t.soda:3:7: error[E-PAR-001]: expected a type, found '-->'",
         "t.soda:5:7: error[E-PAR-001]: expected an expression, found ')'"],
    ),
}


@pytest.mark.parametrize("source, rendered", RECOVERY.values(), ids=RECOVERY.keys())
def test_recovery_reports_each_error_and_resumes_at_the_same_token(source, rendered):
    res = parse(source, "t.soda")
    assert res.program is None
    assert [d.render() for d in res.diagnostics] == rendered
