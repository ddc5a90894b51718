"""Structural checks: duplicates, constructors, named arguments, tail calls."""

from soda import (
    analyze,
    check_single_definition,
    format_expr,
    parse,
    parse_expression,
    resolve_named_arguments,
    synthesize_constructors,
    tokenize,
    verify_tailrec,
)


def program_of(source):
    res = parse(source, "t.soda")
    assert res.ok, [d.render() for d in res.diagnostics]
    return res.program


def expr_of(source):
    expr, _ = parse_expression(tokenize(source).tokens)
    assert expr is not None
    return expr


# --- single definition rule ---

def test_duplicate_member_reported_once_at_second_occurrence():
    prog = program_of(
        "class A\n\n  x : Int = 1\n\n  y : Int = 2\n\n  x : Int = 3\n\nend\n"
    )
    diags = check_single_definition(prog)
    assert [d.code for d in diags] == ["E-SEM-001"]
    assert diags[0].span.line_start == 7
    assert "x" in diags[0].message


def test_duplicate_between_abstract_and_concrete_member():
    prog = program_of(
        "class A\n\n  abstract\n    size : Int\n\n  size : Int = 4\n\nend\n"
    )
    assert [d.code for d in check_single_definition(prog)] == ["E-SEM-001"]


def test_duplicate_class_names():
    prog = program_of(
        "class A\n\n  x = 1\n\nend\n\nclass A\n\n  y = 2\n\nend\n"
    )
    diags = check_single_definition(prog)
    assert [d.code for d in diags] == ["E-SEM-001"]
    assert diags[0].span.line_start == 7


def test_same_member_name_in_different_classes_is_fine():
    prog = program_of(
        "class A\n\n  x = 1\n\nend\n\nclass B\n\n  x = 2\n\nend\n"
    )
    assert check_single_definition(prog) == []


def test_three_occurrences_give_two_reports():
    prog = program_of(
        "class A\n\n  x = 1\n\n  x = 2\n\n  x = 3\n\nend\n"
    )
    assert [d.code for d in check_single_definition(prog)] == [
        "E-SEM-001", "E-SEM-001"]


# --- default constructors ---

def test_constructor_fields_follow_declaration_order():
    prog = program_of(
        "class P\n\n  abstract\n    snd : Int\n    fst : Int\n\nend\n"
    )
    sig = synthesize_constructors(prog)["P_"]
    assert sig.class_name == "P"
    assert [n for n, _ in sig.fields] == ["snd", "fst"]


def test_every_class_gets_a_constructor():
    prog = program_of("class Lone\n\n  x : Int = 1\n\nend\n")
    sig = synthesize_constructors(prog)["Lone_"]
    assert sig.fields == ()


def test_parameterized_abstract_members_are_not_fields():
    prog = program_of(
        "class C\n\n  abstract\n    size : Int\n    pick (n : Int) : Int\n\nend\n"
    )
    sig = synthesize_constructors(prog)["C_"]
    assert [n for n, _ in sig.fields] == ["size"]


def test_constructor_carries_type_parameters():
    prog = program_of(
        "class P [A : Type]\n\n  abstract\n    item : A\n\nend\n"
    )
    sig = synthesize_constructors(prog)["P_"]
    assert [tp.name for tp in sig.type_params] == ["A"]


# --- named arguments ---

def test_named_arguments_reorder_to_declaration_order():
    out, diags = resolve_named_arguments(
        expr_of("f (b := 2) (a := 1)"), ["a", "b"])
    assert diags == []
    assert format_expr(out) == "f (1) (2)"


def test_positional_calls_pass_through():
    e = expr_of("f (1) (2)")
    out, diags = resolve_named_arguments(e, ["a", "b"])
    assert out == e and diags == []


def test_mixed_named_and_positional_is_rejected():
    _, diags = resolve_named_arguments(
        expr_of("f (1) (b := 2)"), ["a", "b"])
    assert [d.code for d in diags] == ["E-SEM-023"]


def test_unknown_parameter_name():
    _, diags = resolve_named_arguments(
        expr_of("f (zzz := 1) (b := 2)"), ["a", "b"])
    assert "E-SEM-020" in [d.code for d in diags]


def test_repeated_parameter_name():
    _, diags = resolve_named_arguments(
        expr_of("f (a := 1) (a := 2)"), ["a", "b"])
    assert "E-SEM-021" in [d.code for d in diags]


def test_missing_parameter_name():
    _, diags = resolve_named_arguments(
        expr_of("f (a := 1)"), ["a", "b"])
    assert "E-SEM-022" in [d.code for d in diags]


def test_analyze_rewrites_named_calls_against_known_signatures():
    prog = program_of(
        "class M\n\n  mix (a : Int) (b : Int) : Int = a - b\n\n"
        "  use : Int = mix (b := 1) (a := 10)\n\nend\n"
    )
    analyzed = analyze(prog)
    assert analyzed.ok
    use = analyzed.program.classes[0].definitions[1]
    assert format_expr(use.body) == "mix (10) (1)"


def test_analyze_rewrites_named_constructor_calls():
    prog = program_of(
        "class P\n\n  abstract\n    fst : Int\n    snd : Int\n\n"
        "  build : P = P_ (snd := 2) (fst := 1)\n\nend\n"
    )
    analyzed = analyze(prog)
    assert analyzed.ok
    build = analyzed.program.classes[0].definitions[0]
    assert format_expr(build.body) == "P_ (1) (2)"


def test_analyze_returns_what_no_named_call_changes_as_it_is():
    prog = program_of(
        "class M\n\n  mix (a : Int) (b : Int) : Int = a - b\n\n"
        "  use : Int = mix (b := 1) (a := 10) + mix (1) (2)\n\nend\n\n"
        "class N\n\n  n : Int = M_\n\nend\n"
    )
    out = analyze(prog).program
    mix, use = out.classes[0].definitions
    assert mix is prog.classes[0].definitions[0]
    assert out.classes[1] is prog.classes[1]
    # Only the resolved chain and the nodes above it are copied.
    assert format_expr(use.body) == "mix (10) (1) + mix (1) (2)"
    assert use.body.right is prog.classes[0].definitions[1].body.right
    plain = program_of("class A\n\n  f (x : Int) : Int = x + 1\n\nend\n")
    assert analyze(plain).program is plain


def test_named_argument_errors_surface_through_analyze():
    prog = program_of(
        "class M\n\n  mix (a : Int) (b : Int) : Int = a\n\n"
        "  use : Int = mix (a := 1) (zzz := 2)\n\nend\n"
    )
    analyzed = analyze(prog)
    assert not analyzed.ok
    assert "E-SEM-020" in [d.code for d in analyzed.diagnostics]


# --- tail recursion ---

def loop_def(body_line):
    prog = program_of(
        "class T\n\n  @tailrec\n  loop (n : Int) (acc : Int) : Int =\n"
        f"    {body_line}\n\nend\n"
    )
    return prog.classes[0].definitions[0]


def test_accumulator_loop_is_accepted():
    d = loop_def("if n == 0 then acc else loop (n - 1) (acc + n)")
    assert verify_tailrec(d) == []


def test_addition_after_the_call_is_rejected():
    d = loop_def("if n == 0 then 0 else 1 + loop (n - 1) (acc)")
    diags = verify_tailrec(d)
    assert [x.code for x in diags] == ["E-SEM-010"]
    assert diags[0].span.line_start == 5


def test_match_results_are_tail_positions():
    d = loop_def("match n case 0 ==> acc case _ ==> loop (n - 1) (acc)")
    assert verify_tailrec(d) == []


def test_scrutinee_is_not_a_tail_position():
    d = loop_def("match loop (n - 1) (acc) case x ==> x")
    assert [x.code for x in verify_tailrec(d)] == ["E-SEM-010"]


def test_condition_is_not_a_tail_position():
    d = loop_def("if loop (n) (acc) == 0 then 1 else 2")
    assert [x.code for x in verify_tailrec(d)] == ["E-SEM-010"]


def test_call_inside_lambda_is_rejected():
    d = loop_def("(lambda k --> loop (k) (acc)) (n)")
    assert [x.code for x in verify_tailrec(d)] == ["E-SEM-010"]


def test_argument_position_is_rejected():
    d = loop_def("loop (loop (n) (acc)) (acc)")
    assert [x.code for x in verify_tailrec(d)] == ["E-SEM-010"]


def test_shadowed_name_is_not_the_recursive_function():
    d = loop_def("(lambda loop --> loop (n)) (acc)")
    assert verify_tailrec(d) == []


def test_a_parameter_named_like_the_definition_shadows_it():
    prog = program_of("class T\n\n  @tailrec\n  f (f : Int) : Int = 1 + f (f)\n\nend\n")
    assert verify_tailrec(prog.classes[0].definitions[0]) == []


def test_unannotated_definitions_are_not_checked_by_the_pipeline():
    # verify_tailrec itself checks whatever it is handed; analyze only
    # applies it to annotated definitions
    prog = program_of(
        "class T\n\n  slow (n : Int) : Int = 1 + slow (n - 1)\n\nend\n"
    )
    assert verify_tailrec(prog.classes[0].definitions[0]) != []
    analyzed = analyze(prog)
    assert analyzed.ok


def test_tailrec_violations_surface_through_analyze():
    prog = program_of(
        "class T\n\n  @tailrec\n  bad (n : Int) : Int = 1 + bad (n - 1)\n\nend\n"
    )
    analyzed = analyze(prog)
    assert not analyzed.ok
    assert "E-SEM-010" in [d.code for d in analyzed.diagnostics]


# --- identifier warnings ---

def test_unknown_identifier_warns_but_does_not_fail():
    analyzed = analyze(program_of("class A\n\n  x : Int = mystery\n\nend\n"))
    assert analyzed.ok
    assert [d.code for d in analyzed.diagnostics] == ["W-SEM-001"]
    assert analyzed.diagnostics[0].severity == "warning"


def test_known_names_do_not_warn():
    analyzed = analyze(program_of(
        "class A\n\n  abstract\n    size : Int\n\n"
        "  f (k : Int) : Int = size + k + g (A_ (1))\n\n"
        "  g (p : A) : Int = match p case A_ (s) ==> s\n\n"
        "  r : Int = fold (range (3)) (0) (lambda a --> lambda b --> a + b)\n\nend\n"
    ))
    assert analyzed.diagnostics == []


def test_a_pattern_variable_is_bound_only_in_its_own_case_result():
    line = "  f (k : Int) : Int = match A_ (k) case A_ (own) ==> own case _ ==> own"
    analyzed = analyze(program_of(f"class A\n\n  abstract\n    v : Int\n\n{line}\n\nend\n"))
    assert [(d.code, d.message) for d in analyzed.diagnostics] == [
        ("W-SEM-001", "'own' is not declared in this file")
    ]
    span = analyzed.diagnostics[0].span
    assert (span.line_start, span.col_start) == (6, line.rindex("own") + 1)


def test_undeclared_names_warn_in_source_order_inside_a_reordered_named_call():
    # Names are found in the parsed body, before its named calls are
    # reordered to declared parameter order.
    analyzed = analyze(program_of(
        "class A\n\n  g (a : Int) (b : Int) : Int = a\n\n"
        "  h : Int = g (b := yy) (a := xx)\n\nend\n"
    ))
    assert [d.message.split("'")[1] for d in analyzed.diagnostics] == ["yy", "xx"]
