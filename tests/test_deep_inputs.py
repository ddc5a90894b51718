"""Long and deeply nested inputs through the front end and the printers,
and deeply nested evaluations and values through the interpreter.

Each case runs in a fresh ``python`` process, so the stages face the
default recursion limit and nothing a test ran earlier in the pytest
process changes how deep they may go."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def run_code(code: str) -> None:
    proc = run_fresh(["-c", textwrap.dedent(code)])
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_printers_handle_a_flat_chain_of_2000_terms():
    run_code(
        """
        from soda import analyze, parse, pretty_print
        from soda import translate_to_lean, translate_to_scala

        body = " + ".join(["x"] * 1000 + ["(x - x) * x"] * 1000)
        source = f"class A\\n\\n  f (x : Int) : Int = {body}\\n\\nend\\n"
        program = parse(source).program
        assert pretty_print(program) == source
        analyzed = analyze(program)
        assert analyzed.diagnostics == []
        assert f"def f (x : Int) : Int = {body}" in translate_to_scala(analyzed).text
        assert f"def f (x : Int) : Int := {body}" in translate_to_lean(analyzed).text
        """
    )


def test_analyze_handles_a_flat_chain_of_5000_terms():
    run_code(
        """
        from soda import analyze, parse

        body = " + ".join(["x"] * 5000)
        source = f"class A\\n\\n  @tailrec\\n  f (x : Int) : Int = {body} + y\\n\\nend\\n"
        analyzed = analyze(parse(source).program)
        assert [d.code for d in analyzed.diagnostics] == ["W-SEM-001"]
        """
    )


def test_check_command_handles_a_flat_chain_of_5000_terms(tmp_path):
    body = " + ".join(["x"] * 5000)
    path = tmp_path / "chain.soda"
    path.write_text(f"class A\n\n  @tailrec\n  f (x : Int) : Int = {body}\n\nend\n")
    proc = run_fresh(["-m", "soda", "check", str(path)])
    assert (proc.returncode, proc.stderr) == (0, "")


def test_900_nested_nots_go_through_every_stage():
    run_code(
        """
        from soda import analyze, parse, pretty_print
        from soda import translate_to_lean, translate_to_scala

        body = "not " * 900 + "b"
        source = f"class A\\n\\n  f (b : Bool) : Bool = {body}\\n\\nend\\n"
        program = parse(source).program
        assert pretty_print(program) == source
        analyzed = analyze(program)
        assert analyzed.diagnostics == []
        assert f"def f (b : Boolean) : Boolean = {'! ' * 900}b" in translate_to_scala(analyzed).text
        assert f"def f (b : Bool) : Bool := {'! ' * 900}b" in translate_to_lean(analyzed).text
        """
    )


def test_parse_handles_150_nested_parentheses():
    run_code(
        """
        from soda import parse

        source = "class A\\n\\n  f (x : Int) : Int = " + "(" * 150 + "x" + ")" * 150 + "\\n\\nend\\n"
        result = parse(source)
        assert result.ok, [d.render() for d in result.diagnostics]
        """
    )


# A definition nested n deep in each shape that takes one parser frame or
# more per level, and an n it must parse at in a fresh process at the default
# recursion limit.
DEEP_PARSE = {
    "parentheses": ('"f (x : Int) : Int = " + "(" * n + "x" + ")" * n', 300),
    "call arguments": ('"f (x : Int) : Int = " + "f (" * n + "x" + ")" * n', 300),
    "right operands": ('"f (x : Int) : Int = " + "x + (" * n + "x + x" + ")" * n', 230),
    "match in a case result": (
        '"f (x : Int) : Int = match x case 0 ==> " + "(match x case 0 ==> " * n + "x" + ")" * n', 230),
    "applied types": ('"f (x : " + "List [" * n + "Int" + "]" * n + ") : Int = 0"', 900),
}


@pytest.mark.parametrize("shape", DEEP_PARSE)
def test_parse_takes_deep_nesting_at_the_default_recursion_limit(shape):
    definition, n = DEEP_PARSE[shape]
    run_code(
        f"""
        import sys
        from soda import parse

        assert sys.getrecursionlimit() == 1000
        n = {n}
        result = parse("class A\\n\\n  " + {definition} + "\\n\\nend\\n")
        assert result.ok, [d.render() for d in result.diagnostics]
        """
    )


DEEP_PROGRAM = """\
class L

  abstract
    head : Int
    tail : L

end

class M

  @tailrec
  build (n : Int) (acc : L) : L =
    if n == 0 then acc else build (n - 1) (L_ (n) (acc))

  same (n : Int) : Bool = build (n) (L_ (0) (0)) == build (n) (L_ (0) (0))

  differ (n : Int) : Bool = build (n) (L_ (0) (0)) == build (n) (L_ (0) (1))

  deep (n : Int) : Int = if n == 0 then 0 else 1 + deep (n - 1)

end
"""


def run_deep_program(tmp_path, entry: str, *args, options=()) -> subprocess.CompletedProcess:
    path = tmp_path / "deep.soda"
    path.write_text(DEEP_PROGRAM)
    return run_fresh(["-m", "soda", "run", *options, str(path), entry, *map(str, args)])


def test_run_prints_a_list_100000_objects_deep(tmp_path):
    n = 100_000
    proc = run_deep_program(tmp_path, "M.build", n, 0)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "".join(f"L_ ({i}) (" for i in range(1, n + 1)) + "0" + ")" * n + "\n"


def test_equality_compares_lists_20000_objects_deep(tmp_path):
    proc = run_deep_program(tmp_path, "M.same", 20_000)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "true\n", "")
    proc = run_deep_program(tmp_path, "M.differ", 20_000)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "false\n", "")


def test_run_recurses_as_deep_as_the_budget_allows(tmp_path):
    proc = run_deep_program(tmp_path, "M.deep", 150_000, options=("--max-recursion", "200000"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "150000\n", "")
    proc = run_deep_program(tmp_path, "M.deep", 5_000, options=("--max-recursion", "1000"))
    assert proc.returncode == 1 and "fault[recursion_limit]" in proc.stderr


def test_run_entry_converts_and_compares_lists_nested_5000_deep():
    # Both the Python-to-Soda conversion of the arguments and Soda's == on
    # sequences go through work lists, not recursion.
    run_code(
        """
        from soda import Interpreter, analyze, parse, render_value

        def nested(depth, leaf):
            v = [leaf]
            for _ in range(depth):
                v = [v, 2]
            return v

        source = "class A\\n\\n  id (a : Int) : Int = a\\n\\n  eq (a : Int) (b : Int) : Bool = a == b\\n\\nend\\n"
        it = Interpreter(analyze(parse(source).program))
        text = render_value(it.run_entry("A", "id", (nested(5000, 1),)))
        assert text == "[" * 5001 + "1]" + ", 2]" * 5000
        assert render_value(it.run_entry("A", "eq", (nested(5000, 1), nested(5000, 1)))) == "true"
        assert render_value(it.run_entry("A", "eq", (nested(5000, 1), nested(5000, 0)))) == "false"
        assert render_value(it.run_entry("A", "eq", (nested(5000, 1), nested(4999, 1)))) == "false"
        """
    )


def test_run_entry_evaluates_a_constant_that_is_a_flat_chain_of_5000_terms():
    run_code(
        """
        from soda import Interpreter, analyze, parse

        body = " + ".join(["1"] * 5000)
        it = Interpreter(analyze(parse(f"class A\\n\\n  c : Int = {body}\\n\\nend\\n").program))
        out = it.run_entry("A", "c")
        assert type(out) is int and out == 5000 and it.last_peak_depth == 5000
        """
    )


def test_evaluate_takes_20000_nested_nots():
    run_code(
        """
        from soda import Interpreter, analyze, parse
        from soda.syntax import BoolLiteral, UnaryNot, synthetic_span

        span = synthetic_span()
        expr = BoolLiteral(True, span)
        for _ in range(20_000):
            expr = UnaryNot(expr, span)
        it = Interpreter(analyze(parse("class A\\n\\nend\\n").program), max_recursion=20_000)
        assert it.evaluate(expr) is True and it.last_peak_depth == 20_000
        """
    )


def test_trees_20000_nots_deep_compare():
    # Tree == works from a work list; a recursive one gave out near 400
    # levels. Spans never count.
    run_code(
        """
        from soda.syntax import Identifier, IntLiteral, UnaryNot, SourceSpan, synthetic_span

        def chain(leaf, depth=20_000, span=synthetic_span()):
            expr = leaf
            for _ in range(depth):
                expr = UnaryNot(expr, span)
            return expr

        x = chain(Identifier("x", synthetic_span()))
        moved = SourceSpan("b.soda", 2, 3, 4, 5)
        assert x == chain(Identifier("x", moved), span=moved)
        assert not x != chain(Identifier("x", moved))
        assert x != chain(Identifier("y", synthetic_span()))
        assert x != chain(IntLiteral(1, synthetic_span()))
        assert x != chain(Identifier("x", synthetic_span()), 19_999)
        assert not x == chain(Identifier("y", synthetic_span()))
        """
    )


def test_trees_20000_nots_deep_hash_and_print():
    # Tree hash and repr work from work lists as well; recursive ones gave
    # out before 2000 levels. Equal trees hash equal whatever their spans.
    run_code(
        """
        from soda.syntax import Identifier, UnaryNot, SourceSpan, synthetic_span

        def chain(leaf, span=synthetic_span()):
            expr = leaf
            for _ in range(20_000):
                expr = UnaryNot(expr, span)
            return expr

        x = chain(Identifier("x", synthetic_span()))
        moved = SourceSpan("b.soda", 2, 3, 4, 5)
        assert hash(x) == hash(chain(Identifier("x", moved), span=moved))
        assert repr(x) == "UnaryNot(operand=" * 20_000 + "Identifier(name='x')" + ")" * 20_000
        """
    )


def test_analyze_is_linear_in_the_binders_of_a_wide_definition():
    # One definition with n parameters whose body is an n-case match: each
    # case binds nothing, but every case result reads a parameter. Building
    # a set of bound names per binder made this quadratic (a ratio near 19).
    run_code(
        """
        import gc, time
        from soda import analyze, parse

        def wide(n):
            params = "".join(f" (p{i} : Int)" for i in range(n))
            cases = " ".join(f"case {i} ==> p{i}" for i in range(n))
            return parse(f"class W\\n\\n  f{params} : Int = match p0 {cases}\\n\\nend\\n").program

        def best_of_3(program):
            times = []
            for _ in range(3):
                gc.collect()
                start = time.process_time()
                assert analyze(program).diagnostics == []
                times.append(time.process_time() - start)
            return min(times)

        small, large = best_of_3(wide(1000)), best_of_3(wide(4000))
        assert large < 8 * small, (small, large)
        """
    )


def assert_linear(code: str, n: int) -> None:
    """Run ``code``, which defines ``build(n)`` and ``stage(x)``, in a fresh
    process, and time ``stage`` on ``build(n)`` and ``build(4 * n)``,
    interleaved, best of 3. Linear work reads about 4, quadratic about 16."""
    run_code(textwrap.dedent(code) + textwrap.dedent(
        f"""
        import gc, time

        def seconds(x):
            gc.collect()
            start = time.process_time()
            stage(x)
            return time.process_time() - start

        inputs = [build({n}), build({4 * n})]
        rounds = [[seconds(x) for x in inputs] for _ in range(3)]
        small, large = (min(times) for times in zip(*rounds))
        assert large < 8 * small, (small, large)
        """
    ))


def test_analyze_is_linear_in_the_number_of_classes():
    # Copying the program-wide name tables once per class made this quadratic.
    assert_linear(
        """
        from soda import analyze, parse

        def build(n):
            classes = (f"class C{i}\\n\\n  f{i} : Int = {i}\\n\\nend\\n\\n" for i in range(n))
            return parse("".join(classes)).program

        def stage(program):
            assert analyze(program).diagnostics == []
        """,
        500,
    )


def test_analyze_is_linear_in_the_named_arguments_of_a_call():
    # Looking each name up in the list of parameter names made this quadratic.
    assert_linear(
        """
        from soda import analyze, parse

        def build(n):
            params = "".join(f" (p{i} : Int)" for i in range(n))
            args = " ".join(f"(p{i} := {i})" for i in range(n))
            return parse(f"class N\\n\\n  g{params} : Int = p0\\n\\n  h : Int = g {args}\\n\\nend\\n").program

        def stage(program):
            assert analyze(program).diagnostics == []
        """,
        3000,
    )


def test_analyze_is_linear_in_definitions_that_each_make_a_named_call():
    # Work per rewritten body that grows with its class, such as building
    # the class's table of parameter names again, would make this quadratic.
    assert_linear(
        """
        from soda import analyze, parse

        def build(n):
            calls = "".join(f"  h{i} : Int = g (b := {i}) (a := 1)\\n\\n" for i in range(n))
            return parse(f"class N\\n\\n  g (a : Int) (b : Int) : Int = a\\n\\n{calls}end\\n").program

        def stage(program):
            assert analyze(program).diagnostics == []
        """,
        1000,
    )


def test_analyze_is_linear_in_the_named_calls_of_a_flat_sum():
    # Copying or walking the body once per resolved call would make this
    # quadratic.
    assert_linear(
        """
        from soda import analyze, parse

        def build(n):
            body = " + ".join(["g (b := 2) (a := 1)"] * n)
            return parse(f"class N\\n\\n  g (a : Int) (b : Int) : Int = a\\n\\n  h : Int = {body}\\n\\nend\\n").program

        def stage(program):
            assert analyze(program).diagnostics == []
        """,
        1000,
    )


def test_every_stage_is_linear_in_the_arguments_of_a_call():
    # A call is one node with its arguments in a list; walking back through
    # one node per argument at each argument would make a stage quadratic.
    assert_linear(
        """
        from soda import Interpreter, analyze, parse, pretty_print
        from soda import translate_to_lean, translate_to_scala

        def build(n):
            args = " ".join(f"({i})" for i in range(n))
            return f"class C\\n\\n  g (x : Int) : Int = g\\n\\n  h : Int = g {args}\\n\\nend\\n"

        def stage(source):
            program = parse(source).program
            assert pretty_print(program) == source
            analyzed = analyze(program)
            assert analyzed.diagnostics == []
            assert translate_to_scala(analyzed).text and translate_to_lean(analyzed).ok
            Interpreter(analyzed)
        """,
        1000,
    )


def test_every_stage_is_linear_in_the_branches_of_an_if_chain():
    # The parser and the printers take an `else if` chain in a loop; a stage
    # that walked back along the chain at each branch would be quadratic.
    assert_linear(
        """
        from soda import Interpreter, analyze, parse, pretty_print
        from soda import translate_to_lean, translate_to_scala

        def build(n):
            chain = "".join(f"if x == {i} then {i} else " for i in range(n))
            return f"class C\\n\\n  f (x : Int) : Int = {chain}0\\n\\nend\\n"

        def stage(source):
            program = parse(source).program
            assert pretty_print(program) == source
            analyzed = analyze(program)
            assert analyzed.diagnostics == []
            assert translate_to_scala(analyzed).text and translate_to_lean(analyzed).ok
            Interpreter(analyzed)
        """,
        1000,
    )


def test_an_if_chain_of_20000_branches_goes_through_every_stage():
    run_code(
        """
        from soda import Interpreter, analyze, parse, pretty_print
        from soda import translate_to_lean, translate_to_scala

        chain = "".join(f"if x == {i} then {i} else " for i in range(20_000))
        source = f"class C\\n\\n  f (x : Int) : Int = {chain}-1\\n\\nend\\n"
        program = parse(source).program
        assert pretty_print(program) == source
        analyzed = analyze(program)
        assert analyzed.diagnostics == []
        assert f"def f (x : Int) : Int = {chain}-1" in translate_to_scala(analyzed).text
        assert f"def f (x : Int) : Int := {chain}-1" in translate_to_lean(analyzed).text
        assert Interpreter(analyzed).run_entry("C", "f", [19_999]) == 19_999
        """
    )


def test_parse_is_linear_in_the_arguments_of_one_type():
    assert_linear(
        """
        from soda import parse

        def build(n):
            return "class A\\n\\n  f (x : T" + " [Int]" * n + ") : Int = 0\\n\\nend\\n"

        def stage(source):
            assert parse(source).ok
        """,
        2000,
    )


def test_parse_is_linear_in_the_alternating_value_and_type_arguments_of_a_call():
    assert_linear(
        """
        from soda import parse

        def build(n):
            return "class A\\n\\n  f (x : Int) : Int = g" + " (x) [Int]" * n + "\\n\\nend\\n"

        def stage(source):
            assert parse(source).ok
        """,
        1000,
    )


def test_parse_is_linear_in_the_blank_lines_that_open_a_directive():
    # Dropping the leading blank lines one at a time from the front of a
    # list made this quadratic.
    assert_linear(
        """
        from soda import parse

        def build(n):
            return "class D\\n\\n  directive scala\\n" + "\\n" * n + "    val x = 1\\n\\nend\\n"

        def stage(source):
            assert parse(source).program.classes[0].members[0].raw_lines == ("val x = 1",)
        """,
        32000,
    )


def test_parse_is_linear_in_the_commented_definitions_of_a_class():
    # Each definition takes the comments before it from one cursor over the
    # lexer's list of comments, and drops the one on its line.
    assert_linear(
        """
        from soda import parse

        def build(n):
            defs = "".join(f"  // f{i}\\n  f{i} : Int = {i} // {i}\\n" for i in range(n))
            return "class A\\n" + defs + "end\\n"

        def stage(source):
            assert parse(source).program.classes[0].definitions[-1].leading_comments != ()
        """,
        1000,
    )


def test_parse_is_linear_in_the_comment_lines_between_continuation_lines():
    assert_linear(
        """
        from soda import parse

        def build(n):
            return "class A\\n  f (x : Int) : Int =\\n    x\\n" + "    // c\\n    + x\\n" * n + "end\\n"

        def stage(source):
            assert parse(source).ok
        """,
        2000,
    )


# Inputs to tokenize: an expression for a source of n units, and the n to
# time it at (and at 4n).
LEX_SHAPES = {
    "comment lines": ('"  // note\\n" * n', 2500),
    "illegal characters then a comment": ('"$ // c\\n" * n', 1200),
    "members with a continuation line": (
        '"class A\\n" + "".join(f"  x{i} : Int =\\n    {i}\\n" for i in range(n)) + "end\\n"', 800),
    "one line of illegal characters": ('"$" * n', 2500),
    "one long comment": ('"// " + "c" * n', 2_000_000),
    "one string literal with an escape every tenth character": (
        """'x = "' + ("abcdefgh" + chr(92) * 2) * (n // 10) + '"'""", 250_000),
}


@pytest.mark.parametrize("shape", sorted(LEX_SHAPES))
def test_tokenize_is_linear_in_each_shape(shape):
    source, n = LEX_SHAPES[shape]
    assert_linear(
        f"""
        from soda import tokenize

        def build(n):
            return {source}

        stage = tokenize
        """,
        n,
    )


def test_analyze_takes_20000_applied_lambdas_with_distinct_names():
    # Each level binds a new name, so the table of open binders grows to
    # 20001 names; one set of bound names per level would hold 2 * 10^8.
    run_code(
        """
        from soda import analyze
        from soda.syntax import (BinaryOp, Call, ClassDecl, Definition, Identifier,
                                 IntLiteral, Lambda, NamedType, Program, synthetic_span)

        span = synthetic_span()
        expr = BinaryOp("+", Identifier("a", span), Identifier("z", span), span)
        for k in range(20_000):
            expr = Call(Lambda(f"y{k}", None, expr, span), (IntLiteral(k, span),), span)
        f = Definition("f", (("a", NamedType("Int", span)),), None, expr, True, span=span)
        program = Program(None, (), (ClassDecl("A", (), (), (f,), span=span),), span)
        diagnostics = analyze(program).diagnostics
        assert [(d.code, d.message) for d in diagnostics] == [
            ("W-SEM-001", "'z' is not declared in this file")
        ]
        """
    )


def test_evaluate_takes_20000_nested_ifs_and_lambdas():
    # Each level applies a lambda that shadows y, so each y must resolve to
    # the innermost one; a closure keeps only the locals its body uses.
    run_code(
        """
        from soda import Interpreter, analyze, parse
        from soda.syntax import BinaryOp, Call, Identifier, If, IntLiteral, Lambda
        from soda.syntax import synthetic_span

        span = synthetic_span()
        expr = Identifier("y", span)
        for k in range(20_000):
            cond = BinaryOp("==", Identifier("y", span), IntLiteral(k, span), span)
            body = If(cond, expr, IntLiteral(-1, span), span)
            expr = Call(Lambda("y", None, body, span), (IntLiteral(k, span),), span)
        it = Interpreter(analyze(parse("class A\\n\\nend\\n").program))
        out = it.evaluate(expr)
        assert type(out) is int and out == 0 and it.last_peak_depth == 2
        """
    )


def test_evaluate_takes_20000_applied_lambdas_around_an_outer_local():
    # Every level's body uses a, bound outside all of them, so each closure
    # keeps that one local and the run is linear in the depth.
    run_code(
        """
        from soda import Interpreter, analyze, parse
        from soda.syntax import Call, Identifier, IntLiteral, Lambda, synthetic_span

        span = synthetic_span()
        expr = Identifier("a", span)
        for k in range(20_000):
            expr = Call(Lambda(f"y{k}", None, expr, span), (IntLiteral(k, span),), span)
        expr = Call(Lambda("a", None, expr, span), (IntLiteral(7, span),), span)
        it = Interpreter(analyze(parse("class A\\n\\nend\\n").program))
        out = it.evaluate(expr)
        assert type(out) is int and out == 7 and it.last_peak_depth == 1
        """
    )


def test_interpreter_is_linear_in_the_parameters_of_a_wide_definition():
    # One definition with n parameters whose body is an n-case match, built
    # and run with all n arguments. Wrapping the body in n one-parameter
    # lambdas, each capturing the parameters before it, made this quadratic.
    run_code(
        """
        import gc, time
        from soda import Interpreter, analyze, parse

        def wide(n):
            params = "".join(f" (p{i} : Int)" for i in range(n))
            cases = " ".join(f"case {i} ==> p{i}" for i in range(n))
            return analyze(parse(f"class W\\n\\n  f{params} : Int = match p0 {cases}\\n\\nend\\n").program)

        def seconds(analyzed, n):
            gc.collect()
            start = time.process_time()
            out = Interpreter(analyzed).run_entry("W", "f", [n - 1] * n)
            assert type(out) is int and out == n - 1
            return time.process_time() - start

        # Interleaved, so that a change in the machine's speed meets both sizes.
        programs = {1000: wide(1000), 4000: wide(4000)}
        rounds = [[seconds(a, n) for n, a in programs.items()] for _ in range(5)]
        small, large = (min(times) for times in zip(*rounds))
        assert large < 8 * small, (small, large)
        """
    )


def test_resolving_a_whole_call_is_linear_in_its_arguments():
    # A call chain that passes a definition all n arguments becomes one node;
    # finding the chain's arguments anew at each link would be quadratic.
    run_code(
        """
        import gc, time
        from soda import Interpreter, analyze, parse

        def chain(n):
            params = "".join(f" (p{i} : Int)" for i in range(n))
            args = " ".join(f"({i})" for i in range(n))
            source = f"class C\\n\\n  g{params} : Int = p{n - 1}\\n\\n  h : Int = g {args}\\n\\nend\\n"
            return analyze(parse(source).program)

        def seconds(analyzed):
            gc.collect()
            start = time.process_time()
            Interpreter(analyzed)
            return time.process_time() - start

        programs = [chain(1000), chain(4000)]
        out = Interpreter(programs[1]).run_entry("C", "h")
        assert type(out) is int and out == 3999
        # Interleaved, so that a change in the machine's speed meets both sizes.
        rounds = [[seconds(a) for a in programs] for _ in range(5)]
        small, large = (min(times) for times in zip(*rounds))
        assert large < 8 * small, (small, large)
        """
    )


# Inputs on which every command must exit with diagnostics or output, never
# with a traceback (ROADMAP item 6's CLI check). Each command runs in a fresh
# process, at the default recursion limit.
CLI_CASES = {
    "one_lambda_with_600_parameters":
        "class A\n\n  f : Int = lambda " + " ".join(f"y{i}" for i in range(600)) + " --> y0\n\nend\n",
    "an_if_chain_of_700_branches":
        "class A\n\n  f (x : Int) : Int = "
        + "".join(f"if x == {i} then {i} else " for i in range(700)) + "0\n\nend\n",
}


@pytest.mark.parametrize("command", ["check", "fmt", "scala", "lean"])
@pytest.mark.parametrize("case", CLI_CASES)
def test_no_command_gives_a_traceback(tmp_path, case, command):
    path = tmp_path / "input.soda"
    path.write_text(CLI_CASES[case])
    output = ["-o", str(tmp_path / f"out.{command}")] if command in ("scala", "lean") else []
    proc = run_fresh(["-m", "soda", command, str(path), *output])
    assert proc.returncode in (0, 1, 2) and "Traceback" not in proc.stderr, proc.stderr[-3000:]
