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
        assert it.run_entry("A", "c").value == 5000 and it.last_peak_depth == 5000
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
        assert it.evaluate(expr).value is True and it.last_peak_depth == 20_000
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


def test_evaluate_takes_20000_nested_ifs_and_lambdas():
    # Each level applies a lambda that shadows y, so each y must resolve to
    # the innermost one; a closure keeps only the locals its body uses.
    run_code(
        """
        from soda import Interpreter, analyze, parse
        from soda.syntax import Apply, BinaryOp, Identifier, If, IntLiteral, Lambda
        from soda.syntax import synthetic_span

        span = synthetic_span()
        expr = Identifier("y", span)
        for k in range(20_000):
            cond = BinaryOp("==", Identifier("y", span), IntLiteral(k, span), span)
            body = If(cond, expr, IntLiteral(-1, span), span)
            expr = Apply(Lambda("y", None, body, span), IntLiteral(k, span), span)
        it = Interpreter(analyze(parse("class A\\n\\nend\\n").program))
        assert it.evaluate(expr).value == 0 and it.last_peak_depth == 2
        """
    )


def test_evaluate_takes_20000_applied_lambdas_around_an_outer_local():
    # Every level's body uses a, bound outside all of them, so each closure
    # keeps that one local and the run is linear in the depth.
    run_code(
        """
        from soda import Interpreter, analyze, parse
        from soda.syntax import Apply, Identifier, IntLiteral, Lambda, synthetic_span

        span = synthetic_span()
        expr = Identifier("a", span)
        for k in range(20_000):
            expr = Apply(Lambda(f"y{k}", None, expr, span), IntLiteral(k, span), span)
        expr = Apply(Lambda("a", None, expr, span), IntLiteral(7, span), span)
        it = Interpreter(analyze(parse("class A\\n\\nend\\n").program))
        assert it.evaluate(expr).value == 7 and it.last_peak_depth == 1
        """
    )
