"""Long and deeply nested inputs through the front end and the printers.

Each case runs in a fresh ``python`` process with the default recursion
limit: evaluating a program raises the process-wide limit and never lowers
it, so an in-process test would pass however much stack a stage used."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_printers_handle_a_flat_chain_of_2000_terms():
    run_fresh(
        """
        from soda import parse, pretty_print, synthesize_constructors
        from soda import translate_to_lean, translate_to_scala
        from soda.analyzer import AnalyzedProgram

        body = " + ".join(["x"] * 1000 + ["(x - x) * x"] * 1000)
        source = f"class A\\n\\n  f (x : Int) : Int = {body}\\n\\nend\\n"
        program = parse(source).program
        assert pretty_print(program) == source
        # analyze would overflow on 2000 terms; the printers need only the
        # constructor table
        analyzed = AnalyzedProgram(program, synthesize_constructors(program), [])
        assert f"def f (x : Int) : Int = {body}" in translate_to_scala(analyzed).text
        assert f"def f (x : Int) : Int := {body}" in translate_to_lean(analyzed).text
        """
    )


def test_analyze_handles_a_flat_chain_of_900_terms():
    run_fresh(
        """
        from soda import analyze, parse

        body = " + ".join(["x"] * 900)
        source = f"class A\\n\\n  @tailrec\\n  f (x : Int) : Int = {body} + y\\n\\nend\\n"
        analyzed = analyze(parse(source).program)
        assert [d.code for d in analyzed.diagnostics] == ["W-SEM-001"]
        """
    )


def test_parse_handles_150_nested_parentheses():
    run_fresh(
        """
        from soda import parse

        source = "class A\\n\\n  f (x : Int) : Int = " + "(" * 150 + "x" + ")" * 150 + "\\n\\nend\\n"
        result = parse(source)
        assert result.ok, [d.render() for d in result.diagnostics]
        """
    )
