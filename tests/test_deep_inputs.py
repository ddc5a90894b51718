"""Long and deeply nested inputs through the front end and the printers.

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
