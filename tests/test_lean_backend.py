"""Lean rendering: class/where blocks, namespaces, and the unsupported set."""

import sys
from pathlib import Path

from soda import (
    analyze,
    check_lean_supported,
    parse,
    translate_to_lean,
)

GOLDENS = Path(__file__).parent / "goldens"


def lean_of(source):
    res = parse(source, "t.soda")
    assert res.ok, [d.render() for d in res.diagnostics]
    analyzed = analyze(res.program)
    assert not any(d.severity == "error" for d in analyzed.diagnostics)
    return translate_to_lean(analyzed)


def text_of(source):
    out = lean_of(source)
    assert out.ok, [d.render() for d in out.diagnostics]
    return out.text


def test_golden_simple_class():
    out = lean_of((GOLDENS / "pair.soda").read_text())
    assert out.ok
    assert out.text == (GOLDENS / "pair.lean").read_text()


def test_golden_parameterized_class():
    out = lean_of((GOLDENS / "pair_param.soda").read_text())
    assert out.ok
    assert out.text == (GOLDENS / "pair_param.lean").read_text()


def test_fields_become_a_class_with_named_constructor():
    text = text_of(
        "class P\n\n  abstract\n    fst : Int\n    snd : Int\n\nend\n"
    )
    assert text.startswith(
        "class P where\n  P_ ::\n  fst : Int\n  snd : Int\n"
        "  deriving DecidableEq\n"
    )


def test_fieldless_class_renders_only_a_namespace():
    text = text_of("class A\n\n  x : Int = 1\n\nend\n")
    assert "class A where" not in text
    assert text.startswith("namespace A\n")
    assert text.endswith("end A\n")


def test_definitions_live_inside_the_namespace():
    text = text_of("class A\n\n  twice (n : Int) : Int = n * 2\n\nend\n")
    assert "namespace A\n\ndef twice (n : Int) : Int := n * 2\n\nend A\n" in text


def test_match_renders_with_bars():
    text = text_of(
        "class P\n\n  abstract\n    fst : Int\n    snd : Int\n\n"
        "  swap (p : P) : P = match p case P_ (a) (b) ==> P_ (b) (a)\n\nend\n"
    )
    assert "def swap (p : P) : P :=\n  match p with\n  | P_ a b => P_ b a" in text


def test_nested_match_renders_inline():
    text = text_of(
        "class A\n\n  f (n : Int) : Int = 1 + (match n case 0 ==> 5"
        " case _ ==> 6)\n\nend\n"
    )
    assert "def f (n : Int) : Int := 1 + (match n with | 0 => 5 | _ => 6)" in text


def test_application_is_by_juxtaposition():
    text = text_of(
        "class A\n\n  f (n : Int) : Int = g (n) (n + 1)\n\n"
        "  g (a : Int) (b : Int) : Int = a\n\nend\n"
    )
    assert "def f (n : Int) : Int := g n (n + 1)" in text


def test_lambda_renders_as_fun():
    text = text_of("class A\n\n  inc : Int --> Int = lambda x --> x + 1\n\nend\n")
    assert "def inc : Int -> Int := fun x => x + 1" in text


def test_type_arguments_are_erased():
    text = text_of(
        "class P [A : Type]\n\n  abstract\n    item : A\n\n"
        "  build : P [Int] = P_ [Int] (5)\n\nend\n"
    )
    assert "def build : P Int := P_ 5" in text


def test_parameterized_class_header_takes_type_arguments():
    text = text_of(
        "class P [A : Type]\n\n  abstract\n    item : A\n\nend\n"
    )
    assert text.startswith("class P (A : Type) where\n")


def test_comments_render_with_double_dash():
    text = text_of(
        "class A\n\n  // adds one\n  f (n : Int) : Int = n + 1\n\nend\n"
    )
    assert "-- adds one\ndef f" in text


def test_tailrec_annotation_is_dropped():
    text = text_of(
        "class A\n\n  @tailrec\n  loop (n : Int) : Int ="
        " if n == 0 then 0 else loop (n - 1)\n\nend\n"
    )
    assert "tailrec" not in text


def test_lean_directives_are_spliced_and_others_dropped():
    text = text_of(
        "directive scala\n  import scala.math.max\n\ndirective lean\n  open Nat\n\n"
        "class A\n\n  x : Int = 1\n\n  directive lean\n"
        "    theorem t : 1 = 1 := rfl\n\n  directive scala\n"
        "    val helper = 42\n\nend\n"
    )
    assert "theorem t : 1 = 1 := rfl" in text
    assert "helper" not in text
    # Top-level blocks: only the lean one, at column 1.
    assert "scala.math" not in text
    assert text.startswith("open Nat\n\nnamespace A\n")


def test_each_unsupported_construct_is_reported_once_by_name():
    cases = {
        "package": "package a.b\n\nclass A\n\n  x : Int = 1\n\nend\n",
        "import": "import a.b\n\nclass A\n\n  x : Int = 1\n\nend\n",
        "this": "class A\n\n  x : A = this\n\nend\n",
        "subtype": "class A [X subtype Q]\n\n  x : Int = 1\n\nend\n",
        "supertype": "class A [X supertype Q]\n\n  x : Int = 1\n\nend\n",
    }
    for construct, source in cases.items():
        out = lean_of(source)
        assert out.text is None
        assert len(out.diagnostics) == 1, construct
        diag = out.diagnostics[0]
        assert diag.code == "E-LEAN-001"
        assert construct in diag.message


def test_every_import_reports_separately():
    out = lean_of("import a.b\nimport c.d\n\nclass A\n\n  x : Int = 1\n\nend\n")
    assert [d.code for d in out.diagnostics] == ["E-LEAN-001", "E-LEAN-001"]


def test_every_refused_construct_is_reported_in_source_order():
    out = lean_of(
        "package p\n\nimport a.b\n\nclass A\n\n  x : A = this\n\nend\n\n"
        "class B [X subtype Q]\n\n  y : Int = 1\n\n  z : B = this\n\nend\n"
    )
    assert out.text is None
    words = [d.message.split("'")[1] for d in out.diagnostics]
    assert words == ["package", "import", "this", "subtype", "this"]


def test_a_this_is_reported_even_where_the_printer_runs_out_of_stack():
    depth = sys.getrecursionlimit() * 3 // 10  # parses, but is too deep to print
    nested = "List [" * depth + "Int" + "]" * depth
    out = lean_of(f"class A\n\n  f (x : {nested}) : Int = 1\n\n  g : A = this\n\nend\n")
    assert out.text is None
    assert [(d.code, d.span.line_start) for d in out.diagnostics] == [("E-LEAN-001", 5)]


def test_check_lean_supported_is_exposed():
    res = parse("class A\n\n  x : A = this\n\nend\n")
    diags = check_lean_supported(res.program)
    assert [d.code for d in diags] == ["E-LEAN-001"]
    clean = parse("class A\n\n  x : Int = 1\n\nend\n")
    assert check_lean_supported(clean.program) == []


def test_rendering_none_exactly_when_diagnostics_exist():
    ok = lean_of("class A\n\n  x : Int = 1\n\nend\n")
    assert ok.ok and ok.text is not None and ok.diagnostics == []
    bad = lean_of("package p\n\nclass A\n\n  x : Int = 1\n\nend\n")
    assert not bad.ok and bad.text is None and bad.diagnostics


def test_source_map_points_lines_back_at_classes_and_directives():
    src = (
        "directive lean\n  open Nat\n\nclass A\n\n  x : Int = 1\n\nend\n\n"
        "directive scala\n  val y = 1\n\nclass B\n\n  abstract\n    n : Int\n\nend\n"
    )
    out = lean_of(src)
    lines = out.text.split("\n")
    # The scala block is no chunk of the Lean text, so nothing maps to line 10.
    mapped = {line: (lines[line - 1], sp.line_start) for line, sp in out.source_map.items()}
    assert mapped == {1: ("open Nat", 1), 3: ("namespace A", 4), 9: ("class B where", 13)}
    assert lean_of("package p\n\n" + src).source_map == {}


def test_a_match_body_gives_its_lines_in_the_program():
    source = (
        "class P\n\n  abstract\n    fst : Int\n    snd : Int\n\n"
        "  swap (p : P) : P = match p case P_ (a) (b) ==> P_ (b) (a)\n\nend\n"
    )
    block = "  match p with\n  | P_ a b => P_ b a"
    assert f"\ndef swap (p : P) : P :=\n{block}\n" in text_of(source)
