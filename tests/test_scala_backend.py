"""Scala rendering: traits, synthesized case classes, and expression forms."""

from pathlib import Path

from soda import analyze, parse, translate_to_scala

GOLDENS = Path(__file__).parent / "goldens"


def scala_of(source):
    res = parse(source, "t.soda")
    assert res.ok, [d.render() for d in res.diagnostics]
    analyzed = analyze(res.program)
    assert not any(d.severity == "error" for d in analyzed.diagnostics)
    return translate_to_scala(analyzed)


def member_line(source, needle):
    text = scala_of(source).text
    hits = [ln for ln in text.split("\n") if needle in ln]
    assert hits, text
    return hits[0].strip()


def test_golden_simple_class():
    out = scala_of((GOLDENS / "pair.soda").read_text())
    assert out.text == (GOLDENS / "pair.scala").read_text()


def test_golden_parameterized_class():
    out = scala_of((GOLDENS / "pair_param.soda").read_text())
    assert out.text == (GOLDENS / "pair_param.scala").read_text()


def test_constant_becomes_lazy_val():
    assert member_line(
        "class A\n\n  answer : Int = 42\n\nend\n", "answer"
    ) == "lazy val answer : Int = 42"


def test_function_becomes_def():
    assert member_line(
        "class A\n\n  twice (n : Int) : Int = n * 2\n\nend\n", "twice"
    ) == "def twice (n : Int) : Int = n * 2"


def test_bool_type_renames_to_boolean():
    assert member_line(
        "class A\n\n  flag (b : Bool) : Bool = b\n\nend\n", "flag"
    ) == "def flag (b : Boolean) : Boolean = b"


def test_every_class_gets_a_case_class():
    text = scala_of("class Lone\n\n  x : Int = 1\n\nend\n").text
    assert "case class Lone_ () extends Lone" in text


def test_case_class_repeats_type_parameter_bounds():
    text = scala_of(
        "class T [X : Type] [Y subtype X] [Z supertype X]\n\n  v : X = w\n\nend\n"
    ).text
    assert "trait T [X, Y <: X, Z >: X]" in text
    assert "case class T_ [X, Y <: X, Z >: X] () extends T [X, Y, Z]" in text


def test_multiple_extends_use_with():
    text = scala_of("class A extends B C\n\n  x : Int = 1\n\nend\n").text
    assert "trait A extends B with C {" in text


def test_if_uses_then_syntax_and_boolean_operators():
    line = member_line(
        "class A\n\n  f (b : Bool) : Int = if b and not false or true"
        " then 1 else 2\n\nend\n",
        "def f",
    )
    assert line == "def f (b : Boolean) : Int = if b && ! false || true then 1 else 2"


def test_lambda_renders_with_arrow():
    assert member_line(
        "class A\n\n  inc : Int --> Int = lambda x --> x + 1\n\nend\n", "inc"
    ) == "lazy val inc : Int => Int = (x) => x + 1"
    assert member_line(
        "class A\n\n  inc : Int --> Int = lambda (x : Int) --> x\n\nend\n", "inc"
    ) == "lazy val inc : Int => Int = (x : Int) => x"


def test_constructor_calls_merge_into_one_argument_list():
    src = (
        "class P\n\n  abstract\n    fst : Int\n    snd : Int\n\n"
        "  build : P = P_ (1) (2)\n\nend\n"
    )
    assert member_line(src, "build") == "lazy val build : P = P_ (1, 2)"


def test_partial_constructor_application_stays_curried():
    src = (
        "class P\n\n  abstract\n    fst : Int\n    snd : Int\n\n"
        "  half : Int --> P = P_ (1)\n\nend\n"
    )
    assert member_line(src, "half") == "lazy val half : Int => P = P_ (1)"


def test_constructor_patterns_merge_too():
    src = (
        "class P\n\n  abstract\n    fst : Int\n    snd : Int\n\n"
        "  swap (p : P) : P = match p case P_ (a) (b) ==> P_ (b) (a)\n\nend\n"
    )
    text = scala_of(src).text
    assert "case P_ (a, b) => P_ (b, a)" in text


def test_body_root_match_renders_multiline():
    src = (
        "class A\n\n  f (n : Int) : Int = match n case 0 ==> 1"
        " case _ ==> 2\n\nend\n"
    )
    text = scala_of(src).text
    assert "  def f (n : Int) : Int =\n    n match {\n" in text
    assert "      case 0 => 1\n      case _ => 2\n    }" in text


def test_nested_match_renders_inline_with_separators():
    src = (
        "class A\n\n  f (n : Int) : Int = 1 + (match n case 0 ==> 5"
        " case _ ==> 6)\n\nend\n"
    )
    assert member_line(src, "def f") == (
        "def f (n : Int) : Int = 1 + (n match { case 0 => 5; case _ => 6 })"
    )


def test_tailrec_annotation_is_kept():
    src = (
        "class A\n\n  @tailrec\n  loop (n : Int) : Int ="
        " if n == 0 then 0 else loop (n - 1)\n\nend\n"
    )
    text = scala_of(src).text
    assert "  @tailrec\n  def loop (n : Int) : Int =" in text


def test_package_and_imports_pass_through():
    text = scala_of(
        "package demo.app\n\nimport other.Thing\n\nclass A\n\n  x : Int = 1\n\nend\n"
    ).text
    assert text.startswith("package demo.app\n\nimport other.Thing\n\n")


def test_scala_directives_are_spliced_and_others_dropped():
    src = (
        "directive lean\n  open Nat\n\ndirective scala\n  import scala.math.max\n\n"
        "class A\n\n  x : Int = 1\n\n  directive scala\n    val helper = 42\n\n"
        "  directive lean\n    theorem t : 1 = 1 := rfl\n\nend\n"
    )
    out = scala_of(src)
    text = out.text
    assert "  val helper = 42" in text
    assert "theorem" not in text
    # Top-level blocks: only the scala one, at column 1, mapped to its source.
    assert "open Nat" not in text
    assert text.startswith("import scala.math.max\n\ntrait A {\n")
    assert [sp.line_start for sp in out.source_map.values()][:2] == [4, 7]


def test_comments_render_as_line_comments():
    src = "class A\n\n  // halves the input\n  f (n : Int) : Int = n / 2\n\nend\n"
    text = scala_of(src).text
    assert "  // halves the input\n  def f" in text


def test_named_arguments_to_unknown_callees_render_as_scala_named_args():
    src = "class A\n\n  v : Int = mystery (k := 5)\n\nend\n"
    assert member_line(src, "v : Int") == "lazy val v : Int = mystery (k = 5)"


def test_source_map_points_lines_back_at_declarations():
    src = (GOLDENS / "pair.soda").read_text()
    out = scala_of(src)
    spans = {line: sp for line, sp in out.source_map.items()}
    lines = out.text.split("\n")
    trait_line = lines.index("trait Pair {") + 1
    assert spans[trait_line].line_start == 1


def test_type_rendering_table():
    source = (
        "class B\n\nend\n\nclass T [A subtype B]\n\n  abstract\n    b : Bool\n"
        "    i : Int\n    s : Seq [Int]\n    f : (Int --> Int) --> Bool\n\nend\n"
    )
    lines = scala_of(source).text.split("\n")
    start = lines.index("trait T [A <: B] {")
    assert lines[start + 1 : start + 5] == [
        "  def b : Boolean",
        "  def i : Int",
        "  def s : Seq [Int]",
        "  def f : (Int => Int) => Boolean",
    ]


SWAP = (
    "class P\n\n  abstract\n    fst : Int\n    snd : Int\n\n"
    "  swap (p : P) : P = match p case P_ (a) (b) ==> P_ (b) (a)\n\nend\n"
)


def test_abstract_members_give_the_lines_the_golden_embeds():
    analyzed = analyze(parse((GOLDENS / "pair_param.soda").read_text(), "p.soda").program)
    golden = (GOLDENS / "pair_param.scala").read_text()
    text = translate_to_scala(analyzed).text
    for d in analyzed.program.classes[0].abstract_members:
        line = f"\n  def {d.name} : {d.result_type.name}\n"
        assert line in text and line in golden


def test_a_match_body_gives_its_lines_in_the_program():
    analyzed = analyze(parse(SWAP, "t.soda").program)
    lines = [
        "  def swap (p : P) : P =",
        "    p match {",
        "      case P_ (a, b) => P_ (b, a)",
        "    }",
    ]
    assert "\n" + "\n".join(lines) + "\n" in translate_to_scala(analyzed).text
