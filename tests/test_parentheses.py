"""Where types and patterns need parentheses, in all three printers.

Each row is one type or pattern in canonical Soda, then as Scala and Lean
print it. The Soda printer must give the row's text back (it is already
canonical), and each backend must print its own column."""

import pytest

from soda import analyze, parse, pretty_print, translate_to_lean, translate_to_scala

CLASSES = """\
class Cell

  abstract
    head : Int
    tail : Cell

end

class Nil

end
"""

TYPES = [
    # A function domain that is itself a function type.
    ("(Int --> Int) --> Bool", "(Int => Int) => Boolean", "(Int -> Int) -> Bool"),
    ("Int --> Int --> Bool", "Int => Int => Boolean", "Int -> Int -> Bool"),
    # A function type as the base of an application.
    ("(Int --> Bool) [Int]", "(Int => Boolean) [Int]", "(Int -> Bool) Int"),
    # Lean applies by juxtaposition: compound arguments take parentheses.
    ("List [Pair [Int]]", "List [Pair [Int]]", "List (Pair Int)"),
    ("Pair [Int --> Int] [Bool]", "Pair [Int => Int, Boolean]", "Pair (Int -> Int) Bool"),
]

PATTERNS = [
    # A nested constructor pattern and a negative literal as sub-patterns.
    ("Cell_ (-1) (Cell_ (x) (_))", "Cell_ (-1, Cell_ (x, _))", "Cell_ (-1) (Cell_ x _)"),
    ("Cell_ (0) (Nil_)", "Cell_ (0, Nil_ ())", "Cell_ 0 Nil_"),
    # Scala writes a zero-field constructor pattern with an empty list.
    ("Nil_", "Nil_ ()", "Nil_"),
    ("-7", "-7", "-7"),
]


def render_all(definition: str) -> tuple[str, str, str]:
    parsed = parse(f"{CLASSES}\nclass T\n\n  {definition}\n\nend\n", "t.soda")
    assert parsed.ok, [d.render() for d in parsed.diagnostics]
    analyzed = analyze(parsed.program)
    assert analyzed.ok, [d.render() for d in analyzed.diagnostics]
    lean = translate_to_lean(analyzed)
    assert lean.ok, [d.render() for d in lean.diagnostics]
    return pretty_print(parsed.program), translate_to_scala(analyzed).text, lean.text


@pytest.mark.parametrize("soda, scala, lean", TYPES)
def test_type_parentheses(soda, scala, lean):
    fmt, scala_text, lean_text = render_all(f"f (x : {soda}) : Int = 0")
    assert f"\n  f (x : {soda}) : Int = 0\n" in fmt
    assert f"\n  def f (x : {scala}) : Int = 0\n" in scala_text
    assert f"\ndef f (x : {lean}) : Int := 0\n" in lean_text


@pytest.mark.parametrize("soda, scala, lean", PATTERNS)
def test_pattern_parentheses(soda, scala, lean):
    fmt, scala_text, lean_text = render_all(f"f (c : Cell) : Int = match c case {soda} ==> 1 case _ ==> 0")
    assert f" match c case {soda} ==> 1 case _ ==> 0\n" in fmt
    assert f"\n      case {scala} => 1\n" in scala_text
    assert f"\n  | {lean} => 1\n" in lean_text
