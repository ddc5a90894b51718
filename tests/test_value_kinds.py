"""Value kinds: an Int, a Bool and a String stay three kinds at run time.

A Python ``bool`` is also an ``int``, so each check here would fail if the
interpreter let a boolean stand for the integer 1 or 0, or the other way
round: in ``==``, in literal patterns, in the operators that need one kind,
and in how values print."""

import enum

import pytest

from soda import Interpreter, RuntimeFault, analyze, parse, parse_expression, render_value, tokenize
from soda.interpreter import from_python

SOURCE = """\
class P

  abstract
    fst : Int
    snd : Int

end

class S

  abstract
    a : String
    b : String

end

class K

  kind_of_int (x : Int) : String =
    match x
      case true ==> "bool"
      case 1 ==> "int"
      case _ ==> "other"

  kind_of_bool (x : Bool) : String =
    match x
      case 1 ==> "int"
      case true ==> "bool"
      case _ ==> "other"

  twice (x : Int) : Int = x * 2

  shout (s : String) : String = s + "!"

  pair (a : Int) (b : Int) : P = P_ (a) (b)

end
"""


def _interpreter():
    parsed = parse(SOURCE, "kinds.soda")
    assert parsed.ok, [d.render() for d in parsed.diagnostics]
    analyzed = analyze(parsed.program)
    assert analyzed.ok, [d.render() for d in analyzed.diagnostics]
    return Interpreter(analyzed)


INTERP = _interpreter()


def ev(source, cls="P"):
    expr, _ = parse_expression(tokenize(source).tokens)
    assert expr is not None
    return INTERP.evaluate(expr, cls)


@pytest.mark.parametrize("source", ["true == 1", "1 == true", "0 == false", "false == 0", '"1" == 1', '1 == "1"'])
def test_equality_never_holds_across_kinds(source):
    assert render_value(ev(source)) == "false"


@pytest.mark.parametrize("source", ["true == true", "1 == 1", '"1" == "1"', "P_ (1) (true) == P_ (1) (true)"])
def test_equality_holds_within_a_kind(source):
    assert render_value(ev(source)) == "true"


def test_objects_whose_fields_differ_only_in_kind_are_unequal():
    assert render_value(ev("P_ (1) (true) == P_ (true) (1)")) == "false"
    assert render_value(ev("P_ (0) (false) == P_ (false) (0)")) == "false"


def test_objects_from_run_entry_compare_and_hash_by_class_and_fields():
    first, second = INTERP.run_entry("K", "pair", (1, 2)), INTERP.run_entry("K", "pair", (1, 2))
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != INTERP.run_entry("K", "pair", (1, 3))
    assert first != 1 and not first == 1


def test_sequences_whose_items_differ_only_in_kind_are_unequal():
    assert from_python([1, 0]) != from_python([True, False])
    assert from_python([1, [0]]) == from_python([1, [0]])


@pytest.mark.parametrize("cases, want", [
    ("case 1 ==> 10 case true ==> 20 case _ ==> 30", "20"),
    ("case true ==> 20 case 1 ==> 10 case _ ==> 30", "20"),
])
def test_a_bool_scrutinee_matches_case_true_and_not_case_1(cases, want):
    assert render_value(ev("match true " + cases)) == want


@pytest.mark.parametrize("cases, want", [
    ("case true ==> 20 case 1 ==> 10 case _ ==> 30", "10"),
    ("case false ==> 20 case 0 ==> 10 case _ ==> 30", "30"),
])
def test_an_int_scrutinee_matches_case_1_and_not_case_true(cases, want):
    assert render_value(ev("match 1 " + cases)) == want


@pytest.mark.parametrize("rule, arg, want", [
    ("kind_of_int", 1, '"int"'),
    ("kind_of_int", True, '"bool"'),
    ("kind_of_int", 0, '"other"'),
    ("kind_of_bool", True, '"bool"'),
    ("kind_of_bool", 1, '"int"'),
    ("kind_of_bool", False, '"other"'),
])
def test_run_entry_keeps_the_kind_of_a_python_argument(rule, arg, want):
    assert render_value(INTERP.run_entry("K", rule, (arg,))) == want


@pytest.mark.parametrize("source, message", [
    ("not 1", "'not' requires a boolean operand"),
    ("not 0", "'not' requires a boolean operand"),
    ("if 1 then 2 else 3", "'if' condition is not a boolean"),
    ("if 0 then 2 else 3", "'if' condition is not a boolean"),
    ("if 1 + 1 then 2 else 3", "'if' condition is not a boolean"),
    ("1 and true", "'and' requires boolean operands"),
    ("true and 1", "'and' requires boolean operands"),
    ("0 or false", "'or' requires boolean operands"),
    ("range (true)", "range requires an integer"),
    ("-true", "'-' requires integer operands"),
    ("true + true", "'+' requires integer operands"),
    ("true * 3", "'*' requires integer operands"),
    ("1 / false", "'/' requires integer operands"),
    ("false < 1", "'<' requires integer operands"),
    ('"a" + true', "'+' requires integer operands"),
])
def test_an_operand_of_the_wrong_kind_faults(source, message):
    out = ev(source)
    assert isinstance(out, RuntimeFault), render_value(out)
    assert (out.kind, out.message) == ("arity_fault", message)
    if source.startswith("if "):  # the fault points at the condition
        expr, _ = parse_expression(tokenize(source).tokens)
        assert out.span == expr.cond.span


TRICKY = ["]", ", ", " (", ")", "[", "a], [b", 'x" (y', ""]


def test_strings_that_look_like_separators_print_as_strings_inside_a_sequence():
    assert render_value(from_python(TRICKY)) == '["]", ", ", " (", ")", "[", "a], [b", "x\\" (y", ""]'
    assert render_value(from_python([[")"], [" (", "]"]])) == '[[")"], [" (", "]"]]'


def test_strings_that_look_like_separators_print_as_strings_inside_an_object():
    assert render_value(ev('S_ ("]") (", ")', "S")) == 'S_ ("]") (", ")'
    assert render_value(ev('S_ (" (") (")")', "S")) == 'S_ (" (") (")")'


def test_each_kind_prints_as_its_literal():
    assert [render_value(from_python(x)) for x in (1, True, False, "1", 0)] == ["1", "true", "false", '"1"', "0"]
    assert render_value(from_python([1, True, "true"])) == '[1, true, "true"]'


def test_python_subclasses_of_int_and_str_compute_as_plain_values():
    class Level(enum.IntEnum):
        HIGH = 3

    class Name(str):
        pass

    assert [type(v) for v in (from_python(Level.HIGH), from_python(Name("x")))] == [int, str]
    assert render_value(INTERP.run_entry("K", "twice", (Level.HIGH,))) == "6"
    assert render_value(INTERP.run_entry("K", "shout", (Name("hi"),))) == '"hi!"'
