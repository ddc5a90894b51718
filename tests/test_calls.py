"""Calls of class definitions: given all their arguments at once, one at a
time, or more than they take, and what each does at every depth budget.

The budget sweep runs each call at every ``max_recursion`` from 0 to one
past the peak depth it reaches at the default budget, each time in a fresh
``Interpreter`` (constants are kept per interpreter), and pins the rendered
outcome and ``last_peak_depth`` of every run as one digest per call."""

import hashlib
import sys
from pathlib import Path

import pytest

from soda import (
    Interpreter,
    RuntimeFault,
    analyze,
    parse,
    pretty_print,
    render_value,
    translate_to_lean,
    translate_to_scala,
)
from soda.syntax import format_expr

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402  (the evaluate workload's specification and cases)

CALLS = """\
class P

  add3 (a : Int) (b : Int) (c : Int) : Int = a * 100 + b * 10 + c

  plus (a : Int) (b : Int) : Int = a + b

  adder (a : Int) : Int --> Int = lambda b --> a + b

  part : Int --> Int = add3 (1) (2)

  pick (x : Int) : Int = (add3 (x)) (x + 1) (x + 2) + part (x)

  nested (x : Int) : Int = add3 (plus (x) (1)) (x) (part (x))

  over (x : Int) : Int = adder (x) (x * 2)

  twice (f : Int --> Int) (x : Int) : Int = f (f (x))

  again (x : Int) : Int = twice (plus (x)) (x) + twice (adder (1)) (x)

  first_fault (x : Int) : Int = plus (1 / x) (plus (x) (2 / 0))

  half (x : Int) : Int = 10 / x

  leftmost (x : Int) : Int = plus (1 / x) (half (0))

end
"""

FOLDS = """\
class F

  plus (a : Int) (b : Int) : Int = a + b

  sum_with (n : Int) : Int = fold (range (n)) (0) (plus)

  sum_lambda (n : Int) (k : Int) : Int = fold (range (n)) (k) (lambda acc --> lambda i --> acc + i * k)

  sum_partial (n : Int) : Int = fold (range (n)) (0) (lambda acc --> plus (acc))

  sum_nested (n : Int) : Int = fold (range (n)) (0) (lambda acc --> lambda i --> acc + fold (range (i)) (1) (plus))

  divide_all (n : Int) : Int = fold (range (n)) (1000) (lambda acc --> lambda i --> acc / (2 - i))

end
"""


# Type arguments are erased at run time: a chain through a type application
# is a call like any other.
TYPES = """\
class G

  plus (a : Int) (b : Int) : Int = a + b

  add3 (a : Int) (b : Int) (c : Int) : Int = a * 100 + b * 10 + c

  typed (x : Int) : Int = plus [Int] (x) (x + 1) + add3 [Int] [Int] (x) (1) (2 / x)

  partial (x : Int) : Int --> Int = add3 [Int] (x) (x)

end
"""


def analyzed_of(source):
    res = parse(source, "t.soda")
    assert res.ok, [d.render() for d in res.diagnostics]
    analyzed = analyze(res.program)
    assert analyzed.ok, [d.render() for d in analyzed.diagnostics]
    return analyzed


def test_a_definition_given_one_argument_then_the_other_gives_the_whole_call_value():
    it = Interpreter(analyzed_of(CALLS))
    whole = it.run_entry("P", "plus", (20, 22))
    partial = it.run_entry("P", "plus", (20,))
    assert render_value(partial) == "<function>"
    source = CALLS.replace("end\n", "  one_at_a_time : Int = (lambda g --> g (22)) (plus (20))\n\nend\n")
    again = Interpreter(analyzed_of(source)).run_entry("P", "one_at_a_time")
    assert render_value(whole) == render_value(again) == "42"
    # a partial application is a function value: it equals only itself
    source = CALLS.replace("end\n", "  same : Bool = part == part\n\n"
                           "  differ : Bool = plus (1) == plus (1)\n\nend\n")
    it = Interpreter(analyzed_of(source))
    assert render_value(it.run_entry("P", "same")) == "true"
    assert render_value(it.run_entry("P", "differ")) == "false"
    assert render_value(it.run_entry("P", "again", (2,))) == "10"


def test_a_definition_that_returns_a_lambda_takes_one_more_argument():
    it = Interpreter(analyzed_of(CALLS))
    assert render_value(it.run_entry("P", "over", (3,))) == "9"
    assert render_value(it.run_entry("P", "adder", (1, 2))) == "3"
    assert render_value(it.run_entry("P", "add3", (1, 2, 3))) == "123"


def test_the_first_fault_comes_from_the_leftmost_faulting_argument():
    it = Interpreter(analyzed_of(CALLS))
    lines = CALLS.split("\n")
    for name, fault_text in (("first_fault", "1 / x"), ("leftmost", "1 / x")):
        out = it.run_entry("P", name, (0,))
        assert isinstance(out, RuntimeFault) and out.kind == "division_by_zero"
        row = next(i for i, line in enumerate(lines) if line.startswith(f"  {name} "))
        col = lines[row].index(fault_text) + 1
        assert (out.span.line_start, out.span.col_start) == (row + 1, col)
    # with the left argument fine, the fault comes from inside the right one
    out = it.run_entry("P", "leftmost", (1,))
    row = next(i for i, line in enumerate(lines) if line.startswith("  half "))
    assert isinstance(out, RuntimeFault) and out.span.line_start == row + 1


# Calls that mix type, positional and named arguments: named ones to a
# declared callee are resolved, in declared order after the type arguments;
# those to an unknown callee stay, and evaluating them faults.
MIXED = """\
class Pair [A : Type] [B : Type]

  abstract
    fst : A
    snd : B

end

class Mix

  g (a : Int) (b : Int) : Int = a - b

  named (x : Int) : Int = g (b := x) (a := 10)

  typed : Pair [Int] [Bool] = Pair_ [Int] [Bool] (snd := true) (fst := 1)

  mixed (x : Int) : Int = g [Int] (x) [Bool] (2)

  unknown (x : Int) : Int = k [Int] (x) (n := 1) (m := 2)

end
"""


def test_calls_that_mix_argument_kinds_round_trip_translate_and_resolve():
    program = parse(MIXED, "t.soda").program
    assert pretty_print(program) == MIXED
    analyzed = analyze(program)
    assert [d.code for d in analyzed.diagnostics] == ["W-SEM-001"]  # k
    bodies = {d.name: format_expr(d.body) for d in analyzed.program.classes[1].definitions}
    assert bodies == {
        "g": "a - b",
        "named": "g (10) (x)",
        "typed": "Pair_ [Int] [Bool] (1) (true)",
        "mixed": "g [Int] (x) [Bool] (2)",
        "unknown": "k [Int] (x) (n := 1) (m := 2)",
    }
    scala = translate_to_scala(analyzed).text
    for line in (
        "def named (x : Int) : Int = g (10) (x)",
        "lazy val typed : Pair [Int, Boolean] = Pair_ [Int, Boolean] (1, true)",
        "def mixed (x : Int) : Int = g [Int, Boolean] (x) (2)",
        "def unknown (x : Int) : Int = k [Int] (x) (n = 1) (m = 2)",
    ):
        assert f"  {line}\n" in scala
    lean = translate_to_lean(analyzed).text
    for line in (
        "def named (x : Int) : Int := g 10 x",
        "def typed : Pair Int Bool := Pair_ 1 true",
        "def mixed (x : Int) : Int := g x 2",
        "def unknown (x : Int) : Int := k x (n := 1) (m := 2)",
    ):
        assert f"\n{line}\n" in lean
    it = Interpreter(analyzed)
    assert render_value(it.run_entry("Mix", "named", (3,))) == "7"
    assert render_value(it.run_entry("Mix", "typed")) == "Pair_ (1) (true)"
    assert render_value(it.run_entry("Mix", "mixed", (5,))) == "3"
    out = it.run_entry("Mix", "unknown", (0,))
    assert isinstance(out, RuntimeFault) and out.kind == "arity_fault"
    assert "named argument 'm' could not be resolved" in out.message
    # the span of the whole call
    assert tuple(out.span)[1:] == (19, 29, 19, 58)
    # a declared callee given named and positional arguments is an error
    mixed_kinds = analyze(parse(MIXED.replace("g [Int] (x) [Bool] (2)", "g [Int] (x) (b := 2)")).program)
    assert [d.code for d in mixed_kinds.diagnostics] == ["E-SEM-023", "W-SEM-001"]


def test_of_two_parameters_with_one_name_the_later_is_in_scope():
    source = "class D\n\n  f (x : Int) (x : Int) : Int = x\n\n  g : Int = f (1) (2)\n\nend\n"
    it = Interpreter(analyzed_of(source))
    assert render_value(it.run_entry("D", "f", (1, 2))) == "2"
    assert render_value(it.run_entry("D", "g")) == "2"


def _spec_calls():
    return [("Spec", rule, tuple(args)) for rule, args, _ in gen.eval_cases(1)[0]]


SWEEPS = {
    "spec": (gen.spec_source(), _spec_calls()),
    "calls": (CALLS, [
        ("P", "add3", (1,)), ("P", "add3", (1, 2)), ("P", "add3", (1, 2, 3)),
        ("P", "adder", (1, 2)), ("P", "part", (3,)), ("P", "pick", (1,)),
        ("P", "nested", (2,)), ("P", "over", (3,)), ("P", "again", (2,)),
        ("P", "first_fault", (0,)), ("P", "first_fault", (1,)), ("P", "leftmost", (0,)),
    ]),
    "folds": (FOLDS, [
        ("F", "sum_with", (20,)), ("F", "sum_lambda", (20, 3)), ("F", "sum_partial", (20,)),
        ("F", "sum_nested", (6,)), ("F", "divide_all", (5,)), ("F", "plus", (1,)),
    ]),
    "types": (TYPES, [("G", "typed", (3,)), ("G", "typed", (0,)), ("G", "partial", (1, 2))]),
}

#: The digest of each call's sweep, one line per budget: the budget, the
#: rendered outcome and ``last_peak_depth``.
SWEEP_DIGESTS = {
    "calls P.add3(1,)":
        "875b46884d5c9321a389d86369bf434afd993af0a38220bf73625d5038cc2a55",
    "calls P.add3(1, 2)":
        "875b46884d5c9321a389d86369bf434afd993af0a38220bf73625d5038cc2a55",
    "calls P.add3(1, 2, 3)":
        "40dd4cf5bf8ea09f954ca24209f5cbb354004d8bad3931f61e6ca5d7cdb6a218",
    "calls P.adder(1, 2)":
        "ef4c33a5a3cb7d290dc2395dfb731e328143696fa6942f49760ba7d6eb62b1a3",
    "calls P.part(3,)":
        "f0f02133671a19f06bfa3dd40e49a8bc849c3c12c0a0b57b662ae5e2bacb141e",
    "calls P.pick(1,)":
        "89f8a6ecd58776bd35ec18cb93df178b22cef4346471768ecf81aac55bd7ec1f",
    "calls P.nested(2,)":
        "7068604ccca2908ea13533dafd0785a05682e826787f4f22c763bf529d6bfd05",
    "calls P.over(3,)":
        "637004a508bcf01682a0c1e8c21f49962992f7ce7eedb4f728d7be84fbc58468",
    "calls P.again(2,)":
        "7d647cae30b8af5dbec47d833fa325936933dd3f7b168bf5bba8a82f082a2610",
    "calls P.first_fault(0,)":
        "b9644afddd91f1b2cc251d6171b460c7f06b6e54dd812a6e83469b5308b7ccb4",
    "calls P.first_fault(1,)":
        "55a7b3c1f3b0037d773ee42c6df01d6eebca1c1c14359af66d8b2db0197d7460",
    "calls P.leftmost(0,)":
        "01a442ca6aef61739f336e29f6f41dab389f37fa8cc75a6d3d79a57c8798ec2a",
    "folds F.sum_with(20,)":
        "8b0e7d7019a74955c5dfa1ef0c2958379c6d62291feac97c67d18acb2c172590",
    "folds F.sum_lambda(20, 3)":
        "42254b1f4c3228251b4a0a418cc34785a31597f72ec224ddf70cba7afd7cc9bc",
    "folds F.sum_partial(20,)":
        "446a628042904ae0ca3263e9a520de0791825e6be7237ce7fa5167e1d71102a0",
    "folds F.sum_nested(6,)":
        "1cfe240463136b939dd5860c48f658be3149ae298607e33d57e2bdbf89cc498a",
    "folds F.divide_all(5,)":
        "d4c2c648a64970ecfa07af86e360f79d00bc7df13414deddbf3cbf4b0c2fcea9",
    "folds F.plus(1,)":
        "875b46884d5c9321a389d86369bf434afd993af0a38220bf73625d5038cc2a55",
    "spec Spec.zero()":
        "d7a23bbf632a780c64c23e4bf47ac98133efc9bab7a0e777be09d250de472c57",
    "spec Spec.loop(200, 633623)":
        "0f1903117137ab274d97ada182f2e28157f1095b70af179320fec693a1d3c165",
    "spec Spec.fold_sum(150, 91)":
        "16da88fc4790753effa6fd26d87ac495dff8c64b47586ad098ec37eec3af0427",
    "spec Spec.swap_diff(-766, -184)":
        "305713e57a95ba38caee83d9e1e379676c4b8f443c88b95afaa5db7e78cf6ac8",
    "spec Spec.named(-766, -184)":
        "d8ac213cfc3ea4340a732f298676aad2927c41baed779492f4f56b876cb53247",
    "spec Spec.guard_or(0,)":
        "c7311d28b15061632e40e596c90a9f8056be9e43fe796f68bd46672373bfc3c7",
    "spec Spec.guard_or(-58,)":
        "e06f206e922a84c58cb26583b584afb28254d7df5e4622637b0231fa8ed6f4f1",
    "spec Spec.guard_and(0,)":
        "7dea4c0787117b5756cb192dceced511a5011a7ea2439d918e8e3cc3d4515a4b",
    "spec Spec.c8()":
        "6d479d825d7a4d8cbd9ce3371dba4315a2bdff78cbe51022adbca23723824b1a",
    "spec Spec.deep(300, 1423)":
        "3e7b5619107d38c0803d7c620f1c0b9bf9dc696f049f0508a7aa31d01134bb16",
    "spec Spec.divide(85729, -43)":
        "00388b9429aaaeee1480ff592978f3d6ec5464129b371daea1b48153a679b800",
    "spec Spec.divide(85729, 0)":
        "9608735b764ed6c85e13b567899219b49b0f634ab5a9daf9607c0425c3de9536",
    "spec Spec.classify(0,)":
        "6dd6542f8c9bfb39cc94b56fbe61c7ff6b039e379c15d5a7186e10d4d623e765",
    "spec Spec.classify(62,)":
        "6fc066eef03a4a4eb0095deba1ceee0fb99b92490065fae72528be4cef2389f5",
    "types G.typed(3,)":
        "471d1eb67b6ad25ee4050fd0c95d99d2158016dfaf960f439bd27ad6dcc1ce37",
    "types G.typed(0,)":
        "3074e09382eb7304681a2e4df7d67e4b5b5f0840f31c83223431ad6719bccb00",
    "types G.partial(1, 2)":
        "9bcb55f2a1d60dd1a42f5a4aef0c240fdf13eb1b99e364d438c333db13645548",
}


def sweep(analyzed, cls, name, args) -> list[str]:
    it = Interpreter(analyzed)
    it.run_entry(cls, name, args)
    lines = []
    for budget in range(it.last_peak_depth + 2):
        it = Interpreter(analyzed, max_recursion=budget)
        outcome = render_value(it.run_entry(cls, name, args))
        lines.append(f"{budget} {outcome} peak {it.last_peak_depth}")
    return lines


@pytest.mark.parametrize("program", sorted(SWEEPS))
def test_every_budget_gives_the_recorded_outcome_and_peak(program):
    source, calls = SWEEPS[program]
    analyzed = analyzed_of(source)
    actual = {}
    for cls, name, args in calls:
        lines = sweep(analyzed, cls, name, args)
        actual[f"{program} {cls}.{name}{args}"] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    expected = {key: SWEEP_DIGESTS.get(key) for key in actual}
    assert actual == expected
