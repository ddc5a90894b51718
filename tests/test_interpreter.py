"""Evaluation semantics: arithmetic, laziness, matching, builtins, faults,
and the constant-stack guarantee for tail calls."""

import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soda import (
    DEFAULT_MAX_RECURSION,
    Interpreter,
    RuntimeFault,
    analyze,
    parse,
    parse_expression,
    render_value,
    tokenize,
)
from soda.interpreter import ObjectV, SeqV


def interp_of(source, max_recursion=DEFAULT_MAX_RECURSION):
    res = parse(source, "t.soda")
    assert res.ok, [d.render() for d in res.diagnostics]
    analyzed = analyze(res.program)
    assert analyzed.ok, [d.render() for d in analyzed.diagnostics]
    return Interpreter(analyzed, max_recursion=max_recursion)


PAIR = "class P\n\n  abstract\n    fst : Int\n    snd : Int\n\nend\n"
_pair_interp = interp_of(PAIR)


def ev(expr_source, interp=None, cls="P"):
    expr, _ = parse_expression(tokenize(expr_source).tokens)
    assert expr is not None
    return (interp or _pair_interp).evaluate(expr, cls)


def as_int(v):
    # type-exact: a bool is also an int in Python, and true is not 1 in Soda
    assert type(v) is int, v
    return v


def as_str(v):
    assert type(v) is str, v
    return v


# --- arithmetic ---

def test_basic_arithmetic():
    assert as_int(ev("2 + 3 * 4")) == 14
    assert as_int(ev("(2 + 3) * 4")) == 20
    assert as_int(ev("10 - 4 - 3")) == 3


def test_division_truncates_toward_zero():
    assert as_int(ev("7 / 2")) == 3
    assert as_int(ev("(-7) / 2")) == -3
    assert as_int(ev("7 / (-2)")) == -3
    assert as_int(ev("(-7) / (-2)")) == 3


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
@settings(max_examples=200, deadline=None)
def test_division_matches_truncating_oracle(a, b):
    out = ev(f"({a}) / ({b})")
    if b == 0:
        assert isinstance(out, RuntimeFault)
        assert out.kind == "division_by_zero"
    else:
        assert as_int(out) == int(a / b)


def test_division_by_zero_faults():
    out = ev("1 / 0")
    assert isinstance(out, RuntimeFault) and out.kind == "division_by_zero"


def test_plus_concatenates_two_strings():
    assert as_str(ev('"ab" + "cd"')) == "abcd"
    # mixing a string with an integer is still a fault
    assert isinstance(ev('"ab" + 1'), RuntimeFault)


# --- comparison and equality ---

def test_comparisons():
    assert ev("1 < 2") is True
    assert ev("2 <= 2") is True
    assert ev("3 > 4") is False
    assert ev("4 >= 5") is False


def test_equality_is_structural():
    assert ev("P_ (1) (2) == P_ (1) (2)") is True
    assert ev("P_ (1) (2) == P_ (1) (3)") is False
    assert ev('"a" == "a"') is True
    assert ev("range (3) == range (3)") is True
    # functions compare by identity: a definition equals itself, two
    # separately written lambdas never equal each other
    it = interp_of("class F\n\n  inc (n : Int) : Int = n + 1\n\nend\n")
    assert ev("inc == inc", it, "F") is True
    assert ev("(lambda x --> x) == (lambda x --> x)") is False


def test_equality_across_types_is_false():
    assert ev("1 == true") is False
    assert ev('0 == ""') is False
    assert ev("false == 0") is False


# --- laziness ---

def test_and_or_short_circuit():
    assert ev("false and (1 / 0 == 0)") is False
    assert ev("true or (1 / 0 == 0)") is True


def test_and_or_evaluate_right_when_needed():
    assert ev("true and (4 / 2 == 2)") is True
    assert ev("false or false") is False


def test_and_requires_booleans():
    out = ev("1 and true")
    assert isinstance(out, RuntimeFault) and out.kind == "arity_fault"
    out = ev("true and 1")
    assert isinstance(out, RuntimeFault)


def test_if_evaluates_only_the_taken_branch():
    assert as_int(ev("if true then 1 else 1 / 0")) == 1
    assert as_int(ev("if false then 1 / 0 else 2")) == 2


def test_if_condition_must_be_boolean():
    assert isinstance(ev("if 3 then 1 else 2"), RuntimeFault)


def test_not():
    assert ev("not false") is True
    assert isinstance(ev("not 3"), RuntimeFault)


# --- constructors and matching ---

def test_constructor_builds_an_object():
    v = ev("P_ (1) (2)")
    assert isinstance(v, ObjectV)
    assert v.class_name == "P"
    assert {name: as_int(f) for name, f in v.fields.items()} == {"fst": 1, "snd": 2}
    assert render_value(v) == "P_ (1) (2)"


def test_partial_constructor_application_is_a_value():
    v = ev("P_ (1)")
    assert not isinstance(v, RuntimeFault)
    full = ev("(P_ (1)) (2)")
    assert isinstance(full, ObjectV)


def test_match_destructures_constructor_fields():
    assert as_int(ev("match P_ (7) (9) case P_ (a) (b) ==> a * b")) == 63


def test_match_literal_and_wildcard():
    assert as_int(ev("match 3 case 0 ==> 10 case 3 ==> 30 case _ ==> 99")) == 30
    assert as_int(ev("match 8 case 0 ==> 10 case 3 ==> 30 case _ ==> 99")) == 99


def test_match_binds_variables():
    assert as_int(ev("match 5 case n ==> n + 1")) == 6


def test_match_nested_patterns():
    src = (
        "class Box\n\n  abstract\n    inner : P\n\nend\n\n" + PAIR
    )
    it = interp_of(src)
    out = ev("match Box_ (P_ (3) (4)) case Box_ (P_ (a) (_)) ==> a", it, "Box")
    assert as_int(out) == 3


def test_match_without_matching_case_faults():
    out = ev("match 5 case 0 ==> 1")
    assert isinstance(out, RuntimeFault) and out.kind == "no_matching_case"


def test_bool_pattern_does_not_match_int():
    out = ev("match 1 case true ==> 9")
    assert isinstance(out, RuntimeFault) and out.kind == "no_matching_case"


def test_wrong_constructor_or_arity_falls_through():
    src = PAIR + "\nclass Q\n\n  abstract\n    only : Int\n\nend\n"
    it = interp_of(src)
    assert as_int(ev(
        "match Q_ (5) case P_ (a) (b) ==> a case Q_ (v) ==> v", it, "Q")) == 5
    out = ev("match P_ (1) (2) case P_ (a) ==> a case _ ==> 99", it, "P")
    assert as_int(out) == 99


# --- lambdas, members, currying ---

def test_lambda_application():
    assert as_int(ev("(lambda x --> x * 2) (21)")) == 42


def test_closure_captures_environment():
    assert as_int(ev("((lambda x --> lambda y --> x - y) (10)) (3)")) == 7


@pytest.mark.parametrize("source, value", [
    # a case result sees the locals around the match as well as its own
    ("(lambda a --> lambda b --> match P_ (a) (b) case P_ (x) (y) ==> a * 1000 + b * 100 + x * 10 + y)"
     " (1) (2)", 1212),
    ("(lambda a --> lambda b --> match b case 0 ==> a case n ==> (lambda m --> a + n + m) (100))"
     " (1) (10)", 111),
    ("(lambda a --> lambda b --> match P_ (b) (a) case P_ (x) (y) ==> a * 1000 + b * 100 + x * 10 + y)"
     " (1) (2)", 1221),
    ("(lambda a --> lambda b --> match b case 0 ==> a case n ==> (lambda m --> a * 100 + n * 10 + m) (7))"
     " (1) (2)", 127),
    # a closure made in one scope and applied in another, under a shadowing name
    ("(lambda a --> (lambda f --> (lambda a --> f (a)) (5)) (lambda x --> a * 10 + x)) (3)", 35),
    ("(lambda a --> lambda b --> lambda c --> (lambda d --> lambda e --> a + e) (b) (c)) (1) (2) (3)", 4),
])
def test_lambdas_and_cases_see_every_enclosing_local(source, value):
    assert as_int(ev(source)) == value


def test_a_pattern_that_binds_a_name_twice_gives_the_later_binder():
    # Pattern variables bind in preorder, so the second x is the one in scope.
    it = interp_of("class Pair\n\n  abstract\n    left : Int\n    right : Int\n\nend\n")
    assert as_int(ev("match Pair_ (1) (2) case Pair_ (x) (x) ==> x", it, "Pair")) == 2


def test_a_lambda_parameter_shadows_a_definition_parameter():
    it = interp_of("class G\n\n  g (x : Int) : Int = (lambda x --> x + 1) (x * 10)\n\nend\n")
    assert as_int(it.run_entry("G", "g", (3,))) == 31


def test_a_closure_keeps_only_the_locals_its_body_uses():
    # a, b and c are in scope where the innermost lambda is made; it uses a only
    closure = ev("(lambda a --> lambda b --> lambda c --> lambda d --> a + d) (1) (2) (3)")
    assert [as_int(v) for v in closure.env] == [1]
    assert ev("(lambda a --> lambda b --> lambda c --> lambda d --> d) (1) (2) (3)").env == ()
    # a named-argument call left unresolved only faults, so it uses no local
    assert ev("(lambda a --> lambda b --> lambda c --> lambda d --> d (k := a)) (1) (2) (3)").env == ()


def test_member_definitions_and_partial_application():
    it = interp_of(
        "class M\n\n  add (a : Int) (b : Int) : Int = a + b\n\n"
        "  inc : Int --> Int = add (1)\n\n  answer : Int = inc (41)\n\nend\n"
    )
    assert as_int(it.run_entry("M", "answer")) == 42
    assert as_int(it.run_entry("M", "add", (20, 22))) == 42


def test_members_see_each_other_in_any_order():
    it = interp_of(
        "class M\n\n  first : Int = second + 1\n\n  second : Int = 10\n\nend\n"
    )
    assert as_int(it.run_entry("M", "first")) == 11


def test_run_entry_converts_python_arguments():
    it = interp_of(
        "class M\n\n  pick (flag : Bool) (s : String) : String ="
        " if flag then s else \"no\"\n\nend\n"
    )
    out = it.run_entry("M", "pick", (True, "yes"))
    assert as_str(out) == "yes"


def test_this_is_the_canonical_instance_of_a_fieldless_class():
    it = interp_of(
        "class M\n\n  size : Int = 3\n\n  probe : Int = match this"
        " case M_ ==> size\n\nend\n"
    )
    assert as_int(it.run_entry("M", "probe")) == 3


def test_this_is_unbound_when_the_class_has_fields():
    out = ev("this")
    assert isinstance(out, RuntimeFault) and out.kind == "unknown_identifier"


def test_evaluate_names_an_unknown_class():
    expr, _ = parse_expression(tokenize("1").tokens)
    with pytest.raises(KeyError, match="no class named 'Nope'"):
        _pair_interp.evaluate(expr, "Nope")


# --- builtins ---

def test_range_enumerates_from_zero():
    out = ev("range (4)")
    assert [as_int(v) for v in out.items] == [0, 1, 2, 3]


def test_range_clamps_non_positive_counts():
    assert ev("range (0)") == SeqV(())
    assert ev("range (-5)") == SeqV(())


def test_fold_is_a_left_fold():
    # digits come out in sequence order only for a left fold
    out = ev("fold (range (5)) (0) (lambda acc --> lambda x --> acc * 10 + x)")
    assert as_int(out) == 1234


def test_fold_over_a_non_sequence_faults():
    out = ev("fold (7) (0) (lambda a --> lambda x --> a)")
    assert isinstance(out, RuntimeFault)


# --- faults ---

def test_unknown_identifier_faults():
    out = ev("nowhere (1)")
    assert isinstance(out, RuntimeFault) and out.kind == "unknown_identifier"


def test_applying_a_non_function_faults():
    out = ev("5 (1)")
    assert isinstance(out, RuntimeFault) and out.kind == "arity_fault"


def test_fault_render_includes_kind():
    out = ev("1 / 0")
    assert "division_by_zero" in out.render()


def test_faults_propagate_out_of_arguments():
    out = ev("(lambda x --> 1) (1 / 0)")
    assert isinstance(out, RuntimeFault) and out.kind == "division_by_zero"


def test_a_fault_inside_a_call_chain_reports_the_whole_chain():
    # The interpreter gives every link of a call chain the whole chain's span.
    line = "  f (x : Int) : Int = x (1) (2)"
    out = interp_of(f"class T\n\n{line}\n\nend\n").run_entry("T", "f", (5,))
    assert isinstance(out, RuntimeFault) and out.kind == "arity_fault"
    start = line.index("x (1)") + 1
    assert (out.span.line_start, out.span.col_start, out.span.col_end) == (3, start, len(line) + 1)



def test_a_fault_inside_a_chain_beside_a_resolved_named_call_reports_the_whole_chain():
    # Analysis copies the named call and the sum above it, and shares the
    # chain beside it, which keeps the parser's span for each link.
    line = "  f (x : Int) : Int = g (b := x) (a := 1) + x (1) (2)"
    source = f"class T\n\n  g (a : Int) (b : Int) : Int = a\n\n{line}\n\nend\n"
    out = interp_of(source).run_entry("T", "f", (5,))
    assert isinstance(out, RuntimeFault) and out.kind == "arity_fault"
    start = line.index("x (1)") + 1
    assert (out.span.line_start, out.span.col_start, out.span.col_end) == (5, start, len(line) + 1)

# --- recursion and the stack guarantee ---

LOOP = (
    "class T\n\n  @tailrec\n  loop (n : Int) (acc : Int) : Int ="
    " if n == 0 then acc else loop (n - 1) (acc + n)\n\n"
    "  deep (n : Int) : Int = if n == 0 then 0 else 1 + deep (n - 1)\n\nend\n"
)


def test_tail_loop_computes_sum():
    it = interp_of(LOOP)
    assert as_int(it.run_entry("T", "loop", (100, 0))) == 5050


def test_tail_calls_do_not_grow_the_stack():
    it = interp_of(LOOP)
    it.run_entry("T", "loop", (100, 0))
    small = it.last_peak_depth
    it.run_entry("T", "loop", (10_000, 0))
    large = it.last_peak_depth
    assert small == large


def test_non_tail_recursion_grows_the_stack():
    it = interp_of(LOOP)
    it.run_entry("T", "deep", (10,))
    shallow = it.last_peak_depth
    it.run_entry("T", "deep", (200,))
    assert it.last_peak_depth > shallow + 150


def test_recursion_limit_faults_cleanly():
    it = interp_of(LOOP, max_recursion=500)
    out = it.run_entry("T", "deep", (100_000,))
    assert isinstance(out, RuntimeFault) and out.kind == "recursion_limit"


def test_recursion_limit_does_not_stop_tail_loops():
    it = interp_of(LOOP, max_recursion=500)
    assert as_int(it.run_entry("T", "loop", (50_000, 0))) == 50_000 * 50_001 // 2


def test_deep_non_tail_recursion_within_budget_succeeds():
    it = interp_of(LOOP)
    assert as_int(it.run_entry("T", "deep", (5_000,))) == 5_000


DEPTHS = LOOP.replace("\nend\n", "\n  zero : Int = 0\n\n  one : Int = zero + 1\n\nend\n")


@pytest.mark.parametrize("source, value, peak", [
    ("7", "7", 0),
    ("1 + 2", "3", 1),
    ("not (1 < 2)", "false", 2),
    ("if 1 < 2 then 3 else 4", "3", 2),
    ("match 5 case n ==> n + 1", "6", 1),
    # the body of a closure applied in tail position stays at depth 0
    ("(lambda x --> x + 1) (2)", "3", 1),
    # each curried application nests the function one level deeper
    ("fold (range (3)) (0) (lambda a --> lambda x --> a + x)", "3", 4),
    # a constant's body is one level below its name
    ("one", "1", 3),
])
def test_peak_depth_counts_nested_evaluations(source, value, peak):
    it = interp_of(DEPTHS)
    assert render_value(ev(source, it, "T")) == value
    assert it.last_peak_depth == peak


def test_run_entry_applies_its_arguments_one_level_down():
    it = interp_of(DEPTHS)
    assert as_int(it.run_entry("T", "zero")) == 0 and it.last_peak_depth == 1
    assert as_int(it.run_entry("T", "deep", (10,))) == 10 and it.last_peak_depth == 13


def test_the_budget_fault_comes_just_past_the_budget():
    it = interp_of(LOOP, max_recursion=50)
    assert as_int(it.run_entry("T", "deep", (47,))) == 47 and it.last_peak_depth == 50
    out = it.run_entry("T", "deep", (48,))
    assert isinstance(out, RuntimeFault) and out.kind == "recursion_limit"
    assert out.message == "recursion limit of 50 exceeded" and it.last_peak_depth == 50
    line = LOOP.split("\n")[5]
    assert (out.span.line_start, out.span.col_start) == (6, line.index("n - 1") + 1)


# --- constants are evaluated once per interpreter ---

CHAIN = "class T\n\n  c0 : Int = 1\n" + "".join(
    f"\n  c{i} : Int = c{i - 1} + c{i - 1}\n" for i in range(1, 61)
) + "\nend\n"


def test_a_constant_chain_evaluates_each_constant_once():
    # Each level looks the one below up twice: evaluated on every lookup,
    # c60 would take about 2^61 evaluations.
    assert as_int(interp_of(CHAIN).run_entry("T", "c60")) == 2 ** 60


def test_a_repeated_constant_lookup_gives_the_same_value_less_deep():
    it = interp_of(DEPTHS)
    assert render_value(ev("one", it, "T")) == "1" and it.last_peak_depth == 3
    assert render_value(ev("one", it, "T")) == "1" and it.last_peak_depth == 0
    assert as_int(it.run_entry("T", "one")) == 1 and it.last_peak_depth == 0
    assert render_value(ev("one + zero", it, "T")) == "1" and it.last_peak_depth == 1


def test_a_constant_that_faults_faults_on_every_lookup():
    it = interp_of("class T\n\n  bad : Int = 1 / 0\n\n  uses : Int = bad + 1\n\nend\n")
    for name in ("bad", "uses", "bad", "uses"):
        out = it.run_entry("T", name)
        assert isinstance(out, RuntimeFault) and out.kind == "division_by_zero"


def test_a_constant_is_kept_only_once_it_has_a_value():
    it = interp_of(DEPTHS, max_recursion=3)
    # 'one' is at depth 1 here, so its body needs depth 4: over budget.
    assert ev("1 + one", it, "T").kind == "recursion_limit"
    assert as_int(it.run_entry("T", "one")) == 1 and it.last_peak_depth == 3
    assert as_int(ev("1 + one", it, "T")) == 2 and it.last_peak_depth == 1


def test_guarded_runs_restore_the_recursion_limit():
    before = sys.getrecursionlimit()
    assert as_int(interp_of(LOOP).run_entry("T", "deep", (2_000,))) == 2_000
    assert sys.getrecursionlimit() == before
    assert as_int(ev("1 + 2")) == 3
    assert sys.getrecursionlimit() == before


def test_runs_start_no_thread_and_leave_the_recursion_limit_alone(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluation started a thread or set the recursion limit")

    it = interp_of(LOOP)
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    monkeypatch.setattr(threading, "Thread", refuse)
    assert as_int(it.run_entry("T", "deep", (5_000,))) == 5_000
    assert it.last_peak_depth > 5_000
    assert as_int(ev("1 + 2")) == 3


def test_overlapping_runs_keep_the_limit_raised_until_the_last_ends():
    # Each run needs more than the default limit, and the runs overlap:
    # a run that ended early must not lower the limit under the others.
    before = sys.getrecursionlimit()
    results = []

    def run():
        results.append(interp_of(LOOP).run_entry("T", "deep", (3_000,)))

    threads = [threading.Thread(target=run) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [as_int(r) for r in results] == [3_000] * 4
    assert sys.getrecursionlimit() == before


# --- random expression oracle ---

_leaf = st.integers(-50, 50)


def _tree(depth):
    if depth == 0:
        return _leaf
    sub = _tree(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(st.sampled_from("+-*"), sub, sub),
    )


def _render(t):
    if isinstance(t, int):
        return f"({t})" if t < 0 else str(t)
    op, a, b = t
    return f"({_render(a)} {op} {_render(b)})"


def _oracle(t):
    if isinstance(t, int):
        return t
    op, a, b = t
    x, y = _oracle(a), _oracle(b)
    return x + y if op == "+" else x - y if op == "-" else x * y


@given(_tree(4))
@settings(max_examples=300, deadline=None)
def test_arithmetic_matches_python_oracle(tree):
    assert as_int(ev(_render(tree))) == _oracle(tree)


# --- operators on locals and literals against the oracle ---

_OPERATORS = ("+", "-", "*", "/", "<", "<=", ">", ">=", "==", "and", "or")
_operand = st.one_of(st.integers(-1000, 1000), st.booleans(), st.sampled_from(["", "a", "bc"]))


def _literal(v):
    if type(v) is bool:
        return "true" if v else "false"
    return f'"{v}"' if type(v) is str else f"({v})" if v < 0 else str(v)


class _Fault(str):
    """A fault kind, told apart from a string value."""


def _operator_oracle(op, a, b):
    """The value of ``a op b``, or the kind of the fault it gives."""
    if op in ("and", "or"):
        if a is (op == "or"):
            return a  # decided by the left operand alone
        return b if type(a) is bool and type(b) is bool else _Fault("arity_fault")
    if op == "==":
        return type(a) is type(b) and a == b
    if op == "+" and type(a) is str and type(b) is str:
        return a + b
    if type(a) is not int or type(b) is not int:
        return _Fault("arity_fault")
    if op == "/":
        return _Fault("division_by_zero") if b == 0 else abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1)
    return {"+": a + b, "-": a - b, "*": a * b, "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op]


@given(st.sampled_from(_OPERATORS), st.sampled_from(["local/local", "local/literal", "literal/local"]),
       _operand, _operand)
@example("or", "local/local", True, 5)  # decided by the left operand
@example("and", "local/local", False, 5)
@example("or", "local/local", False, 5)  # not decided: the right one must be a boolean
@example("/", "local/local", 7, 0)
@example("/", "literal/local", -7, 2)
@example("==", "local/literal", 1, True)
@settings(max_examples=400, deadline=None)
def test_operators_on_locals_match_python_oracle(op, kinds, a, b):
    # The operator on two parameters, or on one and a literal, as a body, as
    # the argument of a call given all its arguments, and as an 'if' condition.
    left = "a" if kinds.startswith("local") else _literal(a)
    right = "b" if kinds.endswith("local") else _literal(b)
    e = f"{left} {op} {right}"
    it = interp_of(
        "class O\n\n  id (x : Int) : Int = x\n\n"
        f"  body (a : Int) (b : Int) : Int = {e}\n\n"
        f"  whole (a : Int) (b : Int) : Int = id ({e})\n\n"
        f"  cond (a : Int) (b : Int) : Int = if {e} then 1 else 0\n\nend\n"
    )
    want = _operator_oracle(op, a, b)
    tested = want if type(want) is _Fault else (1 if want else 0) if type(want) is bool else _Fault("arity_fault")
    for name, want in (("body", want), ("whole", want), ("cond", tested)):
        out = it.run_entry("O", name, [a, b])
        if type(want) is _Fault:
            assert isinstance(out, RuntimeFault) and out.kind == want, (name, e, a, b, out)
        else:
            assert type(out) is type(want) and out == want, (name, e, a, b, out)


@pytest.mark.parametrize("op", ["+ 1 +", "//", "**", "a if True else b", "and "])
def test_an_unknown_operator_faults_on_literals_and_locals(op):
    # A hand-built BinaryOp whose operator the parser never gives, which
    # would compute something if its text were compiled: on two literals and
    # as the body of a definition on its two parameters, it faults.
    from soda.syntax import (BinaryOp, ClassDecl, Definition, Identifier, IntLiteral,
                             NamedType, Program, synthetic_span)

    span = synthetic_span()
    on_locals = BinaryOp(op, Identifier("a", span), Identifier("b", span), span)
    params = (("a", NamedType("Int", span)), ("b", NamedType("Int", span)))
    f = Definition("f", params, None, on_locals, False, span=span)
    it = Interpreter(analyze(Program(None, (), (ClassDecl("O", (), (), (f,), span=span),), span)))
    on_literals = BinaryOp(op, IntLiteral(2, span), IntLiteral(3, span), span)
    for out in (it.evaluate(on_literals), it.run_entry("O", "f", [2, 3])):
        assert isinstance(out, RuntimeFault) and out.kind == "arity_fault", (op, out)
        assert out.message == f"unknown operator '{op}'"
