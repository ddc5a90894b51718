"""Acceptance gate: one test per shipped guarantee, each ending in an
explicit pass line. Budgets are wall-clock seconds measured inside the test.

Run with ``pytest tests/test_acceptance.py -v`` to see one line per criterion.
"""

import random
import time
from pathlib import Path

from astgen import random_program
from soda import (
    Interpreter,
    RuntimeFault,
    analyze,
    parse,
    parse_expression,
    pretty_print,
    tokenize,
    translate_to_lean,
    translate_to_scala,
    verify_tailrec,
)

GOLDENS = Path(__file__).parent / "goldens"


def exact(value):
    """A value with its type: a bool is also an int in Python, and true is not 1 in Soda."""
    return type(value), value


def _analyzed(source, file="t.soda"):
    res = parse(source, file)
    assert res.ok, [d.render() for d in res.diagnostics]
    analyzed = analyze(res.program)
    assert analyzed.ok, [d.render() for d in analyzed.diagnostics]
    return analyzed


def _expr(text):
    expr, _ = parse_expression(tokenize(text).tokens)
    assert expr is not None, text
    return expr


def test_c1_pair_listings_translate_byte_exact_and_evaluate():
    started = time.monotonic()
    for stem, ctor_call in (
        ("pair", "Pair_ (1) (2)"),
        ("pair_param", "Pair_ [Int] [Int] (1) (2)"),
    ):
        source = (GOLDENS / f"{stem}.soda").read_text()
        analyzed = _analyzed(source, f"{stem}.soda")
        assert analyzed.diagnostics == []

        scala = translate_to_scala(analyzed)
        assert scala.text == (GOLDENS / f"{stem}.scala").read_text()

        lean = translate_to_lean(analyzed)
        assert lean.ok
        assert lean.text == (GOLDENS / f"{stem}.lean").read_text()

        interp = Interpreter(analyzed)
        value = interp.evaluate(_expr(ctor_call), "Pair")
        assert not isinstance(value, RuntimeFault), value
        assert exact(value.fields["fst"]) == (int, 1)
        assert exact(value.fields["snd"]) == (int, 2)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    print("ACCEPTANCE C1: PASS "
          "(listings parse, translate byte-exact, and evaluate)")


def test_c2_lean_rejects_each_unsupported_construct_once_scala_accepts():
    cases = {
        "package": "package a.b\n\nclass A\n\n  x : Int = 1\n\nend\n",
        "import": "import a.b\n\nclass A\n\n  x : Int = 1\n\nend\n",
        "this": "class A\n\n  x : A = this\n\nend\n",
        "subtype": "class A [X subtype Q]\n\n  x : Int = 1\n\nend\n",
        "supertype": "class A [X supertype Q]\n\n  x : Int = 1\n\nend\n",
    }
    for construct, source in cases.items():
        analyzed = _analyzed(source)
        lean = translate_to_lean(analyzed)
        assert lean.text is None, construct
        assert len(lean.diagnostics) == 1, construct
        assert lean.diagnostics[0].code == "E-LEAN-001"
        assert construct in lean.diagnostics[0].message
        scala = translate_to_scala(analyzed)
        assert scala.text, construct
    print("ACCEPTANCE C2: PASS "
          "(five unsupported constructs each get one E-LEAN-001; "
          "the same sources translate to Scala)")


def _bool_tree(rng, depth):
    """Returns (source text, strict Python value); fault-free by build."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.random()
        if kind < 0.5:
            v = rng.random() < 0.5
            return ("true" if v else "false"), v
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        op = rng.choice(["<", "<=", ">", ">=", "=="])
        py = {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
              "==": a == b}[op]
        return f"(({a}) {op} ({b}))", py
    roll = rng.random()
    if roll < 0.2:
        t, v = _bool_tree(rng, depth - 1)
        return f"(not {t})", not v
    op = "and" if roll < 0.6 else "or"
    lt, lv = _bool_tree(rng, depth - 1)
    rt, rv = _bool_tree(rng, depth - 1)
    py = (lv and rv) if op == "and" else (lv or rv)
    return f"({lt} {op} {rt})", py


def test_c3_short_circuit_agrees_with_strict_evaluation():
    started = time.monotonic()
    interp = Interpreter(_analyzed("class T\n\n  x : Int = 1\n\nend\n"))
    rng = random.Random(20260816)
    for _ in range(1000):
        (at, av) = _bool_tree(rng, 2)
        (bt, bv) = _bool_tree(rng, 2)
        both = interp.evaluate(_expr(f"{at} and {bt}"))
        either = interp.evaluate(_expr(f"{at} or {bt}"))
        assert exact(both) == (bool, av and bv), (at, bt)
        assert exact(either) == (bool, av or bv), (at, bt)
    # the one observable difference: a faulting right side never runs
    witness = interp.evaluate(_expr("false and (1 / 0 == 0)"))
    assert exact(witness) == (bool, False)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"budget exceeded: {elapsed:.2f}s"
    print("ACCEPTANCE C3: PASS "
          "(1000 random pairs agree with the strict oracle; "
          "false and (1/0 == 0) is false, not a fault)")


def test_c4_tailrec_verification_and_constant_stack_execution():
    started = time.monotonic()
    good = (
        "class T\n\n  @tailrec\n  loop (n : Int) (acc : Int) : Int ="
        " if n == 0 then acc else loop (n - 1) (acc + n)\n\nend\n"
    )
    analyzed = _analyzed(good)
    assert verify_tailrec(analyzed.program.classes[0].definitions[0]) == []

    bad = parse(
        "class T\n\n  @tailrec\n  f (n : Int) : Int ="
        " if n == 0 then 0 else 1 + f (n - 1)\n\nend\n"
    ).program
    violations = verify_tailrec(bad.classes[0].definitions[0])
    assert [d.code for d in violations] == ["E-SEM-010"]

    interp = Interpreter(analyzed)
    small = interp.run_entry("T", "loop", (100, 0))
    assert exact(small) == (int, 5050)
    peak_small = interp.last_peak_depth

    big = interp.run_entry("T", "loop", (1_000_000, 0))
    assert exact(big) == (int, 500_000_500_000)
    assert interp.last_peak_depth == peak_small

    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"ACCEPTANCE C4: PASS "
          f"(verifier splits good/bad; one million tail calls at "
          f"peak depth {peak_small} in {elapsed:.1f}s)")


def test_c5_thousand_random_programs_round_trip():
    started = time.monotonic()
    for seed in range(1000):
        tree = random_program(seed)
        text = pretty_print(tree)
        res = parse(text, f"gen{seed}.soda")
        assert res.ok, (seed, [d.render() for d in res.diagnostics[:3]])
        assert res.program == tree, seed
        assert pretty_print(res.program) == text, seed
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"ACCEPTANCE C5: PASS "
          f"(1000 generated programs reparse to equal trees and print "
          f"idempotently in {elapsed:.1f}s)")


def test_c6_named_arguments_evaluate_like_hand_ordered_positional():
    rng = random.Random(1234)
    for trial in range(100):
        arity = rng.randint(2, 5)
        params = [f"p{i}" for i in range(arity)]
        sig = " ".join(f"({p} : Int)" for p in params)
        # weights make any misordering change the result
        body = " + ".join(f"{p} * {10 ** i}" for i, p in enumerate(params))
        args = [rng.randint(-99, 99) for _ in range(arity)]
        order = list(range(arity))
        rng.shuffle(order)
        named = " ".join(f"(p{i} := ({args[i]}))" for i in order)
        positional = " ".join(f"(({a}))" for a in args)
        source = (
            f"class M\n\n  f {sig} : Int = {body}\n\n"
            f"  named : Int = f {named}\n\n"
            f"  direct : Int = f {positional}\n\nend\n"
        )
        interp = Interpreter(_analyzed(source))
        via_names = interp.run_entry("M", "named")
        via_positions = interp.run_entry("M", "direct")
        assert not isinstance(via_names, RuntimeFault), (trial, via_names)
        assert exact(via_names) == exact(via_positions), trial
    print("ACCEPTANCE C6: PASS "
          "(100 random signatures and permutations: named calls equal "
          "hand-ordered positional calls)")


def test_c7_builtin_identities():
    interp = Interpreter(_analyzed(
        "class T\n\n  sumto (n : Int) : Int ="
        " fold (range (n)) (0) (lambda a --> lambda x --> a + x)\n\nend\n"
    ))
    for n in range(101):
        out = interp.evaluate(_expr(f"range ({n})"))
        assert [exact(v) for v in out.items] == [(int, i) for i in range(n)], n
    for n in range(1001):
        out = interp.run_entry("T", "sumto", (n,))
        assert exact(out) == (int, n * (n - 1) // 2), n
    digits = interp.evaluate(
        _expr("fold (range (4)) (0) (lambda a --> lambda x --> a * 10 + x)"))
    assert exact(digits) == (int, 123)
    print("ACCEPTANCE C7: PASS "
          "(range enumerates 0..n for n through 100; folded sums match "
          "n(n-1)/2 for n through 1000; left-fold digit order verified)")


def test_c8_duplicate_definitions_each_reported_once():
    cases = {
        "constant": (
            "class A\n\n  k : Int = 1\n\n  other : Int = 2\n\n"
            "  k : Int = 3\n\nend\n",
            7,
        ),
        "function": (
            "class A\n\n  f (n : Int) : Int = n\n\n"
            "  f (n : Int) : Int = n + 1\n\nend\n",
            5,
        ),
        "class": (
            "class A\n\n  x : Int = 1\n\nend\n\nclass A\n\n"
            "  y : Int = 2\n\nend\n",
            7,
        ),
    }
    for label, (source, second_line) in cases.items():
        res = parse(source, "dup.soda")
        assert res.ok
        analyzed = analyze(res.program)
        errors = [d for d in analyzed.diagnostics if d.code == "E-SEM-001"]
        assert len(errors) == 1, label
        assert errors[0].span.line_start == second_line, label
    print("ACCEPTANCE C8: PASS "
          "(duplicate constant, function, and class each reported once, "
          "at the second occurrence)")
