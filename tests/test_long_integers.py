"""Integers of any length: literals, printed text, results and ``soda run``
arguments. From Python 3.11 ``int()`` and ``str()`` refuse more than 4300
digits by default; the toolchain converts in chunks and leaves that
process-wide limit alone. ``decimal`` is the reference: it converts
between integers and text exactly and has no such limit."""

import sys
from decimal import Decimal

import pytest

from soda import (
    Interpreter,
    analyze,
    parse,
    pretty_print,
    render_value,
    translate_to_lean,
    translate_to_scala,
)
from soda.cli import run_cli
from soda.syntax import int_from_text, int_to_text

BIG = "".join(str((i * 7 + 3) % 10) for i in range(20000)).lstrip("0")


def _text(n):
    return str(Decimal(n))


def _limit():
    """The process-wide digit limit of Python 3.11+, which must not move."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@pytest.mark.parametrize("digits", [1, 3999, 4000, 4001, 4300, 4301, 8001, 20000])
def test_text_and_integers_convert_both_ways_at_any_length(digits):
    text = ("9" + BIG)[:digits]
    value = int_from_text(text)
    assert Decimal(value) == Decimal(text)
    assert int_to_text(value) == text
    assert int_from_text("-" + text) == -value and int_to_text(-value) == "-" + text
    power = 10 ** (digits - 1)
    assert int_to_text(power) == _text(power)
    assert int_from_text("0" * digits + "7") == 7


def test_long_text_that_is_not_an_integer_is_refused():
    for text in ("1" * 5000 + "x", "1" * 5000 + "-1", "+" + "²" * 5000, " " * 5000):
        with pytest.raises(ValueError):
            int_from_text(text)
    assert int_from_text(" +" + BIG + " ") == int_from_text(BIG)


def test_a_20000_digit_literal_goes_through_every_stage():
    source = (
        "class A\n\n"
        f"  big : Int = {BIG}\n\n"
        f"  neg : Int = -{BIG}\n\n"
        "  pick (x : Int) : Int =\n"
        "    match x\n"
        f"      case {BIG} ==> 1\n"
        f"      case -{BIG} ==> 2\n"
        "      case _ ==> 3\n\n"
        "end\n"
    )
    before = _limit()
    parsed = parse(source)
    assert parsed.diagnostics == []
    printed = pretty_print(parsed.program)
    assert printed.count(BIG) == 4
    assert parse(printed).program == parsed.program
    analyzed = analyze(parsed.program)
    assert analyzed.diagnostics == []
    lean = translate_to_lean(analyzed)
    assert lean.diagnostics == []
    for rendering in (translate_to_scala(analyzed), lean):
        assert rendering.text.count(BIG) == 4
    interp = Interpreter(analyzed)
    big = interp.run_entry("A", "big", [])
    assert type(big) is int and Decimal(big) == Decimal(BIG)
    assert render_value(big) == BIG
    assert render_value(interp.run_entry("A", "neg", [])) == "-" + BIG
    assert render_value(interp.run_entry("A", "pick", [-int_from_text(BIG)])) == "2"
    assert _limit() == before


def test_soda_run_prints_and_reads_integers_of_any_length(tmp_path, capsys):
    f = tmp_path / "pow.soda"
    f.write_text(
        "class A\n\n"
        "  pow2 (n : Int) : Int = fold (range (n)) (1) (lambda a --> lambda x --> a * 2)\n\n"
        "  same (n : Int) : Int = n\n\n"
        "end\n"
    )
    before = _limit()
    assert run_cli(["run", str(f), "A.pow2", "20000"]) == 0
    assert capsys.readouterr().out == _text(2**20000) + "\n"
    assert run_cli(["run", str(f), "A.same", BIG]) == 0
    assert capsys.readouterr().out == BIG + "\n"
    assert _limit() == before
