"""The behaviour snapshot: the quick part of the corpus that
``scripts/snapshot.py`` pins (the goldens, the evaluate specification,
astgen seeds 0-99 and the small seed-1 compile files) must still give the
recorded digest for every field. ``python3 scripts/snapshot.py --check``
checks the whole corpus."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import snapshot  # noqa: E402


def test_quick_corpus_matches_the_recorded_digests():
    recorded = json.loads(snapshot.DIGESTS.read_text())
    actual = snapshot.compute(full=False)
    assert len(actual) == 140
    expected = {name: recorded[name] for name in actual}
    assert snapshot.differences(expected, actual) == []


def test_the_last_line_counts_the_differing_inputs_per_field():
    recorded = {"a": {"parse": "1", "fmt": "2"}, "b": {"parse": "3", "fmt": "4"}}
    actual = {"a": {"parse": "9", "fmt": "2"}, "b": {"parse": "9", "fmt": "9"}}
    assert snapshot.field_counts(recorded, actual) == "differ by field: parse 2, fmt 1"
    assert snapshot.field_counts(recorded, recorded) == "differ by field: none"


def test_a_stage_that_raises_is_recorded_by_its_exception_type(monkeypatch):
    source = snapshot.gen.spec_source()

    def overflow(*args):
        raise RecursionError

    monkeypatch.setattr(snapshot, "translate_to_lean", overflow)
    fields = snapshot.fields_of("spec", source, [])
    assert list(fields) == list(snapshot.FIELDS[:-1])
    assert fields["lean"] == "raises RecursionError"
    monkeypatch.setattr(snapshot, "parse", overflow)
    assert snapshot.fields_of("spec", source, []) == {"parse": "raises RecursionError"}


def test_serialisation_ignores_spans_only_when_asked():
    from soda import parse

    a = parse("class A\n\n  f (x : Int) : Int = x + 1\n\nend\n").program
    b = parse("class A\n  f (x : Int) : Int =   x +   1\nend\n").program
    c = parse("class A\n\n  f (x : Int) : Int = x + 2\n\nend\n").program
    assert snapshot.serialise(a, spans=False) == snapshot.serialise(b, spans=False)
    assert snapshot.serialise(a) != snapshot.serialise(b)
    assert snapshot.serialise(a, spans=False) != snapshot.serialise(c, spans=False)


def test_serialisation_takes_a_tree_deeper_than_the_recursion_limit():
    from soda.syntax import BinaryOp, IntLiteral, synthetic_span

    span = synthetic_span()
    e = IntLiteral(0, span)
    for i in range(sys.getrecursionlimit() * 3):
        e = BinaryOp("+", e, IntLiteral(i, span), span)
    assert snapshot.serialise(e, spans=False).count("BinaryOp 2") == sys.getrecursionlimit() * 3
