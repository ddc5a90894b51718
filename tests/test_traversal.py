"""The shared expression traversal in ``soda.syntax``: the children/rebuild
tables cover every expression type, rebuilding from unchanged children gives
the same node, ``walk`` visits nodes in preorder, and ``scoped_walk`` gives
each node's tail position and, through its table of open binders, the names
bound around it, as a recursive reference does."""

import dataclasses
import re

import pytest

from astgen import random_program
from soda import syntax
from soda.syntax import (
    _CHILDREN,
    _REBUILD_ARGS,
    Expr,
    children,
    rebuild,
    scoped_walk,
    walk,
)

#: A field holds sub-expressions when its annotation names Expr or MatchCase
#: (TypeExpr does not count: types are not children).
_EXPR_ANNOTATION = re.compile(r"\b(Expr|MatchCase)\b")


def _expression_types():
    return [
        cls
        for cls in vars(syntax).values()
        if isinstance(cls, type) and issubclass(cls, Expr) and cls is not Expr
    ]


def _expr_field_values(e):
    """Sub-expressions read straight off the dataclass fields, in field order."""
    out = []
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, Expr):
                out.append(item)
    return out


def _recursive_preorder(e, out):
    out.append(e)
    for child in _expr_field_values(e):
        _recursive_preorder(child, out)
    return out


def _reference_binds(p):
    if isinstance(p, syntax.VarBindPattern):
        return {p.name}
    if isinstance(p, syntax.ConstructorPattern):
        return set().union(*map(_reference_binds, p.sub_patterns))
    return set()


def _recursive_scoped(e, tail, bound, out):
    """Preorder (node, tail, bound) by the rules stated one by one: the
    branches of an ``if`` and the results of a ``match`` are in tail position
    when the node is, nothing else is (a call's function and argument
    included); lambdas and match cases bind names."""
    out.append((e, tail, bound))
    if isinstance(e, syntax.Lambda):
        bound = bound | {e.param}
    elif isinstance(e, syntax.MatchCase):
        bound = bound | _reference_binds(e.pattern)
    for i, child in enumerate(_expr_field_values(e)):
        passes_tail = isinstance(e, syntax.MatchCase) or (
            isinstance(e, (syntax.If, syntax.Match)) and i > 0
        )
        _recursive_scoped(child, tail and passes_tail, bound, out)
    return out


def _bodies(program):
    return [d.body for c in program.classes for d in c.definitions if d.body is not None]


def test_every_expression_type_has_table_entries_or_is_a_leaf():
    types = _expression_types()
    assert len(types) == 14
    for cls in types:
        has_children = any(_EXPR_ANNOTATION.search(f.type) for f in dataclasses.fields(cls))
        assert (cls in _CHILDREN) == has_children, cls.__name__
        assert (cls in _REBUILD_ARGS) == has_children, cls.__name__


@pytest.mark.parametrize("seed", range(40))
def test_children_and_rebuild_agree_with_the_fields(seed):
    for body in _bodies(random_program(seed)):
        for node in walk(body):
            kids = children(node)
            assert isinstance(kids, tuple)
            assert [id(k) for k in kids] == [id(k) for k in _expr_field_values(node)]
            copy = rebuild(node, kids)
            assert type(copy) is type(node)
            assert copy == node and copy.span == node.span


@pytest.mark.parametrize("seed", range(40))
def test_walk_is_the_recursive_preorder(seed):
    for body in _bodies(random_program(seed)):
        assert [id(n) for n in walk(body)] == [id(n) for n in _recursive_preorder(body, [])]


@pytest.mark.parametrize("seed", range(40))
def test_scoped_walk_matches_a_recursive_reference(seed):
    # The walk keeps one table of open binders; a name counts as bound at a
    # node when its count there is not zero.
    for c in random_program(seed).classes:
        for d in c.definitions:
            if d.body is None:
                continue
            params = frozenset(p for p, _ in d.params)
            table = {p: 1 for p in params}
            got = [
                (id(n), tail, frozenset(name for name, count in table.items() if count))
                for n, tail in scoped_walk(d.body, table)
            ]
            want = [(id(n), tail, bound) for n, tail, bound in _recursive_scoped(d.body, True, params, [])]
            assert got == want
            assert {name: count for name, count in table.items() if count} == {p: 1 for p in params}


def test_scoped_walk_counts_a_name_each_binder_binds():
    span = syntax.synthetic_span()
    x = syntax.Identifier("x", span)
    pattern = syntax.ConstructorPattern(
        "P_", (syntax.VarBindPattern("x", span), syntax.VarBindPattern("x", span)), span
    )
    case = syntax.MatchCase(pattern, x, span)
    body = syntax.Lambda("x", None, syntax.Match(x, (case,), span), span)
    table = {"x": 1}
    counts = [(type(n).__name__, table.get("x")) for n, _ in scoped_walk(body, table)]
    assert counts == [
        ("Lambda", 1), ("Match", 2), ("Identifier", 2), ("MatchCase", 2), ("Identifier", 4)
    ]
    assert table == {"x": 1}
    assert syntax.binder_names(case) == ("x", "x")


def test_rebuild_replaces_children_in_order():
    span = syntax.synthetic_span()
    x, y, z = (syntax.Identifier(n, span) for n in "xyz")
    case = syntax.MatchCase(syntax.WildcardPattern(span), x, span)
    match = syntax.Match(x, (case, case), span)
    new_case = rebuild(case, (z,))
    assert rebuild(match, (y, new_case, case)) == syntax.Match(y, (new_case, case), span)
    assert rebuild(syntax.BinaryOp("-", x, y, span), (y, x)) == syntax.BinaryOp("-", y, x, span)
    assert rebuild(x, ()) is x
