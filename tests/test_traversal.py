"""The shared expression traversal in ``soda.syntax``: the children/rebuild
tables cover every expression type, rebuilding from unchanged children gives
the same node, and ``walk`` visits nodes in preorder."""

import dataclasses
import re

import pytest

from astgen import random_program
from soda import syntax
from soda.syntax import _CHILDREN, _REBUILD_ARGS, Expr, children, rebuild, walk

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


def test_rebuild_replaces_children_in_order():
    span = syntax.synthetic_span()
    x, y, z = (syntax.Identifier(n, span) for n in "xyz")
    case = syntax.MatchCase(syntax.WildcardPattern(span), x, span)
    match = syntax.Match(x, (case, case), span)
    new_case = rebuild(case, (z,))
    assert rebuild(match, (y, new_case, case)) == syntax.Match(y, (new_case, case), span)
    assert rebuild(syntax.BinaryOp("-", x, y, span), (y, x)) == syntax.BinaryOp("-", y, x, span)
    assert rebuild(x, ()) is x
