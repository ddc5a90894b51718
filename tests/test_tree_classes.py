"""What every tree class promises: structural equality that ignores spans,
matching hashes, the ``repr`` a dataclass gives, immutability, construction
by position or keyword with the declared defaults, and the ``dataclasses``
functions the analyzer, the snapshot and the benchmark use."""

import dataclasses

import pytest

from soda import syntax
from soda.syntax import (
    AbstractBlock,
    AppliedType,
    BinaryOp,
    BoolLiteral,
    Call,
    ClassDecl,
    ConstructorPattern,
    Definition,
    Diagnostic,
    DirectiveBlock,
    FunctionType,
    Identifier,
    If,
    IntLiteral,
    Lambda,
    LiteralPattern,
    Match,
    MatchCase,
    NamedArg,
    NamedType,
    Program,
    SelfRef,
    SourceSpan,
    StringLiteral,
    TypeArg,
    TypeParam,
    UnaryNot,
    VarBindPattern,
    WildcardPattern,
)

SPAN = SourceSpan("a.soda", 1, 1, 1, 5)
OTHER_SPAN = SourceSpan("b.soda", 7, 3, 9, 2)

X = Identifier("x", SPAN)
ONE = IntLiteral(1, SPAN)
INT = NamedType("Int", SPAN)
DEF = Definition("f", (("a", INT),), INT, X, True, ("-- c",), SPAN)

#: One instance of every tree class, as (class, fields before the span,
#: the exact ``repr``). Each is built with ``SPAN`` as its span.
CASES = [
    (Diagnostic, ("error", "E-PAR-001", "unexpected token"),
     "Diagnostic(severity='error', code='E-PAR-001', message='unexpected token',"
     " span=SourceSpan(file='a.soda', line_start=1, col_start=1, line_end=1, col_end=5))"),
    (NamedType, ("Int",), "NamedType(name='Int')"),
    (AppliedType, (INT, (INT, INT)),
     "AppliedType(base=NamedType(name='Int'), args=(NamedType(name='Int'), NamedType(name='Int')))"),
    (FunctionType, (INT, INT),
     "FunctionType(domain=NamedType(name='Int'), codomain=NamedType(name='Int'))"),
    (WildcardPattern, (), "WildcardPattern()"),
    (VarBindPattern, ("y",), "VarBindPattern(name='y')"),
    (LiteralPattern, (True,), "LiteralPattern(value=True)"),
    (ConstructorPattern, ("Pair_", (VarBindPattern("a", SPAN), LiteralPattern(-1, SPAN))),
     "ConstructorPattern(name='Pair_', sub_patterns=(VarBindPattern(name='a'),"
     " LiteralPattern(value=-1)))"),
    (IntLiteral, (42,), "IntLiteral(value=42)"),
    (BoolLiteral, (False,), "BoolLiteral(value=False)"),
    (StringLiteral, ('a "b"',), "StringLiteral(value='a \"b\"')"),
    (Identifier, ("x",), "Identifier(name='x')"),
    (SelfRef, (), "SelfRef()"),
    (Call, (X, (ONE,)), "Call(function=Identifier(name='x'), args=(IntLiteral(value=1),))"),
    (NamedArg, ("n", ONE), "NamedArg(name='n', value=IntLiteral(value=1))"),
    (TypeArg, (INT,), "TypeArg(type=NamedType(name='Int'))"),
    (Lambda, ("y", None, X),
     "Lambda(param='y', param_type=None, body=Identifier(name='x'))"),
    (If, (BoolLiteral(True, SPAN), X, ONE),
     "If(cond=BoolLiteral(value=True), then_branch=Identifier(name='x'),"
     " else_branch=IntLiteral(value=1))"),
    (MatchCase, (WildcardPattern(SPAN), X),
     "MatchCase(pattern=WildcardPattern(), result=Identifier(name='x'))"),
    (Match, (X, (MatchCase(WildcardPattern(SPAN), ONE, SPAN),)),
     "Match(scrutinee=Identifier(name='x'),"
     " cases=(MatchCase(pattern=WildcardPattern(), result=IntLiteral(value=1)),))"),
    (BinaryOp, ("+", ONE, X),
     "BinaryOp(op='+', left=IntLiteral(value=1), right=Identifier(name='x'))"),
    (UnaryNot, (X,), "UnaryNot(operand=Identifier(name='x'))"),
    (Definition, ("f", (("a", INT),), INT, X, True, ("-- c",)),
     "Definition(name='f', params=(('a', NamedType(name='Int')),), result_type=NamedType(name='Int'),"
     " body=Identifier(name='x'), is_tailrec_annotated=True, leading_comments=('-- c',))"),
    (TypeParam, ("A", "subtype", INT),
     "TypeParam(name='A', bound_kind='subtype', bound=NamedType(name='Int'))"),
    (DirectiveBlock, ("scala", ("val x = 1",)),
     "DirectiveBlock(target='scala', raw_lines=('val x = 1',))"),
    (AbstractBlock, ((DEF,),),
     "AbstractBlock(members=(Definition(name='f', params=(('a', NamedType(name='Int')),),"
     " result_type=NamedType(name='Int'), body=Identifier(name='x'), is_tailrec_annotated=True,"
     " leading_comments=('-- c',)),))"),
    (ClassDecl, ("C", (), (INT,), (), ("-- d",)),
     "ClassDecl(name='C', type_params=(), extends_list=(NamedType(name='Int'),), members=(),"
     " leading_comments=('-- d',))"),
    (Program, ("p", ("q",), ()), "Program(package_name='p', imports=('q',), items=())"),
]

IDS = [cls.__name__ for cls, _, _ in CASES]


def build(cls, values, span=SPAN):
    return cls(*values, span)


def test_the_cases_cover_every_tree_class():
    declared = {
        obj for obj in vars(syntax).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    }
    assert declared == {cls for cls, _, _ in CASES}


@pytest.mark.parametrize("cls,values,text", CASES, ids=IDS)
def test_equality_ignores_spans_and_equal_nodes_hash_equal(cls, values, text):
    node, moved = build(cls, values), build(cls, values, OTHER_SPAN)
    if cls is Diagnostic:  # a diagnostic's span is part of what it says
        assert node != moved
        moved = build(cls, values)
    assert node == moved and not node != moved
    assert hash(node) == hash(moved)
    assert len({node, moved}) == 1


@pytest.mark.parametrize("cls,values,text", CASES, ids=IDS)
def test_equality_sees_each_compared_field(cls, values, text):
    node = build(cls, values)
    for f in dataclasses.fields(node):
        if f.compare:
            assert node != dataclasses.replace(node, **{f.name: "other"}), f.name
    assert node != object() and node != tuple(values)


@pytest.mark.parametrize("cls,values,text", CASES, ids=IDS)
def test_repr_is_the_dataclass_text(cls, values, text):
    assert repr(build(cls, values)) == text


@pytest.mark.parametrize("cls,values,text", CASES, ids=IDS)
def test_nodes_are_frozen(cls, values, text):
    node = build(cls, values)
    for f in dataclasses.fields(node):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, f.name, "other")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.extra = 1
    assert repr(node) == text


@pytest.mark.parametrize("cls,values,text", CASES, ids=IDS)
def test_construction_by_keyword_and_missing_arguments(cls, values, text):
    node = build(cls, values)
    names = [f.name for f in dataclasses.fields(cls)]
    by_keyword = cls(**dict(zip(names, (*values, SPAN))))
    assert by_keyword == node and by_keyword.span == SPAN and repr(by_keyword) == text
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, SPAN, "one too many")


@pytest.mark.parametrize("cls,values,text", CASES, ids=IDS)
def test_dataclasses_functions_work_on_every_node(cls, values, text):
    node = build(cls, values)
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(node)
    fields = dataclasses.fields(node)
    assert fields == dataclasses.fields(cls)
    assert [getattr(node, f.name) for f in fields] == [*values, SPAN]
    assert {f.name for f in fields if not f.compare} == ({"span"} if cls is not Diagnostic else set())
    assert {f.name for f in fields if not f.repr} == ({"span"} if cls is not Diagnostic else set())
    moved = dataclasses.replace(node, span=OTHER_SPAN)
    assert type(moved) is cls and moved.span == OTHER_SPAN
    assert [getattr(moved, f.name) for f in fields[:-1]] == list(values)


def test_declaration_defaults():
    d = Definition("f", (), None, None)
    assert (d.is_tailrec_annotated, d.leading_comments, d.span) == (False, (), None)
    assert d == Definition("f", (), None, None, False, (), SPAN)
    t = TypeParam("A")
    assert (t.bound_kind, t.bound, t.span) == ("none", None, None)
    assert t == TypeParam(name="A", bound_kind="none", bound=None)
    assert DirectiveBlock("lean", ()).span is None
    assert AbstractBlock(()).span is None
    assert ClassDecl("C", (), (), ()).leading_comments == ()
    assert Program(None, (), ()).span is None


def test_leaves_compare_with_python_equality():
    # As inside a tuple: True == 1, so these patterns are equal and hash
    # equal, while nodes of different classes never are.
    assert LiteralPattern(True, SPAN) == LiteralPattern(1, OTHER_SPAN)
    assert hash(LiteralPattern(True, SPAN)) == hash(LiteralPattern(1, SPAN))
    assert BoolLiteral(True, SPAN) != IntLiteral(1, SPAN)
    assert LiteralPattern("1", SPAN) != LiteralPattern(1, SPAN)
    assert Program(None, (), (DEF,)) != Program(None, (), (DEF, DEF))
    assert Program(None, (), (DEF,)) != Program(None, [], (DEF,))

