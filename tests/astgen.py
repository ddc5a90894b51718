"""Seeded random generator of well-formed programs.

Used by the round-trip and evaluation tests: every tree produced here must
survive ``parse(pretty_print(tree)) == tree`` byte-for-byte on the printed
side and node-for-node on the reparsed side. The generator therefore only
emits shapes the grammar can express canonically:

- variable-bind pattern names never end in an underscore, constructor
  pattern names always do (zero-argument constructors included),
- multi-parameter lambdas are built as nested single-parameter lambdas,
- directive lines are pre-normalized (no blank edges, zero common margin),
- negative integers appear as literals, never as a unary minus node.

Spans are synthetic; tree equality ignores them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from soda.syntax import (
    AbstractBlock,
    AppliedType,
    BinaryOp,
    BoolLiteral,
    Call,
    ClassDecl,
    ConstructorPattern,
    Definition,
    DirectiveBlock,
    Expr,
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
    Pattern,
    Program,
    SelfRef,
    StringLiteral,
    TypeArg,
    TypeExpr,
    TypeParam,
    UnaryNot,
    VarBindPattern,
    WildcardPattern,
    synthetic_span,
)

_SPAN = synthetic_span()

_CLASS_NAMES = [
    "Alpha", "Beta", "Gamma", "Delta", "Omega", "Point", "Shape",
    "Queue", "Stack", "Tree", "Cursor", "Ledger",
]

_MEMBER_NAMES = [
    "value", "size", "left", "right", "step", "base", "item", "count",
    "total", "first", "second", "scale", "merge", "north", "south",
    "weight", "label", "depth", "next_value", "combine",
]

_PARAM_NAMES = ["x", "y", "z", "a", "b", "n", "k", "acc", "seed", "other"]

_TYPE_NAMES = ["Int", "Bool", "String", "A", "B", "Seq", "Option"]

_CONSTRUCTOR_NAMES = ["Cons_", "Nil_", "Some_", "None_", "Leaf_", "Node_"]

_STRING_VALUES = ["", "ok", "two words", 'say "hi"', "back\\slash", "x:1"]

_COMMENT_TEXTS = [
    " accumulates the running total",
    " callers must pass a non-negative count",
    " order of the fields fixes the constructor",
    " kept separate so the host block can splice in",
]

_DIRECTIVE_TARGETS = ["scala", "lean", "coq"]

_DIRECTIVE_LINES = [
    "theorem trivial : 1 = 1 := rfl",
    "import Std.Data.List.Basic",
    "def host_helper : Int = 42",
    "object Helpers { val shared = 7 }",
    "Qed.",
]

_BINARY_OPS = ["+", "-", "*", "/", "==", "<", "<=", ">", ">=", "and", "or"]


@dataclass
class GenConfig:
    max_expr_depth: int = 4
    max_classes: int = 3
    max_defs_per_class: int = 4
    max_type_depth: int = 2
    max_pattern_depth: int = 2


class AstGen:
    """Deterministic program generator; one instance per seed."""

    def __init__(self, seed: int, config: GenConfig | None = None):
        self.rng = random.Random(seed)
        self.config = config or GenConfig()

    # --- leaves ---

    def _identifier_name(self) -> str:
        return self.rng.choice(_MEMBER_NAMES + _PARAM_NAMES)

    def _leaf(self) -> Expr:
        roll = self.rng.random()
        if roll < 0.35:
            return IntLiteral(self.rng.randint(-20, 120), _SPAN)
        if roll < 0.50:
            return BoolLiteral(self.rng.random() < 0.5, _SPAN)
        if roll < 0.60:
            return StringLiteral(self.rng.choice(_STRING_VALUES), _SPAN)
        if roll < 0.67:
            return Identifier(self.rng.choice(_CONSTRUCTOR_NAMES), _SPAN)
        if roll < 0.72:
            return SelfRef(_SPAN)
        return Identifier(self._identifier_name(), _SPAN)

    # --- types ---

    def type_expr(self, depth: int | None = None) -> TypeExpr:
        if depth is None:
            depth = self.config.max_type_depth
        named = NamedType(self.rng.choice(_TYPE_NAMES), _SPAN)
        if depth <= 0:
            return named
        roll = self.rng.random()
        if roll < 0.60:
            return named
        if roll < 0.82:
            args = tuple(
                self.type_expr(depth - 1) for _ in range(self.rng.randint(1, 2))
            )
            return AppliedType(named, args, _SPAN)
        return FunctionType(
            self.type_expr(depth - 1), self.type_expr(depth - 1), _SPAN
        )

    # --- patterns ---

    def pattern(self, depth: int | None = None) -> Pattern:
        if depth is None:
            depth = self.config.max_pattern_depth
        roll = self.rng.random()
        if roll < 0.15:
            return WildcardPattern(_SPAN)
        if roll < 0.40:
            return VarBindPattern(self.rng.choice(_PARAM_NAMES), _SPAN)
        if roll < 0.60:
            kind = self.rng.random()
            if kind < 0.5:
                return LiteralPattern(self.rng.randint(-9, 99), _SPAN)
            if kind < 0.8:
                return LiteralPattern(self.rng.random() < 0.5, _SPAN)
            return LiteralPattern(self.rng.choice(_STRING_VALUES), _SPAN)
        name = self.rng.choice(_CONSTRUCTOR_NAMES)
        if depth <= 0:
            return ConstructorPattern(name, (), _SPAN)
        subs = tuple(
            self.pattern(depth - 1) for _ in range(self.rng.randint(0, 3))
        )
        return ConstructorPattern(name, subs, _SPAN)

    # --- expressions ---

    def expr(self, depth: int | None = None) -> Expr:
        if depth is None:
            depth = self.config.max_expr_depth
        if depth <= 0 or self.rng.random() < 0.25:
            return self._leaf()
        roll = self.rng.random()
        if roll < 0.30:
            return BinaryOp(
                self.rng.choice(_BINARY_OPS),
                self.expr(depth - 1),
                self.expr(depth - 1),
                _SPAN,
            )
        if roll < 0.38:
            return UnaryNot(self.expr(depth - 1), _SPAN)
        if roll < 0.50:
            return If(
                self.expr(depth - 1),
                self.expr(depth - 1),
                self.expr(depth - 1),
                _SPAN,
            )
        if roll < 0.62:
            cases = tuple(
                MatchCase(self.pattern(), self.expr(depth - 1), _SPAN)
                for _ in range(self.rng.randint(1, 3))
            )
            return Match(self.expr(depth - 1), cases, _SPAN)
        if roll < 0.74:
            param_type = (
                self.type_expr() if self.rng.random() < 0.4 else None
            )
            return Lambda(
                self.rng.choice(_PARAM_NAMES),
                param_type,
                self.expr(depth - 1),
                _SPAN,
            )
        if roll < 0.88:
            fn = Identifier(self._identifier_name(), _SPAN)
            args = tuple(self.expr(depth - 1) for _ in range(self.rng.randint(1, 2)))
            return Call(fn, args, _SPAN)
        if roll < 0.95:
            return Call(
                Identifier(self._identifier_name(), _SPAN),
                (NamedArg(self.rng.choice(_PARAM_NAMES), self.expr(depth - 1), _SPAN),),
                _SPAN,
            )
        return Call(
            Identifier(self._identifier_name(), _SPAN), (TypeArg(self.type_expr(), _SPAN),), _SPAN
        )

    # --- declarations ---

    def _comments(self) -> tuple[str, ...]:
        if self.rng.random() < 0.25:
            return tuple(
                self.rng.sample(_COMMENT_TEXTS, self.rng.randint(1, 2))
            )
        return ()

    def definition(self, name: str) -> Definition:
        param_names = self.rng.sample(_PARAM_NAMES, self.rng.randint(0, 3))
        params = tuple((p, self.type_expr()) for p in param_names)
        result_type = self.type_expr() if self.rng.random() < 0.85 else None
        return Definition(
            name=name,
            params=params,
            result_type=result_type,
            body=self.expr(),
            is_tailrec_annotated=bool(params) and self.rng.random() < 0.10,
            leading_comments=self._comments(),
            span=_SPAN,
        )

    def abstract_member(self, name: str) -> Definition:
        param_names = (
            self.rng.sample(_PARAM_NAMES, self.rng.randint(1, 2))
            if self.rng.random() < 0.2
            else []
        )
        return Definition(
            name=name,
            params=tuple((p, self.type_expr()) for p in param_names),
            result_type=self.type_expr(),
            body=None,
            span=_SPAN,
        )

    def directive(self) -> DirectiveBlock:
        count = self.rng.randint(1, 4)
        lines = [self.rng.choice(_DIRECTIVE_LINES)]
        for _ in range(count - 1):
            roll = self.rng.random()
            if roll < 0.2:
                lines.append("")
            elif roll < 0.4:
                lines.append("  " + self.rng.choice(_DIRECTIVE_LINES))
            else:
                lines.append(self.rng.choice(_DIRECTIVE_LINES))
        while lines and lines[-1] == "":
            lines.pop()
        return DirectiveBlock(
            self.rng.choice(_DIRECTIVE_TARGETS), tuple(lines), _SPAN
        )

    def type_param(self, name: str) -> TypeParam:
        roll = self.rng.random()
        if roll < 0.7:
            return TypeParam(name, "none", None, _SPAN)
        kind = "subtype" if roll < 0.85 else "supertype"
        return TypeParam(
            name=name,
            bound_kind=kind,
            bound=NamedType(self.rng.choice(_TYPE_NAMES), _SPAN),
            span=_SPAN,
        )

    def class_decl(self, name: str) -> ClassDecl:
        tp_names = ["A", "B"][: self.rng.randint(0, 2)]
        type_params = tuple(self.type_param(tn) for tn in tp_names)
        extends: tuple[TypeExpr, ...] = ()
        if self.rng.random() < 0.35:
            extends = tuple(
                self.type_expr(1)
                for _ in range(self.rng.randint(1, 2))
            )
            extends = tuple(
                t for t in extends if not isinstance(t, FunctionType)
            )
        member_names = self.rng.sample(
            _MEMBER_NAMES, self.rng.randint(1, self.config.max_defs_per_class + 3)
        )
        names = iter(member_names)
        members: list = []
        if self.rng.random() < 0.5:
            block = []
            for _ in range(self.rng.randint(1, 3)):
                n = next(names, None)
                if n is None:
                    break
                block.append(self.abstract_member(n))
            if block:
                members.append(AbstractBlock(tuple(block), _SPAN))
        for n in names:
            members.append(self.definition(n))
        if self.rng.random() < 0.25:
            members.insert(
                self.rng.randint(0, len(members)), self.directive()
            )
        return ClassDecl(
            name=name,
            type_params=type_params,
            extends_list=extends,
            members=tuple(members),
            leading_comments=self._comments(),
            span=_SPAN,
        )

    def program(self) -> Program:
        package = None
        if self.rng.random() < 0.3:
            package = self.rng.choice(
                ["example.core", "soda.tests", "workbench"]
            )
        imports = tuple(
            self.rng.sample(
                ["example.util.Sequences", "example.core.Base", "host.Prelude"],
                self.rng.randint(0, 2),
            )
        )
        class_names = self.rng.sample(
            _CLASS_NAMES, self.rng.randint(1, self.config.max_classes)
        )
        items: list = [self.class_decl(n) for n in class_names]
        if self.rng.random() < 0.2:
            items.insert(self.rng.randint(0, len(items)), self.directive())
        return Program(
            package_name=package,
            imports=imports,
            items=tuple(items),
            span=_SPAN,
        )


def random_program(seed: int, config: GenConfig | None = None) -> Program:
    return AstGen(seed, config).program()
