"""Translation of analyzed Soda programs to Scala 3 sources.

The shape of the translation, per declaration:

- ``class`` becomes a ``trait``; its abstract members become abstract
  ``def``s inside the trait
- the synthesized default constructor becomes a ``case class`` named with
  the trailing underscore, extending the trait, with one field per
  zero-parameter abstract member
- a constant (zero parameters, with a body) becomes a ``lazy val``
- a function becomes a ``def`` with the same parameter groups
- type parameters ``[A : Type]`` become plain ``[A]``; ``subtype`` and
  ``supertype`` bounds become ``<:`` and ``>:``

Calls to a known constructor collapse their curried arguments into one
Scala argument list, since case classes are applied uncurried. Directive
blocks targeting ``scala`` are spliced verbatim where they appeared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analyzer import AnalyzedProgram, ConstructorSignature
from .syntax import (
    PREC_APP,
    PREC_LOW,
    AbstractBlock,
    Call,
    ClassDecl,
    ConstructorPattern,
    Definition,
    ExprPrinter,
    Identifier,
    Lambda,
    Match,
    NamedArg,
    SourceSpan,
    TypeArg,
    TypeParam,
)

@dataclass
class ScalaRendering:
    """Rendered Scala text plus a line-level map back to the source: output
    line number (1-based) to the span of the declaration it came from."""

    text: str
    source_map: dict[int, SourceSpan] = field(default_factory=dict)


# ============================================================
# the printer: expressions, then declarations
# ============================================================


class _ScalaPrinter(ExprPrinter):
    binary_ops = {**ExprPrinter.binary_ops, "and": "&&", "or": "||"}
    not_word = "!"
    arrow = "=>"
    type_renames = {"Bool": "Boolean"}
    target = "scala"

    def __init__(self, constructors: dict[str, ConstructorSignature]):
        self.constructors = constructors

    def type_args(self, args) -> str:
        return f" [{', '.join(map(self.expr, args))}]"

    def constructor_pattern(self, p: ConstructorPattern) -> tuple[str, int]:
        # Fields go in one list, which a constructor without fields keeps.
        return f"{p.name} ({', '.join(map(self.expr, p.sub_patterns))})", PREC_APP

    def call(self, e: Call) -> tuple[str, int]:
        out = self.expr(e.function, PREC_APP)
        type_args = [a.type for a in e.args if type(a) is TypeArg]
        if type_args:
            out += self.type_args(type_args)
        args = []
        for a in e.args:
            if type(a) is NamedArg:
                args.append(f"{a.name} = {self.expr(a.value)}")
            elif type(a) is not TypeArg:
                args.append(self.expr(a))
        fn = e.function
        sig = self.constructors.get(fn.name) if isinstance(fn, Identifier) else None
        if args and sig is not None and len(args) == len(sig.fields):
            # Case classes apply in one argument list.
            return f"{out} ({', '.join(args)})", PREC_APP
        return out + "".join(f" ({a})" for a in args), PREC_APP

    def lambda_(self, e: Lambda) -> tuple[str, int]:
        param = f"({e.param} : {self.expr(e.param_type)})" if e.param_type else f"({e.param})"
        return f"{param} => {self.expr(e.body)}", PREC_LOW

    def match(self, e: Match) -> tuple[str, int]:
        cases = "; ".join(self.match_cases(e))
        return f"{self.expr(e.scrutinee, PREC_APP)} match {{ {cases} }}", PREC_LOW

    def match_cases(self, e: Match) -> list[str]:
        cases = []
        for c in e.cases:
            cases.append(f"case {self.expr(c.pattern)} => {self.expr(c.result)}")
        return cases

    def match_block(self, e: Match, indent: str) -> list[str]:
        lines = [f"{indent}{self.expr(e.scrutinee, PREC_APP)} match {{"]
        lines.extend(f"{indent}  {case}" for case in self.match_cases(e))
        lines.append(f"{indent}}}")
        return lines

    def keyword(self, d: Definition) -> str:
        # Constants become ``lazy val``, functions and declarations ``def``.
        return "def " if d.body is None or d.params else "lazy val "

    def import_chunks(self, imports: tuple[str, ...]) -> list[list[str]]:
        return [[f"import {name}"] for name in imports]

    def type_param(self, tp: TypeParam) -> str:
        bound = {"subtype": " <: ", "supertype": " >: "}.get(tp.bound_kind)
        return tp.name + bound + self.expr(tp.bound) if bound else tp.name

    def class_(self, cls: ClassDecl) -> list[str]:
        # A trait with the members, then a case class for the default constructor.
        params = ", ".join(map(self.type_param, cls.type_params))
        declared = f" [{params}]" if params else ""
        head = f"trait {cls.name}{declared}"
        if cls.extends_list:
            head += " extends " + " with ".join(map(self.expr, cls.extends_list))
        chunks = []
        for member in cls.members:
            if isinstance(member, AbstractBlock):
                if member.members:
                    decls = [self.definition(decl, "  ") for decl in member.members]
                    chunks.append([line for lines in decls for line in lines])
            elif isinstance(member, Definition):
                chunks.append(self.definition(member, "  "))
            elif member.target == self.target:
                chunks.append(self.directive(member, "  "))
        lines = self.comments(cls, "")
        if chunks:
            # One blank line between chunks: ``body`` has one before each.
            body = [line for chunk in chunks for line in ("", *chunk)]
            lines += [head + " {", *body[1:], "}"]
        else:
            lines.append(head)
        lines.append("")
        sig = self.constructors.get(cls.name + "_")
        if sig is not None:
            fields = ", ".join(f"{name} : {self.expr(ftype)}" for name, ftype in sig.fields)
            # The bounds are repeated, or extending the trait fails its checks.
            names = ", ".join(tp.name for tp in cls.type_params)
            applied = f"{cls.name} [{names}]" if names else cls.name
            lines.append(f"case class {cls.name}_{declared} ({fields}) extends {applied}")
        return lines


# ============================================================
# whole programs
# ============================================================


def translate_to_scala(analyzed: AnalyzedProgram) -> ScalaRendering:
    """Render the whole program. Only ``scala`` directive blocks appear,
    verbatim at their source position."""
    text, source_map = _ScalaPrinter(analyzed.constructors).program(analyzed.program)
    return ScalaRendering(text, source_map)
