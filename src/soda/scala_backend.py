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

from .analyzer import AnalyzedProgram, ConstructorSignature, filter_directives
from .syntax import (
    PREC_APP,
    PREC_LOW,
    AbstractBlock,
    ClassDecl,
    ConstructorPattern,
    Definition,
    DirectiveBlock,
    Expr,
    ExprPrinter,
    Identifier,
    Lambda,
    Match,
    SourceSpan,
    TypeParam,
    join_blocks,
    peel_call_chain,
)

@dataclass
class ScalaRendering:
    """Rendered Scala text plus a line-level map back to the source: output
    line number (1-based) to the span of the declaration it came from."""

    text: str
    source_map: dict[int, SourceSpan] = field(default_factory=dict)


# ============================================================
# types
# ============================================================


def translate_type_to_scala(t) -> str:
    """Render a type expression or a class type parameter."""
    if isinstance(t, TypeParam):
        bound = {"subtype": " <: ", "supertype": " >: "}.get(t.bound_kind)
        return t.name + bound + _SCALA_TYPES.expr(t.bound) if bound else t.name
    return _SCALA_TYPES.expr(t)


# ============================================================
# expressions
# ============================================================


class _ScalaPrinter(ExprPrinter):
    binary_ops = {**ExprPrinter.binary_ops, "and": "&&", "or": "||"}
    not_word = "!"
    arrow = "=>"
    type_renames = {"Bool": "Boolean"}

    def __init__(self, constructors: dict[str, ConstructorSignature]):
        self.constructors = constructors

    def type_args(self, args) -> str:
        return f" [{', '.join(map(self.expr, args))}]"

    def constructor_pattern(self, p: ConstructorPattern) -> tuple[str, int]:
        # Fields go in one list, which a constructor without fields keeps.
        return f"{p.name} ({', '.join(map(self.expr, p.sub_patterns))})", PREC_APP

    def call(self, e: Expr) -> tuple[str, int]:
        head, steps = peel_call_chain(e)
        out = self.expr(head, PREC_APP)
        type_args = [s[1] for s in steps if s[0] == "type"]
        if type_args:
            out += self.type_args(type_args)
        args = []
        for s in steps:
            if s[0] == "pos":
                args.append(self.expr(s[1]))
            elif s[0] == "named":
                args.append(f"{s[1]} = {self.expr(s[2])}")
        sig = self.constructors.get(head.name) if isinstance(head, Identifier) else None
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
        """Multi-line match used when a match is a definition's whole body."""
        lines = [f"{indent}{self.expr(e.scrutinee, PREC_APP)} match {{"]
        lines.extend(f"{indent}  {case}" for case in self.match_cases(e))
        lines.append(f"{indent}}}")
        return lines


_SCALA_TYPES = _ScalaPrinter({})


# ============================================================
# declarations
# ============================================================


def translate_definition_to_scala(
    d: Definition,
    constructors: dict[str, ConstructorSignature] | None = None,
    indent: str = "",
) -> list[str]:
    """Render one member definition (or abstract declaration) as Scala
    lines. Constants become ``lazy val``, functions become ``def``."""
    printer = _ScalaPrinter(constructors or {})
    lines: list[str] = []
    for c in d.leading_comments:
        lines.append(f"{indent}//{c}")
    if d.is_tailrec_annotated:
        lines.append(f"{indent}@tailrec")
    keyword = "def" if d.body is None or d.params else "lazy val"
    head = f"{keyword} {d.name}{printer.signature(d)}"
    if d.body is None:
        lines.append(indent + head)
        return lines
    if isinstance(d.body, Match):
        lines.append(f"{indent}{head} =")
        lines.extend(printer.match_block(d.body, indent + "  "))
        return lines
    lines.append(f"{indent}{head} = {printer.expr(d.body)}")
    return lines


def _render_directive(block: DirectiveBlock, indent: str) -> list[str]:
    return [(indent + raw) if raw else "" for raw in block.raw_lines]


def _render_class(
    cls: ClassDecl, constructors: dict[str, ConstructorSignature]
) -> list[str]:
    lines: list[str] = []
    for c in cls.leading_comments:
        lines.append(f"//{c}")
    head = f"trait {cls.name}"
    if cls.type_params:
        head += " [" + ", ".join(translate_type_to_scala(tp) for tp in cls.type_params) + "]"
    if cls.extends_list:
        rendered = [translate_type_to_scala(t) for t in cls.extends_list]
        head += " extends " + " with ".join(rendered)
    body_chunks: list[list[str]] = []
    for member in cls.members:
        if isinstance(member, AbstractBlock):
            chunk = []
            for decl in member.members:
                chunk.extend(translate_definition_to_scala(decl, constructors, "  "))
            if chunk:
                body_chunks.append(chunk)
        elif isinstance(member, DirectiveBlock):
            body_chunks.append(_render_directive(member, "  "))
        else:
            body_chunks.append(translate_definition_to_scala(member, constructors, "  "))
    if body_chunks:
        lines.append(head + " {")
        lines.extend(join_blocks(body_chunks))
        lines.append("}")
    else:
        lines.append(head)
    lines.append("")
    lines.extend(_render_constructor(cls, constructors))
    return lines


def _render_constructor(
    cls: ClassDecl, constructors: dict[str, ConstructorSignature]
) -> list[str]:
    sig = constructors.get(cls.name + "_")
    if sig is None:
        return []
    fields = ", ".join(
        f"{name} : {translate_type_to_scala(ftype)}" for name, ftype in sig.fields
    )
    params = ""
    applied = cls.name
    if cls.type_params:
        # bounds must be repeated or extending the trait fails its checks
        declared = ", ".join(
            translate_type_to_scala(tp) for tp in cls.type_params
        )
        names = ", ".join(tp.name for tp in cls.type_params)
        params = f" [{declared}]"
        applied += f" [{names}]"
    return [f"case class {cls.name}_{params} ({fields}) extends {applied}"]


# ============================================================
# whole programs
# ============================================================


def translate_to_scala(analyzed: AnalyzedProgram) -> ScalaRendering:
    """Render the whole program. Directive blocks for other targets are
    dropped; ``scala`` directives appear verbatim at their source position."""
    program = filter_directives(analyzed.program, "scala")
    chunks: list[tuple[list[str], SourceSpan]] = []
    if program.package_name:
        chunks.append(([f"package {program.package_name}"], program.span))
    for imp in program.imports:
        chunks.append(([f"import {imp}"], program.span))
    for item in program.items:
        if isinstance(item, ClassDecl):
            chunks.append((_render_class(item, analyzed.constructors), item.span))
        else:
            chunks.append((_render_directive(item, ""), item.span))
    lines: list[str] = []
    source_map: dict[int, SourceSpan] = {}
    for i, (chunk, span) in enumerate(chunks):
        if i:
            lines.append("")
        source_map[len(lines) + 1] = span
        lines.extend(chunk)
    text = "\n".join(lines) + "\n" if lines else ""
    return ScalaRendering(text, source_map)
