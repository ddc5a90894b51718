"""Translation of analyzed Soda programs to Lean 4 sources.

The shape of the translation, per declaration:

- a class with abstract members becomes ``class Name where`` with the
  default constructor ``Name_ ::`` first, one field per zero-parameter
  abstract member, and ``deriving DecidableEq``
- every class also opens ``namespace Name`` ... ``end Name`` holding its
  concrete definitions, constants and functions alike rendered as ``def``
- type parameters ``[A : Type]`` become ``(A : Type)`` on the class
- match expressions become ``match x with`` and one ``| pattern => result``
  per case; constructor patterns list their sub-patterns by juxtaposition

Type-argument applications are dropped: Lean's inference recovers them from
the value arguments. Several constructs have no Lean counterpart here and
are reported instead of translated: ``package``, ``import``, ``this``, and
the ``subtype``/``supertype`` bounds.
"""

from __future__ import annotations

from .analyzer import AnalyzedProgram, constructor_fields
from .syntax import (
    PREC_APP,
    PREC_ATOM,
    PREC_LOW,
    PREC_OR,
    Call,
    ClassDecl,
    ConstructorPattern,
    Definition,
    Diagnostic,
    DirectiveBlock,
    ExprPrinter,
    Lambda,
    Match,
    NamedArg,
    Program,
    Rendering,
    SelfRef,
    TypeArg,
    TypeExpr,
    error,
    scoped_walk,
)


# ============================================================
# support check
# ============================================================


def check_lean_supported(program: Program) -> list[Diagnostic]:
    """One diagnostic per occurrence of a construct the Lean translation
    does not cover, each naming the construct."""
    found = []  # (what is refused, where), in source order
    if program.package_name is not None:
        found.append(("'package' declarations are", program.span))
    found += [("'import' declarations are", program.span)] * len(program.imports)
    for cls in program.classes:
        for tp in cls.type_params:
            if tp.bound_kind in ("subtype", "supertype"):
                found.append((f"'{tp.bound_kind}' bounds are", tp.span))
        for d in cls.definitions:
            if d.body is not None:
                found += [("'this' is", e.span) for e, _ in scoped_walk(d.body, {}) if type(e) is SelfRef]
    return [
        error("E-LEAN-001", f"{what} not supported by the Lean backend", span)
        for what, span in found
    ]


# ============================================================
# the printer: expressions, then declarations
# ============================================================


class _Refused(Exception):
    """A construct the Lean translation does not cover was met in printing."""


class _LeanPrinter(ExprPrinter):
    binary_ops = {**ExprPrinter.binary_ops, "and": "&&", "or": "||"}
    not_word = "!"
    arrow = "->"

    # Type arguments and sub-patterns go by juxtaposition, so compound ones
    # and negative literals take parentheses.
    def type_args(self, args: tuple[TypeExpr, ...]) -> str:
        return "".join(f" {self.expr(a, PREC_ATOM)}" for a in args)

    def constructor_pattern(self, p: ConstructorPattern) -> tuple[str, int]:
        if not p.sub_patterns:
            return p.name, PREC_ATOM
        return p.name + "".join(f" {self.expr(s, PREC_ATOM)}" for s in p.sub_patterns), PREC_APP

    def self_ref(self, e: SelfRef) -> tuple[str, int]:
        raise _Refused

    def call(self, e: Call) -> tuple[str, int]:
        # Type arguments are erased; inference recovers them.
        values = [a for a in e.args if type(a) is not TypeArg]
        if not values:
            return self._bare[type(e.function)](self, e.function)
        parts = [self.expr(e.function, PREC_APP)]
        for a in values:
            if type(a) is NamedArg:
                parts.append(f"({a.name} := {self.expr(a.value)})")
            else:
                parts.append(self.expr(a, PREC_ATOM))
        return " ".join(parts), PREC_APP

    def lambda_head(self, e: Lambda) -> str:
        param = f"({e.param} : {self.expr(e.param_type)})" if e.param_type else e.param
        return f"fun {param} =>"

    def match(self, e: Match) -> tuple[str, int]:
        return " ".join(self.match_lines(e)), PREC_LOW

    def match_lines(self, e: Match) -> list[str]:
        """The head line, then one ``| p => r`` line per case."""
        arms = (f"| {self.expr(c.pattern)} => {self.expr(c.result, PREC_OR)}" for c in e.cases)
        return [f"match {self.expr(e.scrutinee, PREC_OR)} with", *arms]

    # ---------- declarations ----------

    comment = "--"
    writes_tailrec = False
    defines = ":="
    target = "lean"

    def keyword(self, d: Definition) -> str:
        return "def "

    def match_block(self, e: Match, indent: str) -> list[str]:
        return [indent + line for line in self.match_lines(e)]

    def class_(self, cls: ClassDecl) -> list[str]:
        # The constructor's class, if it has fields, then a namespace holding
        # the concrete definitions.
        lines = self.comments(cls, "")
        fields = constructor_fields(cls)
        if fields:
            params = "".join(f" ({tp.name} : Type)" for tp in cls.type_params)
            lines += [f"class {cls.name}{params} where", f"  {cls.name}_ ::"]
            lines += [f"  {name} : {self.expr(ftype)}" for name, ftype in fields]
            lines += ["  deriving DecidableEq", ""]
        lines.append(f"namespace {cls.name}")
        for member in cls.members:
            if isinstance(member, DirectiveBlock) and member.target == self.target:
                lines += ["", *self.directive(member, "")]
            elif isinstance(member, Definition) and member.body is not None:
                lines += ["", *self.definition(member, "")]
        return lines + ["", f"end {cls.name}"]


_LEAN = _LeanPrinter()


# ============================================================
# whole programs
# ============================================================


def translate_to_lean(analyzed: AnalyzedProgram) -> Rendering:
    """Render the whole program, or report every unsupported construct and
    render nothing. Only ``lean`` directive blocks appear, verbatim at their
    position."""
    # Package, imports and bounds are checked here, and a 'this' stops the
    # printer, which reaches every body anyway. Only then are all the
    # refused constructs found, in source order; a printer too deep for the
    # stack still gives them, as when they were found first.
    program = analyzed.program
    bounds = {tp.bound_kind for cls in program.classes for tp in cls.type_params}
    try:
        if program.package_name is not None or program.imports or bounds & {"subtype", "supertype"}:
            raise _Refused
        return _LEAN.program(program)
    except (_Refused, RecursionError):
        diagnostics = check_lean_supported(program)
        if not diagnostics:
            raise
        return Rendering(None, {}, diagnostics)
