"""Structural analysis of parsed Soda programs.

No type checking happens here: the analyzer enforces the structural rules a
program must satisfy before translation or evaluation makes sense.

- every class, and every member within a class, is defined at most once
- each class gets a synthesized default constructor, named with a trailing
  underscore, whose parameters are the class's zero-parameter abstract
  members in declaration order
- a definition annotated ``@tailrec`` may call itself only in tail position
  (the body root, the branches of an ``if``, and the results of ``match``
  cases)
- calls with named arguments are rewritten to plain positional application
  in declared parameter order
- identifiers that no declaration in the file binds produce warnings

``analyze`` runs the whole pipeline; each check is also callable on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .syntax import (
    CALL_KINDS,
    AbstractBlock,
    Apply,
    ClassDecl,
    Definition,
    Diagnostic,
    DirectiveBlock,
    Expr,
    Identifier,
    If,
    Lambda,
    Match,
    MatchCase,
    NamedApply,
    Pattern,
    Program,
    TypeApply,
    TypeExpr,
    TypeParam,
    VarBindPattern,
    ConstructorPattern,
    children,
    error,
    has_errors,
    peel_call_chain,
    rebuild,
    warning,
)

#: Names every program may use without declaring them.
BUILTIN_NAMES = frozenset({"range", "fold"})


@dataclass(frozen=True)
class ConstructorSignature:
    """Default constructor synthesized for a class: one parameter per
    zero-parameter abstract member, in declaration order. Abstract members
    that take parameters are obligations for refining classes, not
    constructor fields."""

    class_name: str
    constructor_name: str
    type_params: tuple[TypeParam, ...]
    fields: tuple[tuple[str, TypeExpr], ...]


@dataclass
class AnalyzedProgram:
    """A program that passed (or at least went through) analysis, with named
    arguments already resolved to positional form."""

    program: Program
    constructors: dict[str, ConstructorSignature]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)


# ============================================================
# single definition rule
# ============================================================


def check_single_definition(program: Program) -> list[Diagnostic]:
    """One diagnostic per duplicate occurrence, placed at the duplicate."""
    diagnostics: list[Diagnostic] = []
    seen_classes: dict[str, ClassDecl] = {}
    for cls in program.classes:
        if cls.name in seen_classes:
            diagnostics.append(
                error(
                    "E-SEM-001",
                    f"class '{cls.name}' is already defined",
                    cls.span,
                )
            )
        else:
            seen_classes[cls.name] = cls
        seen_members: dict[str, Definition] = {}
        for member in _member_declarations(cls):
            if member.name in seen_members:
                diagnostics.append(
                    error(
                        "E-SEM-001",
                        f"'{member.name}' is already defined in class '{cls.name}'",
                        member.span,
                    )
                )
            else:
                seen_members[member.name] = member
    return diagnostics


def _member_declarations(cls: ClassDecl) -> list[Definition]:
    """Abstract members and definitions in source order, one namespace."""
    out: list[Definition] = []
    for m in cls.members:
        if isinstance(m, AbstractBlock):
            out.extend(m.members)
        elif isinstance(m, Definition):
            out.append(m)
    return out


# ============================================================
# default constructors
# ============================================================


def constructor_fields(cls: ClassDecl) -> tuple[tuple[str, TypeExpr], ...]:
    """The default constructor's fields: each zero-parameter abstract member
    with a declared type, in declaration order."""
    return tuple(
        (m.name, m.result_type)
        for m in cls.abstract_members
        if not m.params and m.result_type is not None
    )


def synthesize_constructors(program: Program) -> dict[str, ConstructorSignature]:
    constructors: dict[str, ConstructorSignature] = {}
    for cls in program.classes:
        sig = ConstructorSignature(
            class_name=cls.name,
            constructor_name=cls.name + "_",
            type_params=cls.type_params,
            fields=constructor_fields(cls),
        )
        constructors[sig.constructor_name] = sig
    return constructors


# ============================================================
# call-chain helpers
# ============================================================

def _rebuild_chain(head: Expr, steps, span) -> Expr:
    expr = head
    for step in steps:
        if step[0] == "pos":
            expr = Apply(expr, step[1], span)
        elif step[0] == "named":
            expr = NamedApply(expr, step[1], step[2], span)
        else:
            expr = TypeApply(expr, step[1], span)
    return expr


# ============================================================
# named arguments
# ============================================================


def resolve_named_arguments(
    call: Expr, param_names: list[str]
) -> tuple[Optional[Expr], list[Diagnostic]]:
    """Rewrite one call whose arguments use ``name := value`` form into plain
    positional application in declared order.

    A call with only positional arguments is returned unchanged. On any
    violation the diagnostics say what went wrong and no rewritten call is
    produced.
    """
    head, steps = peel_call_chain(call)
    named = [s for s in steps if s[0] == "named"]
    if not named:
        return call, []
    diagnostics: list[Diagnostic] = []
    positional = [s for s in steps if s[0] == "pos"]
    if positional:
        diagnostics.append(
            error(
                "E-SEM-023",
                "call mixes named and positional arguments",
                call.span,
            )
        )
        return None, diagnostics
    by_name: dict[str, Expr] = {}
    for _, name, arg in named:
        if name not in param_names:
            diagnostics.append(
                error(
                    "E-SEM-020",
                    f"unknown parameter '{name}' in named-argument call",
                    arg.span,
                )
            )
        elif name in by_name:
            diagnostics.append(
                error(
                    "E-SEM-021",
                    f"parameter '{name}' is given more than once",
                    arg.span,
                )
            )
        else:
            by_name[name] = arg
    missing = [p for p in param_names if p not in by_name]
    if missing and not diagnostics:
        diagnostics.append(
            error(
                "E-SEM-022",
                "missing argument for parameter"
                + ("s " if len(missing) > 1 else " ")
                + ", ".join(f"'{m}'" for m in missing),
                call.span,
            )
        )
    if diagnostics:
        return None, diagnostics
    type_steps = [s for s in steps if s[0] == "type"]
    ordered = type_steps + [("pos", by_name[p]) for p in param_names]
    return _rebuild_chain(head, ordered, call.span), diagnostics


class _NamedArgRewriter:
    """Rewrites every resolvable named-argument call in a class's bodies.
    Calls whose head is not a sibling definition or a known constructor are
    left as written; the code generators render those named arguments in the
    target language's own syntax."""

    def __init__(self, signatures: dict[str, list[str]]):
        self.signatures = signatures
        self.diagnostics: list[Diagnostic] = []

    def rewrite(self, e: Expr) -> Expr:
        if isinstance(e, CALL_KINDS):
            head, steps = peel_call_chain(e)
            head = self.rewrite(head)
            for i, step in enumerate(steps):
                if step[0] != "type":
                    steps[i] = (*step[:-1], self.rewrite(step[-1]))
            rebuilt = _rebuild_chain(head, steps, e.span)
            if (
                any(step[0] == "named" for step in steps)
                and isinstance(head, Identifier)
                and head.name in self.signatures
            ):
                resolved, diags = resolve_named_arguments(
                    rebuilt, self.signatures[head.name]
                )
                self.diagnostics.extend(diags)
                if resolved is not None:
                    return resolved
            return rebuilt
        return rebuild(e, tuple(map(self.rewrite, children(e))))


def _resolve_named_calls(
    program: Program, constructors: dict[str, ConstructorSignature]
) -> tuple[Program, list[Diagnostic]]:
    diagnostics: list[Diagnostic] = []
    constructor_params = {
        name: [f[0] for f in sig.fields] for name, sig in constructors.items()
    }
    new_items = []
    for item in program.items:
        if not isinstance(item, ClassDecl):
            new_items.append(item)
            continue
        signatures = dict(constructor_params)
        for d in _member_declarations(item):
            signatures[d.name] = [p[0] for p in d.params]
        rewriter = _NamedArgRewriter(signatures)
        new_members = []
        for m in item.members:
            if isinstance(m, Definition) and m.body is not None:
                new_members.append(replace(m, body=rewriter.rewrite(m.body)))
            else:
                new_members.append(m)
        diagnostics.extend(rewriter.diagnostics)
        new_items.append(replace(item, members=tuple(new_members)))
    return replace(program, items=tuple(new_items)), diagnostics


# ============================================================
# tail recursion
# ============================================================


def _pattern_binds(p: Pattern) -> set[str]:
    if isinstance(p, VarBindPattern):
        return {p.name}
    if isinstance(p, ConstructorPattern):
        out: set[str] = set()
        for sub in p.sub_patterns:
            out |= _pattern_binds(sub)
        return out
    return set()


#: Index of the first child in tail position, for the nodes that pass tail
#: position on: both branches of an ``if``, and each ``match`` case result.
_FIRST_TAIL_CHILD = {If: 1, Match: 1, MatchCase: 0}


def verify_tailrec(defn: Definition) -> list[Diagnostic]:
    """Check that every call of ``defn`` to itself within its own body sits
    in tail position. Tail positions are the body root, both branches of an
    ``if``, and the result of each ``match`` case; nothing else. Returns one
    diagnostic per violating call."""
    if defn.body is None:
        return []
    diagnostics: list[Diagnostic] = []
    name = defn.name

    def walk(e: Expr, tail: bool, shadowed: frozenset) -> None:
        if isinstance(e, CALL_KINDS):
            head, steps = peel_call_chain(e)
            is_self_call = (
                isinstance(head, Identifier)
                and head.name == name
                and name not in shadowed
            )
            if is_self_call and not tail:
                diagnostics.append(
                    error(
                        "E-SEM-010",
                        f"'{name}' calls itself outside tail position",
                        e.span,
                    )
                )
            if not is_self_call:
                walk(head, False, shadowed)
            for s in steps:
                if s[0] != "type":
                    walk(s[-1], False, shadowed)
            return
        if type(e) is Lambda:
            shadowed = shadowed | {e.param}
        elif type(e) is MatchCase:
            shadowed = shadowed | _pattern_binds(e.pattern)
        kids = children(e)
        first_tail = _FIRST_TAIL_CHILD.get(type(e), len(kids)) if tail else len(kids)
        for i, child in enumerate(kids):
            walk(child, i >= first_tail, shadowed)

    initial_shadow = frozenset(p for p, _ in defn.params if p == name)
    walk(defn.body, True, initial_shadow)
    return diagnostics


def _check_tailrec(program: Program) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for cls in program.classes:
        for d in cls.definitions:
            if d.is_tailrec_annotated:
                diagnostics.extend(verify_tailrec(d))
    return diagnostics


# ============================================================
# undeclared identifiers
# ============================================================


def _check_identifiers(
    program: Program, constructors: dict[str, ConstructorSignature]
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    global_names = set(BUILTIN_NAMES)
    global_names.update(c.name for c in program.classes)
    global_names.update(constructors.keys())
    reported_spans = set()

    def report(name: str, span) -> None:
        key = (name, span.line_start, span.col_start)
        if key in reported_spans:
            return
        reported_spans.add(key)
        diagnostics.append(
            warning("W-SEM-001", f"'{name}' is not declared in this file", span)
        )

    def walk(e: Expr, local: frozenset) -> None:
        t = type(e)
        if t is Identifier:
            if e.name not in local and e.name not in class_names:
                report(e.name, e.span)
            return
        if t in CALL_KINDS:
            head, steps = peel_call_chain(e)
            walk(head, local)
            for s in steps:
                if s[0] != "type":
                    walk(s[-1], local)
            return
        if t is Lambda:
            local = local | {e.param}
        elif t is MatchCase:
            _check_pattern(e.pattern)
            local = local | _pattern_binds(e.pattern)
        for child in children(e):
            walk(child, local)

    def _check_pattern(p: Pattern) -> None:
        if isinstance(p, ConstructorPattern):
            if p.name not in global_names:
                report(p.name, p.span)
            for sub in p.sub_patterns:
                _check_pattern(sub)

    # Names visible throughout a class are collected once per class; the
    # walk carries only the names bound locally (parameters, lambda
    # parameters, pattern variables), so it stays linear in the class size.
    for cls in program.classes:
        class_names = global_names | {d.name for d in _member_declarations(cls)}
        for d in cls.definitions:
            if d.body is not None:
                walk(d.body, frozenset(p for p, _ in d.params))
    return diagnostics


# ============================================================
# directive filtering
# ============================================================


def filter_directives(program: Program, target: str) -> Program:
    """Keep only the directive blocks aimed at ``target``; other targets'
    blocks disappear from the program entirely."""

    def keep(member):
        return not isinstance(member, DirectiveBlock) or member.target == target

    new_items = []
    for item in program.items:
        if isinstance(item, DirectiveBlock):
            if item.target == target:
                new_items.append(item)
        else:
            new_items.append(
                replace(item, members=tuple(m for m in item.members if keep(m)))
            )
    return replace(program, items=tuple(new_items))


# ============================================================
# pipeline
# ============================================================


def analyze(program: Program) -> AnalyzedProgram:
    """Run every structural check and rewrite in order. The returned program
    has named-argument calls resolved; its diagnostics combine all passes."""
    diagnostics = check_single_definition(program)
    constructors = synthesize_constructors(program)
    rewritten, named_diags = _resolve_named_calls(program, constructors)
    diagnostics.extend(named_diags)
    diagnostics.extend(_check_tailrec(rewritten))
    diagnostics.extend(_check_identifiers(rewritten, constructors))
    return AnalyzedProgram(rewritten, constructors, diagnostics)
