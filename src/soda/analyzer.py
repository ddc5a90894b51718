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
    MatchCase,
    NamedApply,
    Program,
    TypeApply,
    TypeExpr,
    TypeParam,
    ConstructorPattern,
    children,
    error,
    has_errors,
    pattern_nodes,
    peel_call_chain,
    rebuild,
    scoped_walk,
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
    class_names: set[str] = set()
    for cls in program.classes:
        if cls.name in class_names:
            message = f"class '{cls.name}' is already defined"
            diagnostics.append(error("E-SEM-001", message, cls.span))
        class_names.add(cls.name)
        member_names: set[str] = set()
        for member in _member_declarations(cls):
            if member.name in member_names:
                message = f"'{member.name}' is already defined in class '{cls.name}'"
                diagnostics.append(error("E-SEM-001", message, member.span))
            member_names.add(member.name)
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
# named arguments
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


def _rewrite_named_calls(
    body: Expr, signatures: dict[str, list[str]], diagnostics: list[Diagnostic]
) -> Expr:
    """Copy of ``body`` with every resolvable named-argument call in
    positional form. Calls whose head is not a sibling definition or a known
    constructor keep their named arguments; the code generators render those
    in the target language's own syntax.

    The copy is built bottom-up from an explicit stack, not by recursion.
    Each call chain is rebuilt from its rewritten head and arguments, and
    every call node in it carries the span of the whole chain."""
    done: list[Expr] = []  # rewritten sub-expressions, in postorder
    todo: list = [body]  # nodes to visit, and (node, steps, part count) to rebuild
    while todo:
        e = todo.pop()
        if type(e) in CALL_KINDS:
            head, steps = peel_call_chain(e)
            parts = [head, *[s[-1] for s in steps if s[0] != "type"]]
            todo += [(e, steps, len(parts)), *reversed(parts)]
            continue
        if type(e) is not tuple:
            parts = children(e)
            if parts:
                todo += [(e, None, len(parts)), *reversed(parts)]
            else:
                done.append(e)
            continue
        e, steps, count = e  # its parts are rewritten: rebuild the node
        parts = done[len(done) - count:]
        del done[len(done) - count:]
        if steps is None:
            done.append(rebuild(e, tuple(parts)))
            continue
        head, args = parts[0], iter(parts[1:])
        steps = [s if s[0] == "type" else (*s[:-1], next(args)) for s in steps]
        call = _rebuild_chain(head, steps, e.span)
        params = signatures.get(head.name) if type(head) is Identifier else None
        if params is not None and any(s[0] == "named" for s in steps):
            resolved, diags = resolve_named_arguments(call, params)
            diagnostics.extend(diags)
            if resolved is not None:
                call = resolved
        done.append(call)
    return done[0]


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
        new_members = []
        for m in item.members:
            if isinstance(m, Definition) and m.body is not None:
                body = _rewrite_named_calls(m.body, signatures, diagnostics)
                new_members.append(replace(m, body=body))
            else:
                new_members.append(m)
        new_items.append(replace(item, members=tuple(new_members)))
    return replace(program, items=tuple(new_items)), diagnostics


# ============================================================
# tail recursion
# ============================================================


def verify_tailrec(defn: Definition) -> list[Diagnostic]:
    """Check that every call of ``defn`` to itself within its own body sits
    in tail position. Tail positions are the body root, both branches of an
    ``if``, and the result of each ``match`` case; nothing else. Returns one
    diagnostic per violating call."""
    if defn.body is None:
        return []
    diagnostics: list[Diagnostic] = []
    name = defn.name
    # A parameter, lambda parameter or pattern variable named like the
    # definition shadows it.
    bound = {p: 1 for p, _ in defn.params}
    link = None  # the function of the last call visited: a link of its chain
    for node, tail in scoped_walk(defn.body, bound):
        if type(node) not in CALL_KINDS:
            continue
        if not tail and node is not link and not bound.get(name):
            head = peel_call_chain(node)[0]
            if type(head) is Identifier and head.name == name:
                message = f"'{name}' calls itself outside tail position"
                diagnostics.append(error("E-SEM-010", message, node.span))
        link = node.function
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
        if key not in reported_spans:
            reported_spans.add(key)
            message = f"'{name}' is not declared in this file"
            diagnostics.append(warning("W-SEM-001", message, span))

    # Names visible throughout a class are collected once per class; the
    # walk's table counts only the names bound locally (parameters, lambda
    # parameters, pattern variables).
    for cls in program.classes:
        class_names = global_names | {d.name for d in _member_declarations(cls)}
        for d in cls.definitions:
            if d.body is None:
                continue
            bound = {p: 1 for p, _ in d.params}
            for node, _ in scoped_walk(d.body, bound):
                t = type(node)
                if t is Identifier:
                    if not bound.get(node.name) and node.name not in class_names:
                        report(node.name, node.span)
                elif t is MatchCase:
                    for p in pattern_nodes(node.pattern):
                        if type(p) is ConstructorPattern and p.name not in global_names:
                            report(p.name, p.span)
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
    for cls in rewritten.classes:
        for d in cls.definitions:
            if d.is_tailrec_annotated:
                diagnostics.extend(verify_tailrec(d))
    diagnostics.extend(_check_identifiers(rewritten, constructors))
    return AnalyzedProgram(rewritten, constructors, diagnostics)
