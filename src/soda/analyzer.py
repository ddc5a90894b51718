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
Directive blocks are left as they are: each printer keeps its own target's.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import is_, is_not
from typing import Optional

from .syntax import (
    AbstractBlock,
    Call,
    ClassDecl,
    Definition,
    Diagnostic,
    Expr,
    Identifier,
    MatchCase,
    NamedArg,
    Program,
    TypeArg,
    TypeExpr,
    TypeParam,
    ConstructorPattern,
    children,
    error,
    has_errors,
    pattern_nodes,
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


def resolve_named_arguments(
    call: Call, param_names: list[str]
) -> tuple[Optional[Call], list[Diagnostic]]:
    """Rewrite one call whose arguments use ``name := value`` form into plain
    positional application in declared order, after its type arguments.

    A call with only positional arguments is returned unchanged. On any
    violation the diagnostics say what went wrong and no rewritten call is
    produced.
    """
    named = [a for a in call.args if type(a) is NamedArg]
    if not named:
        return call, []
    types = [a for a in call.args if type(a) is TypeArg]
    if len(named) + len(types) < len(call.args):
        message = "call mixes named and positional arguments"
        return None, [error("E-SEM-023", message, call.span)]
    diagnostics: list[Diagnostic] = []
    known = set(param_names)
    by_name: dict[str, Expr] = {}
    for a in named:
        if a.name not in known:
            diagnostics.append(
                error(
                    "E-SEM-020",
                    f"unknown parameter '{a.name}' in named-argument call",
                    a.value.span,
                )
            )
        elif a.name in by_name:
            diagnostics.append(
                error(
                    "E-SEM-021",
                    f"parameter '{a.name}' is given more than once",
                    a.value.span,
                )
            )
        else:
            by_name[a.name] = a.value
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
    args = (*types, *(by_name[p] for p in param_names))
    return Call(call.function, args, call.span), diagnostics


def _rewrite_named_calls(
    body: Expr, own: dict, constructor_params: dict, diagnostics: list[Diagnostic]
) -> Expr:
    """``body`` with every resolvable named-argument call in positional
    form. A callee's parameter names come from ``own``, the class's
    declarations, and else from ``constructor_params``. Calls whose function
    is neither keep their named arguments; the code generators render those
    in the target language's own syntax.

    The result is built bottom-up from an explicit stack, not by recursion.
    A node none of whose children changed is returned itself, so only a
    resolved call and the nodes above it are copied: the path copying of
    persistent trees."""
    done: list[Expr] = []  # rewritten sub-expressions, in postorder
    todo: list = [(body, None)]  # (node, its children once visited)
    while todo:
        e, kids = todo.pop()
        if kids is None:
            kids = children(e)
            todo += [(e, kids), *[(k, None) for k in reversed(kids)]]
            continue
        new = done[len(done) - len(kids):]
        del done[len(done) - len(kids):]
        if not all(map(is_, new, kids)):
            e = rebuild(e, tuple(new))
        if type(e) is Call and type(e.function) is Identifier:
            params = own.get(e.function.name, constructor_params.get(e.function.name))
            if params is not None:
                resolved, diags = resolve_named_arguments(e, params)
                diagnostics.extend(diags)
                e = resolved or e
        done.append(e)
    return done[0]


# ============================================================
# tail recursion and undeclared identifiers
# ============================================================


def _check_body(
    defn: Definition, self_name: Optional[str], own: dict, global_names, tailrec: list, undeclared: list
) -> bool:
    """Walk ``defn``'s body once. Append to ``tailrec`` a diagnostic for
    each call of ``self_name`` to itself outside tail position (no check
    when it is None), and to ``undeclared`` each identifier and constructor
    pattern whose name is not bound locally, declared in its class
    (``own``), or a builtin, class or constructor (``global_names``).
    Return whether the body holds a named-argument call. Tail positions
    are as ``verify_tailrec`` says."""
    # The walk's table counts only the names bound locally (parameters,
    # lambda parameters, pattern variables). One named like the definition
    # shadows it.
    bound = {p: 1 for p, _ in defn.params}
    named = False
    for node, tail in scoped_walk(defn.body, bound):
        t = type(node)
        if t is Identifier:
            if not bound.get(node.name) and node.name not in own and node.name not in global_names:
                undeclared.append(node)
        elif t is MatchCase:
            for p in pattern_nodes(node.pattern):
                if type(p) is ConstructorPattern and p.name not in global_names:
                    undeclared.append(p)
        elif t is NamedArg:
            named = True
        elif t is Call and self_name and not tail and not bound.get(self_name):
            fn = node.function
            if type(fn) is Identifier and fn.name == self_name:
                message = f"'{self_name}' calls itself outside tail position"
                tailrec.append(error("E-SEM-010", message, node.span))
    return named


def verify_tailrec(defn: Definition) -> list[Diagnostic]:
    """Check that every call of ``defn`` to itself within its own body sits
    in tail position. Tail positions are the body root, both branches of an
    ``if``, and the result of each ``match`` case; nothing else. Returns one
    diagnostic per violating call."""
    diagnostics: list[Diagnostic] = []
    if defn.body is not None:
        _check_body(defn, defn.name, {}, BUILTIN_NAMES, diagnostics, [])
    return diagnostics


# ============================================================
# pipeline
# ============================================================


def analyze(program: Program) -> AnalyzedProgram:
    """Run every structural check and rewrite, in one loop over the classes.
    The returned program has named-argument calls resolved, and shares with
    ``program`` every node that no resolved call lies under: a definition,
    class or program with nothing rewritten is returned as it is. Its
    diagnostics come pass by pass: duplicates, named arguments, tail calls,
    then undeclared names."""
    diagnostics = check_single_definition(program)
    constructors = synthesize_constructors(program)
    constructor_params = {
        name: [f[0] for f in sig.fields] for name, sig in constructors.items()
    }
    global_names = {*BUILTIN_NAMES, *(c.name for c in program.classes), *constructors}
    named: list[Diagnostic] = []
    tailrec: list[Diagnostic] = []
    found: list = []  # undeclared identifiers and constructor patterns
    items = list(program.items)
    for i, item in enumerate(items):
        if not isinstance(item, ClassDecl):
            continue
        own = {d.name: [p[0] for p in d.params] for d in _member_declarations(item)}
        members = list(item.members)
        for j, m in enumerate(members):
            if isinstance(m, Definition) and m.body is not None:
                self_name = m.name if m.is_tailrec_annotated else None
                # Only a body that holds a named-argument call is rewritten.
                if _check_body(m, self_name, own, global_names, tailrec, found):
                    body = _rewrite_named_calls(m.body, own, constructor_params, named)
                    if body is not m.body:
                        members[j] = replace(m, body=body)
        if any(map(is_not, members, item.members)):
            items[i] = replace(item, members=tuple(members))
    if any(map(is_not, items, program.items)):
        program = replace(program, items=tuple(items))
    undeclared: dict[tuple, Diagnostic] = {}  # by name, line and column
    for u in found:
        message = f"'{u.name}' is not declared in this file"
        key = (u.name, u.span.line_start, u.span.col_start)
        undeclared.setdefault(key, warning("W-SEM-001", message, u.span))
    diagnostics += named + tailrec + list(undeclared.values())
    return AnalyzedProgram(program, constructors, diagnostics)
