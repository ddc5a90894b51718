"""Reference interpreter for the purely functional core of Soda.

Evaluation is strict except for ``and``/``or``, which never evaluate their
right operand when the left one decides the result. There are no exceptions
at the language level: anything that goes wrong (division by zero, a match
with no applicable case, an unbound name, a misapplied value, exhausting the
recursion budget) comes back as a ``RuntimeFault`` value.

Each body is first resolved, once, into nodes that give each local as a
slot number and hold what every other name denotes, so evaluation looks no
name up. The evaluator is one loop over those nodes and a list of frames:
each evaluation that waits for a value (an operand, the function or
argument of an application, an ``if`` condition, a ``match`` scrutinee, a
``fold`` step) is a frame on that list, not a Python call, so no program
deepens the host stack. Tail positions (the branches of an ``if``, the
result of a ``match`` case, and the body of a function applied in tail
position) replace the current expression instead of pushing a frame, so
annotated tail loops run in constant evaluation depth. Every other
evaluation goes one level deeper; the peak depth is recorded, which is what
the constant-stack tests measure, and going deeper than the recursion budget
gives a ``recursion_limit`` fault. Values of any depth print and compare
without recursion as well.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Union

from .analyzer import AnalyzedProgram, ConstructorSignature
from .syntax import (
    DEFAULT_MAX_RECURSION,
    Apply,
    BinaryOp,
    BoolLiteral,
    ConstructorPattern,
    Expr,
    Identifier,
    If,
    IntLiteral,
    Lambda,
    LiteralPattern,
    Match,
    NamedApply,
    Pattern,
    SelfRef,
    SourceSpan,
    StringLiteral,
    TypeApply,
    UnaryNot,
    VarBindPattern,
    WildcardPattern,
    children,
    escape_string,
    int_to_text,
    pattern_nodes,
    synthetic_span,
)

FAULT_DIVISION_BY_ZERO = "division_by_zero"
FAULT_NO_MATCHING_CASE = "no_matching_case"
FAULT_UNKNOWN_IDENTIFIER = "unknown_identifier"
FAULT_NOT_APPLICABLE = "arity_fault"
FAULT_RECURSION_LIMIT = "recursion_limit"


# ============================================================
# runtime values
# ============================================================


@dataclass(frozen=True, slots=True)
class IntV:
    value: int


@dataclass(frozen=True, slots=True)
class BoolV:
    value: bool


@dataclass(frozen=True, slots=True)
class StringV:
    value: str


@dataclass(frozen=True, slots=True)
class SeqV:
    items: tuple

    def __eq__(self, other):
        return _equal(self, other)


@dataclass(eq=False, slots=True)
class ClosureV:
    """Function value: a resolved body and the tuple of locals it captured.
    Compares by identity, since that tuple can reach the closure itself."""

    body: tuple
    env: tuple


@dataclass(eq=False, slots=True)
class BuiltinV:
    """A builtin (``range``/``fold``) with the arguments collected so far."""

    name: str
    collected: tuple


@dataclass(eq=False, slots=True)
class ConstructorV:
    """A default constructor applied to some prefix of its fields."""

    signature: ConstructorSignature
    collected: tuple


@dataclass(frozen=True)
class ObjectV:
    """Fully constructed class instance: class name plus field values."""

    class_name: str
    fields: dict

    def __eq__(self, other):
        return _equal(self, other)

    def __hash__(self):
        return hash((self.class_name, tuple(sorted(self.fields))))


@dataclass(frozen=True)
class RuntimeFault:
    """What evaluation yields instead of a value when it cannot proceed."""

    kind: str
    message: str
    span: SourceSpan

    def render(self) -> str:
        s = self.span
        return f"{s.file}:{s.line_start}:{s.col_start}: fault[{self.kind}]: {self.message}"


Value = Union[IntV, BoolV, StringV, SeqV, ClosureV, BuiltinV, ConstructorV, ObjectV]
EvalOutcome = Union[Value, RuntimeFault]

TRUE_V = BoolV(True)
FALSE_V = BoolV(False)


def _equal(a, b) -> bool:
    # Objects and sequences nest as deep as evaluation goes, so their parts
    # are compared from a work list rather than by recursion.
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if a is b:
            continue
        t = type(a)
        if t is not type(b):
            return False
        if t is ObjectV:
            if a.class_name != b.class_name or a.fields.keys() != b.fields.keys():
                return False
            pairs.extend((v, b.fields[k]) for k, v in a.fields.items())
        elif t is SeqV:
            if len(a.items) != len(b.items):
                return False
            pairs.extend(zip(a.items, b.items))
        elif a != b:
            return False
    return True


# ============================================================
# builtin semantics, usable on plain Python values
# ============================================================


def builtin_range(n: int) -> list[int]:
    """First ``n`` naturals, empty for any ``n <= 0``. Always terminates."""
    return list(range(n)) if n > 0 else []


def builtin_fold(sequence, initial, operation):
    """Left fold: feed the accumulator through ``operation`` once per item,
    starting from ``initial``. Always terminates."""
    accumulated = initial
    for item in sequence:
        accumulated = operation(accumulated, item)
    return accumulated


# ============================================================
# conversions and rendering
# ============================================================


def from_python(x) -> Value:
    """The Soda value of a Python bool, int or str, of lists or tuples of
    them nested to any depth, or of a Soda value itself."""
    # A sequence comes off the work list twice: to push its items, then to gather them.
    done, todo = [], [(x, False)]
    while todo:
        x, gather = todo.pop()
        if gather:
            first = len(done) - len(x)
            done[first:] = [SeqV(tuple(done[first:]))]
        elif isinstance(x, (list, tuple)):
            todo.append((x, True))
            todo.extend((item, False) for item in reversed(x))
        elif isinstance(x, (IntV, BoolV, StringV, SeqV, ClosureV, BuiltinV, ConstructorV, ObjectV)):
            done.append(x)
        elif isinstance(x, bool):
            done.append(TRUE_V if x else FALSE_V)
        elif isinstance(x, int):
            done.append(IntV(x))
        elif isinstance(x, str):
            done.append(StringV(x))
        else:
            raise TypeError(f"no Soda value for {type(x).__name__}")
    return done[0]


def render_value(v: EvalOutcome) -> str:
    # A work list of values still to print and text to emit between them,
    # so that objects nested to any depth print without recursion.
    parts: list[str] = []
    todo: list = [v]
    while todo:
        v = todo.pop()
        t = type(v)
        if t is str:
            parts.append(v)
        elif t is IntV:
            parts.append(int_to_text(v.value))
        elif t is BoolV:
            parts.append("true" if v.value else "false")
        elif t is StringV:
            parts.append(f'"{escape_string(v.value)}"')
        elif t is SeqV:
            todo.append("]")
            for i in reversed(range(len(v.items))):
                todo.append(v.items[i])
                if i:
                    todo.append(", ")
            todo.append("[")
        elif t is ObjectV:
            for f in reversed(tuple(v.fields.values())):
                todo += (")", f, " (")
            parts.append(v.class_name + "_")
        elif t is ClosureV:
            parts.append("<function>")
        elif t is BuiltinV:
            parts.append(f"<builtin {v.name}>")
        elif t is ConstructorV:
            parts.append(f"<constructor {v.signature.constructor_name}>")
        elif t is RuntimeFault:
            parts.append(v.render())
        else:
            parts.append(repr(v))
    return "".join(parts)


# ============================================================
# interpreter
# ============================================================

#: What each operator on two integers computes, other than 'and', 'or' and
#: '=='. Division truncates toward zero.
_ON_INTEGERS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": lambda a, b: a // b if (a < 0) == (b < 0) else -(-a // b),
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _binary(node: tuple, left: Value, right: Value) -> EvalOutcome:
    """The value of a binary operator node given its operands' values."""
    op, span = node[4], node[1]
    if op == "and" or op == "or":
        if type(right) is not BoolV:
            return RuntimeFault(FAULT_NOT_APPLICABLE, f"'{op}' requires boolean operands", span)
        return right
    if op == "==":
        # structural for data, identity for functions and constructors
        return TRUE_V if left == right else FALSE_V
    if type(left) is IntV and type(right) is IntV and op in _ON_INTEGERS:
        if op == "/" and right.value == 0:
            return RuntimeFault(FAULT_DIVISION_BY_ZERO, "division by zero", span)
        result = _ON_INTEGERS[op](left.value, right.value)
        return IntV(result) if type(result) is int else TRUE_V if result else FALSE_V
    if op == "+" and type(left) is StringV and type(right) is StringV:
        # concatenation, as in the translated programs
        return StringV(left.value + right.value)
    if type(left) is not IntV or type(right) is not IntV:
        return RuntimeFault(FAULT_NOT_APPLICABLE, f"'{op}' requires integer operands", span)
    return RuntimeFault(FAULT_NOT_APPLICABLE, f"unknown operator '{op}'", span)


# The resolve pass turns each expression into nested tuples (kind, span,
# ...), the span being that of the expression. A local is its slot in the
# tuple of locals of the innermost lambda body or case result (SICP §5.5.6's
# lexical addresses, with a single frame): first the names it binds, then
# the outer locals it uses, copied in when the closure is made or the case
# chosen. Anything else a name can denote is known before evaluation and
# held in the node.
_LOCAL = 0  # (_LOCAL, span, slot)
_VALUE = 1  # (_VALUE, span, value): a literal, builtin, constructor, function or 'this'
_CONSTANT = 2  # (_CONSTANT, span, [body, value once evaluated, else None])
_LAMBDA = 3  # (_LAMBDA, span, body, slots of the outer locals the body uses)
_TYPED = 4  # (_TYPED, span, function): types are erased at runtime
_FAULT = 5  # (_FAULT, span, fault): the fault to give when evaluated
# Nodes that first evaluate the sub-expression at index 2. Each kind is also
# that of the frame which waits for its value: (kind, node, locals, depth).
_CALL = 6  # (_CALL, span, function, argument)
_BINARY = 7  # (_BINARY, span, left, right, op)
_IF = 8  # (_IF, span, cond, then, else)
_MATCH = 9  # (_MATCH, span, scrutinee, ((pattern, result, slots of outer locals), ...))
_NOT = 10  # (_NOT, span, operand)

# The other frames, with what the waiting evaluation needs once its value
# arrives; ``depth`` is the waiting evaluation's depth.
_RIGHT = 11  # (_RIGHT, _BINARY node, left value): the right operand
_APPLY = 12  # (_APPLY, function, span, depth, depth of a closure's body): the argument
_FOLD = 13  # (_FOLD, op, items, index, span, depth): the accumulator so far
_ARG = 14  # (_ARG, argument, span, depth): a function to apply to argument
_CONST = 15  # (_CONST, cell): a constant's value, kept in its cell

_LITERAL_TYPE = {bool: BoolV, int: IntV, str: StringV}  # of a literal pattern's value
_VISIT, _BIND, _UNBIND, _BUILD = range(4)  # the resolve pass's steps
#: The kind of node built from the resolved children of each expression.
_BUILT = {Apply: _CALL, BinaryOp: _BINARY, If: _IF, Match: _MATCH, UnaryNot: _NOT,
          TypeApply: _TYPED, Lambda: _LAMBDA}


def _scopes(e: Expr) -> list:
    """``(names, child)`` for each child of ``e`` in ``children`` order:
    the locals ``e`` binds around a lambda body or a case result, else None."""
    if type(e) is Lambda:
        return [((e.param,), e.body)]
    if type(e) is not Match:
        return [(None, kid) for kid in children(e)]
    return [(None, e.scrutinee)] + [
        (tuple(p.name for p in pattern_nodes(c.pattern) if type(p) is VarBindPattern), c.result)
        for c in e.cases
    ]


class Interpreter:
    """Evaluator over an analyzed program.

    Every definition body is resolved once, here, and ``evaluate`` resolves
    the expression it is given. A name is the innermost local of that name,
    else the class's definition (or 'this'), else a constructor or builtin.
    Multi-parameter definitions are curried closures. A constant is
    evaluated on its first lookup and then kept, like the ``lazy val`` the
    Scala backend emits.
    """

    def __init__(self, analyzed: AnalyzedProgram, max_recursion: int = DEFAULT_MAX_RECURSION):
        self.program = analyzed.program
        self.constructors = analyzed.constructors
        self.max_recursion = max_recursion
        self.last_peak_depth = 0
        # What each name denotes: the kind and last item of its nodes.
        self._globals = {name: (_VALUE, BuiltinV(name, ())) for name in ("range", "fold")}
        for name, sig in analyzed.constructors.items():
            value = ConstructorV(sig, ()) if sig.fields else ObjectV(sig.class_name, {})
            self._globals[name] = (_VALUE, value)
        self._classes: dict[str, dict] = {}
        bodies = []
        for cls in self.program.classes:
            names = self._classes[cls.name] = {}
            for d in cls.definitions:
                if d.body is not None:
                    target = ClosureV(None, ()) if d.params else [None, None]
                    names[d.name] = (_VALUE if d.params else _CONSTANT, target)
                    bodies.append((d, target, names))
            # 'this' is bound only in a class whose constructor takes no fields
            instance = self._globals.get(cls.name + "_", (None, None))[1]
            if type(instance) is ObjectV:
                names["this"] = (_VALUE, instance)
        for d, target, names in bodies:
            expr: Expr = d.body
            for pname, ptype in reversed(d.params):
                expr = Lambda(pname, ptype, expr, d.span or synthetic_span())
            if d.params:
                target.body = self._resolve(expr, names)[2]
            else:
                target[0] = self._resolve(expr, names)

    # ---------- public API ----------

    def _class_names(self, class_name: str) -> dict:
        if class_name not in self._classes:
            raise KeyError(f"no class named '{class_name}'")
        return self._classes[class_name]

    def evaluate(self, expr: Expr, class_name: Optional[str] = None) -> EvalOutcome:
        """Evaluate one expression, in the scope of ``class_name`` when given."""
        names = self._class_names(class_name) if class_name else {}
        return self._run(self._resolve(expr, names), (), ())

    def run_entry(self, class_name: str, def_name: str, args=()) -> EvalOutcome:
        """Apply a named definition to the given arguments (Python values
        are converted) and return the outcome."""
        entry = self._class_names(class_name).get(def_name)
        if entry is None:
            message = f"class '{class_name}' has no definition '{def_name}'"
            return RuntimeFault(FAULT_UNKNOWN_IDENTIFIER, message, synthetic_span())
        values = [from_python(a) for a in args]
        return self._run((entry[0], synthetic_span(), entry[1]), (), values)

    # ---------- resolve pass ----------

    def _resolve(self, root: Expr, names: dict) -> tuple:
        """The resolved node of ``root`` in a class whose names denote
        ``names``; one loop over explicit stacks, so any depth resolves."""
        binders: dict = {}  # how many open scopes bind each name
        # Each open lambda body or case result, inside a sentinel, as (the
        # slot of each name it binds or uses, the slots that the outer
        # locals it uses have in the enclosing scope, how many names it binds).
        scopes: list = [({}, [], 0)]
        done: list = []  # the resolved nodes of finished sub-trees
        todo: list = [(_VISIT, root)]
        while todo:
            step, x = todo.pop()
            if step == _BIND:
                scopes.append(({name: i for i, name in enumerate(x)}, [], len(x)))
                for name in x:
                    binders[name] = binders.get(name, 0) + 1
            elif step == _UNBIND:
                for name in x:
                    binders[name] -= 1
                done[-1] = (done[-1], tuple(scopes.pop()[1]))
            elif step == _BUILD:  # x's resolved children are last in done
                first = len(done) - len(children(x))
                kids = done[first:]
                del done[first:]
                t = type(x)
                if t is Match:
                    cases = tuple((case.pattern, *kid) for case, kid in zip(x.cases, kids[1:]))
                    done.append((_MATCH, x.span, kids[0], cases))
                elif t is Lambda:
                    done.append((_LAMBDA, x.span, *kids[0]))
                elif t is BinaryOp:
                    done.append((_BINARY, x.span, *kids, x.op))
                else:
                    done.append((_BUILT[t], x.span, *kids))
            else:
                t = type(x)
                if t in _BUILT:
                    todo.append((_BUILD, x))
                    for bound, kid in reversed(_scopes(x)):
                        if bound is None:
                            todo.append((_VISIT, kid))
                        else:
                            todo += ((_UNBIND, bound), (_VISIT, kid), (_BIND, bound))
                    continue
                if t is IntLiteral or t is BoolLiteral or t is StringLiteral:
                    done.append((_VALUE, x.span, from_python(x.value)))
                    continue
                if t is Identifier or t is SelfRef:
                    name = "this" if t is SelfRef else x.name
                    if binders.get(name):
                        # The innermost scope that has the name passes it
                        # in to each scope inside it.
                        i = len(scopes) - 1
                        while name not in scopes[i][0]:
                            i -= 1
                        slot = scopes[i][0][name]
                        for has, uses, own in scopes[i + 1:]:
                            uses.append(slot)
                            slot = has[name] = own + len(uses) - 1
                        entry = (_LOCAL, slot)
                    else:
                        entry = names.get(name) or self._globals.get(name)
                    if entry:
                        done.append((entry[0], x.span, entry[1]))
                        continue
                    kind, message = FAULT_UNKNOWN_IDENTIFIER, f"'{name}' is not bound"
                    message += " here" if t is SelfRef else ""
                elif t is NamedApply:
                    kind, message = FAULT_NOT_APPLICABLE, f"named argument '{x.param_name}'"
                    message += " could not be resolved to a declared parameter"
                else:
                    kind, message = FAULT_NOT_APPLICABLE, f"cannot evaluate {t.__name__}"
                span = getattr(x, "span", synthetic_span())
                done.append((_FAULT, span, RuntimeFault(kind, message, span)))
        return done.pop()

    # ---------- evaluation machine ----------

    def _run(self, expr: tuple, env: tuple, args) -> EvalOutcome:
        """Evaluate the resolved node ``expr`` with the locals ``env``, then apply
        the value to each of ``args`` in turn. The first fault ends the run."""
        limit = self.max_recursion
        frames: list = [(_ARG, a, synthetic_span(), 0) for a in reversed(args)]
        depth = peak = 0
        try:
            while True:
                # Evaluate expr at depth, to a value or to a frame and a sub-expression.
                if depth > limit:
                    message = f"recursion limit of {limit} exceeded"
                    return RuntimeFault(FAULT_RECURSION_LIMIT, message, expr[1])
                if depth > peak:
                    peak = depth
                kind = expr[0]
                if kind == _LOCAL:
                    value = env[expr[2]]
                elif kind == _VALUE:
                    value = expr[2]
                elif kind >= _CALL:
                    frames.append((kind, expr, env, depth))
                    expr = expr[2]
                    depth += 1
                    continue
                elif kind == _CONSTANT:
                    cell = expr[2]
                    value = cell[1]
                    if value is None:  # first evaluation, one level down
                        frames.append((_CONST, cell))
                        expr, env = cell[0], ()
                        depth += 1
                        continue
                elif kind == _LAMBDA:
                    value = ClosureV(expr[2], tuple([env[i] for i in expr[3]]))
                elif kind == _TYPED:
                    expr = expr[2]
                    continue
                else:  # _FAULT
                    return expr[2]

                # Hand the value to the frames until one has an expression to evaluate.
                while frames:
                    frame = frames.pop()
                    kind = frame[0]
                    if kind == _APPLY:
                        _, fn, span, depth, body_depth = frame
                        if type(fn) is ClosureV:
                            env = (value,) + fn.env
                            expr = fn.body
                            depth = body_depth
                            break
                        if type(fn) is ConstructorV:
                            collected, sig = fn.collected + (value,), fn.signature
                            if len(collected) < len(sig.fields):
                                value = ConstructorV(sig, collected)
                            else:
                                fields = {name: v for (name, _), v in zip(sig.fields, collected)}
                                value = ObjectV(sig.class_name, fields)
                        elif type(fn) is BuiltinV and fn.name == "range":
                            if type(value) is not IntV:
                                message = "range requires an integer"
                                return RuntimeFault(FAULT_NOT_APPLICABLE, message, span)
                            value = SeqV(tuple(IntV(i) for i in builtin_range(value.value)))
                        elif type(fn) is BuiltinV:  # fold
                            collected = fn.collected + (value,)
                            if len(collected) < 3:
                                value = BuiltinV("fold", collected)
                            elif type(collected[0]) is not SeqV:
                                message = "fold requires a sequence first"
                                return RuntimeFault(FAULT_NOT_APPLICABLE, message, span)
                            else:
                                seq, value, op = collected
                                frames.append((_FOLD, op, seq.items, 0, span, depth))
                        else:
                            message = f"value {render_value(fn)} cannot be applied to an argument"
                            return RuntimeFault(FAULT_NOT_APPLICABLE, message, span)
                    elif kind == _CALL:
                        _, e, env, depth = frame
                        frames.append((_APPLY, value, e[1], depth, depth))
                        expr = e[3]
                        depth += 1
                        break
                    elif kind == _BINARY:
                        _, e, env, depth = frame
                        op = e[4]
                        if op == "and" or op == "or":
                            if type(value) is not BoolV:
                                message = f"'{op}' requires boolean operands"
                                return RuntimeFault(FAULT_NOT_APPLICABLE, message, e[1])
                            if value.value == (op == "or"):
                                continue  # decided without the right operand
                        frames.append((_RIGHT, e, value))
                        expr = e[3]
                        depth += 1
                        break
                    elif kind == _RIGHT:
                        value = _binary(frame[1], frame[2], value)
                        if type(value) is RuntimeFault:
                            return value
                    elif kind == _IF:
                        _, e, env, depth = frame
                        if type(value) is not BoolV:
                            message = "'if' condition is not a boolean"
                            return RuntimeFault(FAULT_NOT_APPLICABLE, message, e[2][1])
                        expr = e[3] if value.value else e[4]
                        break
                    elif kind == _CONST:
                        frame[1][1] = value
                    elif kind == _MATCH:
                        _, e, env, depth = frame
                        for pattern, expr, uses in e[3]:
                            bindings = self._match_pattern(pattern, value)
                            if bindings is not None:
                                break
                        else:
                            message = "no case matched the value " + render_value(value)
                            return RuntimeFault(FAULT_NO_MATCHING_CASE, message, e[1])
                        env = tuple(bindings + [env[i] for i in uses])
                        break
                    elif kind == _NOT:
                        if type(value) is not BoolV:
                            message = "'not' requires a boolean operand"
                            return RuntimeFault(FAULT_NOT_APPLICABLE, message, frame[1][1])
                        value = FALSE_V if value.value else TRUE_V
                    elif kind == _FOLD:
                        # value is the accumulator: feed it the next item, if any
                        _, op, items, i, span, depth = frame
                        if i < len(items):
                            frames.append((_FOLD, op, items, i + 1, span, depth))
                            frames.append((_ARG, items[i], span, depth))
                            frames.append((_APPLY, op, span, depth, depth + 1))
                    else:  # _ARG
                        _, arg, span, depth = frame
                        frames.append((_APPLY, value, span, depth, depth + 1))
                        value = arg
                else:
                    return value
        finally:
            self.last_peak_depth = peak

    # ---------- patterns ----------

    def _match_pattern(self, pattern: Pattern, value: Value) -> Optional[list]:
        """The values ``pattern`` binds, one per variable in preorder, when
        it matches ``value``, else None. Sub-patterns are matched from a
        work list, left to right."""
        bindings: list = []
        todo = [(pattern, value)]
        while todo:
            pattern, value = todo.pop()
            t = type(pattern)
            if t is VarBindPattern:
                bindings.append(value)
            elif t is LiteralPattern:
                want = pattern.value
                if type(value) is not _LITERAL_TYPE[type(want)] or value.value != want:
                    return None
            elif t is ConstructorPattern:
                sig = self.constructors.get(pattern.name)
                if (type(value) is not ObjectV or sig is None or sig.class_name != value.class_name
                        or len(pattern.sub_patterns) != len(sig.fields)):
                    return None
                todo.extend(
                    (sub, value.fields[name])
                    for sub, (name, _) in reversed(tuple(zip(pattern.sub_patterns, sig.fields)))
                )
            elif t is not WildcardPattern:
                return None
        return bindings
