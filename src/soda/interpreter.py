"""Reference interpreter for the purely functional core of Soda.

Evaluation is strict except for ``and``/``or``, which never evaluate their
right operand when the left one decides the result. There are no exceptions
at the language level: anything that goes wrong (division by zero, a match
with no applicable case, an unbound name, a misapplied value, exhausting the
recursion budget) comes back as a ``RuntimeFault`` value.

An ``Int`` is a Python ``int``, a ``Bool`` a ``bool`` and a ``String`` a
``str``, unwrapped, so arithmetic makes no object beyond its result. Since a
``bool`` is also an ``int`` in Python, every test of a value's kind compares
its type exactly, and ``==`` compares the kinds before the values, so
``true == 1`` is false. Sequences, objects, closures, builtins and partly
applied constructors are the value classes below.

Each body is first resolved, once, into nodes that give each local as a
slot number and hold what every other name denotes, so evaluation looks no
name up. A definition with n parameters takes n arguments at once, and
fewer give a partial application. The evaluator is one loop over the nodes
and a list of frames: each evaluation that waits for a value (an operand,
the function or argument of an application, an ``if`` condition, a
``match`` scrutinee, a ``fold`` step) is a frame on that list, not a Python
call, so no program deepens the host stack; locals and literals are read
in place. Tail positions (the branches of an ``if``, the result of a
``match`` case, and the body of a function applied in tail position)
replace the current expression instead of pushing a frame, so annotated
tail loops run in constant evaluation depth. Every other evaluation goes
one level deeper, frame or not; the peak depth is recorded, which is what
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
    BinaryOp,
    BoolLiteral,
    Call,
    ConstructorPattern,
    Expr,
    Identifier,
    If,
    IntLiteral,
    Lambda,
    LiteralPattern,
    Match,
    MatchCase,
    NamedArg,
    Pattern,
    SelfRef,
    SourceSpan,
    StringLiteral,
    TypeArg,
    VarBindPattern,
    WildcardPattern,
    binder_names,
    children,
    escape_string,
    int_to_text,
    scoped_walk,
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
class SeqV:
    items: tuple

    def __eq__(self, other):
        return _equal(self, other)


@dataclass(eq=False, slots=True)
class ClosureV:
    """Function value: a resolved body, the locals it captured (a partial
    application's arguments, latest first) and how many more arguments it
    takes. Compares by identity, since the locals can reach the closure itself."""

    body: tuple
    env: tuple
    arity: int = 1
    span: Optional[SourceSpan] = None  # a definition's: where a partial application goes deeper


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


Value = Union[int, bool, str, SeqV, ClosureV, BuiltinV, ConstructorV, ObjectV]
EvalOutcome = Union[Value, RuntimeFault]


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
    """The Soda value of a Python bool, int or str (itself), of lists or
    tuples of them nested to any depth, or of a Soda value (itself)."""
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
        elif isinstance(x, (bool, SeqV, ClosureV, BuiltinV, ConstructorV, ObjectV)):
            done.append(x)
        elif isinstance(x, int):
            done.append(int(x))  # exactly an int, also for a subclass such as an IntEnum
        elif isinstance(x, str):
            done.append(str(x))
        else:
            raise TypeError(f"no Soda value for {type(x).__name__}")
    return done[0]


class _Text(str):
    """Text that ``render_value`` emits between values, told apart from a
    Soda string, which is a plain ``str``."""


_CLOSE_SEQ, _COMMA, _OPEN_FIELD, _CLOSE_FIELD = map(_Text, ("]", ", ", " (", ")"))


def render_value(v: EvalOutcome) -> str:
    # A work list of values still to print and text to emit between them,
    # so that objects nested to any depth print without recursion.
    parts: list[str] = []
    todo: list = [v]
    while todo:
        v = todo.pop()
        t = type(v)
        if t is _Text:
            parts.append(v)
        elif t is int:
            parts.append(int_to_text(v))
        elif t is bool:
            parts.append("true" if v else "false")
        elif t is str:
            parts.append(f'"{escape_string(v)}"')
        elif t is SeqV:
            todo.append(_CLOSE_SEQ)
            for i in reversed(range(len(v.items))):
                todo.append(v.items[i])
                if i:
                    todo.append(_COMMA)
            parts.append("[")
        elif t is ObjectV:
            for f in reversed(tuple(v.fields.values())):
                todo += (_CLOSE_FIELD, f, _OPEN_FIELD)
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

#: What each operator on two integers computes, other than 'and' and 'or'.
#: Division truncates toward zero.
_ON_INTEGERS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": lambda a, b: a // b if (a < 0) == (b < 0) else -(-a // b),
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge, "==": operator.eq,
}


def _binary(node: tuple, left: Value, right: Value) -> EvalOutcome:
    """The value of a binary operator node given its operands' values."""
    op, span = node[4], node[1]
    if type(left) is int and type(right) is int and (on_integers := _ON_INTEGERS.get(op)):
        if op == "/" and right == 0:
            return RuntimeFault(FAULT_DIVISION_BY_ZERO, "division by zero", span)
        return on_integers(left, right)
    if op == "and" or op == "or":
        if type(left) is not bool or type(right) is not bool:
            return RuntimeFault(FAULT_NOT_APPLICABLE, f"'{op}' requires boolean operands", span)
        return right
    if op == "==":
        # structural for data, identity for functions and constructors; values
        # of two kinds, such as true and 1, are never equal
        return _equal(left, right)
    if op == "+" and type(left) is str and type(right) is str:
        # concatenation, as in the translated programs
        return left + right
    if type(left) is not int or type(right) is not int:
        return RuntimeFault(FAULT_NOT_APPLICABLE, f"'{op}' requires integer operands", span)
    return RuntimeFault(FAULT_NOT_APPLICABLE, f"unknown operator '{op}'", span)


def _operate(node: tuple, env: tuple) -> EvalOutcome:
    """The value of a leaf, or of a binary operator on two leaves, with the locals ``env``."""
    if node[0] <= _VALUE:
        return env[node[2]] if node[0] == _LOCAL else node[2]
    left, right, op = node[2], node[3], node[4]
    left = env[left[2]] if left[0] == _LOCAL else left[2]
    if (op == "and" or op == "or") and type(left) is bool and left == (op == "or"):
        return left  # decided without the right operand
    return _binary(node, left, env[right[2]] if right[0] == _LOCAL else right[2])


def _whole(call: tuple, fn: ClosureV, args: list) -> tuple:
    """The node that passes ``fn`` all its arguments ``args`` at once, when
    each is a leaf or a binary operator on leaves, else ``call``, the
    ``_CALL`` node that passes the last of them."""
    if not all(a[0] <= _VALUE or a[0] == _LEAF_OP and a[3][0] <= _VALUE for a in args):
        return call
    reach = fn.arity + (args[0][0] == _LEAF_OP)  # the head, or arg 0's operands
    return (_WHOLE, *call[1:], fn, tuple(args), reach)


# The resolve pass turns each expression into nested tuples (kind, span,
# ...), the span being that of the expression. A local is its slot in the
# tuple of locals of the innermost definition body, lambda body or case
# result (SICP §5.5.6's lexical addresses, with a single frame): first the
# names it binds, then the outer locals it uses, copied in when the closure
# is made or the case chosen. A definition binds its parameters, the last
# one at slot 0. Anything else a name can denote is known before evaluation
# and held in the node.
_LOCAL = 0  # (_LOCAL, span, slot)
_VALUE = 1  # (_VALUE, span, value): a literal, builtin, constructor, function or 'this'
_CONSTANT = 2  # (_CONSTANT, span, [body, value once evaluated, else None])
_LAMBDA = 3  # (_LAMBDA, span, body, slots of the outer locals the body uses)
_FAULT = 4  # (_FAULT, span, fault): the fault to give when evaluated
# A _CALL, _BINARY or _IF node (kind + _SLOW), the last item saying how many
# levels below it the frame path goes. Within the budget, it reads the leaves
# (_LOCAL and _VALUE nodes) in place and raises the peak as deep, else takes
# the frame path. _WHOLE passes a class definition all its arguments.
_WHOLE = 5  # (_WHOLE, span, function, argument, definition, arguments, reach)
_LEAF_OP = 6  # a _BINARY node whose left operand is a leaf
_LEAF_IF = 7  # an _IF node whose cond is a binary operator on leaves
# Nodes that first evaluate the sub-expression at index 2. Each kind is also
# that of the frame which waits for its value: (kind, node, locals, depth).
_CALL = 8  # (_CALL, span, function, argument)
_BINARY = 9  # (_BINARY, span, left, right, op, 1)
_IF = 10  # (_IF, span, cond, then, else, 2)
_SLOW = _CALL - _WHOLE
_MATCH = 11  # (_MATCH, span, scrutinee, ((pattern, result, slots of outer locals), ...))
_NOT = 12  # (_NOT, span, operand)

# The other frames, with what the waiting evaluation needs once its value
# arrives; ``depth`` is the waiting evaluation's depth.
_RIGHT = 13  # (_RIGHT, binary operator node, left value): the right operand
_APPLY = 14  # (_APPLY, function, span, depth, depth of a closure's body): the argument
_FOLD = 15  # (_FOLD, op, items, index, span, depth): the accumulator so far
_ARG = 16  # (_ARG, argument, span, depth): a function to apply to argument
_CONST = 17  # (_CONST, cell): a constant's value, kept in its cell


class Interpreter:
    """Evaluator over an analyzed program.

    Every definition body is resolved once, here, and ``evaluate`` resolves
    the expression it is given. A name is the innermost local of that name,
    else the class's definition (or 'this'), else a constructor or builtin.
    A ``run_entry``, or a call whose arguments are locals, literals or
    operators on two of them, that passes a definition all its arguments
    enters the body once, with all of them as its locals; other calls pass
    them one at a time, through partial applications. A constant is
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
                    span = d.span or synthetic_span()
                    target = ClosureV(None, (), len(d.params), span) if d.params else [None, None]
                    names[d.name] = (_VALUE if d.params else _CONSTANT, target)
                    bodies.append((d, target, names))
            # 'this' is bound only in a class whose constructor takes no fields
            instance = self._globals.get(cls.name + "_", (None, None))[1]
            if type(instance) is ObjectV:
                names["this"] = (_VALUE, instance)
        for d, target, names in bodies:
            if d.params:
                target.body = self._resolve(d.body, names, [p for p, _ in d.params])
            else:
                target[0] = self._resolve(d.body, names)

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
        if type(entry[1]) is ClosureV and entry[1].arity == len(values) and self.max_recursion > 0:
            return self._run(entry[1].body, tuple(reversed(values)), (), 1)  # as a whole call would
        return self._run((entry[0], synthetic_span(), entry[1]), (), values)

    # ---------- resolve pass ----------

    def _resolve(self, root: Expr, names: dict, params=()) -> tuple:
        """The resolved node of ``root`` in a class whose names denote
        ``names``, with the parameters ``params`` as locals, the last at
        slot 0; one loop over ``scoped_walk``, so any depth resolves."""
        bound = dict.fromkeys(params, 1)  # the walk's count of the open binders of each name
        # The parameters' scope, then each open lambda body or case result, as
        # (the slot of each name it binds or uses, the slots that the outer
        # locals it uses have in the enclosing scope, how many names it binds).
        scopes: list = [({p: len(params) - 1 - i for i, p in enumerate(params)}, [], len(params))]
        done: list = []  # the resolved nodes of finished sub-trees
        # The nodes whose children are not all resolved, each with where they
        # start in done and the previous ``end``, the length of done once the
        # innermost such node has all its children there.
        waiting: list = []
        end = -1
        inert = 0  # named arguments still open: their call faults, so its parts use no local
        for x, _ in scoped_walk(root, bound):
            t = type(x)
            count = len(children(x))
            if count:
                if t is Lambda or t is MatchCase:
                    binds = binder_names(x)
                    scopes.append(({name: i for i, name in enumerate(binds)}, [], len(binds)))
                elif t is Call:
                    inert += list(map(type, x.args)).count(NamedArg)
                waiting.append((x, len(done), end))
                end = len(done) + count
                continue
            if t is IntLiteral or t is BoolLiteral or t is StringLiteral:
                done.append((_VALUE, x.span, x.value))
            elif t is Identifier or t is SelfRef:
                name = "this" if t is SelfRef else x.name
                if bound.get(name) and not inert:
                    # The innermost scope that has the name passes it in to
                    # each scope inside it.
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
                else:
                    message = f"'{name}' is not bound" + (" here" if t is SelfRef else "")
                    fault = RuntimeFault(FAULT_UNKNOWN_IDENTIFIER, message, x.span)
                    done.append((_FAULT, x.span, fault))
            else:
                span = getattr(x, "span", synthetic_span())
                fault = RuntimeFault(FAULT_NOT_APPLICABLE, f"cannot evaluate {t.__name__}", span)
                done.append((_FAULT, span, fault))
            # Build each waiting node whose children are all resolved now.
            while len(done) == end:
                x, first, end = waiting.pop()
                kids = done[first:]
                del done[first:]
                t, span = type(x), x.span
                if t is Match:
                    done.append((_MATCH, span, kids[0], tuple(kids[1:])))
                elif t is MatchCase:
                    done.append((x.pattern, kids[0], tuple(scopes.pop()[1])))
                elif t is Lambda:
                    done.append((_LAMBDA, span, kids[0], tuple(scopes.pop()[1])))
                elif t is BinaryOp:
                    # the left operand in place, unless 'and' or 'or' must test it first
                    leaf = kids[0][0] <= _VALUE and (kids[1][0] <= _VALUE or x.op not in ("and", "or"))
                    done.append((_LEAF_OP if leaf else _BINARY, span, *kids, x.op, 1))
                elif t is If:
                    leaves = kids[0][0] == _LEAF_OP and kids[0][3][0] <= _VALUE
                    done.append((_LEAF_IF if leaves else _IF, span, *kids, 2))
                elif t is Call:
                    # One _CALL node per argument, each applying the value of
                    # the one before to it; a class definition given all its
                    # arguments takes them at once, in a _WHOLE node.
                    node = kids[0]
                    fn, given = node[2], []
                    for arg, kid in zip(x.args, kids[1:]):
                        if type(arg) is NamedArg:
                            message = f"named argument '{arg.name}' could not be resolved to a declared"
                            fault = RuntimeFault(FAULT_NOT_APPLICABLE, message + " parameter", span)
                            node, fn = (_FAULT, span, fault), None
                        elif type(arg) is not TypeArg:  # types are erased at run time
                            node = (_CALL, span, node, kid)
                            given.append(kid)
                            if type(fn) is ClosureV and len(given) == fn.arity:
                                node = _whole(node, fn, given)
                    done.append(node)
                elif t is NamedArg:
                    inert -= 1
                    done.append(kids[0])
                else:  # UnaryNot
                    done.append((_NOT, span, *kids))
        return done.pop()

    # ---------- evaluation machine ----------

    def _run(self, expr: tuple, env: tuple, args, depth: int = 0) -> EvalOutcome:
        """Evaluate the resolved node ``expr`` with the locals ``env`` at ``depth``,
        then apply the value to each of ``args`` in turn. The first fault ends the run."""
        limit = self.max_recursion
        frames: list = [(_ARG, a, synthetic_span(), 0) for a in reversed(args)]
        peak = 0
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
                elif kind >= _WHOLE:
                    reach = depth + expr[-1]
                    if reach > limit:  # the frame path
                        frames.append((kind + _SLOW, expr, env, depth))
                        expr = expr[2]
                        depth += 1
                        continue
                    if reach > peak:
                        peak = reach
                    if kind == _WHOLE:
                        values = ()
                        for a in expr[5]:
                            value = _operate(a, env)
                            if type(value) is RuntimeFault:
                                return value
                            values = (value,) + values
                        env, expr = values, expr[4].body
                        continue
                    operand = expr if kind == _LEAF_OP and expr[3][0] <= _VALUE else expr[2]
                    value = _operate(operand, env)
                    if type(value) is RuntimeFault:
                        return value
                    if kind == _LEAF_IF:
                        if type(value) is bool:
                            expr = expr[3] if value else expr[4]
                            continue
                        frames.append((_IF, expr, env, depth))  # which gives the fault
                    elif operand is not expr:  # the left operand's value, waiting for the right one
                        frames.append((_RIGHT, expr, value))
                        expr = expr[3]
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
                else:  # _FAULT
                    return expr[2]

                # Hand the value to the frames until one has an expression to evaluate.
                while frames:
                    frame = frames.pop()
                    kind = frame[0]
                    if kind == _RIGHT:
                        value = _binary(frame[1], frame[2], value)
                        if type(value) is RuntimeFault:
                            return value
                    elif kind == _APPLY:
                        _, fn, span, depth, body_depth = frame
                        if type(fn) is ClosureV:
                            env = (value,) + fn.env
                            expr = fn.body
                            depth = body_depth
                            if fn.arity > 1:  # a partial application, made as deep as the body runs
                                expr = (_VALUE, fn.span, ClosureV(expr, env, fn.arity - 1, fn.span))
                            break
                        if type(fn) is ConstructorV:
                            collected, sig = fn.collected + (value,), fn.signature
                            if len(collected) < len(sig.fields):
                                value = ConstructorV(sig, collected)
                            else:
                                fields = {name: v for (name, _), v in zip(sig.fields, collected)}
                                value = ObjectV(sig.class_name, fields)
                        elif type(fn) is BuiltinV and fn.name == "range":
                            if type(value) is not int:
                                message = "range requires an integer"
                                return RuntimeFault(FAULT_NOT_APPLICABLE, message, span)
                            value = SeqV(tuple(range(value)))
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
                    elif kind == _FOLD:
                        # value is the accumulator: feed it the next item, if any
                        _, op, items, i, span, depth = frame
                        if i < len(items):
                            frames.append((_FOLD, op, items, i + 1, span, depth))
                            if (depth < limit and type(op) is ClosureV and op.arity == 1
                                    and op.body[0] == _LAMBDA):
                                # a curried lambda: both arguments at once, with no closure between
                                outer, inner = (value,) + op.env, op.body
                                env = (items[i], *[outer[j] for j in inner[3]])
                                expr, depth = inner[2], depth + 1
                                break
                            frames.append((_ARG, items[i], span, depth))
                            frames.append((_APPLY, op, span, depth, depth + 1))
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
                            if type(value) is not bool:
                                message = f"'{op}' requires boolean operands"
                                return RuntimeFault(FAULT_NOT_APPLICABLE, message, e[1])
                            if value == (op == "or"):
                                continue  # decided without the right operand
                        frames.append((_RIGHT, e, value))
                        expr = e[3]
                        depth += 1
                        break
                    elif kind == _IF:
                        _, e, env, depth = frame
                        if type(value) is not bool:
                            message = "'if' condition is not a boolean"
                            return RuntimeFault(FAULT_NOT_APPLICABLE, message, e[2][1])
                        expr = e[3] if value else e[4]
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
                        if type(value) is not bool:
                            message = "'not' requires a boolean operand"
                            return RuntimeFault(FAULT_NOT_APPLICABLE, message, frame[1][1])
                        value = not value
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
                if type(value) is not type(want) or value != want:
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
