"""Reference interpreter for the purely functional core of Soda.

Evaluation is strict except for ``and``/``or``, which never evaluate their
right operand when the left one decides the result. There are no exceptions
at the language level: anything that goes wrong (division by zero, a match
with no applicable case, an unbound name, a misapplied value, exhausting the
recursion budget) comes back as a ``RuntimeFault`` value.

The evaluator is one loop over an explicit list of frames: each evaluation
that waits for a value (an operand, the function or argument of an
application, an ``if`` condition, a ``match`` scrutinee, a ``fold`` step)
is a frame on that list, not a Python call, so no program deepens the host
stack. Tail positions (the branches of an ``if``, the result of a ``match``
case, and the body of a function applied in tail position) replace the
current expression instead of pushing a frame, so annotated tail loops run
in constant evaluation depth. Every other evaluation goes one level deeper;
the peak depth is recorded, which is what the constant-stack tests measure,
and going deeper than the recursion budget gives a ``recursion_limit``
fault. Values of any depth print and compare without recursion as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .analyzer import AnalyzedProgram, ConstructorSignature
from .syntax import (
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
    escape_string,
    int_to_text,
    synthetic_span,
)

DEFAULT_MAX_RECURSION = 10_000

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


@dataclass(eq=False, slots=True)
class ClosureV:
    """Function value; compares by identity, since its captured environment
    can reach the closure itself."""

    param: str
    body: Expr
    env: "Env"


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
        # Objects nest as deep as evaluation goes, so the fields are
        # compared from a work list rather than by recursion.
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if type(a) is ObjectV or type(b) is ObjectV:
                if (
                    type(a) is not type(b)
                    or a.class_name != b.class_name
                    or a.fields.keys() != b.fields.keys()
                ):
                    return False
                pairs.extend((v, b.fields[k]) for k, v in a.fields.items())
            elif a != b:
                return False
        return True

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


class _Thunk:
    """Delayed constant body; resolved on every lookup. Constant bodies are
    pure, so re-evaluation is observationally free."""

    __slots__ = ("body", "env")

    def __init__(self, body: Expr, env: "Env"):
        self.body = body
        self.env = env


class Env:
    """Chained scope: local bindings plus a parent link."""

    __slots__ = ("vars", "parent")

    def __init__(self, vars: dict, parent: Optional["Env"] = None):
        self.vars = vars
        self.parent = parent


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
    if isinstance(x, (IntV, BoolV, StringV, SeqV, ClosureV, BuiltinV, ConstructorV, ObjectV)):
        return x
    if isinstance(x, bool):
        return TRUE_V if x else FALSE_V
    if isinstance(x, int):
        return IntV(x)
    if isinstance(x, str):
        return StringV(x)
    if isinstance(x, (list, tuple)):
        return SeqV(tuple(from_python(i) for i in x))
    raise TypeError(f"no Soda value for {type(x).__name__}")


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

_MISSING = object()

# Frames of the evaluation machine: tuples whose first item is one of these
# kinds and whose other items are what the waiting evaluation needs once the
# value it waits for arrives. ``depth`` is the waiting evaluation's depth.
_LEFT = 0  # (_LEFT, BinaryOp, env, depth): the left operand
_RIGHT = 1  # (_RIGHT, BinaryOp, left value): the right operand
_FUN = 2  # (_FUN, Apply, env, depth): the function of an application
_APPLY = 3  # (_APPLY, function, span, depth, body depth): the argument;
#             a closure's body then runs at body depth
_IF = 4  # (_IF, If, env, depth): the condition
_MATCH = 5  # (_MATCH, Match, env, depth): the scrutinee
_NOT = 6  # (_NOT, UnaryNot): the operand
_FOLD = 7  # (_FOLD, op, items, index, span, depth): the accumulator so far
_ARG = 8  # (_ARG, argument, span, depth): a function to apply to argument


class Interpreter:
    """Evaluator over an analyzed program.

    Each class gets one environment holding its definitions (multi-parameter
    definitions curried into closures, constants as lazily resolved thunks)
    on top of a global environment of constructors and builtins.
    """

    def __init__(self, analyzed: AnalyzedProgram, max_recursion: int = DEFAULT_MAX_RECURSION):
        self.program = analyzed.program
        self.constructors = analyzed.constructors
        self.max_recursion = max_recursion
        self.last_peak_depth = 0
        global_vars: dict = {
            "range": BuiltinV("range", ()),
            "fold": BuiltinV("fold", ()),
        }
        for name, sig in analyzed.constructors.items():
            if sig.fields:
                global_vars[name] = ConstructorV(sig, ())
            else:
                global_vars[name] = ObjectV(sig.class_name, {})
        self._global_env = Env(global_vars)
        self._class_envs: dict[str, Env] = {}
        for cls in self.program.classes:
            env = Env({}, self._global_env)
            for d in cls.definitions:
                if d.body is None:
                    continue
                if d.params:
                    expr: Expr = d.body
                    for pname, ptype in reversed(d.params):
                        expr = Lambda(pname, ptype, expr, d.span or synthetic_span())
                    env.vars[d.name] = ClosureV(expr.param, expr.body, env)
                else:
                    env.vars[d.name] = _Thunk(d.body, env)
            # Classes whose constructor takes no fields have one canonical
            # instance, so 'this' can denote it; elsewhere it stays unbound.
            instance = global_vars.get(cls.name + "_")
            if type(instance) is ObjectV:
                env.vars["this"] = instance
            self._class_envs[cls.name] = env

    # ---------- public API ----------

    def class_environment(self, class_name: str) -> Env:
        try:
            return self._class_envs[class_name]
        except KeyError:
            raise KeyError(f"no class named '{class_name}'") from None

    def evaluate(self, expr: Expr, class_name: Optional[str] = None) -> EvalOutcome:
        """Evaluate one expression, in the scope of ``class_name`` when
        given."""
        env = self.class_environment(class_name) if class_name else self._global_env
        return self._run(expr, env, ())

    def run_entry(self, class_name: str, def_name: str, args=()) -> EvalOutcome:
        """Apply a named definition to the given arguments (Python values
        are converted) and return the outcome."""
        env = self.class_environment(class_name)
        if def_name not in env.vars:
            return RuntimeFault(
                FAULT_UNKNOWN_IDENTIFIER,
                f"class '{class_name}' has no definition '{def_name}'",
                synthetic_span(),
            )
        values = [from_python(a) for a in args]
        return self._run(Identifier(def_name, synthetic_span()), env, values)

    # ---------- evaluation machine ----------

    def _run(self, expr: Expr, env: Env, args) -> EvalOutcome:
        """Evaluate ``expr`` in ``env``, then apply the value to each of
        ``args`` in turn. The first fault ends the run."""
        limit = self.max_recursion
        frames: list = [(_ARG, a, synthetic_span(), 0) for a in reversed(args)]
        depth = peak = 0
        try:
            while True:
                # Evaluate expr in env at depth: either reach a value or
                # push the frame that waits for a sub-expression and go on
                # with that one.
                if depth > limit:
                    return RuntimeFault(
                        FAULT_RECURSION_LIMIT,
                        f"recursion limit of {limit} exceeded",
                        expr.span,
                    )
                if depth > peak:
                    peak = depth
                t = type(expr)
                if t is Identifier:
                    name = expr.name
                    e = env
                    while e is not None:
                        value = e.vars.get(name, _MISSING)
                        if value is not _MISSING:
                            break
                        e = e.parent
                    else:
                        return RuntimeFault(
                            FAULT_UNKNOWN_IDENTIFIER, f"'{name}' is not bound", expr.span
                        )
                    if type(value) is _Thunk:
                        expr, env = value.body, value.env
                        depth += 1
                        continue
                elif t is IntLiteral:
                    value = IntV(expr.value)
                elif t is BoolLiteral:
                    value = TRUE_V if expr.value else FALSE_V
                elif t is StringLiteral:
                    value = StringV(expr.value)
                elif t is BinaryOp:
                    frames.append((_LEFT, expr, env, depth))
                    expr = expr.left
                    depth += 1
                    continue
                elif t is Apply:
                    frames.append((_FUN, expr, env, depth))
                    expr = expr.function
                    depth += 1
                    continue
                elif t is If:
                    frames.append((_IF, expr, env, depth))
                    expr = expr.cond
                    depth += 1
                    continue
                elif t is Match:
                    frames.append((_MATCH, expr, env, depth))
                    expr = expr.scrutinee
                    depth += 1
                    continue
                elif t is Lambda:
                    value = ClosureV(expr.param, expr.body, env)
                elif t is UnaryNot:
                    frames.append((_NOT, expr))
                    expr = expr.operand
                    depth += 1
                    continue
                elif t is TypeApply:
                    expr = expr.function  # types are erased at runtime
                    continue
                elif t is NamedApply:
                    return RuntimeFault(
                        FAULT_NOT_APPLICABLE,
                        f"named argument '{expr.param_name}' could not be resolved"
                        " to a declared parameter",
                        expr.span,
                    )
                elif t is SelfRef:
                    e = env
                    while e is not None:
                        value = e.vars.get("this", _MISSING)
                        if value is not _MISSING:
                            break
                        e = e.parent
                    else:
                        return RuntimeFault(
                            FAULT_UNKNOWN_IDENTIFIER, "'this' is not bound here", expr.span
                        )
                else:
                    return RuntimeFault(
                        FAULT_NOT_APPLICABLE,
                        f"cannot evaluate {type(expr).__name__}",
                        getattr(expr, "span", synthetic_span()),
                    )

                # Hand the value to the frames that wait for it, until one of
                # them has an expression to evaluate next.
                while frames:
                    frame = frames.pop()
                    kind = frame[0]
                    if kind == _APPLY:
                        _, fn, span, depth, body_depth = frame
                        if type(fn) is ClosureV:
                            env = Env({fn.param: value}, fn.env)
                            expr = fn.body
                            depth = body_depth
                            break
                        if type(fn) is ConstructorV:
                            collected = fn.collected + (value,)
                            sig = fn.signature
                            if len(collected) == len(sig.fields):
                                fields = {name: v for (name, _), v in zip(sig.fields, collected)}
                                value = ObjectV(sig.class_name, fields)
                            else:
                                value = ConstructorV(sig, collected)
                        elif type(fn) is BuiltinV and fn.name == "range":
                            if type(value) is not IntV:
                                return RuntimeFault(
                                    FAULT_NOT_APPLICABLE, "range requires an integer", span
                                )
                            value = SeqV(tuple(IntV(i) for i in builtin_range(value.value)))
                        elif type(fn) is BuiltinV:  # fold
                            collected = fn.collected + (value,)
                            if len(collected) < 3:
                                value = BuiltinV("fold", collected)
                            elif type(collected[0]) is not SeqV:
                                return RuntimeFault(
                                    FAULT_NOT_APPLICABLE, "fold requires a sequence first", span
                                )
                            else:
                                seq, value, op = collected
                                frames.append((_FOLD, op, seq.items, 0, span, depth))
                        else:
                            return RuntimeFault(
                                FAULT_NOT_APPLICABLE,
                                f"value {render_value(fn)} cannot be applied to an argument",
                                span,
                            )
                    elif kind == _FUN:
                        _, e, env, depth = frame
                        frames.append((_APPLY, value, e.span, depth, depth))
                        expr = e.argument
                        depth += 1
                        break
                    elif kind == _LEFT:
                        _, e, env, depth = frame
                        op = e.op
                        if op == "and" or op == "or":
                            if type(value) is not BoolV:
                                return RuntimeFault(
                                    FAULT_NOT_APPLICABLE,
                                    f"'{op}' requires boolean operands",
                                    e.span,
                                )
                            if value.value == (op == "or"):
                                continue  # decided without the right operand
                        frames.append((_RIGHT, e, value))
                        expr = e.right
                        depth += 1
                        break
                    elif kind == _RIGHT:
                        value = self._binary(frame[1], frame[2], value)
                        if type(value) is RuntimeFault:
                            return value
                    elif kind == _IF:
                        _, e, env, depth = frame
                        if type(value) is not BoolV:
                            return RuntimeFault(
                                FAULT_NOT_APPLICABLE,
                                "'if' condition is not a boolean",
                                e.cond.span,
                            )
                        expr = e.then_branch if value.value else e.else_branch
                        break
                    elif kind == _MATCH:
                        _, e, env, depth = frame
                        for case in e.cases:
                            bindings = self._match_pattern(case.pattern, value)
                            if bindings is not None:
                                break
                        else:
                            return RuntimeFault(
                                FAULT_NO_MATCHING_CASE,
                                "no case matched the value " + render_value(value),
                                e.span,
                            )
                        if bindings:
                            env = Env(bindings, env)
                        expr = case.result
                        break
                    elif kind == _NOT:
                        if type(value) is not BoolV:
                            return RuntimeFault(
                                FAULT_NOT_APPLICABLE,
                                "'not' requires a boolean operand",
                                frame[1].span,
                            )
                        value = FALSE_V if value.value else TRUE_V
                    elif kind == _FOLD:
                        # value is the accumulator; the next item feeds it
                        # through op, or the fold is done.
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

    @staticmethod
    def _binary(expr: BinaryOp, left: Value, right: Value) -> EvalOutcome:
        """The value of ``expr`` given the values of both operands."""
        op = expr.op
        if op == "and" or op == "or":
            if type(right) is not BoolV:
                return RuntimeFault(
                    FAULT_NOT_APPLICABLE, f"'{op}' requires boolean operands", expr.span
                )
            return right
        if op == "==":
            # The value classes' own equality: structural for data,
            # identity for functions and constructors.
            return TRUE_V if left == right else FALSE_V
        if op == "+" and type(left) is StringV and type(right) is StringV:
            # agrees with the translated programs, where '+' on two
            # strings concatenates
            return StringV(left.value + right.value)
        if type(left) is not IntV or type(right) is not IntV:
            return RuntimeFault(
                FAULT_NOT_APPLICABLE, f"'{op}' requires integer operands", expr.span
            )
        a, b = left.value, right.value
        if op == "+":
            return IntV(a + b)
        if op == "-":
            return IntV(a - b)
        if op == "*":
            return IntV(a * b)
        if op == "/":
            if b == 0:
                return RuntimeFault(FAULT_DIVISION_BY_ZERO, "division by zero", expr.span)
            q = a // b
            if q < 0 and q * b != a:
                q += 1  # truncate toward zero
            return IntV(q)
        if op == "<":
            return TRUE_V if a < b else FALSE_V
        if op == "<=":
            return TRUE_V if a <= b else FALSE_V
        if op == ">":
            return TRUE_V if a > b else FALSE_V
        if op == ">=":
            return TRUE_V if a >= b else FALSE_V
        return RuntimeFault(FAULT_NOT_APPLICABLE, f"unknown operator '{op}'", expr.span)

    # ---------- patterns ----------

    def _match_pattern(self, pattern: Pattern, value: Value) -> Optional[dict]:
        """The names ``pattern`` binds when it matches ``value``, else None.
        Sub-patterns are matched from a work list, left to right."""
        bindings: dict = {}
        todo = [(pattern, value)]
        while todo:
            pattern, value = todo.pop()
            t = type(pattern)
            if t is VarBindPattern:
                bindings[pattern.name] = value
            elif t is LiteralPattern:
                pv = pattern.value
                if isinstance(pv, bool):
                    want = BoolV
                elif isinstance(pv, int):
                    want = IntV
                else:
                    want = StringV
                if type(value) is not want or value.value != pv:
                    return None
            elif t is ConstructorPattern:
                if type(value) is not ObjectV:
                    return None
                sig = self.constructors.get(pattern.name)
                if sig is None or sig.class_name != value.class_name:
                    return None
                if len(pattern.sub_patterns) != len(sig.fields):
                    return None
                todo.extend(
                    (sub, value.fields[name])
                    for sub, (name, _) in reversed(tuple(zip(pattern.sub_patterns, sig.fields)))
                )
            elif t is not WildcardPattern:
                return None
        return bindings
