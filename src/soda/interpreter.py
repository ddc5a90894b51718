"""Reference interpreter for the purely functional core of Soda.

Evaluation is strict except for ``and``/``or``, which never evaluate their
right operand when the left one decides the result. There are no exceptions
at the language level: anything that goes wrong (division by zero, a match
with no applicable case, an unbound name, a misapplied value, exhausting the
recursion budget) comes back as a ``RuntimeFault`` value.

The evaluator is a while-loop trampoline: tail positions (the branches of an
``if``, the result of a ``match`` case, and the body of a function applied
in tail position) continue the loop instead of recursing, so annotated tail
loops run in constant evaluation depth. Operand evaluation recurses with
depth + 1; the peak depth is recorded on every entry, which is what the
constant-stack tests measure.

Public entry points run the evaluation inside a dedicated worker thread with
a large stack, so that a program exceeding the recursion budget receives its
``recursion_limit`` fault instead of exhausting the host stack.
"""

from __future__ import annotations

import sys
import threading
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
        return (
            type(other) is ObjectV
            and self.class_name == other.class_name
            and self.fields == other.fields
        )

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


def to_python(v: Value):
    if isinstance(v, (IntV, BoolV, StringV)):
        return v.value
    if isinstance(v, SeqV):
        return [to_python(i) for i in v.items]
    if isinstance(v, ObjectV):
        return {name: to_python(f) for name, f in v.fields.items()}
    return v


def render_value(v: EvalOutcome) -> str:
    if type(v) is IntV:
        return str(v.value)
    if type(v) is BoolV:
        return "true" if v.value else "false"
    if type(v) is StringV:
        return f'"{escape_string(v.value)}"'
    if type(v) is SeqV:
        return "[" + ", ".join(render_value(i) for i in v.items) + "]"
    if type(v) is ObjectV:
        parts = [v.class_name + "_"]
        parts.extend(f"({render_value(f)})" for f in v.fields.values())
        return " ".join(parts)
    if type(v) is ClosureV:
        return "<function>"
    if type(v) is BuiltinV:
        return f"<builtin {v.name}>"
    if type(v) is ConstructorV:
        return f"<constructor {v.signature.constructor_name}>"
    if type(v) is RuntimeFault:
        return v.render()
    return repr(v)


# ============================================================
# interpreter
# ============================================================

_MISSING = object()


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
        self._peak = 0
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
        given, on a worker thread sized for deep recursion."""
        env = self._class_envs[class_name] if class_name else self._global_env
        return self._run_guarded(lambda: self._eval(expr, env, 0))

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

        def go():
            fn = self._eval(Identifier(def_name, synthetic_span()), env, 0)
            for v in values:
                if type(fn) is RuntimeFault:
                    return fn
                fn = self._apply_value(fn, v, 0, synthetic_span())
            return fn

        return self._run_guarded(go)

    # ---------- guarded execution ----------

    def _run_guarded(self, fn) -> EvalOutcome:
        self._peak = 0
        outcome = _call_with_big_stack(fn, self.max_recursion)
        self.last_peak_depth = self._peak
        return outcome

    # ---------- evaluation core ----------

    def _eval(self, expr: Expr, env: Env, depth: int) -> EvalOutcome:
        if depth > self.max_recursion:
            return RuntimeFault(
                FAULT_RECURSION_LIMIT,
                f"recursion limit of {self.max_recursion} exceeded",
                expr.span,
            )
        if depth > self._peak:
            self._peak = depth
        while True:
            t = type(expr)
            if t is Identifier:
                name = expr.name
                e = env
                while e is not None:
                    v = e.vars.get(name, _MISSING)
                    if v is not _MISSING:
                        if type(v) is _Thunk:
                            return self._eval(v.body, v.env, depth + 1)
                        return v
                    e = e.parent
                return RuntimeFault(
                    FAULT_UNKNOWN_IDENTIFIER, f"'{name}' is not bound", expr.span
                )
            if t is IntLiteral:
                return IntV(expr.value)
            if t is BoolLiteral:
                return TRUE_V if expr.value else FALSE_V
            if t is StringLiteral:
                return StringV(expr.value)
            if t is BinaryOp:
                op = expr.op
                if op == "and" or op == "or":
                    left = self._eval(expr.left, env, depth + 1)
                    if type(left) is RuntimeFault:
                        return left
                    if type(left) is not BoolV:
                        return RuntimeFault(
                            FAULT_NOT_APPLICABLE,
                            f"'{op}' requires boolean operands",
                            expr.span,
                        )
                    if op == "and" and not left.value:
                        return FALSE_V
                    if op == "or" and left.value:
                        return TRUE_V
                    right = self._eval(expr.right, env, depth + 1)
                    if type(right) is RuntimeFault:
                        return right
                    if type(right) is not BoolV:
                        return RuntimeFault(
                            FAULT_NOT_APPLICABLE,
                            f"'{op}' requires boolean operands",
                            expr.span,
                        )
                    return right
                left = self._eval(expr.left, env, depth + 1)
                if type(left) is RuntimeFault:
                    return left
                right = self._eval(expr.right, env, depth + 1)
                if type(right) is RuntimeFault:
                    return right
                if op == "==":
                    # The value classes' own equality: structural for data,
                    # identity for functions and constructors.
                    return TRUE_V if left == right else FALSE_V
                if (
                    op == "+"
                    and type(left) is StringV
                    and type(right) is StringV
                ):
                    # agrees with the translated programs, where '+' on two
                    # strings concatenates
                    return StringV(left.value + right.value)
                if type(left) is not IntV or type(right) is not IntV:
                    return RuntimeFault(
                        FAULT_NOT_APPLICABLE,
                        f"'{op}' requires integer operands",
                        expr.span,
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
                        return RuntimeFault(
                            FAULT_DIVISION_BY_ZERO, "division by zero", expr.span
                        )
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
                return RuntimeFault(
                    FAULT_NOT_APPLICABLE, f"unknown operator '{op}'", expr.span
                )
            if t is Apply:
                fn = self._eval(expr.function, env, depth + 1)
                if type(fn) is RuntimeFault:
                    return fn
                arg = self._eval(expr.argument, env, depth + 1)
                if type(arg) is RuntimeFault:
                    return arg
                if type(fn) is ClosureV:
                    env = Env({fn.param: arg}, fn.env)
                    expr = fn.body
                    continue
                return self._apply_data(fn, arg, depth, expr.span)
            if t is If:
                cond = self._eval(expr.cond, env, depth + 1)
                if type(cond) is RuntimeFault:
                    return cond
                if type(cond) is not BoolV:
                    return RuntimeFault(
                        FAULT_NOT_APPLICABLE,
                        "'if' condition is not a boolean",
                        expr.cond.span,
                    )
                expr = expr.then_branch if cond.value else expr.else_branch
                continue
            if t is Match:
                scrutinee = self._eval(expr.scrutinee, env, depth + 1)
                if type(scrutinee) is RuntimeFault:
                    return scrutinee
                for case in expr.cases:
                    bindings = self._match_pattern(case.pattern, scrutinee)
                    if bindings is not None:
                        if bindings:
                            env = Env(bindings, env)
                        expr = case.result
                        break
                else:
                    return RuntimeFault(
                        FAULT_NO_MATCHING_CASE,
                        "no case matched the value "
                        + render_value(scrutinee),
                        expr.span,
                    )
                continue
            if t is Lambda:
                return ClosureV(expr.param, expr.body, env)
            if t is UnaryNot:
                operand = self._eval(expr.operand, env, depth + 1)
                if type(operand) is RuntimeFault:
                    return operand
                if type(operand) is not BoolV:
                    return RuntimeFault(
                        FAULT_NOT_APPLICABLE,
                        "'not' requires a boolean operand",
                        expr.span,
                    )
                return FALSE_V if operand.value else TRUE_V
            if t is TypeApply:
                expr = expr.function  # types are erased at runtime
                continue
            if t is NamedApply:
                return RuntimeFault(
                    FAULT_NOT_APPLICABLE,
                    f"named argument '{expr.param_name}' could not be resolved"
                    " to a declared parameter",
                    expr.span,
                )
            if t is SelfRef:
                e = env
                while e is not None:
                    v = e.vars.get("this", _MISSING)
                    if v is not _MISSING:
                        return v
                    e = e.parent
                return RuntimeFault(
                    FAULT_UNKNOWN_IDENTIFIER, "'this' is not bound here", expr.span
                )
            return RuntimeFault(
                FAULT_NOT_APPLICABLE,
                f"cannot evaluate {type(expr).__name__}",
                getattr(expr, "span", synthetic_span()),
            )

    # ---------- application of non-closure values ----------

    def _apply_value(self, fn: Value, arg: Value, depth: int, span: SourceSpan) -> EvalOutcome:
        if type(fn) is ClosureV:
            return self._eval(fn.body, Env({fn.param: arg}, fn.env), depth + 1)
        return self._apply_data(fn, arg, depth, span)

    def _apply_data(self, fn: Value, arg: Value, depth: int, span: SourceSpan) -> EvalOutcome:
        if type(fn) is ConstructorV:
            collected = fn.collected + (arg,)
            sig = fn.signature
            if len(collected) == len(sig.fields):
                fields = {name: v for (name, _), v in zip(sig.fields, collected)}
                return ObjectV(sig.class_name, fields)
            return ConstructorV(sig, collected)
        if type(fn) is BuiltinV:
            collected = fn.collected + (arg,)
            if fn.name == "range":
                if type(arg) is not IntV:
                    return RuntimeFault(
                        FAULT_NOT_APPLICABLE, "range requires an integer", span
                    )
                return SeqV(tuple(IntV(i) for i in builtin_range(arg.value)))
            if fn.name == "fold":
                if len(collected) < 3:
                    return BuiltinV("fold", collected)
                seq, init, op = collected
                if type(seq) is not SeqV:
                    return RuntimeFault(
                        FAULT_NOT_APPLICABLE, "fold requires a sequence first", span
                    )
                acc: EvalOutcome = init
                for item in seq.items:
                    step = self._apply_value(op, acc, depth, span)
                    if type(step) is RuntimeFault:
                        return step
                    acc = self._apply_value(step, item, depth, span)
                    if type(acc) is RuntimeFault:
                        return acc
                return acc
            return RuntimeFault(
                FAULT_NOT_APPLICABLE, f"unknown builtin '{fn.name}'", span
            )
        return RuntimeFault(
            FAULT_NOT_APPLICABLE,
            f"value {render_value(fn)} cannot be applied to an argument",
            span,
        )

    # ---------- patterns ----------

    def _match_pattern(self, pattern: Pattern, value: Value) -> Optional[dict]:
        t = type(pattern)
        if t is WildcardPattern:
            return {}
        if t is VarBindPattern:
            return {pattern.name: value}
        if t is LiteralPattern:
            pv = pattern.value
            if isinstance(pv, bool):
                return {} if type(value) is BoolV and value.value == pv else None
            if isinstance(pv, int):
                return {} if type(value) is IntV and value.value == pv else None
            return {} if type(value) is StringV and value.value == pv else None
        if t is ConstructorPattern:
            if type(value) is not ObjectV:
                return None
            sig = self.constructors.get(pattern.name)
            if sig is None or sig.class_name != value.class_name:
                return None
            if len(pattern.sub_patterns) != len(sig.fields):
                return None
            bindings: dict = {}
            for sub, (field_name, _) in zip(pattern.sub_patterns, sig.fields):
                sub_bindings = self._match_pattern(sub, value.fields[field_name])
                if sub_bindings is None:
                    return None
                bindings.update(sub_bindings)
            return bindings
        return None


# ============================================================
# big-stack execution
# ============================================================


def _stack_bytes_for(max_recursion: int) -> int:
    # Around 1.5 KB of thread stack per interpreter frame, with headroom;
    # clamped to something every platform accepts.
    need = max_recursion * 8 * 1024
    return max(256 * 1024 * 1024, min(need, 1024 * 1024 * 1024))


#: The recursion limit each guarded run in progress found when it started.
#: The limit is process-wide and runs may overlap on several threads: it
#: stays raised until the last run ends, then goes back to the first value.
_limits_found: list[int] = []
_limits_lock = threading.Lock()


def _call_with_big_stack(fn, max_recursion: int):
    """Run ``fn`` on a thread whose stack comfortably fits the recursion
    budget, so the budget fault is reachable before the host stack ends."""
    box: list = []

    def runner():
        try:
            box.append(("ok", fn()))
        except BaseException as ex:  # surface errors on the calling thread
            box.append(("err", ex))

    with _limits_lock:
        _limits_found.append(sys.getrecursionlimit())
        sys.setrecursionlimit(max(_limits_found[-1], 4 * max_recursion + 20_000))
    try:
        old = threading.stack_size(_stack_bytes_for(max_recursion))
        try:
            worker = threading.Thread(target=runner, name="soda-eval", daemon=True)
            worker.start()
        finally:
            threading.stack_size(old)
        worker.join()
    finally:
        with _limits_lock:
            if len(_limits_found) == 1:
                sys.setrecursionlimit(_limits_found[0])
            _limits_found.pop()
    tag, payload = box[0]
    if tag == "err":
        raise payload
    return payload
