"""Soda abstract syntax: spans, tokens, expression and declaration trees,
diagnostics, the shared traversal, and the one printer of expressions,
types, patterns and declarations, which the pretty-printer and both
backends share.

Every node is an instance of a tree class (see ``tree_class``): immutable
after construction, with dataclass fields. Spans and tokens are named tuples,
built on request: the lexer keeps flat lists of kinds, texts and positions,
and the parser builds a span only for a node or a diagnostic. Source spans
are excluded from equality (``compare=False``), so ``==`` on two trees is
structural equality: same shape, same names, same literals, regardless of
where the nodes came from, at any depth. That is the equality the
parse/print round-trip tests rely on.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from typing import NamedTuple, Optional, Union


#: Recursion budget of ``Interpreter`` and ``soda run`` when none is given.
#: It lives here so that the command line can show it without loading the
#: interpreter.
DEFAULT_MAX_RECURSION = 10_000


# ============================================================
# SOURCE SPANS
# ============================================================


class SourceSpan(NamedTuple):
    """Half-open source region: lines and start column are 1-based,
    ``col_end`` is one past the last character.

    A named tuple, because the parser builds one for most nodes: it compares
    equal to a plain tuple of the same fields.

    Invariants:
    - line_start <= line_end
    - if line_start == line_end then col_start <= col_end
    - zero-width spans (col_start == col_end) mark synthesized tokens
      such as indent/dedent and end-of-input
    """

    file: str
    line_start: int
    col_start: int
    line_end: int
    col_end: int

    def cover(self, other: SourceSpan) -> SourceSpan:
        """Smallest span containing both self and other."""
        # Plain comparisons and tuple.__new__ (which skips the named tuple's
        # Python-level __new__): the parser calls this for most nodes.
        file, line, col, end_line, end_col = self
        _, o_line, o_col, o_end_line, o_end_col = other
        if o_line < line or (o_line == line and o_col < col):
            line, col = o_line, o_col
        if o_end_line > end_line or (o_end_line == end_line and o_end_col > end_col):
            end_line, end_col = o_end_line, o_end_col
        return tuple.__new__(SourceSpan, (file, line, col, end_line, end_col))


def synthetic_span(file: str = "<synthetic>") -> SourceSpan:
    """Placeholder span for trees built in memory rather than parsed."""
    return SourceSpan(file, 1, 1, 1, 1)


# ============================================================
# TOKENS
# ============================================================

RESERVED_WORDS = frozenset(
    {
        "lambda", "if", "then", "else", "match", "case",
        "class", "extends", "end", "abstract", "this",
        "subtype", "supertype", "package", "import", "directive",
        "not", "and", "or", "true", "false",
    }
)

class TokenKind:
    """Token kind names. Plain string constants: kinds travel in data files
    and diagnostics, so they stay readable without an enum layer."""

    IDENTIFIER = "identifier"
    INTEGER_LITERAL = "integer_literal"
    STRING_LITERAL = "string_literal"
    RESERVED_WORD = "reserved_word"
    OPERATOR_SYMBOL = "operator_symbol"
    ANNOTATION = "annotation"
    OPEN_PAREN = "open_paren"
    CLOSE_PAREN = "close_paren"
    OPEN_BRACKET = "open_bracket"
    CLOSE_BRACKET = "close_bracket"
    NEWLINE = "newline"
    INDENT = "indent"
    DEDENT = "dedent"
    RAW_LINE = "raw_line"
    END_OF_INPUT = "end_of_input"


class Token(NamedTuple):
    """Smallest lexical unit; a named tuple, like ``SourceSpan``.

    ``text`` is the verbatim lexeme (for layout tokens it is empty, for
    string literals it includes the quotes). ``raw_line`` tokens carry one
    verbatim line of a directive block, uninterpreted.
    """

    kind: str
    text: str
    span: SourceSpan


# ============================================================
# INTEGER TEXT
# ============================================================

# Soda integers have no size limit, but from Python 3.11 ``int()`` and
# ``str()`` refuse more than 4300 digits by default. The limit is
# process-wide (``sys.set_int_max_str_digits``), so the toolchain leaves it
# alone and converts long values in chunks below it instead.
_CHUNK_DIGITS = 4000
_CHUNK_LIMIT = 10**_CHUNK_DIGITS


def int_from_text(text: str) -> int:
    """``int(text)`` for decimal text of any length: a longer text must be
    an optional sign and a run of decimal digits, between optional blanks.
    Raises ``ValueError`` otherwise."""
    if len(text) <= _CHUNK_DIGITS:
        return int(text)
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not digits.isdecimal():
        raise ValueError(f"invalid literal for int() with base 10: {text[:20]!r}...")
    value = _int_from_digits(digits)
    return -value if body[:1] == "-" else value


def _int_from_digits(digits: str) -> int:
    # Halving the text keeps the recursion as deep as log2(len / 4000).
    if len(digits) <= _CHUNK_DIGITS:
        return int(digits)
    low = len(digits) // 2
    return _int_from_digits(digits[:-low]) * 10**low + _int_from_digits(digits[-low:])


def int_to_text(value: int) -> str:
    """``str(value)`` for an integer of any size."""
    if -_CHUNK_LIMIT < value < _CHUNK_LIMIT:
        return str(value)
    if value < 0:
        return "-" + int_to_text(-value)
    # log10(2) < 0.30103, so ``low`` is at most half the digits.
    low = int(value.bit_length() * 0.30103) // 2
    high, rest = divmod(value, 10**low)
    return int_to_text(high) + int_to_text(rest).zfill(low)


# ============================================================
# TREE CLASSES
#
# Diagnostics, types, patterns, expressions and declarations are declared
# with ``@tree_class``. Their annotated fields are dataclass fields, so
# ``dataclasses.fields``, ``replace`` and ``is_dataclass`` work on every node,
# but no class gets generated methods of its own: ``TreeNode`` supplies
# equality, hashing, ``repr`` and immutability from each class's field lists,
# and ``_compile_initialisers`` builds every ``__init__`` from one source.
# Generating and compiling the methods class by class cost about 1 ms per
# class at import, which every command paid.
# ============================================================


class TreeNode:
    """Base of the tree classes. A node is immutable. Two nodes are equal
    when they are of one class and their compared fields are equal (spans
    are declared ``compare=False``), each leaf in class as well as value,
    and equal nodes hash equal. ``repr`` gives the text a dataclass would."""

    def __eq__(self, other):
        # From a work list, so that trees of any depth compare. Two nodes of
        # one class push the compared fields that differ in identity, two
        # tuples their items; anything else compares its class, then its
        # value with ``==``, so the leaves 1 and true differ.
        if other.__class__ is not self.__class__:
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            names = _COMPARED.get(a.__class__)
            if names is not None and b.__class__ is a.__class__:
                for n in names:
                    x, y = getattr(a, n), getattr(b, n)
                    if x is not y:
                        todo.append((x, y))
            elif isinstance(a, tuple) and isinstance(b, tuple):
                if len(a) != len(b):
                    return False
                todo.extend(zip(a, b))
            elif a.__class__ is not b.__class__ or not a == b:
                return False
        return True

    def __hash__(self):
        # The hash of the tree's preorder from a work list: each node's class,
        # each tuple's length, and each leaf's class and value, which ``==``
        # compares. So equal trees hash equal, at any depth.
        flat, todo = [], [self]
        while todo:
            x = todo.pop()
            names = _COMPARED.get(x.__class__)
            if names is not None:
                flat.append(x.__class__)
                todo += [getattr(x, n) for n in names]
            elif isinstance(x, tuple):
                flat.append(len(x))
                todo += x
            else:
                flat += (x.__class__, x)
        return hash(tuple(flat))

    def __repr__(self):
        # From a work list of nodes and plain tuples still to print and text
        # to emit, so that trees of any depth print.
        parts, todo = [], [self]
        while todo:
            x = todo.pop()
            if type(x) is str:
                parts.append(x)
                continue
            if type(x) is tuple:
                parts.append("(")
                todo.append(",)" if len(x) == 1 else ")")
                items = [("", v) for v in x]
            else:
                parts.append(f"{x.__class__.__qualname__}(")
                todo.append(")")
                items = [(f"{n}=", getattr(x, n)) for n in _COMPARED[x.__class__]]
            for i in range(len(items) - 1, -1, -1):
                label, v = items[i]
                todo.append(v if isinstance(v, TreeNode) or type(v) is tuple else repr(v))
                todo.append(", " + label if i else label)
        return "".join(parts)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


#: Each tree class, in declaration order, with the fields that equality,
#: hashing and ``repr`` use.
_COMPARED: dict[type, tuple[str, ...]] = {}


def tree_class(cls: type) -> type:
    """Declare ``cls``, a subclass of ``TreeNode``, a tree class: register
    its annotated fields as dataclass fields, without generated methods.
    Its ``__init__`` comes from ``_compile_initialisers``. Give the class a
    docstring: ``dataclass`` would otherwise write one from the signature
    the class has before its ``__init__`` exists."""
    dataclass(init=False, repr=False, eq=False)(cls)
    _COMPARED[cls] = tuple(f.name for f in fields(cls) if f.compare)
    return cls


def _compile_initialisers() -> None:
    """Give each tree class the ``__init__`` a dataclass would have, all
    compiled by one ``exec``. Each stores its arguments past the frozen
    ``__setattr__`` with ``object.__setattr__``, as a frozen dataclass
    does. Storing into ``self.__dict__`` is faster, but it makes the
    instance keep a dict object: 64 bytes more per node on CPython 3.11."""
    source, namespace = [], {"object_setattr": object.__setattr__}
    for cls in _COMPARED:
        params, stores = ["self"], []
        for f in fields(cls):
            param = f.name
            if f.default is not MISSING:
                namespace[f"{cls.__name__}_{f.name}"] = f.default
                param += f"={cls.__name__}_{f.name}"
            params.append(param)
            stores.append(f"    object_setattr(self, {f.name!r}, {f.name})\n")
        source.append(f"def {cls.__name__}({', '.join(params)}):\n")
        source.extend(stores)
    exec("".join(source), namespace)
    for cls in _COMPARED:
        init = namespace[cls.__name__]
        init.__name__ = "__init__"
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init


# ============================================================
# DIAGNOSTICS
# ============================================================

#: Registry of every diagnostic this toolchain can emit.
DIAGNOSTIC_CODES = {
    "E-LEX-001": "unterminated string literal",
    "E-LEX-002": "illegal character",
    "E-LEX-003": "tab in indentation",
    "E-LEX-004": "inconsistent dedent",
    "E-PAR-001": "unexpected token",
    "E-PAR-002": "missing end",
    "E-PAR-003": "package not first",
    "E-PAR-004": "class name uses default-constructor suffix",
    "E-PAR-010": "dangling then without else",
    "E-PAR-011": "match with zero cases",
    "E-PAR-012": "pattern is not a constructor, literal, or variable",
    "E-SEM-001": "duplicate definition",
    "E-SEM-010": "self-recursive call in non-tail position",
    "E-SEM-020": "unknown parameter name",
    "E-SEM-021": "repeated parameter name",
    "E-SEM-022": "missing parameter",
    "E-SEM-023": "mixed named and positional arguments",
    "E-LEAN-001": "construct not supported by the Lean backend",
    "W-SEM-001": "identifier not declared in this file",
}


@tree_class
class Diagnostic(TreeNode):
    """Error or warning with a stable code from DIAGNOSTIC_CODES."""

    severity: str  # "error" | "warning"
    code: str
    message: str
    span: SourceSpan

    def render(self) -> str:
        """Conventional compiler format: file:line:col: severity[code]: message."""
        s = self.span
        return f"{s.file}:{s.line_start}:{s.col_start}: {self.severity}[{self.code}]: {self.message}"


def error(code: str, message: str, span: SourceSpan) -> Diagnostic:
    assert code in DIAGNOSTIC_CODES, code
    return Diagnostic("error", code, message, span)


def warning(code: str, message: str, span: SourceSpan) -> Diagnostic:
    assert code in DIAGNOSTIC_CODES, code
    return Diagnostic("warning", code, message, span)


def has_errors(diagnostics) -> bool:
    return any(d.severity == "error" for d in diagnostics)


# ============================================================
# TYPE EXPRESSIONS
# ============================================================


class TypeExpr(TreeNode):
    """Base for type expressions. Types are syntax only: the toolchain does
    structural checks and leaves type checking to the target language."""


@tree_class
class NamedType(TypeExpr):
    """A type named by an identifier, such as ``Int`` or a type parameter."""

    name: str
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class AppliedType(TypeExpr):
    """Type application, e.g. ``Pair [Int] [Bool]``. At least one argument."""

    base: TypeExpr
    args: tuple[TypeExpr, ...]
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class FunctionType(TypeExpr):
    """Arrow type ``A --> B``; right-associative in concrete syntax."""

    domain: TypeExpr
    codomain: TypeExpr
    span: SourceSpan = field(compare=False, repr=False)


# ============================================================
# PATTERNS
# ============================================================


class Pattern(TreeNode):
    """Base for match-case patterns."""


@tree_class
class WildcardPattern(Pattern):
    """The pattern ``_``: matches anything and binds nothing."""

    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class VarBindPattern(Pattern):
    """A name that matches anything and binds it."""

    name: str
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class LiteralPattern(Pattern):
    """Integer, boolean, or string literal pattern."""

    value: Union[int, bool, str]
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class ConstructorPattern(Pattern):
    """Constructor applied to sub-patterns, binding construction variables.

    A name ending in underscore refers to a default constructor.
    """

    name: str
    sub_patterns: tuple[Pattern, ...]
    span: SourceSpan = field(compare=False, repr=False)


# ============================================================
# EXPRESSIONS
# ============================================================


class Expr(TreeNode):
    """Base for expressions. All variants carry a span; every tree is
    immutable and safe to share across threads."""


@tree_class
class IntLiteral(Expr):
    """Arbitrary-precision integer literal."""

    value: int
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class BoolLiteral(Expr):
    """``true`` or ``false``."""

    value: bool
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class StringLiteral(Expr):
    """Decoded string contents (no surrounding quotes)."""

    value: str
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class Identifier(Expr):
    """A name: a parameter, a local, a definition or a constructor."""

    name: str
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class SelfRef(Expr):
    """The ``this`` reference to the innermost enclosing class instance."""

    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class Call(Expr):
    """Application of ``function`` to ``args``, in source order: plain
    expressions, ``NamedArg`` and ``TypeArg``. ``f (a) (n := b) [T]`` is one
    call, and the parser never makes a call whose function is a call."""

    function: Expr
    args: tuple[Expr, ...]
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class NamedArg(Expr):
    """A named argument of a call, ``(name := value)``."""

    name: str
    value: Expr
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class TypeArg(Expr):
    """A type argument of a call, ``[type]``."""

    type: TypeExpr
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class Lambda(Expr):
    """Single-parameter lambda; multi-parameter lambdas are nested."""

    param: str
    param_type: Optional[TypeExpr]
    body: Expr
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class If(Expr):
    """Total conditional: both branches are mandatory."""

    cond: Expr
    then_branch: Expr
    else_branch: Expr
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class MatchCase(Expr):
    """One ``case pattern ==> result`` of a ``match``."""

    pattern: Pattern
    result: Expr
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class Match(Expr):
    """Pattern match with at least one case; first matching case wins."""

    scrutinee: Expr
    cases: tuple[MatchCase, ...]
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class BinaryOp(Expr):
    """Binary operator from the arithmetic/logic/comparison set.
    ``and``/``or`` evaluate lazily left-to-right."""

    op: str
    left: Expr
    right: Expr
    span: SourceSpan = field(compare=False, repr=False)


@tree_class
class UnaryNot(Expr):
    """Logical negation, ``not operand``."""

    operand: Expr
    span: SourceSpan = field(compare=False, repr=False)


# ============================================================
# TRAVERSAL
#
# The one description of the expression tree's shape: each node type's
# sub-expressions in source order, and how to rebuild it from new ones.
# Patterns and types are not children. A type in neither table is a leaf.
# ============================================================

_CHILDREN = {
    Call: lambda e: (e.function, *e.args),
    NamedArg: lambda e: (e.value,),
    Lambda: lambda e: (e.body,),
    If: lambda e: (e.cond, e.then_branch, e.else_branch),
    Match: lambda e: (e.scrutinee, *e.cases),
    MatchCase: lambda e: (e.result,),
    BinaryOp: lambda e: (e.left, e.right),
    UnaryNot: lambda e: (e.operand,),
}

# Constructor arguments for a copy of each node with new children ``k``.
_REBUILD_ARGS = {
    Call: lambda e, k: (k[0], k[1:], e.span),
    NamedArg: lambda e, k: (e.name, k[0], e.span),
    Lambda: lambda e, k: (e.param, e.param_type, k[0], e.span),
    If: lambda e, k: (k[0], k[1], k[2], e.span),
    Match: lambda e, k: (k[0], k[1:], e.span),
    MatchCase: lambda e, k: (e.pattern, k[0], e.span),
    BinaryOp: lambda e, k: (e.op, k[0], k[1], e.span),
    UnaryNot: lambda e, k: (k[0], e.span),
}


def children(e: Expr) -> tuple[Expr, ...]:
    """Direct sub-expressions of ``e`` in source order; () for a leaf."""
    get = _CHILDREN.get(type(e))
    return get(e) if get else ()


def rebuild(e: Expr, kids: tuple[Expr, ...]) -> Expr:
    """Copy of ``e`` (span included) whose children are ``kids``, a tuple in
    the order ``children(e)`` gives. It builds one node and never descends,
    so a bottom-up rewrite that calls it from a loop uses no Python frame
    per tree level."""
    args = _REBUILD_ARGS.get(type(e))
    return type(e)(*args(e, kids)) if args else e


#: Index of the first child in tail position, for the nodes that pass tail
#: position on: both branches of an ``if``, and each ``match`` case result.
_FIRST_TAIL_CHILD = {If: 1, Match: 1, MatchCase: 0}


def pattern_nodes(p: Pattern):
    """Pattern ``p`` and its sub-patterns in preorder, without recursion."""
    stack = [p]
    while stack:
        p = stack.pop()
        yield p
        if type(p) is ConstructorPattern:
            stack.extend(reversed(p.sub_patterns))


def binder_names(e: Lambda | MatchCase) -> tuple[str, ...]:
    """The names ``e`` binds around its one child: a lambda's parameter, or
    a match case's pattern variables in preorder, the order matching binds
    them in, so that of two binders of one name the later wins."""
    if type(e) is Lambda:
        return (e.param,)
    return tuple(p.name for p in pattern_nodes(e.pattern) if type(p) is VarBindPattern)


def scoped_walk(e: Expr, bound: dict):
    """``(node, tail)`` for every node under ``e`` in preorder, without
    recursion. ``tail`` says whether the node is in tail position, counting
    ``e`` as one; no part of a call is.

    ``bound`` is the table of open binders, ``{name: count}``, and the walk
    keeps it up to date: while a node is yielded, ``bound.get(name)`` is
    non-zero exactly when the caller's entries or the lambdas and match
    cases around the node bind ``name``. At the end every count is back to
    where it started."""
    stack = [(e, True)]
    while stack:
        node, tail = item = stack.pop()
        if tail is None:  # the end of the scope of the names in ``node``
            for name in node:
                bound[name] -= 1
            continue
        yield item
        t = type(node)
        get = _CHILDREN.get(t)
        if get is None:
            continue
        if t is Lambda or t is MatchCase:  # open the scope of its one child
            names = binder_names(node)
            for name in names:
                bound[name] = bound.get(name, 0) + 1
            stack.append((names, None))
        kids = get(node)
        if tail and t in _FIRST_TAIL_CHILD:
            first = _FIRST_TAIL_CHILD[t]
            for i in range(len(kids) - 1, -1, -1):
                stack.append((kids[i], i >= first))
        else:
            for kid in reversed(kids):
                stack.append((kid, False))


# ============================================================
# DECLARATIONS
# ============================================================


@tree_class
class Definition(TreeNode):
    """Constant or function definition, or a body-less declaration inside an
    abstract block.

    Invariants:
    - param names pairwise distinct
    - abstract declarations have no body
    - zero params and a body means a constant
    """

    name: str
    params: tuple[tuple[str, TypeExpr], ...]
    result_type: Optional[TypeExpr]
    body: Optional[Expr]
    is_tailrec_annotated: bool = False
    leading_comments: tuple[str, ...] = ()
    span: SourceSpan = field(default=None, compare=False, repr=False)  # type: ignore[assignment]


@tree_class
class TypeParam(TreeNode):
    """Class type parameter: plain ``[A : Type]`` or bounded
    ``[A subtype B]`` / ``[A supertype B]``."""

    name: str
    bound_kind: str = "none"  # "none" | "subtype" | "supertype"
    bound: Optional[TypeExpr] = None
    span: SourceSpan = field(default=None, compare=False, repr=False)  # type: ignore[assignment]


@tree_class
class DirectiveBlock(TreeNode):
    """Verbatim code block considered only when translating to its target.

    raw_lines are stored dedented: the minimum leading whitespace over the
    non-blank lines has been stripped, and leading/trailing blank lines
    dropped. The lines themselves are never interpreted.
    """

    target: str
    raw_lines: tuple[str, ...]
    span: SourceSpan = field(default=None, compare=False, repr=False)  # type: ignore[assignment]


@tree_class
class AbstractBlock(TreeNode):
    """Block of body-less declarations; their order fixes the default
    constructor's parameter order."""

    members: tuple[Definition, ...]
    span: SourceSpan = field(default=None, compare=False, repr=False)  # type: ignore[assignment]


ClassMember = Union[Definition, AbstractBlock, DirectiveBlock]


@tree_class
class ClassDecl(TreeNode):
    """Class declaration: type parameters, extends list, and members kept in
    source order (so directive blocks can be spliced where they appeared).

    Invariants:
    - class name does not end in underscore (that suffix is reserved for
      the synthesized default constructor)
    - abstract members are body-less
    """

    name: str
    type_params: tuple[TypeParam, ...]
    extends_list: tuple[TypeExpr, ...]
    members: tuple[ClassMember, ...]
    leading_comments: tuple[str, ...] = ()
    span: SourceSpan = field(default=None, compare=False, repr=False)  # type: ignore[assignment]

    @property
    def abstract_members(self) -> tuple[Definition, ...]:
        out: list[Definition] = []
        for m in self.members:
            if isinstance(m, AbstractBlock):
                out.extend(m.members)
        return tuple(out)

    @property
    def definitions(self) -> tuple[Definition, ...]:
        return tuple(m for m in self.members if isinstance(m, Definition))


ProgramItem = Union[ClassDecl, DirectiveBlock]


@tree_class
class Program(TreeNode):
    """A source file: optional package, imports, then classes and top-level
    directive blocks in source order. Class names are unique per program."""

    package_name: Optional[str]
    imports: tuple[str, ...]
    items: tuple[ProgramItem, ...]
    span: SourceSpan = field(default=None, compare=False, repr=False)  # type: ignore[assignment]

    @property
    def classes(self) -> tuple[ClassDecl, ...]:
        return tuple(i for i in self.items if isinstance(i, ClassDecl))


# Every tree class is declared above: one declared below would get no __init__.
_compile_initialisers()


# ============================================================
# CANONICAL PRETTY-PRINTER
#
# The canonical form uses 2-space indentation, one blank line between
# declarations, `end` on its own line, and expressions on a single line
# with the minimum parenthesization that survives reparsing.
# ============================================================

# Precedence levels, tightest first. BINARY_PRECEDENCE is the one operator
# table: the parser climbs it and every expression printer reads it.
PREC_ATOM = 9
PREC_APP = 8
PREC_UNARY = 7
PREC_MUL = 6
PREC_ADD = 5
PREC_CMP = 4
PREC_AND = 3
PREC_OR = 2
PREC_LOW = 1  # lambda / if / match bodies extend as far right as possible

BINARY_PRECEDENCE = {
    "*": PREC_MUL,
    "/": PREC_MUL,
    "+": PREC_ADD,
    "-": PREC_ADD,
    "==": PREC_CMP,
    "<": PREC_CMP,
    "<=": PREC_CMP,
    ">": PREC_CMP,
    ">=": PREC_CMP,
    "and": PREC_AND,
    "or": PREC_OR,
}


def escape_string(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


_PRINT_METHODS = {
    IntLiteral: "literal",
    BoolLiteral: "literal",
    StringLiteral: "literal",
    Identifier: "identifier",
    SelfRef: "self_ref",
    Call: "call",
    UnaryNot: "unary_not",
    BinaryOp: "binary_op",
    Lambda: "lambda_",
    If: "if_",
    Match: "match",
    NamedType: "named_type",
    AppliedType: "applied_type",
    FunctionType: "function_type",
    WildcardPattern: "wildcard_pattern",
    VarBindPattern: "var_bind_pattern",
    LiteralPattern: "literal",
    ConstructorPattern: "constructor_pattern",
}


class Rendering(NamedTuple):
    """A printer's output: the text, or None when a backend refuses the
    program; the line (1-based) where each top-level chunk starts, with the
    span of what the chunk came from; and the diagnostics, which say what
    was refused and where."""

    text: Optional[str]
    source_map: dict[int, SourceSpan]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.text is not None


class ExprPrinter:
    """The one printer of expressions, types, patterns and declarations.
    Each expression, type or pattern prints bare on one line together with
    its precedence, and ``expr`` parenthesizes it exactly where the context
    binds tighter. Definitions, directive blocks and classes print as lists
    of lines, and ``program`` joins a whole file. This class writes Soda;
    the Scala and Lean backends subclass it and override what their
    language writes differently."""

    #: Spelling of each binary operator.
    binary_ops = {op: op for op in BINARY_PRECEDENCE}
    not_word = "not"
    arrow = "-->"
    type_renames: dict[str, str] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # Each printer class dispatches on the node type to its own methods.
        cls._bare = {t: getattr(cls, name) for t, name in _PRINT_METHODS.items()}

    def expr(self, e: Union[Expr, TypeExpr, Pattern], context: int = PREC_LOW) -> str:
        try:
            method = self._bare[type(e)]
        except KeyError:
            raise TypeError(f"not a syntax node: {e!r}") from None
        text, prec = method(self, e)
        return f"({text})" if prec < context else text

    def named_type(self, t: NamedType) -> tuple[str, int]:
        return self.type_renames.get(t.name, t.name), PREC_ATOM

    def applied_type(self, t: AppliedType) -> tuple[str, int]:
        return self.expr(t.base, PREC_APP) + self.type_args(t.args), PREC_APP

    def function_type(self, t: FunctionType) -> tuple[str, int]:
        # Arrows associate to the right: only a domain takes parentheses.
        return f"{self.expr(t.domain, PREC_APP)} {self.arrow} {self.expr(t.codomain)}", PREC_LOW

    def type_args(self, args: tuple[TypeExpr, ...]) -> str:
        return "".join(f" [{self.expr(a)}]" for a in args)

    def wildcard_pattern(self, p: WildcardPattern) -> tuple[str, int]:
        return "_", PREC_ATOM

    def var_bind_pattern(self, p: VarBindPattern) -> tuple[str, int]:
        return p.name, PREC_ATOM

    def constructor_pattern(self, p: ConstructorPattern) -> tuple[str, int]:
        if not p.sub_patterns:
            return p.name, PREC_ATOM
        return p.name + "".join(f" ({self.expr(s)})" for s in p.sub_patterns), PREC_APP

    def signature(self, d: Definition) -> str:
        """Parameter groups and result type that follow a definition's name."""
        params = "".join(f" ({name} : {self.expr(t)})" for name, t in d.params)
        return params + (f" : {self.expr(d.result_type)}" if d.result_type is not None else "")

    def literal(self, e: Union[IntLiteral, BoolLiteral, StringLiteral, LiteralPattern]) -> tuple[str, int]:
        v = e.value
        if isinstance(v, bool):
            return ("true" if v else "false"), PREC_ATOM
        if isinstance(v, int):
            # A negative literal prints with a leading minus, which binds
            # like subtraction when reparsed.
            return int_to_text(v), (PREC_ATOM if v >= 0 else PREC_ADD)
        return f'"{escape_string(v)}"', PREC_ATOM

    def identifier(self, e: Identifier) -> tuple[str, int]:
        return e.name, PREC_ATOM

    def self_ref(self, e: SelfRef) -> tuple[str, int]:
        return "this", PREC_ATOM

    def call(self, e: Call) -> tuple[str, int]:
        parts = [self.expr(e.function, PREC_APP)]
        for a in e.args:
            if type(a) is NamedArg:
                parts.append(f"({a.name} := {self.expr(a.value)})")
            elif type(a) is TypeArg:
                parts.append(f"[{self.expr(a.type)}]")
            else:
                parts.append(f"({self.expr(a)})")
        return " ".join(parts), PREC_APP

    def unary_not(self, e: UnaryNot) -> tuple[str, int]:
        # A run of `not` prints in a loop; a negated negation needs no parentheses.
        nots = 0
        while type(e) is UnaryNot:
            e, nots = e.operand, nots + 1
        return f"{self.not_word} " * nots + self.expr(e, PREC_UNARY), PREC_UNARY

    def binary_op(self, e: BinaryOp) -> tuple[str, int]:
        # Operators are left-associative, so the left spine of a chain such
        # as a + b + ... + z is printed in a loop rather than by recursion.
        # A left operand that binds looser than its parent is closed after
        # its text, and its opening parenthesis goes at the very front.
        spine = []
        while type(e) is BinaryOp:
            spine.append(e)
            e = e.left
        prec = BINARY_PRECEDENCE[spine[-1].op]
        parts = [self.expr(e, prec)]
        opens = 0
        for node in reversed(spine):
            outer = BINARY_PRECEDENCE[node.op]
            if prec < outer:
                parts[-1] += ")"
                opens += 1
            parts += (self.binary_ops[node.op], self.expr(node.right, outer + 1))
            prec = outer
        return "(" * opens + " ".join(parts), prec

    def lambda_head(self, e: Lambda) -> str:
        """A lambda's text before its body."""
        param = f"({e.param} : {self.expr(e.param_type)})" if e.param_type else e.param
        return f"lambda {param} -->"

    def lambda_(self, e: Lambda) -> tuple[str, int]:
        # A lambda whose body is a lambda, as each parameter of
        # `lambda a b -->` gives, is printed in a loop rather than by recursion.
        heads = []
        while type(e) is Lambda:
            heads.append(self.lambda_head(e))
            e = e.body
        return f"{' '.join(heads)} {self.expr(e)}", PREC_LOW

    def if_(self, e: If) -> tuple[str, int]:
        # An `else if` chain is printed in a loop rather than by recursion.
        arms = []
        while type(e) is If:
            arms.append(f"if {self.expr(e.cond)} then {self.expr(e.then_branch)} else")
            e = e.else_branch
        return f"{' '.join(arms)} {self.expr(e)}", PREC_LOW

    def match(self, e: Match) -> tuple[str, int]:
        # Scrutinee and case results are followed by `case`: a bare
        # lambda/if/match tail there would swallow the next case arm.
        parts = [f"match {self.expr(e.scrutinee, PREC_OR)}"]
        for c in e.cases:
            parts.append(f"case {self.expr(c.pattern)} ==> {self.expr(c.result, PREC_OR)}")
        return " ".join(parts), PREC_LOW

    # ---------- declarations: lists of lines ----------

    comment = "//"
    writes_tailrec = True
    defines = "="
    #: A backend's directive target, the only blocks it splices; None in Soda.
    target: Optional[str] = None

    def comments(self, node: Union[Definition, ClassDecl], indent: str) -> list[str]:
        return [f"{indent}{self.comment}{c}" for c in node.leading_comments]

    def keyword(self, d: Definition) -> str:
        """What goes before a definition's name."""
        return ""

    def match_block(self, e: Match, indent: str) -> Optional[list[str]]:
        """The lines of a ``match`` that is a definition's whole body, at
        ``indent`` below the definition's head; None, as in Soda, puts the
        body on the head's line."""
        return None

    def definition(self, d: Definition, indent: str) -> list[str]:
        lines = self.comments(d, indent)
        if d.is_tailrec_annotated and self.writes_tailrec:
            lines.append(f"{indent}@tailrec")
        head = f"{indent}{self.keyword(d)}{d.name}{self.signature(d)}"
        if d.body is None:
            return lines + [head]
        block = self.match_block(d.body, indent + "  ") if type(d.body) is Match else None
        if block is None:
            return lines + [f"{head} {self.defines} {self.expr(d.body)}"]
        return lines + [f"{head} {self.defines}", *block]

    def spliced(self, block: DirectiveBlock, indent: str) -> list[str]:
        """The block's raw lines at ``indent``; blank ones stay empty."""
        return [indent + raw if raw else "" for raw in block.raw_lines]

    def directive(self, block: DirectiveBlock, indent: str) -> list[str]:
        if self.target:  # a backend splices the raw lines verbatim, without the header
            return self.spliced(block, indent)
        return [f"{indent}directive {block.target}", *self.spliced(block, indent + "  ")]

    def class_(self, c: ClassDecl) -> list[str]:
        head = f"class {c.name}"
        for tp in c.type_params:
            if tp.bound_kind == "none":
                head += f" [{tp.name} : Type]"
            else:
                head += f" [{tp.name} {tp.bound_kind} {self.expr(tp.bound)}]"
        if c.extends_list:
            head += " extends " + " ".join(map(self.expr, c.extends_list))
        lines = [*self.comments(c, ""), head]
        for member in c.members:
            lines.append("")
            if isinstance(member, AbstractBlock):
                lines.append("  abstract")
                for decl in member.members:
                    lines += self.definition(decl, "    ")
            elif isinstance(member, DirectiveBlock):
                lines += self.directive(member, "  ")
            else:
                lines += self.definition(member, "  ")
        return lines + ["", "end"]

    def import_chunks(self, imports: tuple[str, ...]) -> list[list[str]]:
        """The imports as top-level chunks: one chunk of them all in Soda."""
        return [[f"import {name}" for name in imports]] if imports else []

    def program(self, p: Program) -> Rendering:
        """The text of a whole program, with its source map. One blank line
        separates neighbouring chunks."""
        chunks = [([f"package {p.package_name}"], p.span)] if p.package_name else []
        chunks += [(imports, p.span) for imports in self.import_chunks(p.imports)]
        for item in p.items:
            if isinstance(item, ClassDecl):
                chunks.append((self.class_(item), item.span))
            elif self.target in (None, item.target):
                chunks.append((self.directive(item, ""), item.span))
        lines: list[str] = []
        starts: dict[int, SourceSpan] = {}
        for i, (chunk, span) in enumerate(chunks):
            if i:
                lines.append("")
            starts[len(lines) + 1] = span
            lines += chunk
        return Rendering("\n".join(lines) + "\n" if lines else "", starts, [])


ExprPrinter.__init_subclass__()  # the base class's own dispatch table
_SODA_PRINTER = ExprPrinter()


def format_expr(e: Union[Expr, TypeExpr, Pattern], context: int = PREC_LOW) -> str:
    """Render one expression, type or pattern on a single line,
    parenthesizing exactly where the text would otherwise reparse
    differently."""
    return _SODA_PRINTER.expr(e, context)


def pretty_print(program: Program) -> str:
    """Canonical Soda concrete syntax for a well-formed program.

    parse(pretty_print(p)) is structurally equal to p, and the printer is a
    fixpoint after one pass: pretty_print(parse(pretty_print(p))) equals
    pretty_print(p).
    """
    return _SODA_PRINTER.program(program).text
