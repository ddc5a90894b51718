"""Parser for Soda: token lists to abstract syntax.

Recursive descent that reads the lexer's token kinds and texts by index and
builds a span only for a node or a diagnostic. Expression continuation
across lines follows the offside rule: at a newline the parser counts the
net indentation of the layout tokens after it (``_expr_tick``), and if,
relative to the line that opened the construct, it stays positive, the
newline is consumed and the expression continues; otherwise the expression
ends at that newline and the enclosing declaration consumes the newline plus
the dedents it opened.

Comments are not tokens. One cursor walks the lexer's list of them: a
definition or class takes, as its leading comments, those before its first
token that no declaration took or dropped (``take_comments``).

Error recovery is line- and keyword-based: a failed declaration skips to the
end of its logical line, a failed top-level item skips to the next
``class``/``directive``/``package``/``import``. All diagnostics are
collected; a parse with any error yields no program.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Optional

from .lexer import decode_string_text, tokenize
from .syntax import (
    BINARY_PRECEDENCE,
    PREC_OR,
    AbstractBlock,
    BinaryOp,
    BoolLiteral,
    Call,
    ClassDecl,
    Definition,
    Diagnostic,
    DirectiveBlock,
    Expr,
    FunctionType,
    Identifier,
    If,
    IntLiteral,
    Lambda,
    Match,
    MatchCase,
    NamedArg,
    NamedType,
    Pattern,
    Program,
    SelfRef,
    SourceSpan,
    StringLiteral,
    Token,
    TokenKind,
    TypeArg,
    TypeExpr,
    TypeParam,
    UnaryNot,
    VarBindPattern,
    WildcardPattern,
    ConstructorPattern,
    LiteralPattern,
    AppliedType,
    error,
    has_errors,
    int_from_text,
    synthetic_span,
)

_TOP_KEYWORDS = frozenset({"class", "directive", "package", "import"})
_BINARY_OP_KINDS = (TokenKind.OPERATOR_SYMBOL, TokenKind.RESERVED_WORD)
_LAYOUT_STEP = {TokenKind.INDENT: 1, TokenKind.DEDENT: -1}
# What ends a line, a block or the input: recovery stops before these.
_LINE_END = frozenset({TokenKind.NEWLINE, TokenKind.DEDENT, TokenKind.END_OF_INPUT})
_LITERAL_NODE = {int: IntLiteral, str: StringLiteral, bool: BoolLiteral}
# Each of these texts is only ever lexed as a reserved word or an operator.
_BOUND_KINDS = {"subtype": "subtype", "<:": "subtype", "supertype": "supertype", ">:": "supertype"}


@dataclass
class ParseResult:
    """Outcome of parsing one source text. ``program`` is None exactly when
    an error diagnostic was produced."""

    program: Optional[Program]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.program is not None


def _error_expr(span: SourceSpan) -> Expr:
    # Placeholder node so tree construction can continue after an error;
    # an errored parse never returns its program, so this cannot escape.
    return Identifier("<error>", span)


class Parser:
    def __init__(self, kinds: list[str], texts: list[str], span: Callable[[int], SourceSpan],
                 comments: list[tuple[int, int, str]]):
        """Token ``i`` has kind ``kinds[i]``, text ``texts[i]`` and span
        ``span(i)``; the last token is ``end_of_input``. ``comments`` holds
        ``(line, column, text)`` entries in source order, as the lexer's."""
        self.kinds = kinds
        self.texts = texts
        self.span = span
        self.comments = comments
        self.next_comment = 0  # the comments before it are taken or dropped
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        # Indentation consumed by the declaration currently being parsed,
        # relative to its first line. Newlines continue an expression only
        # while this stays positive after the upcoming layout tokens.
        self.rel_depth = 0
        # Inline mode disables newline continuation entirely (class headers).
        self.layout_enabled = True

    # ---------- token plumbing ----------

    def advance(self) -> int:
        """Step past the current token, if not end of input; return its index."""
        i = self.pos
        if self.kinds[i] != TokenKind.END_OF_INPUT:
            self.pos = i + 1
        return i

    def prev_span(self) -> SourceSpan:
        return self.span(max(self.pos - 1, 0))

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def at_reserved(self, word: str) -> bool:
        return self.texts[self.pos] == word and self.kinds[self.pos] == TokenKind.RESERVED_WORD

    def at_op(self, op: str) -> bool:
        return self.texts[self.pos] == op and self.kinds[self.pos] == TokenKind.OPERATOR_SYMBOL

    def err(self, code: str, message: str, span: Optional[SourceSpan] = None) -> None:
        self.diagnostics.append(error(code, message, span or self.span(self.pos)))

    def expected(self, what: str, code: str = "E-PAR-001") -> None:
        self.err(code, f"expected {what}, found {self._describe()}")

    def expect_op(self, op: str) -> None:
        if self.at_op(op):
            self.pos += 1
        else:
            self.expected(f"'{op}'")

    def expect_kind(self, kind: str, what: str) -> str:
        """Consume a token of ``kind`` and return its text, or "<error>"."""
        if self.at(kind):
            return self.texts[self.advance()]
        self.expected(what)
        return "<error>"

    def literal(self, i: int):
        """The value of token ``i`` if it is an integer, string or boolean
        literal, else None."""
        kind, text = self.kinds[i], self.texts[i]
        if kind == TokenKind.INTEGER_LITERAL:
            return int_from_text(text)
        if kind == TokenKind.STRING_LITERAL:
            return decode_string_text(text)
        if kind == TokenKind.RESERVED_WORD and text in ("true", "false"):
            return text == "true"
        return None

    def _describe(self) -> str:
        kind = self.kinds[self.pos]
        if kind == TokenKind.END_OF_INPUT:
            return "end of input"
        if kind == TokenKind.NEWLINE:
            return "end of line"
        if kind in (TokenKind.INDENT, TokenKind.DEDENT):
            return kind
        return f"'{self.texts[self.pos]}'"

    # ---------- layout ----------

    def _expr_tick(self) -> None:
        """Consume a newline plus its layout tokens when the following line
        still belongs to the current construct. Hot paths call it only at a
        newline, the one token it acts on."""
        kinds = self.kinds
        if kinds[self.pos] == TokenKind.NEWLINE and self.layout_enabled:
            # The net indentation of the layout tokens after the newline.
            after, net = self.pos + 1, 0
            while (step := _LAYOUT_STEP.get(kinds[after])) is not None:
                after, net = after + 1, net + step
            if self.rel_depth + net > 0:
                self.pos = after
                self.rel_depth += net

    def _skip_newline(self) -> None:
        if self.kinds[self.pos] == TokenKind.NEWLINE:
            self.pos += 1

    def _skip_to_line_end(self) -> None:
        while self.kinds[self.pos] not in _LINE_END:
            self.pos += 1

    def _skip_blank_lines(self) -> str:
        """Skip newlines; return the kind of the token this stops at."""
        while (kind := self.kinds[self.pos]) == TokenKind.NEWLINE:
            self.pos += 1
        return kind

    def take_comments(self) -> tuple[str, ...]:
        """Take the comments before the current token that are not taken
        yet, and return their texts after the ``//``. A caller that throws
        the texts away drops those comments."""
        start = self.next_comment
        if start == len(self.comments):  # none left: build no span
            return ()
        _, line, col, _, _ = self.span(self.pos)
        # No comment shares a token's position, so an entry sorts before
        # (line, col) exactly when the comment comes before the token.
        end = self.next_comment = bisect_left(self.comments, (line, col), start)
        return tuple(text[2:] for _, _, text in self.comments[start:end])

    def _end_declaration_line(self) -> None:
        """Consume the newline ending a declaration, dropping the comments
        in it and on its lines, and balance out any indentation its
        continuation lines opened."""
        if self.kinds[self.pos] not in _LINE_END:
            self.err("E-PAR-001", f"unexpected {self._describe()} after declaration")
            self._skip_to_line_end()
        self.take_comments()
        self._skip_newline()
        while self.rel_depth > 0 and self.kinds[self.pos] == TokenKind.DEDENT:
            self.pos += 1
            self.rel_depth -= 1

    def _skip_indented_block(self) -> None:
        if not self.at(TokenKind.INDENT):
            return
        depth = 0
        while not self.at(TokenKind.END_OF_INPUT):
            kind = self.kinds[self.pos]
            if kind == TokenKind.INDENT:
                depth += 1
            elif kind == TokenKind.DEDENT:
                depth -= 1
                if depth == 0:
                    self.advance()
                    return
            self.advance()

    def _resync_declaration(self) -> None:
        """After a failed declaration: drop the rest of its logical line."""
        self.advance()
        self._skip_to_line_end()
        self._skip_newline()
        self._skip_indented_block()

    def _resync_top(self) -> None:
        self.advance()
        while not self.at(TokenKind.END_OF_INPUT):
            if self.at(TokenKind.RESERVED_WORD) and self.texts[self.pos] in _TOP_KEYWORDS:
                return
            self.advance()

    def _skip_offending(self) -> None:
        """Skip the token an error was just reported at, unless it ends a
        line, a block or the input, which the enclosing construct needs."""
        if self.kinds[self.pos] not in _LINE_END:
            self.pos += 1

    # ---------- expressions ----------

    def parse_expression(self) -> Expr:
        if self.kinds[self.pos] == TokenKind.NEWLINE:
            self._expr_tick()
        word = self.texts[self.pos] if self.kinds[self.pos] == TokenKind.RESERVED_WORD else ""
        if word == "lambda":
            return self._parse_lambda()
        if word == "if":
            return self._parse_if()
        if word == "match":
            return self._parse_match()
        return self._parse_binary(PREC_OR)

    def _parse_binary(self, min_prec: int) -> Expr:
        """Precedence climbing over BINARY_PRECEDENCE: an operand, then every
        following operator that binds at least ``min_prec``; each right
        operand takes only operators that bind tighter (left-associative)."""
        left = self._parse_operand()
        while True:
            if self.kinds[self.pos] == TokenKind.NEWLINE:
                self._expr_tick()
            i = self.pos
            prec = BINARY_PRECEDENCE.get(self.texts[i], 0)
            if prec < min_prec or self.kinds[i] not in _BINARY_OP_KINDS:
                return left
            self.pos = i + 1
            right = self._parse_binary(prec + 1)
            left = BinaryOp(self.texts[i], left, right, left.span.cover(right.span))

    def _parse_operand(self) -> Expr:
        """A ``not`` or minus and its operand, or an atom and its call arguments."""
        if self.kinds[self.pos] == TokenKind.NEWLINE:
            self._expr_tick()
        i = self.pos
        kind, text = self.kinds[i], self.texts[i]
        if kind == TokenKind.IDENTIFIER:
            self.pos = i + 1
            expr = Identifier(text, self.span(i))
        elif kind == TokenKind.OPEN_PAREN:
            self.pos = i + 1
            expr = self.parse_expression()
            self.expect_kind(TokenKind.CLOSE_PAREN, "')'")
        elif kind == TokenKind.RESERVED_WORD and text == "not":
            self.pos = i + 1
            operand = self._parse_operand()
            return UnaryNot(operand, self.span(i).cover(operand.span))
        elif kind == TokenKind.OPERATOR_SYMBOL and text == "-":
            self.pos = i + 1
            minus = self.span(i)
            self._expr_tick()
            if self.at(TokenKind.INTEGER_LITERAL):
                lit = self.advance()
                return IntLiteral(-int_from_text(self.texts[lit]), minus.cover(self.span(lit)))
            operand = self._parse_operand()
            # No dedicated negation node: -e is zero minus e.
            return BinaryOp("-", IntLiteral(0, minus), operand, minus.cover(operand.span))
        elif kind == TokenKind.RESERVED_WORD and text == "this":
            self.pos = i + 1
            expr = SelfRef(self.span(i))
        elif (value := self.literal(i)) is not None:
            self.pos = i + 1
            expr = _LITERAL_NODE[type(value)](value, self.span(i))
        else:
            self.expected("an expression")
            self._skip_offending()
            expr = _error_expr(self.span(i))
        args: list[Expr] = []
        while True:
            if self.kinds[self.pos] == TokenKind.NEWLINE:
                self._expr_tick()
            kind = self.kinds[self.pos]
            if kind == TokenKind.OPEN_PAREN:
                i = self.pos = self.pos + 1
                named = (
                    self.kinds[i] == TokenKind.IDENTIFIER
                    and self.kinds[i + 1] == TokenKind.OPERATOR_SYMBOL
                    and self.texts[i + 1] == ":="
                )
                if named:
                    self.pos = i + 2
                arg = self.parse_expression()
                if named:
                    arg = NamedArg(self.texts[i], arg, self.span(i).cover(arg.span))
                self.expect_kind(TokenKind.CLOSE_PAREN, "')'")
            elif kind == TokenKind.OPEN_BRACKET:
                self.pos += 1
                ty = self.parse_type()
                arg = TypeArg(ty, ty.span)
                self.expect_kind(TokenKind.CLOSE_BRACKET, "']'")
            else:
                break
            args.append(arg)
            end = self.pos - 1
        if not args:
            return expr
        if type(expr) is Call:  # (f (a)) (b) is the call f (a) (b)
            args[:0] = expr.args
            expr = expr.function
        return Call(expr, tuple(args), expr.span.cover(self.span(end)))

    def _parse_lambda(self) -> Expr:
        kw = self.span(self.advance())
        params: list[tuple[str, Optional[TypeExpr]]] = []
        while True:
            self._expr_tick()
            if self.at(TokenKind.IDENTIFIER):
                params.append((self.texts[self.advance()], None))
            elif self.at(TokenKind.OPEN_PAREN):
                params.append(self._parse_typed_param())
            else:
                break
        if not params:
            self.err("E-PAR-001", "lambda requires at least one parameter")
            params.append(("<error>", None))
        self.expect_op("-->")
        body = self.parse_expression()
        expr = body
        for name, ty in reversed(params):
            expr = Lambda(name, ty, expr, kw.cover(body.span))
        return expr

    def _parse_typed_param(self) -> tuple[str, TypeExpr]:
        """A ``(name : Type)`` group, from its opening parenthesis."""
        self.advance()
        name = self.expect_kind(TokenKind.IDENTIFIER, "a parameter name")
        self.expect_op(":")
        ty = self.parse_type()
        self.expect_kind(TokenKind.CLOSE_PAREN, "')'")
        return (name, ty)

    def _parse_if(self) -> Expr:
        """An ``if`` and each ``else if`` after it in a loop; the ``If`` nodes
        are built from the last arm outwards."""
        arms = []  # (keyword span, condition, then branch), outermost first
        while True:
            kw = self.span(self.advance())
            cond = self.parse_expression()
            self._expr_tick()
            if self.at_reserved("then"):
                self.advance()
            else:
                self.expected("'then'")
            arms.append((kw, cond, self.parse_expression()))
            self._expr_tick()
            if not self.at_reserved("else"):
                self.err("E-PAR-010", "'if' requires an 'else' branch", kw)
                expr = _error_expr(self.span(self.pos))
                break
            self.advance()
            if self.kinds[self.pos] == TokenKind.NEWLINE:
                self._expr_tick()
            if not self.at_reserved("if"):
                expr = self.parse_expression()
                break
        for kw, cond, then_branch in reversed(arms):
            expr = If(cond, then_branch, expr, kw.cover(expr.span))
        return expr

    def _parse_match(self) -> Expr:
        kw = self.span(self.advance())
        scrutinee = self._parse_binary(PREC_OR)
        cases: list[MatchCase] = []
        while True:
            self._expr_tick()
            if not self.at_reserved("case"):
                break
            case_kw = self.span(self.advance())
            pattern = self.parse_pattern()
            self._expr_tick()
            self.expect_op("==>")
            result = self._parse_binary(PREC_OR)
            cases.append(MatchCase(pattern, result, case_kw.cover(result.span)))
        if not cases:
            self.err("E-PAR-011", "match requires at least one case", kw)
            cases.append(
                MatchCase(WildcardPattern(kw), _error_expr(kw), kw)
            )
        return Match(scrutinee, tuple(cases), kw.cover(cases[-1].span))

    # ---------- patterns ----------

    def parse_pattern(self) -> Pattern:
        self._expr_tick()
        i = self.pos
        kind, text = self.kinds[i], self.texts[i]
        if kind == TokenKind.OPEN_PAREN:
            self.advance()
            inner = self.parse_pattern()
            self.expect_kind(TokenKind.CLOSE_PAREN, "')'")
            return inner
        if kind == TokenKind.OPERATOR_SYMBOL and text == "-":
            self.advance()
            value = -int_from_text(self.texts[self.pos]) if self.at(TokenKind.INTEGER_LITERAL) else 0
            self.expect_kind(TokenKind.INTEGER_LITERAL, "an integer literal")
            return LiteralPattern(value, self.span(i).cover(self.prev_span()))
        value = self.literal(i)
        if value is not None:
            self.pos = i + 1
            return LiteralPattern(value, self.span(i))
        if kind == TokenKind.IDENTIFIER:
            self.advance()
            if text == "_":
                return WildcardPattern(self.span(i))
            subs: list[Pattern] = []
            while True:
                self._expr_tick()
                if not self.at(TokenKind.OPEN_PAREN):
                    break
                self.advance()
                subs.append(self.parse_pattern())
                self.expect_kind(TokenKind.CLOSE_PAREN, "')'")
            if subs:
                return ConstructorPattern(text, tuple(subs), self.span(i).cover(self.prev_span()))
            if text.endswith("_"):
                return ConstructorPattern(text, (), self.span(i))
            return VarBindPattern(text, self.span(i))
        self.expected("a pattern (constructor, literal, variable, or '_')", "E-PAR-012")
        self._skip_offending()
        return WildcardPattern(self.span(i))

    # ---------- types ----------

    def parse_type(self) -> TypeExpr:
        """A name or parenthesized type, its type arguments, then any ``-->``."""
        if self.kinds[self.pos] == TokenKind.NEWLINE:
            self._expr_tick()
        i = self.pos
        if self.kinds[i] == TokenKind.IDENTIFIER:
            self.pos = i + 1
            left = NamedType(self.texts[i], self.span(i))
        elif self.kinds[i] == TokenKind.OPEN_PAREN:
            self.pos = i + 1
            left = self.parse_type()
            self.expect_kind(TokenKind.CLOSE_PAREN, "')'")
        else:
            self.expected("a type")
            # A definition goes on at '=', and this type at '[' or '-->'.
            if not (self.at_op("=") or self.at_op("-->") or self.at(TokenKind.OPEN_BRACKET)):
                self._skip_offending()
            left = NamedType("<error>", self.span(i))
        args: list[TypeExpr] = []
        while True:
            if self.kinds[self.pos] == TokenKind.NEWLINE:
                self._expr_tick()
            if not self.at(TokenKind.OPEN_BRACKET):
                break
            self.pos += 1
            args.append(self.parse_type())
            self.expect_kind(TokenKind.CLOSE_BRACKET, "']'")
        if args:
            left = AppliedType(left, tuple(args), left.span.cover(self.prev_span()))
        if self.at_op("-->"):
            self.pos += 1
            right = self.parse_type()
            return FunctionType(left, right, left.span.cover(right.span))
        return left

    # ---------- declarations ----------

    def parse_definition(self, in_abstract: bool, tailrec: bool = False) -> Definition:
        comments = self.take_comments()
        saved_depth = self.rel_depth
        self.rel_depth = 0
        name_span = self.span(self.pos)
        name = self.texts[self.advance()]
        params: list[tuple[str, TypeExpr]] = []
        while True:
            self._expr_tick()
            if not self.at(TokenKind.OPEN_PAREN):
                break
            params.append(self._parse_typed_param())
        # The loop above and parse_type both end with _expr_tick's check.
        result_type: Optional[TypeExpr] = None
        if self.at_op(":"):
            self.advance()
            result_type = self.parse_type()
        body: Optional[Expr] = None
        if self.at_op("="):
            self.advance()
            if in_abstract:
                self.err(
                    "E-PAR-001",
                    f"abstract member '{name}' cannot have a body",
                    name_span,
                )
            body = self.parse_expression()
        else:
            if not in_abstract:
                self.err(
                    "E-PAR-001",
                    f"definition of '{name}' requires '=' and a body",
                    name_span,
                )
            elif result_type is None:
                self.err(
                    "E-PAR-001",
                    f"abstract member '{name}' requires a declared type",
                    name_span,
                )
        self._end_declaration_line()
        self.rel_depth = saved_depth
        span = name_span.cover(self.prev_span())
        return Definition(
            name=name,
            params=tuple(params),
            result_type=result_type,
            body=body if not in_abstract else None,
            is_tailrec_annotated=tailrec,
            leading_comments=comments,
            span=span,
        )

    def parse_directive(self) -> DirectiveBlock:
        kw = self.span(self.advance())
        target = self.expect_kind(TokenKind.IDENTIFIER, "a directive target")
        self.take_comments()  # those above the directive and on its line: nobody's
        self._skip_newline()
        raws: list[str] = []
        while self.at(TokenKind.RAW_LINE):
            raws.append(self.texts[self.advance()])
        return DirectiveBlock(
            target, _normalize_raw_lines(raws), kw.cover(self.prev_span())
        )

    def _parse_abstract_block(self) -> AbstractBlock:
        # Comments above the block belong to nobody; comments trailing its
        # last member are left for the next declaration.
        self.take_comments()
        kw = self.span(self.advance())
        self._end_declaration_line()
        decls: list[Definition] = []
        if self.at(TokenKind.INDENT):
            self.advance()
            while True:
                kind = self._skip_blank_lines()
                if kind in (TokenKind.DEDENT, TokenKind.END_OF_INPUT):
                    self.advance()  # a no-op at the end of input
                    break
                if kind == TokenKind.IDENTIFIER:
                    decls.append(self.parse_definition(in_abstract=True))
                    continue
                self.expected("an abstract member declaration")
                self._resync_declaration()
        return AbstractBlock(tuple(decls), kw.cover(self.prev_span()))

    def _parse_extends_types(self) -> list[TypeExpr]:
        """From 'extends': the types after it, on its line alone."""
        self.layout_enabled = False
        self.advance()
        out: list[TypeExpr] = []
        while self.at(TokenKind.IDENTIFIER) or self.at(TokenKind.OPEN_PAREN):
            out.append(self.parse_type())
        self.layout_enabled = True
        if not out:
            self.err("E-PAR-001", "expected a type after 'extends'")
        return out

    def _parse_type_param(self) -> TypeParam:
        open_span = self.span(self.advance())
        name = self.expect_kind(TokenKind.IDENTIFIER, "a type parameter name")
        bound_kind = _BOUND_KINDS.get(self.texts[self.pos], "none")
        bound: Optional[TypeExpr] = None
        if self.at_op(":"):
            self.advance()
            if self.at(TokenKind.IDENTIFIER) and self.texts[self.pos] != "Type":
                self.err("E-PAR-001", f"type parameter '{name}' must be declared ': Type'")
            self.expect_kind(TokenKind.IDENTIFIER, "'Type'")
        elif bound_kind != "none":
            self.advance()
            bound = self.parse_type()
        else:
            self.err(
                "E-PAR-001",
                "expected ':', 'subtype', or 'supertype' in type parameter",
            )
        self.expect_kind(TokenKind.CLOSE_BRACKET, "']'")
        return TypeParam(name, bound_kind, bound, open_span.cover(self.prev_span()))

    def parse_class(self) -> ClassDecl:
        comments = self.take_comments()
        kw = self.span(self.advance())
        name = self.expect_kind(TokenKind.IDENTIFIER, "a class name")
        if name.endswith("_"):
            self.err(
                "E-PAR-004",
                f"class name '{name}' must not end in '_': that suffix is reserved"
                " for the default constructor",
                self.prev_span(),
            )
        # Header is strictly one logical line: the indented block after it is
        # the member section, never a continuation of the extends clause.
        self.layout_enabled = False
        type_params: list[TypeParam] = []
        while self.at(TokenKind.OPEN_BRACKET):
            type_params.append(self._parse_type_param())
        self.layout_enabled = True
        extends_list = self._parse_extends_types() if self.at_reserved("extends") else []
        self._end_declaration_line()
        members: list = []
        if self.at(TokenKind.INDENT):
            self.advance()
            self._parse_members(members, extends_list)
        if self.at_reserved("end"):
            self.advance()
            self._skip_newline()
        else:
            self.err("E-PAR-002", f"missing 'end' for class '{name}'", kw)
        return ClassDecl(
            name=name,
            type_params=tuple(type_params),
            extends_list=tuple(extends_list),
            members=tuple(members),
            leading_comments=comments,
            span=kw.cover(self.prev_span()),
        )

    def _parse_members(self, members: list, extends_list: list[TypeExpr]) -> None:
        if self.at_reserved("extends"):
            extends_list.extend(self._parse_extends_types())
            self._end_declaration_line()
        tailrec_span: Optional[SourceSpan] = None
        while True:
            kind = self._skip_blank_lines()
            text = self.texts[self.pos]
            if kind == TokenKind.DEDENT:
                self.advance()
                break
            if kind == TokenKind.END_OF_INPUT or (
                kind == TokenKind.RESERVED_WORD and text == "end"
            ):
                break
            if kind == TokenKind.ANNOTATION:
                if text == "@tailrec":
                    tailrec_span = self.span(self.pos)
                    self.advance()
                    self._skip_newline()
                else:
                    self.err("E-PAR-001", f"unknown annotation '{text}'")
                    self.advance()
                continue
            if kind == TokenKind.RESERVED_WORD and text == "abstract":
                members.append(self._parse_abstract_block())
                continue
            if kind == TokenKind.RESERVED_WORD and text == "directive":
                members.append(self.parse_directive())
                continue
            if kind == TokenKind.IDENTIFIER:
                tailrec = tailrec_span is not None
                members.append(self.parse_definition(in_abstract=False, tailrec=tailrec))
                tailrec_span = None
                continue
            self.expected("a class member")
            self._resync_declaration()
        if tailrec_span is not None:
            self.err("E-PAR-001", "'@tailrec' is not followed by a definition", tailrec_span)

    def _parse_dotted_name(self, what: str) -> str:
        parts = [self.expect_kind(TokenKind.IDENTIFIER, what)]
        while self.at_op("."):
            self.advance()
            parts.append(self.expect_kind(TokenKind.IDENTIFIER, what))
        self._skip_newline()
        return ".".join(parts)

    def parse_program(self) -> Program:
        first_span = self.span(self.pos)
        package_name: Optional[str] = None
        imports: list[str] = []
        items: list = []
        while True:
            kind = self._skip_blank_lines()
            text = self.texts[self.pos]
            if kind == TokenKind.END_OF_INPUT:
                break
            if kind == TokenKind.INDENT:
                self.err("E-PAR-001", "unexpected indentation at top level")
                self._skip_indented_block()
                continue
            if kind == TokenKind.DEDENT:
                self.advance()
                continue
            if kind == TokenKind.RESERVED_WORD and text == "package":
                kw = self.span(self.advance())
                name = self._parse_dotted_name("a package name")
                if package_name is not None or imports or items:
                    self.err("E-PAR-003", "'package' must be the first declaration", kw)
                else:
                    package_name = name
                continue
            if kind == TokenKind.RESERVED_WORD and text == "import":
                self.advance()
                imports.append(self._parse_dotted_name("an import name"))
                continue
            if kind == TokenKind.RESERVED_WORD and text == "class":
                items.append(self.parse_class())
                continue
            if kind == TokenKind.RESERVED_WORD and text == "directive":
                items.append(self.parse_directive())
                continue
            self.expected("'class', 'directive', 'package', or 'import'")
            self._resync_top()
        span = first_span.cover(self.prev_span())
        for line, col, text in self.comments[:1] + self.comments[-1:]:  # so the span holds every comment
            span = span.cover(SourceSpan(span.file, line, col, line, col + len(text)))
        return Program(package_name, tuple(imports), tuple(items), span)


def _normalize_raw_lines(raws: list[str]) -> tuple[str, ...]:
    """Canonical directive body: whitespace-only lines become empty, leading
    and trailing blank lines are dropped, and the common leading-space margin
    of the remaining lines is stripped."""
    texts = [line if line.strip() else "" for line in raws]
    nonblank = [i for i, t in enumerate(texts) if t]
    if not nonblank:
        return ()
    texts = texts[nonblank[0] : nonblank[-1] + 1]
    margin = min(len(t) - len(t.lstrip(" ")) for t in texts if t)
    return tuple(t[margin:] if t else "" for t in texts)


def parse(source: str, file: str = "<input>") -> ParseResult:
    """Parse one Soda source text. The program is withheld whenever any
    error was produced, by the lexer or the parser."""
    lexed = tokenize(source, file)
    parser = Parser(lexed.kinds, lexed.texts, lexed.span, lexed.comments)
    program = parser.parse_program()
    diagnostics = lexed.diagnostics + parser.diagnostics
    if has_errors(diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(program, diagnostics)


def parse_expression(tokens: list[Token], position: int = 0):
    """Parse a single expression from a token list, starting at ``position``.

    Returns ``(expression, next_position)``; the expression is None when the
    tokens do not form one. Each node's span is built from the given spans.
    """
    if not tokens or tokens[-1].kind != TokenKind.END_OF_INPUT:
        tokens = [*tokens, Token(TokenKind.END_OF_INPUT, "", synthetic_span("<tokens>"))]
    spans = [t.span for t in tokens]
    parser = Parser([t.kind for t in tokens], [t.text for t in tokens], spans.__getitem__, [])
    parser.pos = position
    expr = parser.parse_expression()
    if has_errors(parser.diagnostics):
        return None, parser.pos
    return expr, parser.pos
