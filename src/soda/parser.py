"""Parser for Soda: token stream to abstract syntax.

Recursive descent over the lexer's token stream. Expression continuation
across lines follows the offside rule: at a newline the parser looks past
the layout tokens, and if the net indentation relative to the line that
opened the construct stays positive, the newline is consumed and the
expression continues; otherwise the expression ends at that newline and the
enclosing declaration consumes the newline plus the dedents it opened.

Error recovery is line- and keyword-based: a failed declaration skips to the
end of its logical line, a failed top-level item skips to the next
``class``/``directive``/``package``/``import``. All diagnostics are
collected; a parse with any error yields no program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .lexer import decode_string_text, tokenize
from .syntax import (
    BINARY_PRECEDENCE,
    PREC_OR,
    AbstractBlock,
    Apply,
    BinaryOp,
    BoolLiteral,
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
    NamedApply,
    NamedType,
    Pattern,
    Program,
    SelfRef,
    SourceSpan,
    StringLiteral,
    Token,
    TokenKind,
    TypeApply,
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
_LAYOUT_KINDS = (TokenKind.INDENT, TokenKind.DEDENT, TokenKind.COMMENT)
_BINARY_OP_KINDS = (TokenKind.OPERATOR_SYMBOL, TokenKind.RESERVED_WORD)


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
    def __init__(self, tokens: list[Token], file: str = "<input>"):
        if not tokens or tokens[-1].kind != TokenKind.END_OF_INPUT:
            tokens = list(tokens) + [Token(TokenKind.END_OF_INPUT, "", synthetic_span(file))]
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        # Indentation consumed by the declaration currently being parsed,
        # relative to its first line. Newlines continue an expression only
        # while this stays positive after the upcoming layout tokens.
        self.rel_depth = 0
        # Inline mode disables newline continuation entirely (class headers).
        self.layout_enabled = True
        # Comments waiting to be attached to the next declaration.
        self.pending_comments: list[str] = []

    # ---------- token plumbing ----------

    def cur(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != TokenKind.END_OF_INPUT:
            self.pos += 1
        return t

    def prev_span(self) -> SourceSpan:
        return self.tokens[self.pos - 1].span if self.pos > 0 else self.cur().span

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        t = self.cur()
        return t.kind == kind and (text is None or t.text == text)

    def at_reserved(self, word: str) -> bool:
        return self.at(TokenKind.RESERVED_WORD, word)

    def at_op(self, op: str) -> bool:
        return self.at(TokenKind.OPERATOR_SYMBOL, op)

    def err(self, code: str, message: str, span: Optional[SourceSpan] = None) -> None:
        self.diagnostics.append(error(code, message, span or self.cur().span))

    def expect_op(self, op: str) -> Optional[Token]:
        if self.at_op(op):
            return self.advance()
        self.err("E-PAR-001", f"expected '{op}', found {self._describe(self.cur())}")
        return None

    def expect_kind(self, kind: str, what: str) -> Optional[Token]:
        if self.at(kind):
            return self.advance()
        self.err("E-PAR-001", f"expected {what}, found {self._describe(self.cur())}")
        return None

    @staticmethod
    def _describe(t: Token) -> str:
        if t.kind == TokenKind.END_OF_INPUT:
            return "end of input"
        if t.kind == TokenKind.NEWLINE:
            return "end of line"
        if t.kind in (TokenKind.INDENT, TokenKind.DEDENT):
            return t.kind
        return f"'{t.text}'"

    # ---------- layout ----------

    def _expr_tick(self) -> None:
        """Skip comments, and consume a newline plus its layout tokens when
        the following line still belongs to the current construct."""
        while True:
            t = self.cur()
            if t.kind == TokenKind.COMMENT:
                self.pos += 1
                continue
            if t.kind == TokenKind.NEWLINE and self.layout_enabled:
                j = self.pos + 1
                net = self.rel_depth
                while self.tokens[j].kind in _LAYOUT_KINDS:
                    if self.tokens[j].kind == TokenKind.INDENT:
                        net += 1
                    elif self.tokens[j].kind == TokenKind.DEDENT:
                        net -= 1
                    j += 1
                if net <= 0:
                    return
                self.pos += 1
                while self.tokens[self.pos].kind in _LAYOUT_KINDS:
                    k = self.tokens[self.pos].kind
                    if k == TokenKind.INDENT:
                        self.rel_depth += 1
                    elif k == TokenKind.DEDENT:
                        self.rel_depth -= 1
                    self.pos += 1
                continue
            return

    def _end_declaration_line(self) -> None:
        """Consume the newline ending a declaration and balance out any
        indentation its continuation lines opened."""
        if not self.at(TokenKind.NEWLINE) and not self.cur().kind in (
            TokenKind.DEDENT,
            TokenKind.END_OF_INPUT,
            TokenKind.COMMENT,
        ):
            self.err(
                "E-PAR-001",
                f"unexpected {self._describe(self.cur())} after declaration",
            )
            while self.cur().kind not in (
                TokenKind.NEWLINE,
                TokenKind.DEDENT,
                TokenKind.END_OF_INPUT,
            ):
                self.advance()
        if self.at(TokenKind.NEWLINE):
            self.advance()
        while self.rel_depth > 0:
            k = self.cur().kind
            if k == TokenKind.DEDENT:
                self.advance()
                self.rel_depth -= 1
            elif k == TokenKind.COMMENT:
                self.pending_comments.append(self.cur().text[2:])
                self.advance()
            else:
                break

    def _skip_indented_block(self) -> None:
        if not self.at(TokenKind.INDENT):
            return
        depth = 0
        while not self.at(TokenKind.END_OF_INPUT):
            k = self.cur().kind
            if k == TokenKind.INDENT:
                depth += 1
            elif k == TokenKind.DEDENT:
                depth -= 1
                if depth == 0:
                    self.advance()
                    return
            self.advance()

    def _resync_declaration(self) -> None:
        """After a failed declaration: drop the rest of its logical line."""
        self.advance()
        while self.cur().kind not in (
            TokenKind.NEWLINE,
            TokenKind.DEDENT,
            TokenKind.END_OF_INPUT,
        ):
            self.advance()
        if self.at(TokenKind.NEWLINE):
            self.advance()
        self._skip_indented_block()

    def _resync_top(self) -> None:
        self.advance()
        while not self.at(TokenKind.END_OF_INPUT):
            t = self.cur()
            if t.kind == TokenKind.RESERVED_WORD and t.text in _TOP_KEYWORDS:
                return
            self.advance()

    def _skip_offending(self) -> None:
        """Skip the token an error was just reported at, unless it ends a
        line, a block or the input, which the enclosing construct needs."""
        if self.cur().kind not in (TokenKind.NEWLINE, TokenKind.DEDENT, TokenKind.END_OF_INPUT):
            self.advance()

    def take_pending_comments(self) -> tuple[str, ...]:
        out = tuple(self.pending_comments)
        self.pending_comments = []
        return out

    # ---------- expressions ----------

    def parse_expression(self) -> Expr:
        self._expr_tick()
        if self.at_reserved("lambda"):
            return self._parse_lambda()
        if self.at_reserved("if"):
            return self._parse_if()
        if self.at_reserved("match"):
            return self._parse_match()
        return self._parse_binary(PREC_OR)

    def _parse_binary(self, min_prec: int) -> Expr:
        """Precedence climbing over BINARY_PRECEDENCE: an operand, then every
        following operator that binds at least ``min_prec``; each right
        operand takes only operators that bind tighter (left-associative)."""
        left = self._parse_unary()
        while True:
            self._expr_tick()
            t = self.cur()
            prec = BINARY_PRECEDENCE.get(t.text, 0)
            if prec < min_prec or t.kind not in _BINARY_OP_KINDS:
                return left
            self.advance()
            right = self._parse_binary(prec + 1)
            left = BinaryOp(t.text, left, right, left.span.cover(right.span))

    def _parse_unary(self) -> Expr:
        self._expr_tick()
        if self.at_reserved("not"):
            kw = self.advance()
            operand = self._parse_unary()
            return UnaryNot(operand, kw.span.cover(operand.span))
        if self.at_op("-"):
            minus = self.advance()
            self._expr_tick()
            if self.at(TokenKind.INTEGER_LITERAL):
                lit = self.advance()
                return IntLiteral(-int_from_text(lit.text), minus.span.cover(lit.span))
            operand = self._parse_unary()
            # No dedicated negation node: -e is zero minus e.
            return BinaryOp("-", IntLiteral(0, minus.span), operand, minus.span.cover(operand.span))
        return self._parse_app()

    def _parse_app(self) -> Expr:
        expr = self._parse_primary()
        while True:
            self._expr_tick()
            if self.at(TokenKind.OPEN_PAREN):
                self.advance()
                if (
                    self.at(TokenKind.IDENTIFIER)
                    and self.peek().kind == TokenKind.OPERATOR_SYMBOL
                    and self.peek().text == ":="
                ):
                    name_tok = self.advance()
                    self.advance()
                    arg = self.parse_expression()
                    self.expect_kind(TokenKind.CLOSE_PAREN, "')'")
                    expr = NamedApply(expr, name_tok.text, arg, expr.span.cover(self.prev_span()))
                else:
                    arg = self.parse_expression()
                    self.expect_kind(TokenKind.CLOSE_PAREN, "')'")
                    expr = Apply(expr, arg, expr.span.cover(self.prev_span()))
            elif self.at(TokenKind.OPEN_BRACKET):
                self.advance()
                ty = self.parse_type()
                self.expect_kind(TokenKind.CLOSE_BRACKET, "']'")
                expr = TypeApply(expr, ty, expr.span.cover(self.prev_span()))
            else:
                return expr

    def _parse_primary(self) -> Expr:
        self._expr_tick()
        t = self.cur()
        if t.kind == TokenKind.INTEGER_LITERAL:
            self.advance()
            return IntLiteral(int_from_text(t.text), t.span)
        if t.kind == TokenKind.STRING_LITERAL:
            self.advance()
            return StringLiteral(decode_string_text(t.text), t.span)
        if t.kind == TokenKind.RESERVED_WORD and t.text in ("true", "false"):
            self.advance()
            return BoolLiteral(t.text == "true", t.span)
        if t.kind == TokenKind.RESERVED_WORD and t.text == "this":
            self.advance()
            return SelfRef(t.span)
        if t.kind == TokenKind.IDENTIFIER:
            self.advance()
            return Identifier(t.text, t.span)
        if t.kind == TokenKind.OPEN_PAREN:
            self.advance()
            inner = self.parse_expression()
            self.expect_kind(TokenKind.CLOSE_PAREN, "')'")
            return inner
        self.err("E-PAR-001", f"expected an expression, found {self._describe(t)}")
        self._skip_offending()
        return _error_expr(t.span)

    def _parse_lambda(self) -> Expr:
        kw = self.advance()
        params: list[tuple[str, Optional[TypeExpr]]] = []
        while True:
            self._expr_tick()
            if self.at(TokenKind.IDENTIFIER):
                params.append((self.advance().text, None))
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
            expr = Lambda(name, ty, expr, kw.span.cover(body.span))
        return expr

    def _parse_typed_param(self) -> tuple[str, TypeExpr]:
        """A ``(name : Type)`` group, from its opening parenthesis."""
        self.advance()
        name_tok = self.expect_kind(TokenKind.IDENTIFIER, "a parameter name")
        self.expect_op(":")
        ty = self.parse_type()
        self.expect_kind(TokenKind.CLOSE_PAREN, "')'")
        return (name_tok.text if name_tok else "<error>", ty)

    def _parse_if(self) -> Expr:
        kw = self.advance()
        cond = self.parse_expression()
        self._expr_tick()
        if self.at_reserved("then"):
            self.advance()
        else:
            self.err("E-PAR-001", f"expected 'then', found {self._describe(self.cur())}")
        then_branch = self.parse_expression()
        self._expr_tick()
        if self.at_reserved("else"):
            self.advance()
            else_branch = self.parse_expression()
        else:
            self.err(
                "E-PAR-010",
                "'if' requires an 'else' branch",
                kw.span,
            )
            else_branch = _error_expr(self.cur().span)
        return If(cond, then_branch, else_branch, kw.span.cover(else_branch.span))

    def _parse_match(self) -> Expr:
        kw = self.advance()
        scrutinee = self._parse_binary(PREC_OR)
        cases: list[MatchCase] = []
        while True:
            self._expr_tick()
            if not self.at_reserved("case"):
                break
            case_kw = self.advance()
            pattern = self.parse_pattern()
            self.expect_op("==>")
            result = self._parse_binary(PREC_OR)
            cases.append(MatchCase(pattern, result, case_kw.span.cover(result.span)))
        if not cases:
            self.err("E-PAR-011", "match requires at least one case", kw.span)
            cases.append(
                MatchCase(WildcardPattern(kw.span), _error_expr(kw.span), kw.span)
            )
        return Match(scrutinee, tuple(cases), kw.span.cover(cases[-1].span))

    # ---------- patterns ----------

    def parse_pattern(self) -> Pattern:
        self._expr_tick()
        t = self.cur()
        if t.kind == TokenKind.OPEN_PAREN:
            self.advance()
            inner = self.parse_pattern()
            self.expect_kind(TokenKind.CLOSE_PAREN, "')'")
            return inner
        if t.kind == TokenKind.OPERATOR_SYMBOL and t.text == "-":
            self.advance()
            lit = self.expect_kind(TokenKind.INTEGER_LITERAL, "an integer literal")
            value = -int_from_text(lit.text) if lit else 0
            return LiteralPattern(value, t.span.cover(self.prev_span()))
        if t.kind == TokenKind.INTEGER_LITERAL:
            self.advance()
            return LiteralPattern(int_from_text(t.text), t.span)
        if t.kind == TokenKind.STRING_LITERAL:
            self.advance()
            return LiteralPattern(decode_string_text(t.text), t.span)
        if t.kind == TokenKind.RESERVED_WORD and t.text in ("true", "false"):
            self.advance()
            return LiteralPattern(t.text == "true", t.span)
        if t.kind == TokenKind.IDENTIFIER:
            name_tok = self.advance()
            if name_tok.text == "_":
                return WildcardPattern(name_tok.span)
            subs: list[Pattern] = []
            while True:
                self._expr_tick()
                if not self.at(TokenKind.OPEN_PAREN):
                    break
                self.advance()
                subs.append(self.parse_pattern())
                self.expect_kind(TokenKind.CLOSE_PAREN, "')'")
            if subs:
                return ConstructorPattern(
                    name_tok.text, tuple(subs), name_tok.span.cover(self.prev_span())
                )
            if name_tok.text.endswith("_"):
                return ConstructorPattern(name_tok.text, (), name_tok.span)
            return VarBindPattern(name_tok.text, name_tok.span)
        self.err(
            "E-PAR-012",
            f"expected a pattern (constructor, literal, variable, or '_'), found {self._describe(t)}",
        )
        self._skip_offending()
        return WildcardPattern(t.span)

    # ---------- types ----------

    def parse_type(self) -> TypeExpr:
        left = self._parse_type_applied()
        self._expr_tick()
        if self.at_op("-->"):
            self.advance()
            right = self.parse_type()
            return FunctionType(left, right, left.span.cover(right.span))
        return left

    def _parse_type_applied(self) -> TypeExpr:
        base = self._parse_type_atom()
        args: list[TypeExpr] = []
        while True:
            self._expr_tick()
            if not self.at(TokenKind.OPEN_BRACKET):
                break
            self.advance()
            args.append(self.parse_type())
            self.expect_kind(TokenKind.CLOSE_BRACKET, "']'")
        if args:
            return AppliedType(base, tuple(args), base.span.cover(self.prev_span()))
        return base

    def _parse_type_atom(self) -> TypeExpr:
        self._expr_tick()
        t = self.cur()
        if t.kind == TokenKind.IDENTIFIER:
            self.advance()
            return NamedType(t.text, t.span)
        if t.kind == TokenKind.OPEN_PAREN:
            self.advance()
            inner = self.parse_type()
            self.expect_kind(TokenKind.CLOSE_PAREN, "')'")
            return inner
        self.err("E-PAR-001", f"expected a type, found {self._describe(t)}")
        self._skip_offending()
        return NamedType("<error>", t.span)

    # ---------- declarations ----------

    def parse_definition(
        self,
        in_abstract: bool,
        tailrec: bool = False,
        comments: tuple[str, ...] = (),
    ) -> Definition:
        saved_depth = self.rel_depth
        self.rel_depth = 0
        name_tok = self.advance()
        params: list[tuple[str, TypeExpr]] = []
        while True:
            self._expr_tick()
            if not self.at(TokenKind.OPEN_PAREN):
                break
            params.append(self._parse_typed_param())
        result_type: Optional[TypeExpr] = None
        self._expr_tick()
        if self.at_op(":"):
            self.advance()
            result_type = self.parse_type()
        body: Optional[Expr] = None
        self._expr_tick()
        if self.at_op("="):
            self.advance()
            if in_abstract:
                self.err(
                    "E-PAR-001",
                    f"abstract member '{name_tok.text}' cannot have a body",
                    name_tok.span,
                )
            body = self.parse_expression()
        else:
            if not in_abstract:
                self.err(
                    "E-PAR-001",
                    f"definition of '{name_tok.text}' requires '=' and a body",
                    name_tok.span,
                )
            elif result_type is None:
                self.err(
                    "E-PAR-001",
                    f"abstract member '{name_tok.text}' requires a declared type",
                    name_tok.span,
                )
        self._end_declaration_line()
        self.rel_depth = saved_depth
        span = name_tok.span.cover(self.prev_span())
        return Definition(
            name=name_tok.text,
            params=tuple(params),
            result_type=result_type,
            body=body if not in_abstract else None,
            is_tailrec_annotated=tailrec,
            leading_comments=comments,
            span=span,
        )

    def parse_directive(self) -> DirectiveBlock:
        kw = self.advance()
        target_tok = self.expect_kind(TokenKind.IDENTIFIER, "a directive target")
        target = target_tok.text if target_tok else "<error>"
        if self.at(TokenKind.NEWLINE):
            self.advance()
        raws: list[str] = []
        while self.at(TokenKind.RAW_LINE):
            raws.append(self.advance().text)
        return DirectiveBlock(
            target, _normalize_raw_lines(raws), kw.span.cover(self.prev_span())
        )

    def _parse_abstract_block(self) -> AbstractBlock:
        kw = self.advance()
        self._end_declaration_line()
        while self.at(TokenKind.COMMENT):
            self.pending_comments.append(self.cur().text[2:])
            self.advance()
        decls: list[Definition] = []
        if self.at(TokenKind.INDENT):
            self.advance()
            while True:
                t = self.cur()
                if t.kind == TokenKind.COMMENT:
                    self.pending_comments.append(t.text[2:])
                    self.advance()
                    continue
                if t.kind == TokenKind.NEWLINE:
                    self.advance()
                    continue
                if t.kind in (TokenKind.DEDENT, TokenKind.END_OF_INPUT):
                    if t.kind == TokenKind.DEDENT:
                        self.advance()
                    break
                if t.kind == TokenKind.IDENTIFIER:
                    decls.append(
                        self.parse_definition(
                            in_abstract=True, comments=self.take_pending_comments()
                        )
                    )
                    continue
                self.err(
                    "E-PAR-001",
                    f"expected an abstract member declaration, found {self._describe(t)}",
                )
                self._resync_declaration()
        return AbstractBlock(tuple(decls), kw.span.cover(self.prev_span()))

    def _parse_extends_types(self) -> list[TypeExpr]:
        out: list[TypeExpr] = []
        while self.at(TokenKind.IDENTIFIER) or self.at(TokenKind.OPEN_PAREN):
            out.append(self.parse_type())
        if not out:
            self.err("E-PAR-001", "expected a type after 'extends'")
        return out

    def _parse_type_param(self) -> TypeParam:
        open_tok = self.advance()
        name_tok = self.expect_kind(TokenKind.IDENTIFIER, "a type parameter name")
        name = name_tok.text if name_tok else "<error>"
        bound_kind = "none"
        bound: Optional[TypeExpr] = None
        if self.at_op(":"):
            self.advance()
            kind_tok = self.expect_kind(TokenKind.IDENTIFIER, "'Type'")
            if kind_tok and kind_tok.text != "Type":
                self.err(
                    "E-PAR-001",
                    f"type parameter '{name}' must be declared ': Type'",
                    kind_tok.span,
                )
        elif self.at_reserved("subtype") or self.at_op("<:"):
            self.advance()
            bound_kind = "subtype"
            bound = self.parse_type()
        elif self.at_reserved("supertype") or self.at_op(">:"):
            self.advance()
            bound_kind = "supertype"
            bound = self.parse_type()
        else:
            self.err(
                "E-PAR-001",
                "expected ':', 'subtype', or 'supertype' in type parameter",
            )
        self.expect_kind(TokenKind.CLOSE_BRACKET, "']'")
        return TypeParam(name, bound_kind, bound, open_tok.span.cover(self.prev_span()))

    def parse_class(self) -> ClassDecl:
        comments = self.take_pending_comments()
        kw = self.advance()
        name_tok = self.expect_kind(TokenKind.IDENTIFIER, "a class name")
        name = name_tok.text if name_tok else "<error>"
        if name.endswith("_"):
            self.err(
                "E-PAR-004",
                f"class name '{name}' must not end in '_': that suffix is reserved"
                " for the default constructor",
                name_tok.span if name_tok else kw.span,
            )
        # Header is strictly one logical line: the indented block after it is
        # the member section, never a continuation of the extends clause.
        self.layout_enabled = False
        type_params: list[TypeParam] = []
        while self.at(TokenKind.OPEN_BRACKET):
            type_params.append(self._parse_type_param())
        extends_list: list[TypeExpr] = []
        if self.at_reserved("extends"):
            self.advance()
            extends_list.extend(self._parse_extends_types())
        self.layout_enabled = True
        self._end_declaration_line()
        # Comment lines between the header and the first member carry no
        # layout tokens, so they can precede the INDENT itself.
        while self.at(TokenKind.COMMENT):
            self.pending_comments.append(self.cur().text[2:])
            self.advance()
        members: list = []
        if self.at(TokenKind.INDENT):
            self.advance()
            self._parse_members(members, extends_list)
        if self.at_reserved("end"):
            self.advance()
            if self.at(TokenKind.NEWLINE):
                self.advance()
        else:
            self.err("E-PAR-002", f"missing 'end' for class '{name}'", kw.span)
        return ClassDecl(
            name=name,
            type_params=tuple(type_params),
            extends_list=tuple(extends_list),
            members=tuple(members),
            leading_comments=comments,
            span=kw.span.cover(self.prev_span()),
        )

    def _parse_members(self, members: list, extends_list: list[TypeExpr]) -> None:
        if self.at_reserved("extends"):
            self.layout_enabled = False
            self.advance()
            extends_list.extend(self._parse_extends_types())
            self.layout_enabled = True
            self._end_declaration_line()
        tailrec = False
        tailrec_span: Optional[SourceSpan] = None
        while True:
            t = self.cur()
            if t.kind == TokenKind.COMMENT:
                self.pending_comments.append(t.text[2:])
                self.advance()
                continue
            if t.kind == TokenKind.NEWLINE:
                self.advance()
                continue
            if t.kind == TokenKind.DEDENT:
                self.advance()
                break
            if t.kind == TokenKind.END_OF_INPUT or (
                t.kind == TokenKind.RESERVED_WORD and t.text == "end"
            ):
                break
            if t.kind == TokenKind.ANNOTATION:
                if t.text == "@tailrec":
                    tailrec = True
                    tailrec_span = t.span
                    self.advance()
                    if self.at(TokenKind.NEWLINE):
                        self.advance()
                else:
                    self.err("E-PAR-001", f"unknown annotation '{t.text}'")
                    self.advance()
                continue
            if t.kind == TokenKind.RESERVED_WORD and t.text == "abstract":
                # Comments above the block belong to nobody; comments trailing
                # its last member are pending for the next declaration.
                self.pending_comments = []
                members.append(self._parse_abstract_block())
                continue
            if t.kind == TokenKind.RESERVED_WORD and t.text == "directive":
                self.pending_comments = []
                members.append(self.parse_directive())
                continue
            if t.kind == TokenKind.IDENTIFIER:
                members.append(
                    self.parse_definition(
                        in_abstract=False,
                        tailrec=tailrec,
                        comments=self.take_pending_comments(),
                    )
                )
                tailrec = False
                tailrec_span = None
                continue
            self.err(
                "E-PAR-001",
                f"expected a class member, found {self._describe(t)}",
            )
            self._resync_declaration()
        if tailrec and tailrec_span is not None:
            self.err("E-PAR-001", "'@tailrec' is not followed by a definition", tailrec_span)

    def _parse_dotted_name(self, what: str) -> str:
        first = self.expect_kind(TokenKind.IDENTIFIER, what)
        parts = [first.text if first else "<error>"]
        while self.at_op("."):
            self.advance()
            part = self.expect_kind(TokenKind.IDENTIFIER, what)
            parts.append(part.text if part else "<error>")
        if self.at(TokenKind.NEWLINE):
            self.advance()
        return ".".join(parts)

    def parse_program(self) -> Program:
        first_span = self.cur().span
        package_name: Optional[str] = None
        imports: list[str] = []
        items: list = []
        while True:
            t = self.cur()
            if t.kind == TokenKind.END_OF_INPUT:
                break
            if t.kind == TokenKind.COMMENT:
                self.pending_comments.append(t.text[2:])
                self.advance()
                continue
            if t.kind == TokenKind.NEWLINE:
                self.advance()
                continue
            if t.kind == TokenKind.INDENT:
                self.err("E-PAR-001", "unexpected indentation at top level")
                self._skip_indented_block()
                continue
            if t.kind == TokenKind.DEDENT:
                self.advance()
                continue
            if t.kind == TokenKind.RESERVED_WORD and t.text == "package":
                kw = self.advance()
                name = self._parse_dotted_name("a package name")
                if package_name is not None or imports or items:
                    self.err("E-PAR-003", "'package' must be the first declaration", kw.span)
                else:
                    package_name = name
                continue
            if t.kind == TokenKind.RESERVED_WORD and t.text == "import":
                self.advance()
                imports.append(self._parse_dotted_name("an import name"))
                continue
            if t.kind == TokenKind.RESERVED_WORD and t.text == "class":
                items.append(self.parse_class())
                continue
            if t.kind == TokenKind.RESERVED_WORD and t.text == "directive":
                self.pending_comments = []
                items.append(self.parse_directive())
                continue
            self.err(
                "E-PAR-001",
                f"expected 'class', 'directive', 'package', or 'import',"
                f" found {self._describe(t)}",
            )
            self._resync_top()
        return Program(
            package_name,
            tuple(imports),
            tuple(items),
            first_span.cover(self.prev_span()),
        )


def _normalize_raw_lines(raws: list[str]) -> tuple[str, ...]:
    """Canonical directive body: whitespace-only lines become empty, leading
    and trailing blank lines are dropped, and the common leading-space margin
    of the remaining lines is stripped."""
    texts = [line if line.strip() else "" for line in raws]
    while texts and texts[0] == "":
        texts.pop(0)
    while texts and texts[-1] == "":
        texts.pop()
    nonblank = [t for t in texts if t]
    if not nonblank:
        return ()
    margin = min(len(t) - len(t.lstrip(" ")) for t in nonblank)
    return tuple(t[margin:] if t else "" for t in texts)


def parse(source: str, file: str = "<input>") -> ParseResult:
    """Parse one Soda source text. The program is withheld whenever any
    error was produced, by the lexer or the parser."""
    lexed = tokenize(source, file)
    parser = Parser(lexed.tokens, file)
    program = parser.parse_program()
    diagnostics = lexed.diagnostics + parser.diagnostics
    if has_errors(diagnostics):
        return ParseResult(None, diagnostics)
    return ParseResult(program, diagnostics)


def parse_expression(tokens: list[Token], position: int = 0):
    """Parse a single expression from a token list, starting at ``position``.

    Returns ``(expression, next_position)``; the expression is None when the
    tokens do not form one.
    """
    parser = Parser(list(tokens), "<tokens>")
    parser.pos = position
    expr = parser.parse_expression()
    if has_errors(parser.diagnostics):
        return None, parser.pos
    return expr, parser.pos
