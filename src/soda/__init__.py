"""Toolchain for the Soda specification language: lexing, parsing,
structural analysis, translation to Scala and Lean, and a reference
interpreter for the purely functional core."""

#: The module that defines each public name. Names load on first use
#: (PEP 562), so ``import soda`` loads no stage, and a command that never
#: runs the interpreter or a backend never loads it.
_MODULE_OF = {
    "AnalyzedProgram": "analyzer",
    "ConstructorSignature": "analyzer",
    "analyze": "analyzer",
    "check_single_definition": "analyzer",
    "resolve_named_arguments": "analyzer",
    "synthesize_constructors": "analyzer",
    "verify_tailrec": "analyzer",
    "Interpreter": "interpreter",
    "RuntimeFault": "interpreter",
    "render_value": "interpreter",
    "check_lean_supported": "lean_backend",
    "translate_to_lean": "lean_backend",
    "LexResult": "lexer",
    "tokenize": "lexer",
    "ParseResult": "parser",
    "parse": "parser",
    "parse_expression": "parser",
    "translate_to_scala": "scala_backend",
    "DEFAULT_MAX_RECURSION": "syntax",
    "DIAGNOSTIC_CODES": "syntax",
    "Diagnostic": "syntax",
    "Program": "syntax",
    "Rendering": "syntax",
    "SourceSpan": "syntax",
    "Token": "syntax",
    "TokenKind": "syntax",
    "format_expr": "syntax",
    "pretty_print": "syntax",
}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))


__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)
