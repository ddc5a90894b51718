"""Command-line interface.

    soda check  FILE...              parse and analyze, report diagnostics
    soda scala  FILE... [-o OUT]     translate to Scala
    soda lean   FILE... [-o OUT]     translate to Lean
    soda run    FILE CLASS.DEF [ARG...]   evaluate an entry point
    soda fmt    FILE...              print the canonical form

Diagnostics go to stderr as ``file:line:col: severity[code]: message``.
Exit status: 0 on success, 1 when diagnostics or a fault were produced,
2 on usage errors. Output files are written atomically: either the whole
translation lands or the previous content stays.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional

from .parser import parse
from .syntax import (
    DEFAULT_MAX_RECURSION,
    Diagnostic,
    has_errors,
    int_from_text,
    pretty_print,
)

# The analyzer, the backends and the interpreter are imported where a
# command runs them: loading one costs start-up time, which a command that
# does not run it would pay for nothing.
if TYPE_CHECKING:
    from .analyzer import AnalyzedProgram


def _emit(diagnostics: list[Diagnostic]) -> None:
    for d in diagnostics:
        print(d.render(), file=sys.stderr)


def _load(path: str) -> Optional[str]:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as ex:
        print(f"{path}: {ex.strerror or ex}", file=sys.stderr)
    except UnicodeDecodeError as ex:
        print(f"{path}: not valid UTF-8 (byte 0x{ex.object[ex.start]:02x}"
              f" at offset {ex.start})", file=sys.stderr)
    return None


def _write_atomic(path: str, text: str) -> bool:
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".soda-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return True
    except OSError as ex:
        print(f"{path}: {ex.strerror or ex}", file=sys.stderr)
        return False


def _analyze_file(path: str) -> Optional[AnalyzedProgram]:
    """Parse and analyze one file, reporting everything found. None when
    any stage produced errors."""
    from .analyzer import analyze

    source = _load(path)
    if source is None:
        return None
    parsed = parse(source, path)
    _emit(parsed.diagnostics)
    if parsed.program is None:
        return None
    analyzed = analyze(parsed.program)
    _emit(analyzed.diagnostics)
    if not analyzed.ok:
        return None
    return analyzed


# ---------- subcommands ----------


def _cmd_check(args) -> int:
    status = 0
    for path in args.files:
        if _analyze_file(path) is None:
            status = 1
    return status


def _default_output(path: str, extension: str) -> str:
    stem, _ = os.path.splitext(path)
    return stem + extension


def _cmd_translate(args, target: str) -> int:
    if args.output and len(args.files) != 1:
        print("-o requires exactly one input file", file=sys.stderr)
        return 2
    if target == "scala":
        from .scala_backend import translate_to_scala as translate
    else:
        from .lean_backend import translate_to_lean as translate
    status = 0
    for path in args.files:
        analyzed = _analyze_file(path)
        if analyzed is None:
            status = 1
            continue
        rendering = translate(analyzed)
        diagnostics = getattr(rendering, "diagnostics", [])
        _emit(diagnostics)
        if rendering.text is None or has_errors(diagnostics):
            status = 1
            continue
        out_path = args.output or _default_output(path, "." + target)
        if not _write_atomic(out_path, rendering.text):
            status = 1
    return status


def _parse_run_argument(text: str):
    """``true`` and ``false`` are Bools, a Soda integer literal (a run of
    decimal digits, at any length) with an optional ``-`` is an Int, and
    any other text is a String."""
    if text == "true":
        return True
    if text == "false":
        return False
    digits = text[1:] if text[:1] == "-" else text
    # ``isdecimal`` admits exactly the lexer's ``\d``: Unicode category Nd.
    return int_from_text(text) if digits.isdecimal() else text


def _recursion_budget(args) -> Optional[int]:
    """The --max-recursion value, else SODA_MAX_RECURSION, else the
    default; None after reporting a value that is not a positive integer."""
    text = args.max_recursion
    source = "--max-recursion"
    if text is None:
        text = os.environ.get("SODA_MAX_RECURSION", str(DEFAULT_MAX_RECURSION))
        source = "SODA_MAX_RECURSION"
    try:
        budget = int(text)
    except ValueError:
        budget = 0
    if budget <= 0:
        print(f"{source} must be a positive integer, got '{text}'", file=sys.stderr)
        return None
    return budget


def _cmd_run(args) -> int:
    from .interpreter import Interpreter, RuntimeFault, render_value

    max_recursion = _recursion_budget(args)
    if max_recursion is None:
        return 2
    analyzed = _analyze_file(args.file)
    if analyzed is None:
        return 1
    if "." not in args.entry:
        print(
            f"entry '{args.entry}' must be written as Class.definition",
            file=sys.stderr,
        )
        return 2
    class_name, def_name = args.entry.rsplit(".", 1)
    interpreter = Interpreter(analyzed, max_recursion=max_recursion)
    if class_name not in {c.name for c in analyzed.program.classes}:
        print(f"{args.file}: no class named '{class_name}'", file=sys.stderr)
        return 1
    values = [_parse_run_argument(a) for a in args.args]
    outcome = interpreter.run_entry(class_name, def_name, values)
    if isinstance(outcome, RuntimeFault):
        print(outcome.render(), file=sys.stderr)
        return 1
    print(render_value(outcome))
    return 0


def _cmd_fmt(args) -> int:
    status = 0
    for path in args.files:
        source = _load(path)
        if source is None:
            status = 1
            continue
        parsed = parse(source, path)
        _emit(parsed.diagnostics)
        if parsed.program is None:
            status = 1
            continue
        sys.stdout.write(pretty_print(parsed.program))
    return status


# ---------- argument parsing ----------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="soda",
        description="Toolchain for the Soda specification language.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and analyze")
    p_check.add_argument("files", nargs="+", metavar="FILE")
    p_check.set_defaults(fn=_cmd_check)

    for name in ("scala", "lean"):
        p = sub.add_parser(name, help=f"translate to {name.capitalize()}")
        p.add_argument("files", nargs="+", metavar="FILE")
        p.add_argument("-o", "--output", help="output path (single input only)")
        p.set_defaults(fn=lambda a, t=name: _cmd_translate(a, t))

    p_run = sub.add_parser("run", help="evaluate an entry point")
    p_run.add_argument("file", metavar="FILE")
    p_run.add_argument("entry", metavar="CLASS.DEF")
    p_run.add_argument("args", nargs="*", metavar="ARG")
    p_run.add_argument(
        "--max-recursion",
        default=None,
        help=f"recursion budget (default {DEFAULT_MAX_RECURSION},"
        " or SODA_MAX_RECURSION)",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_fmt = sub.add_parser("fmt", help="print the canonical form")
    p_fmt.add_argument("files", nargs="+", metavar="FILE")
    p_fmt.set_defaults(fn=_cmd_fmt)

    return parser


def run_cli(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.fn(args)


def main() -> None:
    sys.exit(run_cli())
