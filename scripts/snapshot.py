"""Behaviour snapshot: one sha256 digest per field for every input of a fixed
corpus, so that a refactor can show it changed nothing.

The corpus is built with fixed seeds:

- ``astgen/<seed>``: the canonical text of ``tests/astgen.py``'s program for
  each seed in 0-399;
- ``golden/<name>``: the hand-written listings in ``tests/goldens``;
- ``hand/<name>``: the hand-written inputs in ``tests/snapshot/inputs``, for
  what the generated inputs do not reach (a parenthesized call given more
  arguments, a comment in each place one may stand);
- ``compile-<seed>/<name>``: the files of ``perfbench/gen.py``'s compile
  corpus for seeds 1-3;
- ``evaluate/spec``: the evaluate workload's specification, run on its
  seed-1 cases as well.

For each input the fields are, in pipeline order:

- ``parse``: the parse tree with spans;
- ``diagnostics``: the parse and analysis diagnostics in order;
- ``analyzed``: the analyzed tree and the constructor signatures;
- ``fmt``, ``scala``, ``lean``: ``pretty_print`` text, Scala text with its
  source map, and Lean text or the Lean backend's diagnostics;
- ``run``: the outcome and ``last_peak_depth`` of ``run_entry`` on every
  definition with the argument lists ``()``, ``(0)`` and ``(0, 1)`` at
  recursion budgets 60 and 10000. (Not ``(1, 2)``: in the compile corpus a
  one-parameter rule may pass its argument as the accumulator of a loop
  such as ``acc + acc * acc`` over 43 steps, whose result has about 2^43
  digits.)

A stage that raises records the exception's type as its field, and the
fields after it are not computed. Translation and evaluation run only on
programs that analyze without errors, as ``soda`` itself does.

Trees are serialised without recursion: expressions through
``syntax.scoped_walk``, everything else from an explicit stack. The same text with
spans left out is a structural equality that works at any depth.

Usage (from the repository root):

    python3 scripts/snapshot.py --check             # recompute every input, report differences
    python3 scripts/snapshot.py --write FIELD...    # regenerate those fields of tests/snapshot/digests.json
    python3 scripts/snapshot.py --coverage          # the lines of src/soda that no input reaches

Both end with a line that counts the differing inputs per field, such as
``differ by field: parse 3, analyzed 3``. ``--write`` writes nothing and
exits 1 when a field it does not name differs. Regenerate only for a change of behaviour made on purpose, and
name in CHANGES.md each field that changed, how many inputs it touched and
why.

``--coverage`` computes the fields of the full corpus in a fresh process
under ``sys.settrace``, from the import of ``soda`` on, and prints for each
module of ``src/soda`` how many of its executable lines some input reaches,
and the ranges of those none reaches. It compares no digest. A module the
corpus never imports (``cli.py``, ``__main__.py``) reaches none.
"""

from __future__ import annotations

import argparse
import dataclasses
import dis
import hashlib
import json
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import gen  # noqa: E402  (perfbench's input generators)
from astgen import random_program  # noqa: E402
from soda import (  # noqa: E402
    Interpreter,
    analyze,
    parse,
    pretty_print,
    render_value,
    translate_to_lean,
    translate_to_scala,
)
from soda.syntax import Expr, SourceSpan, children, scoped_walk  # noqa: E402

DIGESTS = ROOT / "tests" / "snapshot" / "digests.json"
HAND = ROOT / "tests" / "snapshot" / "inputs"
FIELDS = ("parse", "diagnostics", "analyzed", "fmt", "scala", "lean", "run")
ASTGEN_SEEDS = range(400)
COMPILE_SEEDS = (1, 2, 3)
EVALUATE_SEED = 1
ARGUMENT_LISTS = ((), (0,), (0, 1))
BUDGETS = (60, 10_000)
QUICK_BYTES = 4096


# ============================================================
# serialisation
# ============================================================


def _is_child_field(value) -> bool:
    return isinstance(value, Expr) or (
        type(value) is tuple and value and all(isinstance(v, Expr) for v in value)
    )


def serialise(root, spans: bool = True) -> str:
    """Preorder text of any syntax tree, value or container, one line per
    node; each node line gives how many items follow it directly, so the
    text determines the tree. No recursion on the tree's depth: the only
    nested call is for the types and patterns inside an expression node,
    which hold no expressions."""
    lines: list[str] = []
    stack = [root]
    while stack:
        x = stack.pop()
        if isinstance(x, Expr):
            for e, _ in scoped_walk(x, {}):
                rest = [
                    f for f in dataclasses.fields(e)
                    if f.name != "span" and not _is_child_field(getattr(e, f.name))
                ]
                where = f" @{tuple(e.span)}" if spans else ""
                lines.append(f"{type(e).__name__} {len(children(e))}{where}")
                lines.extend(serialise(getattr(e, f.name), spans) for f in rest)
        elif isinstance(x, SourceSpan):
            lines.append(f"span {tuple(x)}" if spans else "span")
        elif dataclasses.is_dataclass(x):
            fs = [getattr(x, f.name) for f in dataclasses.fields(x)]
            lines.append(f"{type(x).__name__} {len(fs)}")
            stack.extend(reversed(fs))
        elif type(x) in (tuple, list):
            lines.append(f"{type(x).__name__} {len(x)}")
            stack.extend(reversed(x))
        elif type(x) is dict:
            lines.append(f"dict {len(x)}")
            stack.extend(reversed([v for kv in x.items() for v in kv]))
        else:
            lines.append(repr(x))
    return "\n".join(lines)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


# ============================================================
# the corpus
# ============================================================


def corpus(full: bool) -> list[tuple[str, str, list]]:
    """``(name, source text, extra run_entry calls)`` for every input: the
    whole corpus, or the quick subset the tier-1 test checks: the goldens,
    the hand-written inputs, the evaluate specification, astgen seeds 0-99
    and the seed-1 compile files under QUICK_BYTES."""
    inputs = [(f"golden/{p.name}", p.read_text(), []) for p in sorted((ROOT / "tests" / "goldens").glob("*.soda"))]
    inputs += [(f"hand/{p.name}", p.read_text(), []) for p in sorted(HAND.glob("*.soda"))]
    calls = [("Spec", rule, tuple(args)) for case in gen.eval_cases(EVALUATE_SEED) for rule, args, _ in case]
    inputs.append(("evaluate/spec", gen.spec_source(), calls))
    seeds = ASTGEN_SEEDS if full else range(100)
    inputs += [(f"astgen/{s}", pretty_print(random_program(s)), []) for s in seeds]
    for seed in COMPILE_SEEDS if full else COMPILE_SEEDS[:1]:
        files = [f for f in gen.compile_corpus(seed) if full or len(f.text) < QUICK_BYTES]
        inputs += [(f"compile-{seed}/{f.name}", f.text, []) for f in files]
    return inputs


# ============================================================
# the fields
# ============================================================


def _runs(analyzed, calls: list) -> str:
    entries = [
        (cls.name, d.name, args)
        for cls in analyzed.program.classes
        for d in cls.definitions
        if d.body is not None
        for args in ARGUMENT_LISTS
    ]
    lines = []
    for budget in BUDGETS:
        it = Interpreter(analyzed, max_recursion=budget)
        for cls, name, args in entries + calls:
            outcome = render_value(it.run_entry(cls, name, args))
            lines.append(f"{budget} {cls}.{name}{args} = {outcome} peak {it.last_peak_depth}")
    return "\n".join(lines)


def _fields(name: str, text: str, calls: list):
    """``(field, text)`` pairs in pipeline order; the generator stops after
    a stage that raises."""
    parsed = parse(text, name)
    yield "parse", serialise(parsed.program)
    diagnostics = [d.render() for d in parsed.diagnostics]
    if parsed.program is None:
        yield "diagnostics", "\n".join(diagnostics)
        return
    analyzed = analyze(parsed.program)
    diagnostics += [d.render() for d in analyzed.diagnostics]
    yield "diagnostics", "\n".join(diagnostics)
    yield "analyzed", serialise((analyzed.program, analyzed.constructors))
    yield "fmt", pretty_print(parsed.program)
    if not analyzed.ok:
        return
    scala = translate_to_scala(analyzed)
    yield "scala", scala.text + serialise(scala.source_map)
    lean = translate_to_lean(analyzed)
    yield "lean", lean.text if lean.ok else "\n".join(d.render() for d in lean.diagnostics)
    yield "run", _runs(analyzed, calls)


def fields_of(name: str, text: str, calls: list) -> dict[str, str]:
    out = {}
    stages = _fields(name, text, calls)
    field = FIELDS[0]
    try:
        for field, value in stages:
            out[field] = digest(value)
        return out
    except Exception as ex:  # recorded, not hidden: the snapshot pins it
        failed = FIELDS[FIELDS.index(field) + 1] if field in out else field
        out[failed] = f"raises {type(ex).__name__}"
        return out


def compute(full: bool) -> dict[str, dict[str, str]]:
    return {name: fields_of(name, text, calls) for name, text, calls in corpus(full)}


def differences(expected: dict, actual: dict) -> list[str]:
    """One line per input whose fields differ, naming those fields."""
    out = []
    for name in sorted(expected.keys() | actual.keys()):
        if name not in actual:
            out.append(f"{name}: not in the corpus any more")
            continue
        if name not in expected:
            out.append(f"{name}: not in the snapshot")
            continue
        a, b = expected[name], actual[name]
        changed = [f for f in FIELDS if a.get(f) != b.get(f)]
        if changed:
            out.append(f"{name}: {', '.join(changed)}")
    return out


def field_counts(expected: dict, actual: dict) -> str:
    """One line with how many inputs differ in each field, in field order,
    naming only the fields that differ somewhere."""
    names = expected.keys() | actual.keys()
    counts = [(f, sum(expected.get(n, {}).get(f) != actual.get(n, {}).get(f) for n in names)) for f in FIELDS]
    return "differ by field: " + (", ".join(f"{f} {c}" for f, c in counts if c) or "none")


def _without(digests: dict, names, inputs) -> dict:
    """The digests of ``inputs`` but for the fields ``names``; an input
    ``digests`` lacks has none."""
    return {n: {f: v for f, v in digests.get(n, {}).items() if f not in names} for n in inputs}


# ============================================================
# coverage
# ============================================================

#: Run with ``python -c``, given the package directory and this script: the
#: lines of the package that the import of this script and the full corpus
#: reach, printed as JSON, {file: [line, ...]}.
_TRACED_RUN = """
import json, runpy, sys

package, script = sys.argv[1:]
reached = {}

def line(frame, event, arg):
    if event == "line":
        reached[frame.f_code.co_filename].add(frame.f_lineno)
    return line

def call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(package):
        return None
    reached.setdefault(name, set())
    return line

sys.settrace(call)
runpy.run_path(script)["compute"](full=True)
sys.settrace(None)
print(json.dumps({name: sorted(lines) for name, lines in reached.items()}))
"""


def executable_lines(path: Path) -> set[int]:
    """The line where each run of bytecode of the module starts, in every
    code object it compiles to: the lines a line tracer can report."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def line_ranges(lines: list[int]) -> str:
    """Sorted line numbers as ``3-5, 9``."""
    runs: list[list[int]] = []
    for n in lines:
        if runs and runs[-1][1] == n - 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def coverage() -> int:
    package = ROOT / "src" / "soda"
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(package), str(Path(__file__).resolve())],
        capture_output=True, text=True,
    )
    if proc.returncode:
        print(proc.stderr, end="", file=sys.stderr)
        return 1
    reached = {Path(name).resolve(): set(lines) for name, lines in json.loads(proc.stdout).items()}
    total = hit = 0
    for path in sorted(package.glob("*.py")):
        lines = executable_lines(path)
        missed = sorted(lines - reached.get(path.resolve(), set()))
        total, hit = total + len(lines), hit + len(lines) - len(missed)
        print(f"{path.name}: {len(lines) - len(missed)} of {len(lines)} lines reached;"
              f" missed: {line_ranges(missed) or 'none'}")
    print(f"all modules: {hit} of {total} lines reached")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="recompute every input and compare")
    mode.add_argument(
        "--write", nargs="+", choices=FIELDS, metavar="FIELD",
        help=f"regenerate these fields of {DIGESTS.relative_to(ROOT)}, if no other field differs",
    )
    mode.add_argument("--coverage", action="store_true", help="print the lines of src/soda no input reaches")
    args = ap.parse_args(argv)
    if args.coverage:
        return coverage()
    actual = compute(full=True)
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    expected, compared = recorded, actual
    if args.write:
        inputs = recorded.keys() | actual.keys()
        expected, compared = _without(recorded, args.write, inputs), _without(actual, args.write, inputs)
    diffs = differences(expected, compared)
    if args.write and not diffs:
        DIGESTS.parent.mkdir(parents=True, exist_ok=True)
        DIGESTS.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        touched = len(differences(recorded, actual))
        print(f"wrote {len(actual)} inputs to {DIGESTS.relative_to(ROOT)}; {touched} changed")
        return 0
    for line in diffs:
        print(line)
    print(f"{len(actual)} inputs, {len(diffs)} differ" + (" in other fields; nothing written" if args.write else ""))
    print(field_counts(expected, compared))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
