"""Seeded inputs for the soda benchmark.

Everything here is plain Python and imports nothing from ``soda``: the
program under test receives only the generated text. For every file the
generator also records what it planted, so the workloads can check the
program's outputs against facts known before the program ran:

- the fields and definitions of each class, in order, and the number of
  ``@tailrec`` annotations;
- each named-argument call, with its arguments in declared parameter order;
- each planted diagnostic, as (code, line);
- each construct the Lean backend must refuse, as (construct, line).

Generated sources are already in Soda's canonical form (the form
``pretty_print`` produces), so formatting must give each one back byte for
byte. The expression printer below follows the language's precedence table
on its own; it shares no code with the toolchain.
"""

from __future__ import annotations

import math
import random

# Precedence levels of the concrete syntax, loosest first.
LOW, OR, AND, CMP, ADD, MUL, UNARY, APP, ATOM = range(1, 10)
BINARY = {"or": OR, "and": AND, "==": CMP, "<": CMP, "<=": CMP, ">": CMP,
          ">=": CMP, "+": ADD, "-": ADD, "*": MUL, "/": MUL}

# Expressions are tuples:
#   ("int", n) with n >= 0, ("var", name), ("this",)
#   ("bin", op, left, right), ("not", e), ("if", c, t, e), ("lam", p, body)
#   ("call", fn_name, [("pos", e) | ("named", param, e), ...])
#   ("match", scrutinee, [(pattern, result), ...])
# Patterns are ("pcon", name, [sub, ...]), ("pvar", name), ("pint", n),
# ("pwild",).


def _prec(e) -> int:
    tag = e[0]
    if tag in ("int", "var", "this"):
        return ATOM
    if tag == "call":
        return APP
    if tag == "not":
        return UNARY
    if tag == "bin":
        return BINARY[e[1]]
    return LOW


def render(e, context: int = LOW) -> str:
    text = _bare(e)
    return f"({text})" if _prec(e) < context else text


def _bare(e) -> str:
    tag = e[0]
    if tag in ("int", "var"):
        return str(e[1])
    if tag == "this":
        return "this"
    if tag == "bin":
        p = BINARY[e[1]]
        return f"{render(e[2], p)} {e[1]} {render(e[3], p + 1)}"
    if tag == "not":
        return f"not {render(e[1], UNARY)}"
    if tag == "if":
        return f"if {render(e[1])} then {render(e[2])} else {render(e[3])}"
    if tag == "lam":
        return f"lambda {e[1]} --> {render(e[2])}"
    if tag == "call":
        out = e[1]
        for arg in e[2]:
            if arg[0] == "pos":
                out += f" ({render(arg[1])})"
            else:
                out += f" ({arg[1]} := {render(arg[2])})"
        return out
    if tag == "match":
        parts = [f"match {render(e[1], OR)}"]
        for pattern, result in e[2]:
            parts.append(f"case {render_pattern(pattern)} ==> {render(result, OR)}")
        return " ".join(parts)
    raise ValueError(f"unknown expression {e!r}")


def render_pattern(p) -> str:
    if p[0] == "pcon":
        return p[1] + "".join(f" ({render_pattern(s)})" for s in p[2])
    if p[0] == "pvar":
        return p[1]
    if p[0] == "pint":
        return str(p[1])
    return "_"


def call(name, *args):
    return ("call", name, [("pos", a) for a in args])


def var(name):
    return ("var", name)


def num(n):
    return ("int", n)


def binop(op, left, right):
    return ("bin", op, left, right)


# ============================================================
# source files as lists of lines, with what was planted in them
# ============================================================

_STEMS = ["total", "fee", "rate", "limit", "score", "count", "price", "delay",
          "quota", "level", "budget", "offset", "weight", "margin", "tally"]
_PARAM_PAIRS = [("lo", "hi"), ("base", "step"), ("x", "y"), ("amount", "factor"),
                ("left", "right"), ("start", "stop"), ("first", "second")]
_FIELD_PAIRS = [("fst", "snd"), ("width", "height"), ("key", "value"),
                ("head", "tail"), ("credit", "debit")]


class SourceFile:
    """Lines of one generated file plus the facts planted in it."""

    def __init__(self, name: str, kind: str):
        self.name = name
        self.kind = kind  # clean | diagnostics | parse_error | lean_refused
        self.lines: list[str] = []
        self.classes: list[dict] = []  # {"name", "fields", "defs": [name, ...]}
        self.named_calls: list[dict] = []
        self.diagnostics: list[list] = []  # [code, line]
        self.lean_refused: list[list] = []  # [construct, line]
        self.tailrec = 0

    def add(self, line: str = "") -> int:
        self.lines.append(line)
        return len(self.lines)

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def manifest(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "classes": self.classes,
            "named_calls": self.named_calls,
            "diagnostics": self.diagnostics,
            "lean_refused": self.lean_refused,
            "tailrec": self.tailrec,
        }


class _ClassWriter:
    """Emits the members of one class, each followed by a blank line, and
    keeps the names and parameter lists callers may refer to."""

    def __init__(self, out: SourceFile, rng: random.Random, name: str,
                 fields: tuple[str, str] | None, header_suffix: str = ""):
        self.out = out
        self.rng = rng
        self.name = name
        self.fields = fields
        self.functions: list[tuple[str, tuple[str, str]]] = []  # two-Int-param defs
        self.constants: list[str] = []
        self.info = {"name": name, "fields": list(fields or ()), "defs": []}
        out.classes.append(self.info)
        out.add(f"class {name}{header_suffix}")
        out.add()
        if fields:
            out.add("  abstract")
            for f in fields:
                out.add(f"    {f} : Int")
            out.add()

    def _fresh(self, stem: str) -> str:
        return f"{stem}_{len(self.info['defs'])}"

    def define(self, name: str, params, result: str, body, tailrec=False) -> int:
        if tailrec:
            self.out.add("  @tailrec")
            self.out.tailrec += 1
        head = name + "".join(f" ({p} : {t})" for p, t in params)
        line = self.out.add(f"  {head} : {result} = {render(body)}")
        self.out.add()
        self.info["defs"].append(name)
        return line

    def end(self) -> None:
        self.out.add("end")

    # ---------- expressions over names in scope ----------

    # Expressions have fixed shapes; the seed picks operators and leaves.

    def arith(self, names: list[str], depth: int):
        """A full binary tree of arithmetic operators, ``depth`` levels."""
        rng = self.rng
        if depth == 0:
            return var(rng.choice(names)) if rng.random() < 0.6 else num(rng.randint(0, 99))
        op = rng.choice(["+", "-", "*", "+", "-"])
        return binop(op, self.arith(names, depth - 1), self.arith(names, depth - 1))

    def condition(self, names: list[str]):
        rng = self.rng
        cmp = binop(rng.choice(["<", "<=", ">", ">=", "=="]),
                    var(rng.choice(names)), num(rng.randint(0, 50)))
        other = ("not", binop("==", var(rng.choice(names)), num(rng.randint(0, 9))))
        return binop(rng.choice(["and", "or"]), cmp, other)

    # ---------- one definition of a seeded kind ----------

    #: Definition kinds in the proportions every class uses, so that files of
    #: one size cost about the same whatever the seed.
    KINDS = ["arith", "arith", "if", "tailrec", "const", "bool", "fold", "call",
             "named", "named", "build", "match", "match_int"]

    def definitions(self, count: int) -> None:
        kinds = (self.KINDS * (count // len(self.KINDS) + 1))[:count]
        self.rng.shuffle(kinds)
        for kind in kinds:
            self.random_definition(kind)

    def random_definition(self, kind: str | None = None) -> None:
        rng = self.rng
        kind = kind or rng.choice(self.KINDS)
        if kind in ("call", "named") and not self.functions:
            kind = "arith"
        if kind in ("build", "match") and not self.fields:
            kind = "match_int"
        getattr(self, "_def_" + kind)(self._fresh(rng.choice(_STEMS)))

    def _def_arith(self, name):
        p, q = self.rng.choice(_PARAM_PAIRS)
        self.define(name, [(p, "Int"), (q, "Int")], "Int", self.arith([p, q], 3))
        self.functions.append((name, (p, q)))

    def _def_if(self, name):
        p, q = self.rng.choice(_PARAM_PAIRS)
        body = ("if", self.condition([p, q]), self.arith([p, q], 2), self.arith([p, q], 2))
        self.define(name, [(p, "Int"), (q, "Int")], "Int", body)
        self.functions.append((name, (p, q)))

    def _def_tailrec(self, name):
        step = binop("+", var("acc"), self.arith(["n", "acc"], 1))
        body = ("if", binop("<=", var("n"), num(0)), var("acc"),
                call(name, binop("-", var("n"), num(1)), step))
        self.define(name, [("n", "Int"), ("acc", "Int")], "Int", body, tailrec=True)
        self.functions.append((name, ("n", "acc")))

    def _def_const(self, name):
        body = binop("*", num(self.rng.randint(1, 99)), num(self.rng.randint(1, 9)))
        if self.constants:
            body = binop("+", body, var(self.rng.choice(self.constants)))
        self.define(name, [], "Int", body)
        self.constants.append(name)

    def _def_bool(self, name):
        p, q = self.rng.choice(_PARAM_PAIRS)
        self.define(name, [(p, "Int"), (q, "Int")], "Bool", self.condition([p, q]))

    def _def_fold(self, name):
        step = binop("+", var("acc"), binop("*", var("k"), num(self.rng.randint(1, 9))))
        body = call("fold", call("range", var("n")), num(self.rng.randint(0, 9)),
                    ("lam", "acc", ("lam", "k", step)))
        self.define(name, [("n", "Int")], "Int", body)

    def _def_call(self, name):
        callee, _ = self.rng.choice(self.functions)
        body = binop("*", call(callee, var("v"), binop("+", var("v"), num(1))),
                     num(self.rng.randint(2, 9)))
        self.define(name, [("v", "Int")], "Int", body)

    def _def_named(self, name):
        callee, (p, q) = self.rng.choice(self.functions)
        first, second = var("v"), num(self.rng.randint(0, 99))
        if self.rng.random() < 0.5:
            first, second = second, first
        # Written in reverse of the declared order; the analyzer must restore it.
        body = ("call", callee, [("named", q, second), ("named", p, first)])
        line = self.define(name, [("v", "Int")], "Int", body)
        self.out.named_calls.append({
            "class": self.name, "caller": name, "callee": callee, "line": line,
            "args": [render(first), render(second)],
        })

    def _def_build(self, name):
        body = call(self.name + "_", var("v"), binop("+", var("v"), num(self.rng.randint(1, 9))))
        self.define(name, [("v", "Int")], self.name, body)

    def _def_match(self, name):
        result = binop("+", binop("*", var("u"), num(self.rng.randint(2, 9))), var("w"))
        pattern = ("pcon", self.name + "_", [("pvar", "u"), ("pvar", "w")])
        self.define(name, [("p", self.name)], "Int", ("match", var("p"), [(pattern, result)]))

    def _def_match_int(self, name):
        cases = [(("pint", i), num(self.rng.randint(0, 99))) for i in range(3)]
        cases.append((("pwild",), binop("*", var("n"), num(2))))
        self.define(name, [("n", "Int")], "Int", ("match", var("n"), cases))


def _class_name(rng: random.Random, index: int) -> str:
    return rng.choice(["Ledger", "Tariff", "Route", "Claim", "Permit", "Shift",
                       "Invoice", "Parcel", "Quota", "Visit"]) + str(index)


def clean_file(rng: random.Random, name: str, n_defs: int) -> SourceFile:
    """A well-formed file of about ``n_defs`` definitions. Files beyond 40
    definitions put them all in one class, so the analyzer's per-class work
    grows with the class size."""
    out = SourceFile(name, "clean")
    n_classes = 1 if n_defs > 40 else 1 + n_defs // 16
    per_class = [n_defs // n_classes + (1 if i < n_defs % n_classes else 0)
                 for i in range(n_classes)]
    for ci, count in enumerate(per_class):
        if ci:
            out.add()
        w = _ClassWriter(out, rng, _class_name(rng, ci), rng.choice(_FIELD_PAIRS))
        w.definitions(count)
        w.end()
    return out


def diagnostics_file(rng: random.Random, name: str, n_defs: int) -> SourceFile:
    """A file that parses but breaks the structural rules in planted places:
    one of each semantic error and one undeclared identifier."""
    out = SourceFile(name, "diagnostics")
    w = _ClassWriter(out, rng, _class_name(rng, 0), rng.choice(_FIELD_PAIRS))
    w._def_arith(w._fresh("pair"))
    callee, (p, q) = w.functions[0]
    planted = ["dup", "tail", "unknown", "repeated", "missing", "mixed", "undeclared"]
    slots = sorted(rng.sample(range(n_defs), len(planted)))
    order = rng.sample(planted, len(planted))
    for i in range(n_defs):
        if not slots or slots[0] != i:
            w.random_definition()
            continue
        slots.pop(0)
        what = order.pop()
        if what == "dup":
            line = w.define(w.info["defs"][0], [(p, "Int"), (q, "Int")], "Int", num(rng.randint(0, 9)))
            out.diagnostics.append(["E-SEM-001", line])
        elif what == "tail":
            name_ = w._fresh("bad")
            body = ("if", binop("<=", var("n"), num(0)), num(0),
                    binop("+", num(1), call(name_, binop("-", var("n"), num(1)))))
            line = w.define(name_, [("n", "Int")], "Int", body, tailrec=True)
            out.diagnostics.append(["E-SEM-010", line])
        elif what == "undeclared":
            line = w.define(w._fresh("ghost"), [("v", "Int")], "Int",
                            binop("+", var("v"), var(f"missing_{rng.randint(0, 999)}")))
            out.diagnostics.append(["W-SEM-001", line])
        else:
            args = {
                "unknown": ([("named", "nope", var("v")), ("named", p, num(1))], "E-SEM-020"),
                "repeated": ([("named", p, var("v")), ("named", p, num(2))], "E-SEM-021"),
                "missing": ([("named", q, var("v"))], "E-SEM-022"),
                "mixed": ([("pos", var("v")), ("named", q, num(2))], "E-SEM-023"),
            }[what]
            line = w.define(w._fresh("call"), [("v", "Int")], "Int", ("call", callee, args[0]))
            out.diagnostics.append([args[1], line])
    w.end()
    return out


def parse_error_file(rng: random.Random, name: str, n_defs: int) -> SourceFile:
    """A file the parser rejects: an ``if`` without ``else`` inside a class,
    and a class named with the reserved constructor suffix."""
    out = SourceFile(name, "parse_error")
    w = _ClassWriter(out, rng, _class_name(rng, 0), None)
    cut = rng.randrange(n_defs)
    for i in range(n_defs):
        if i != cut:
            w.random_definition()
            continue
        line = out.add(f"  {w._fresh('partial')} (v : Int) : Int = if v > 0 then {rng.randint(0, 9)}")
        out.add()
        out.diagnostics.append(["E-PAR-010", line])
    w.end()
    out.add()
    line = out.add(f"class {_class_name(rng, 1)}_")
    out.add()
    out.add("end")
    out.diagnostics.append(["E-PAR-004", line])
    return out


def lean_refused_file(rng: random.Random, name: str, n_defs: int, variant: int) -> SourceFile:
    """A file every backend but Lean accepts. ``variant`` picks the planted
    constructs: 0 package and imports, 1 a ``subtype`` bound and ``this``,
    2 a ``supertype`` bound and two uses of ``this``."""
    out = SourceFile(name, "lean_refused")
    if variant == 0:
        out.add("package bench.specs")
        out.add()
        out.add("import bench.base")
        out.add("import bench.util")
        out.add()
        out.lean_refused += [["package", 1], ["import", 1], ["import", 1]]
    suffix = ""
    if variant:
        bound = "subtype" if variant == 1 else "supertype"
        suffix = f" [A {bound} Base]"
    w = _ClassWriter(out, rng, _class_name(rng, 0), None, suffix)
    if variant:
        out.lean_refused.append([bound, len(out.lines) - 1])
    slots = set(rng.sample(range(n_defs), variant))
    for i in range(n_defs):
        if i in slots:
            line = w.define(w._fresh("me"), [], w.name, ("this",))
            out.lean_refused.append(["this", line])
        else:
            w.random_definition()
    w.end()
    return out


def decision_table(branches: int = 1000) -> SourceFile:
    """One definition that is a ``branches``-way ``if x == i then ... else``
    chain. Independent of the seed: it is the operation the benchmark keeps
    although the parser overflows Python's stack on it."""
    out = SourceFile("decision_table.soda", "clean")
    out.add("class Table")
    out.add()
    text = "  decide (x : Int) : Int = " + " else ".join(
        f"if x == {i} then {(i * 7919) % 1000}" for i in range(branches)) + " else 0"
    out.add(text)
    out.add()
    out.add("end")
    out.classes.append({"name": "Table", "fields": [], "defs": ["decide"]})
    return out


# ============================================================
# the compile corpus
# ============================================================

#: Clean files, spread evenly on a log scale between these sizes.
CLEAN_FILES = 61
MIN_DEFS, MAX_DEFS = 4, 600


def clean_sizes() -> list[int]:
    ratio = math.log(MAX_DEFS / MIN_DEFS) / (CLEAN_FILES - 1)
    return [round(MIN_DEFS * math.exp(ratio * i)) for i in range(CLEAN_FILES)]


def compile_corpus(seed: int) -> list[SourceFile]:
    """Clean files of log-spaced sizes, three planted-diagnostic files, one
    parse-error file, three Lean-refused files and the decision table. The
    paper's Pair listings are read from the repository's golden files."""
    rng = random.Random(f"compile-{seed}")
    files = [clean_file(rng, f"clean_{i:02d}.soda", n) for i, n in enumerate(clean_sizes())]
    files += [diagnostics_file(rng, f"diag_{i}.soda", n) for i, n in enumerate((12, 30, 60))]
    files.append(parse_error_file(rng, "parse_error.soda", 20))
    files += [lean_refused_file(rng, f"lean_{v}.soda", 15, v) for v in range(3)]
    files.append(decision_table())
    return files


# ============================================================
# the evaluate specification and its cases
# ============================================================

LOOP_N = 200
FOLD_N = 150
DEEP_N = 300
CONST_LEVELS = 8

SPEC_HEAD = """\
class Pair

  abstract
    fst : Int
    snd : Int

end

class Spec

  zero : Int = 0

  @tailrec
  loop (n : Int) (acc : Int) : Int = if n <= 0 then acc else loop (n - 1) (acc + n)

  fold_sum (n : Int) (k : Int) : Int = fold (range (n)) (k) (lambda acc --> lambda i --> acc + i * k)

  swap_diff (a : Int) (b : Int) : Int = match Pair_ (b) (a) case Pair_ (x) (y) ==> x * 3 - y

  diff (minuend : Int) (subtrahend : Int) : Int = minuend - subtrahend

  named (a : Int) (b : Int) : Int = diff (subtrahend := a) (minuend := b)

  guard_or (n : Int) : Bool = n == 0 or 100 / n > 3

  guard_and (n : Int) : Bool = not (n == 0) and 100 / n < 10

  deep (n : Int) (k : Int) : Int = if n <= 0 then k else n + deep (n - 1) (k)

  divide (a : Int) (b : Int) : Int = a / b

  classify (n : Int) : Int = match n case 0 ==> 10 case 1 ==> 20

  c0 : Int = 1
"""


def spec_source() -> str:
    """The evaluate workload's program: one rule per construct, plus a chain
    of constants ``c_i = c_{i-1} + c_{i-1}`` of CONST_LEVELS levels."""
    lines = [SPEC_HEAD.rstrip("\n")]
    for i in range(1, CONST_LEVELS + 1):
        lines += ["", f"  c{i} : Int = c{i - 1} + c{i - 1}"]
    lines += ["", "end", ""]
    return "\n".join(lines)


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b > 0) else -q


def eval_case(rng: random.Random) -> list[list]:
    """One case: every rule of the specification once, each as
    [rule, args, expected], where expected is ["value", v] from a closed
    form computed here, or ["fault", kind]."""
    acc = rng.randint(0, 10**6)
    k = rng.randint(1, 99)
    a, b = rng.randint(-999, 999), rng.randint(-999, 999)
    n = rng.choice([i for i in range(-60, 61) if i])
    dk = rng.randint(0, 10**4)
    num_, den = rng.randint(-10**5, 10**5), rng.choice([i for i in range(-50, 51) if i])
    c = rng.randint(0, 1)
    return [
        ["zero", [], ["value", 0]],
        ["loop", [LOOP_N, acc], ["value", acc + LOOP_N * (LOOP_N + 1) // 2]],
        ["fold_sum", [FOLD_N, k], ["value", k + k * FOLD_N * (FOLD_N - 1) // 2]],
        ["swap_diff", [a, b], ["value", 3 * b - a]],
        ["named", [a, b], ["value", b - a]],
        ["guard_or", [0], ["value", True]],
        ["guard_or", [n], ["value", _trunc_div(100, n) > 3]],
        ["guard_and", [0], ["value", False]],
        [f"c{CONST_LEVELS}", [], ["value", 2 ** CONST_LEVELS]],
        ["deep", [DEEP_N, dk], ["value", dk + DEEP_N * (DEEP_N + 1) // 2]],
        ["divide", [num_, den], ["value", _trunc_div(num_, den)]],
        ["divide", [num_, 0], ["fault", "division_by_zero"]],
        ["classify", [c], ["value", 10 + 10 * c]],
        ["classify", [rng.randint(2, 99)], ["fault", "no_matching_case"]],
    ]


EVAL_CASES = 41


def eval_cases(seed: int) -> list[list[list]]:
    rng = random.Random(f"evaluate-{seed}")
    return [eval_case(rng) for _ in range(EVAL_CASES)]


# ============================================================
# the cli workload
# ============================================================


def cli_inputs(seed: int) -> tuple[list[SourceFile], list[dict]]:
    """Files for the cli workload and one round of commands over them. Each
    command is {"argv", "exit", "out"?, "file"?, "stdout"?, "fault"?}."""
    rng = random.Random(f"cli-{seed}")
    small = clean_file(rng, "small.soda", 10)
    medium = clean_file(rng, "medium.soda", 40)
    diag = diagnostics_file(rng, "diag.soda", 20)
    spec = SourceFile("spec.soda", "clean")
    spec.lines = spec_source().rstrip("\n").split("\n")
    ops: list[dict] = []
    for f in (small, medium):
        stem = f.name[:-5]
        ops += [
            {"cmd": "check", "argv": ["check", f.name], "exit": 0, "file": f.name},
            {"cmd": "scala", "argv": ["scala", f.name, "-o", stem + ".out.scala"], "exit": 0,
             "file": f.name, "out": stem + ".out.scala"},
            {"cmd": "lean", "argv": ["lean", f.name, "-o", stem + ".out.lean"], "exit": 0,
             "file": f.name, "out": stem + ".out.lean"},
            {"cmd": "fmt", "argv": ["fmt", f.name], "exit": 0, "file": f.name},
        ]
    ops += [
        {"cmd": "check", "argv": ["check", diag.name], "exit": 1, "file": diag.name},
        {"cmd": "fmt", "argv": ["fmt", diag.name], "exit": 0, "file": diag.name},
        {"cmd": "scala", "argv": ["scala", diag.name, "-o", "diag.out.scala"], "exit": 1,
         "file": diag.name, "out": "diag.out.scala"},
    ]
    case = eval_case(rng)
    for rule, args, expected in case:
        if rule in ("loop", "fold_sum", "deep") or (rule == "divide" and expected[0] == "fault"):
            op = {"cmd": "run", "argv": ["run", spec.name, f"Spec.{rule}"] + [str(x) for x in args]}
            if expected[0] == "value":
                op.update(exit=0, stdout=str(expected[1]))
            else:
                op.update(exit=1, fault=expected[1])
            ops.append(op)
    return [small, medium, diag, spec], ops
