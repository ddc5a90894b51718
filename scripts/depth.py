"""How deep each shape of README's table "How deep inputs may nest" may
nest, per stage, at the default recursion limit.

For each shape and each stage (``parse``, ``fmt``, Scala, Lean) the script
bisects the largest nesting n in [0, 20000] that the stage takes. Each probe
runs in a fresh ``python`` process, with the stage called from module level
at the default recursion limit. A printer stage needs a tree deeper than
``parse`` may take, so its probe parses and analyzes in a thread with a large
stack and a raised limit, then restores the default limit and prints. A
stage takes an input when it returns without raising and, for ``parse`` and
Lean, reports success. "any" means that 20000 passed.

    python3 scripts/depth.py

It takes a few minutes and needs only the standard library. The figures
depend on the Python version and, by a few levels, on the caller's stack.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
LIMIT = 20000

# Each shape's row label, and an expression in n giving a definition nested n deep.
SHAPES = (
    ("flat chain `x + x + … + x`",
     '"  f (x : Int) : Int = " + " + ".join(["x"] * (n + 1))'),
    ("`not not … x`",
     '"  f (b : Bool) : Bool = " + "not " * n + "b"'),
    ("`if … else if …`",
     '"  f (x : Int) : Int = " + "".join(f"if x == {i} then {i} else " for i in range(n)) + "0"'),
    ("`lambda y --> lambda y --> …`",
     '"  f : Int = " + "lambda y --> " * n + "y"'),
    ("`lambda y0 --> lambda y1 --> …` (distinct names)",
     '"  f : Int = " + "".join(f"lambda y{i} --> " for i in range(n)) + "y0"'),
    ("one lambda with n parameters `lambda y0 y1 … -->`",
     '"  f : Int = lambda " + "".join(f"y{i} " for i in range(n + 1)) + "--> y0"'),
    ("call arguments `f (f (… x))`",
     '"  f (x : Int) : Int = " + "f (" * n + "x" + ")" * n'),
    ("one call's arguments `f (x) (x) … (x)`",
     '"  f (x : Int) : Int = f" + " (x)" * (n + 1)'),
    ("right operands `x + (x + (…))`",
     '"  f (x : Int) : Int = " + "x + (" * n + "x + x" + ")" * n'),
    ("`match` in a case result",
     '"  f (x : Int) : Int = match x case 0 ==> " + "(match x case 0 ==> " * n + "x" + ")" * n'),
    ("parentheses `((… x))`",
     '"  f (x : Int) : Int = " + "(" * n + "x" + ")" * n'),
    ("applied types `List [List [… Int]]`",
     '"  f (x : " + "List [" * n + "Int" + "]" * n + ") : Int = 0"'),
    ("arrow types `Int --> Int --> …`",
     '"  f (x : " + "Int --> " * n + "Int) : Int = 0"'),
    ("constructor patterns `C_ (C_ (… _))`",
     '"  f (x : Int) : Int = match x case " + "C_ (" * n + "_" + ")" * n + " ==> 0"'),
)
STAGES = ("parse", "fmt", "scala", "lean")

PROBE = """
import sys, threading
from soda import analyze, parse, pretty_print, translate_to_lean, translate_to_scala

n = {n}
source = "class C\\n\\n" + ({source}) + "\\n\\nend\\n"
stage = {stage!r}
if stage == "parse":
    sys.exit(0 if parse(source).ok else 1)

def build():
    global program, analyzed
    sys.setrecursionlimit(1_000_000)
    program = parse(source).program
    analyzed = analyze(program)

default = sys.getrecursionlimit()
threading.stack_size(512 * 1024 * 1024)
thread = threading.Thread(target=build)
thread.start()
thread.join()
sys.setrecursionlimit(default)
if stage == "fmt":
    pretty_print(program)
elif stage == "scala":
    translate_to_scala(analyzed)
else:
    sys.exit(0 if translate_to_lean(analyzed).ok else 1)
"""


def takes(source: str, stage: str, n: int) -> bool:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = PROBE.format(n=n, source=source, stage=stage)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=300)
    return proc.returncode == 0


def deepest(source: str, stage: str) -> str:
    """The largest n the stage takes, by bisection, or "any"."""
    if takes(source, stage, LIMIT):
        return "any"
    good, bad = 0, LIMIT
    while bad - good > 1:
        mid = (good + bad) // 2
        if takes(source, stage, mid):
            good = mid
        else:
            bad = mid
    return str(good)


def main() -> int:
    print(f"Python {sys.version.split()[0]}, recursion limit {sys.getrecursionlimit()}")
    print()
    print("| nesting | " + " | ".join(f"`{s}`" for s in STAGES) + " |")
    print("|---" * (len(STAGES) + 1) + "|")
    for label, source in SHAPES:
        cells = [deepest(source, stage) for stage in STAGES]
        print(f"| {label} | " + " | ".join(cells) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
