"""The interpreter's cost in two checkouts, side by side in one process.

    python3 scripts/interp_pairs.py OLD_SRC NEW_SRC [--rounds N]

OLD_SRC and NEW_SRC are directories that hold a ``soda`` package (a
checkout's ``src``); give the same directory twice for an A/A control. Each
is loaded under its own package name, and the rows below run alternately,
the side that goes first swapping every round, so that both sides see the
same machine. Each row is timed in CPU time. For each row the script prints
the median per-round ratio NEW/OLD and its quartiles (below 1 is faster),
and each side's median time per unit.

Rows: a tail loop, a fold, a trivial ``run_entry``, the tail loops ``slow``
(an argument that is no leaf) and ``nested`` (a call in an argument), and
``deep``, a recursion that is not a tail call. It takes about a minute at
the default 20 rounds and needs only the standard library.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

SPEC = """class Bench

  zero : Int = 0

  @tailrec
  loop (n : Int) (acc : Int) : Int = if n <= 0 then acc else loop (n - 1) (acc + n)

  fold_sum (n : Int) : Int = fold (range (n)) (0) (lambda acc --> lambda k --> acc + k)

  @tailrec
  slow (n : Int) (acc : Int) : Int = if n <= 0 then acc else slow (n - 1) (acc + (n + 0))

  id (x : Int) : Int = x

  @tailrec
  nested (n : Int) (acc : Int) : Int = if n <= 0 then acc else nested (n - 1) (id (acc + n))

  deep (n : Int) (k : Int) : Int = if n <= 0 then k else n + deep (n - 1) (k)

end
"""

# Each row: its name, the definition, its arguments, how many units one call
# runs, and the unit the time is given per.
ROWS = (
    ("tail loop", "loop", (20000, 0), 20000, "iteration"),
    ("fold", "fold_sum", (20000,), 20000, "item"),
    ("trivial run_entry", "zero", (), 1, "call"),
    ("slow", "slow", (20000, 0), 20000, "iteration"),
    ("nested", "nested", (20000, 0), 20000, "iteration"),
    ("deep", "deep", (5000, 0), 5000, "level"),
)
TRIVIAL_CALLS = 2000  # run_entry calls timed together in the trivial row


def load(src: str, name: str):
    """The ``soda`` package under ``src``, imported as ``name``."""
    init = Path(src).resolve() / "soda" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"{src}: no soda package")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def interpreter(soda):
    parsed = soda.parse(SPEC, "bench.soda")
    analyzed = soda.analyze(parsed.program)
    if parsed.diagnostics or analyzed.diagnostics:
        raise SystemExit(f"the benchmark program has diagnostics: {parsed.diagnostics + analyzed.diagnostics}")
    return soda.Interpreter(analyzed)


def timed(interp, rule: str, args: tuple) -> tuple[float, object]:
    calls = TRIVIAL_CALLS if not args else 1
    start = time.process_time()
    for _ in range(calls):
        out = interp.run_entry("Bench", rule, args)
    return (time.process_time() - start) / calls, out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--rounds", type=int, default=20)
    opts = ap.parse_args()
    sides = [load(opts.old_src, "soda_old"), load(opts.new_src, "soda_new")]
    interps = [interpreter(soda) for soda in sides]
    print(f"OLD {opts.old_src}  NEW {opts.new_src}  {opts.rounds} rounds, CPU time\n")
    print(f"{'row':<18} {'ratio':>6} {'quartiles':>13}   {'OLD':>9} {'NEW':>9}")
    for name, rule, args, units, unit in ROWS:
        times: list = [[], []]
        for r in range(opts.rounds + 1):
            outs = [None, None]
            for side in ((0, 1) if r % 2 else (1, 0)):
                seconds, outs[side] = timed(interps[side], rule, args)
                if r:  # the first round only warms up
                    times[side].append(seconds)
            shown = [sides[i].render_value(outs[i]) for i in (0, 1)]
            if shown[0] != shown[1]:
                raise SystemExit(f"{name}: OLD gives {shown[0]}, NEW gives {shown[1]}")
        ratios = [new / old for old, new in zip(*times)]
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        old, new = (statistics.median(t) / units * 1e6 for t in times)
        print(f"{name:<18} ×{median:5.2f} {q1:6.2f}–{q3:<6.2f}   {old:6.3f} µs {new:6.3f} µs per {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
