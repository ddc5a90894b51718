"""Translate source files to Scala and Lean and show the results side by side.

With no arguments this runs over the golden listings used by the test suite.

Usage:
    python scripts/translate_listings.py
    python scripts/translate_listings.py path/to/file.soda ...
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from soda import analyze, parse, translate_to_lean, translate_to_scala  # noqa: E402

DEFAULT_INPUTS = sorted((ROOT / "tests" / "goldens").glob("*.soda"))


def show(title: str, body: str) -> None:
    print(f"--- {title} " + "-" * max(0, 60 - len(title)))
    print(body, end="" if body.endswith("\n") else "\n")


def translate_one(path: Path) -> bool:
    source = path.read_text()
    res = parse(source, str(path))
    if not res.ok:
        for d in res.diagnostics:
            print(d.render(), file=sys.stderr)
        return False
    analyzed = analyze(res.program)
    for d in analyzed.diagnostics:
        print(d.render(), file=sys.stderr)
    if not analyzed.ok:
        return False

    show(f"{path.name}", source)
    show(f"{path.stem}.scala", translate_to_scala(analyzed).text)
    lean = translate_to_lean(analyzed)
    if lean.ok:
        show(f"{path.stem}.lean", lean.text)
    else:
        for d in lean.diagnostics:
            print(d.render(), file=sys.stderr)
    print()
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("inputs", nargs="*", type=Path, default=DEFAULT_INPUTS)
    args = ap.parse_args()
    ok = True
    for path in args.inputs or DEFAULT_INPUTS:
        ok = translate_one(path) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
