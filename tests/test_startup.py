"""What starting the toolchain costs: each command loads the stages it runs
and no others, ``import soda`` loads none, every public name still resolves,
and the tree classes share their methods instead of generating their own.

The commands run in fresh processes, so nothing another test imported
counts."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

STAGES = {"analyzer", "interpreter", "scala_backend", "lean_backend"}

SOURCE = "class A\n\n  add (a : Int) (b : Int) : Int = a + b\n\nend\n"

# Runs ``python -m soda`` with the given arguments and then writes the soda
# modules the process has loaded to the file named by SODA_MODULES_OUT.
PROBE = textwrap.dedent(
    """
    import json, os, runpy, sys

    sys.argv = ["soda", *sys.argv[1:]]
    status = None
    try:
        runpy.run_module("soda", run_name="__main__", alter_sys=True)
    except SystemExit as ex:
        status = ex.code
    loaded = sorted(m[5:] for m in sys.modules if m.startswith("soda."))
    with open(os.environ["SODA_MODULES_OUT"], "w") as fh:
        json.dump({"status": status, "loaded": loaded}, fh)
    """
)


def run_fresh(args, cwd, env=None):
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd, timeout=60
    )


@pytest.mark.parametrize(
    "argv,stages",
    [
        (["check", "a.soda"], {"analyzer"}),
        (["fmt", "a.soda"], set()),
        (["scala", "a.soda"], {"analyzer", "scala_backend"}),
        (["lean", "a.soda"], {"analyzer", "lean_backend"}),
        (["run", "a.soda", "A.add", "20", "22"], {"analyzer", "interpreter"}),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_each_command_loads_only_the_stages_it_runs(tmp_path, argv, stages):
    (tmp_path / "a.soda").write_text(SOURCE)
    out = tmp_path / "modules.json"
    proc = run_fresh(["-c", PROBE, *argv], tmp_path, {"SODA_MODULES_OUT": str(out)})
    result = json.loads(out.read_text())
    assert result["status"] == 0, proc.stderr
    loaded = set(result["loaded"])
    assert {"cli", "lexer", "parser", "syntax"} <= loaded
    assert loaded & STAGES == stages
    if argv[0] == "run":
        assert proc.stdout == "42\n"


def test_import_soda_loads_no_stage_and_every_public_name_resolves(tmp_path):
    code = textwrap.dedent(
        """
        import importlib, sys
        import soda

        assert [m for m in sys.modules if m.startswith("soda.")] == [], sys.modules
        assert "tokenize" in dir(soda) and "__version__" in dir(soda)
        # __all__ is every lazily loaded name, tokenize included.
        assert "tokenize" in soda.__all__ and len(soda.__all__) == 28, soda.__all__
        for name in soda.__all__:
            namespace = {}
            exec(f"from soda import {name}", namespace)
            value = namespace[name]
            assert getattr(soda, name) is value, name
            homes = [m for m in ("analyzer", "interpreter", "lean_backend", "lexer",
                                 "parser", "scala_backend", "syntax")
                     if getattr(importlib.import_module("soda." + m), name, None) is value]
            assert homes, name
        try:
            soda.no_such_name
        except AttributeError as ex:
            assert "no_such_name" in str(ex)
        else:
            raise AssertionError("soda.no_such_name resolved")
        from soda import syntax
        assert syntax is sys.modules["soda.syntax"]
        """
    )
    proc = run_fresh(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr[-3000:]


def test_run_help_names_the_default_budget_without_the_interpreter(tmp_path):
    out = tmp_path / "modules.json"
    proc = run_fresh(["-c", PROBE, "run", "--help"], tmp_path, {"SODA_MODULES_OUT": str(out)})
    result = json.loads(out.read_text())
    assert result["status"] == 0
    assert "default 10000" in " ".join(proc.stdout.split())
    assert not set(result["loaded"]) & STAGES


def test_tree_classes_share_their_methods():
    # Equality, hashing, repr and immutability come from one base class, not
    # from methods generated and compiled for each class at import.
    import dataclasses

    from soda import syntax

    tree_classes = [
        obj for obj in vars(syntax).values()
        if isinstance(obj, type) and dataclasses.is_dataclass(obj)
    ]
    assert len(tree_classes) == 28
    generated = {"__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"}
    for cls in tree_classes:
        assert not generated & set(vars(cls)), cls.__name__
