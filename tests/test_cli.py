"""Command line behavior: exit codes, produced files, and stream usage."""

import subprocess
import sys

import pytest

from soda.cli import run_cli

PAIR = "class P\n\n  abstract\n    fst : Int\n    snd : Int\n\nend\n"

MAIN = (
    "class Main\n\n  demo : P = P_ (1) (2)\n\n"
    "  add (a : Int) (b : Int) : Int = a + b\n\n"
    "  crash : Int = 1 / 0\n\n"
    "  deep (n : Int) : Int = if n == 0 then 0 else 1 + deep (n - 1)\n\nend\n"
)


@pytest.fixture
def pair_file(tmp_path):
    f = tmp_path / "pair.soda"
    f.write_text(PAIR + "\n" + MAIN)
    return f


def call(*argv):
    try:
        return run_cli([str(a) for a in argv])
    except SystemExit as e:  # argparse reports usage problems this way
        return e.code


# --- check ---

def test_check_clean_file_is_silent(pair_file, capsys):
    assert call("check", pair_file) == 0
    cap = capsys.readouterr()
    assert cap.out == "" and cap.err == ""


def test_check_reports_errors_with_positions(tmp_path, capsys):
    f = tmp_path / "bad.soda"
    f.write_text("class A\n\n  x = if 1 then 2\n\nend\n")
    assert call("check", f) == 1
    err = capsys.readouterr().err
    assert "bad.soda:3:" in err and "E-PAR-010" in err


def test_check_warnings_do_not_fail(tmp_path, capsys):
    f = tmp_path / "warn.soda"
    f.write_text("class A\n\n  x : Int = mystery\n\nend\n")
    assert call("check", f) == 0
    assert "W-SEM-001" in capsys.readouterr().err


def test_check_many_files_fails_if_any_fails(tmp_path, pair_file):
    bad = tmp_path / "bad.soda"
    bad.write_text("class A\n\n  x =\n\nend\n")
    assert call("check", pair_file, bad) == 1


# --- translation ---

def test_scala_writes_next_to_the_input(pair_file, capsys):
    assert call("scala", pair_file) == 0
    out_file = pair_file.with_suffix(".scala")
    assert out_file.exists()
    text = out_file.read_text()
    assert "trait P {" in text
    assert "case class P_ (fst : Int, snd : Int) extends P" in text


def test_scala_honors_explicit_output(pair_file, tmp_path):
    target = tmp_path / "custom" / "out.scala"
    target.parent.mkdir()
    assert call("scala", "-o", target, pair_file) == 0
    assert "trait P" in target.read_text()


def test_explicit_output_needs_exactly_one_input(pair_file, tmp_path, capsys):
    other = tmp_path / "other.soda"
    other.write_text(PAIR)
    assert call("scala", "-o", tmp_path / "x.scala", pair_file, other) == 2


def test_lean_writes_a_lean_file(pair_file):
    assert call("lean", pair_file) == 0
    assert "class P where" in pair_file.with_suffix(".lean").read_text()


def test_lean_refuses_unsupported_sources_and_writes_nothing(tmp_path, capsys):
    f = tmp_path / "selfy.soda"
    f.write_text("class A\n\n  x : A = this\n\nend\n")
    assert call("lean", f) == 1
    assert not f.with_suffix(".lean").exists()
    assert "E-LEAN-001" in capsys.readouterr().err


def test_translation_overwrites_previous_output(pair_file):
    out_file = pair_file.with_suffix(".scala")
    out_file.write_text("stale content")
    assert call("scala", pair_file) == 0
    assert "stale" not in out_file.read_text()


def test_failed_runs_leave_existing_output_untouched(tmp_path):
    f = tmp_path / "bad.soda"
    f.write_text("class A\n\n  x =\n\nend\n")
    out_file = f.with_suffix(".scala")
    out_file.write_text("previous good output")
    assert call("scala", f) == 1
    assert out_file.read_text() == "previous good output"


# --- run ---

def test_run_prints_the_rendered_value(pair_file, capsys):
    assert call("run", pair_file, "Main.demo") == 0
    assert capsys.readouterr().out == "P_ (1) (2)\n"


def test_run_passes_arguments(pair_file, capsys):
    assert call("run", pair_file, "Main.add", "20", "22") == 0
    assert capsys.readouterr().out == "42\n"


def test_run_converts_literal_arguments(tmp_path, capsys):
    f = tmp_path / "m.soda"
    f.write_text(
        'class M\n\n  pick (b : Bool) (s : String) : String ='
        ' if b then s else "no"\n\nend\n'
    )
    assert call("run", f, "M.pick", "true", "yes") == 0
    assert capsys.readouterr().out == '"yes"\n'


ECHO = (
    "class A\n\n  g (s : String) : String = s\n\n"
    "  f (x : Int) : Int = x + 1\n\nend\n"
)


@pytest.mark.parametrize(
    "text", ["1_000", " 7", "+5"], ids=["underscore", "blank", "plus"]
)
def test_run_argument_that_is_no_integer_literal_is_a_string(tmp_path, capsys, text):
    # Python's int() reads all three; a Soda integer literal is digits only.
    f = tmp_path / "echo.soda"
    f.write_text(ECHO)
    assert call("run", f, "A.g", text) == 0
    assert capsys.readouterr().out == f'"{text}"\n'


@pytest.mark.parametrize(
    "text, printed",
    [("-12", "-11"), ("1" + "0" * 4999, "1" + "0" * 4998 + "1")],
    ids=["negative", "5000-digits"],
)
def test_run_argument_that_is_an_integer_literal_is_an_int(tmp_path, capsys, text, printed):
    f = tmp_path / "echo.soda"
    f.write_text(ECHO)
    assert call("run", f, "A.f", text) == 0
    assert capsys.readouterr().out == printed + "\n"


def test_run_fault_goes_to_stderr(pair_file, capsys):
    assert call("run", pair_file, "Main.crash") == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert "division_by_zero" in cap.err


def test_run_recursion_limit_flag(pair_file, capsys):
    assert call(
        "run", "--max-recursion", "100", pair_file, "Main.deep", "100000"
    ) == 1
    assert "recursion_limit" in capsys.readouterr().err


def test_run_recursion_limit_env(pair_file, capsys, monkeypatch):
    monkeypatch.setenv("SODA_MAX_RECURSION", "100")
    assert call("run", pair_file, "Main.deep", "100000") == 1
    assert "recursion_limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, env",
    [(None, "abc"), ("0", None), ("-5", None)],
    ids=["env-not-a-number", "flag-zero", "flag-negative"],
)
def test_run_rejects_a_recursion_budget_that_is_not_positive(
    pair_file, capsys, monkeypatch, flag, env
):
    if env is not None:
        monkeypatch.setenv("SODA_MAX_RECURSION", env)
    argv = ["run", pair_file, "Main.demo"]
    if flag is not None:
        argv[1:1] = ["--max-recursion", flag]
    assert call(*argv) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert len(cap.err.splitlines()) == 1


def test_run_entry_must_be_class_dot_definition(pair_file, capsys):
    assert call("run", pair_file, "Main") == 2


def test_run_unknown_class_fails(pair_file, capsys):
    assert call("run", pair_file, "Nope.x") == 1


# --- fmt ---

def test_fmt_prints_canonical_form(tmp_path, capsys):
    f = tmp_path / "messy.soda"
    f.write_text("class A\n  x   =   1\n  y = 2\nend\n")
    assert call("fmt", f) == 0
    assert capsys.readouterr().out == (
        "class A\n\n  x = 1\n\n  y = 2\n\nend\n"
    )


def test_fmt_rejects_unparseable_input(tmp_path, capsys):
    f = tmp_path / "bad.soda"
    f.write_text("class A\n\n  x =\n\nend\n")
    assert call("fmt", f) == 1


# --- plumbing ---

def test_unknown_subcommand_is_a_usage_error(capsys):
    assert call("frobnicate") == 2


def test_missing_input_file_fails_cleanly(tmp_path, capsys):
    assert call("check", tmp_path / "nope.soda") == 1
    assert "nope.soda" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["check"], ["fmt"], ["run", "A.x"]])
def test_file_that_is_not_utf8_fails_without_a_traceback(tmp_path, command):
    f = tmp_path / "bad.soda"
    f.write_bytes(b"class A\n\n  x = \xff\nend\n")
    proc = subprocess.run(
        [sys.executable, "-m", "soda", command[0], str(f), *command[1:]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"{f}: not valid UTF-8 (byte 0xff at offset 15)\n"


def test_module_entry_point(pair_file):
    proc = subprocess.run(
        [sys.executable, "-m", "soda", "run", str(pair_file), "Main.demo"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "P_ (1) (2)\n"
