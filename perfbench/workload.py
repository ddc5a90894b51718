"""One workload of the soda benchmark, in a process of its own.

    python3 perfbench/workload.py --workload NAME --inputs DIR --seconds S
        --trace 0|1 --t0 T --result FILE [--setup-only]

``run.py`` generates the inputs into DIR and starts this process several
times per run. Each process sets up (``import soda``, reading the inputs,
the warm-up, and for ``evaluate`` the parse, analysis and ``Interpreter``
construction) and records when its first timed operation would start,
against ``--t0``, the parent's clock reading taken just before the
process was started. A ``--setup-only`` process stops there. The measuring
process then runs whole rounds of the workload's operations, one at a
time, for at least ``--seconds`` seconds, and checks every output.

With ``--trace 1`` rounds alternate between untraced and traced. Traced
rounds record spans around each call into a public ``soda`` function: name,
start, end, parent span and operation id. The spans stay in memory and are
written to ``spans.json`` beside the result at the end; the per-layer
metrics come from them.

The result file holds the raw measurements; ``run.py`` turns them into
metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

from gen import FOLD_N, LOOP_N

ROOT = Path(__file__).resolve().parent.parent


def import_soda():
    """Import the toolchain from this checkout's ``src``, never from
    anywhere else on the path."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import soda

    if Path(soda.__file__).resolve().parent != (src / "soda").resolve():
        raise SystemExit(f"imported soda from {soda.__file__}, not from {src}")
    return soda


# ============================================================
# tracing
# ============================================================


def cpu_clock() -> float:
    """CPU seconds used so far by this process, all its threads, and the
    child processes it has waited for. On a shared machine the wall time of
    a fixed piece of work varies with what other tenants run; its CPU time
    much less."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


class Tracer:
    """Spans in memory, each [id, parent id, operation id, name, start, end],
    with start and end on ``cpu_clock``."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        record = [len(self.spans), self._open[-1] if self._open else None,
                  self.op, name, cpu_clock(), None]
        self.spans.append(record)
        self._open.append(record[0])
        try:
            yield
        finally:
            record[5] = cpu_clock()
            self._open.pop()


class NullTracer:
    op = None

    def span(self, name: str):
        return nullcontext()


# ============================================================
# checks on translated text, shared by compile and cli
# ============================================================


def _by_class(text: str, class_re: str, def_re: str):
    """Definition names per class in rendered output, in order, and the
    head line of each (class, name)."""
    names: dict[str, list[str]] = defaultdict(list)
    heads: dict[tuple[str, str], str] = {}
    cls = None
    for line in text.split("\n"):
        m = re.match(class_re, line)
        if m:
            cls = m.group(1)
            continue
        m = re.match(def_re, line)
        if m:
            names[cls].append(m.group(1))
            heads.setdefault((cls, m.group(1)), line)
    return names, heads


def check_scala(text: str, f: dict) -> list[str]:
    """One Scala member per declared member, a case class per class, the
    @tailrec annotations kept, and named calls in declared order."""
    problems = []
    names, heads = _by_class(text, r"trait (\w+)", r"  (?:def|lazy val) (\w+)")
    for c in f["classes"]:
        if names.get(c["name"], []) != c["fields"] + c["defs"]:
            problems.append(f"scala: members of {c['name']} differ from the source")
        if f"case class {c['name']}_ " not in text:
            problems.append(f"scala: no case class for {c['name']}")
    if sum(line.strip() == "@tailrec" for line in text.split("\n")) != f["tailrec"]:
        problems.append("scala: @tailrec annotations lost or added")
    for nc in f["named_calls"]:
        want = nc["callee"] + "".join(f" ({a})" for a in nc["args"])
        if want not in heads.get((nc["class"], nc["caller"]), ""):
            problems.append(f"scala: {nc['caller']} does not call {want}")
    return problems


def check_lean(text: str, f: dict) -> list[str]:
    """One Lean ``def`` per concrete definition, a structure per class with
    fields, and named calls in declared order."""
    problems = []
    names, heads = _by_class(text, r"namespace (\w+)", r"def (\w+)")
    for c in f["classes"]:
        if names.get(c["name"], []) != c["defs"]:
            problems.append(f"lean: definitions of {c['name']} differ from the source")
        if c["fields"] and f"  {c['name']}_ ::" not in text:
            problems.append(f"lean: no constructor for {c['name']}")
    for nc in f["named_calls"]:
        want = nc["callee"] + "".join(f" {a}" for a in nc["args"])
        if want not in heads.get((nc["class"], nc["caller"]), ""):
            problems.append(f"lean: {nc['caller']} does not call {want}")
    return problems


def diagnostic_pairs(diagnostics) -> list[list]:
    return sorted([d.code, d.span.line_start] for d in diagnostics)


def refused_pairs(diagnostics) -> list[list]:
    """(construct, line) of each Lean refusal; the construct is the first
    quoted word of the message."""
    return sorted([re.search(r"'(\w+)'", d.message).group(1), d.span.line_start]
                  for d in diagnostics)


def count_nodes(root) -> int:
    """Dataclass nodes in a syntax tree, spans not counted."""
    count, stack = 0, [root]
    while stack:
        x = stack.pop()
        if isinstance(x, (tuple, list)):
            stack.extend(x)
        elif dataclasses.is_dataclass(x) and not isinstance(x, type):
            count += 1
            stack.extend(getattr(x, fld.name) for fld in dataclasses.fields(x)
                         if fld.name != "span")
    return count


# ============================================================
# workloads
# ============================================================


class Compile:
    """The front end alone: parse, analyze, Scala, Lean and the printer on
    one file per operation. The interpreter never runs in this process."""

    WARMUP = 5  # clean files, plus the golden listings

    def __init__(self, soda, inputs: Path):
        self.soda = soda
        manifest = json.loads((inputs / "manifest.json").read_text())
        self.ops = []
        for f in manifest:
            if f["kind"] == "golden":
                stem = ROOT / f["path"]
                f["text"] = stem.with_suffix(".soda").read_text()
                f["scala_golden"] = stem.with_suffix(".scala").read_text()
                f["lean_golden"] = stem.with_suffix(".lean").read_text()
            else:
                f["text"] = (inputs / f["name"]).read_text()
            self.ops.append(f)
        self.reparsed: set[str] = set()
        self.nodes: dict[str, int] = {}
        warm = [f for f in self.ops if f["kind"] == "clean"][: self.WARMUP]
        warm += [f for f in self.ops if f["kind"] == "golden"]
        for f in warm:
            self.check(f, self.op(f, NullTracer(), False))

    def op(self, f: dict, tracer, traced: bool) -> dict:
        soda, span = self.soda, tracer.span
        src, name = f["text"], f["name"]
        out: dict = {}
        if traced:
            # parse lexes internally; the separate call splits lexing off.
            with span("lexer.tokenize"):
                out["lexed"] = soda.tokenize(src, name)
        with span("parser.parse"):
            out["parsed"] = parsed = soda.parse(src, name)
        if parsed.program is None:
            return out
        with span("analyzer.analyze"):
            out["analyzed"] = analyzed = soda.analyze(parsed.program)
        if analyzed.ok:
            with span("scala_backend.translate_to_scala"):
                out["scala"] = soda.translate_to_scala(analyzed).text
            with span("lean_backend.translate_to_lean"):
                out["lean"] = soda.translate_to_lean(analyzed)
        with span("syntax.pretty_print"):
            out["fmt"] = soda.pretty_print(parsed.program)
        return out

    def check(self, f: dict, out: dict) -> list[str]:
        parsed, kind = out["parsed"], f["kind"]
        if kind == "parse_error":
            if parsed.program is not None:
                return ["parse accepted a planted syntax error"]
            if diagnostic_pairs(parsed.diagnostics) != sorted(f["diagnostics"]):
                return [f"parse diagnostics {diagnostic_pairs(parsed.diagnostics)}"
                        f" differ from the planted {sorted(f['diagnostics'])}"]
            return []
        if parsed.program is None or parsed.diagnostics:
            return [f"parse diagnostics {diagnostic_pairs(parsed.diagnostics)} on a well-formed file"]
        problems = []
        if out["fmt"] != f["text"]:
            problems.append("fmt did not give back the canonical text")
        elif f["name"] not in self.reparsed:
            # Output is deterministic: one reparse per file and run suffices.
            self.reparsed.add(f["name"])
            if self.soda.parse(out["fmt"], f["name"]).program != parsed.program:
                problems.append("reparsing the fmt output gives another tree")
        analyzed = out["analyzed"]
        planted = sorted(f["diagnostics"]) if kind == "diagnostics" else []
        if diagnostic_pairs(analyzed.diagnostics) != planted:
            problems.append(f"analyzer diagnostics {diagnostic_pairs(analyzed.diagnostics)}"
                            f" differ from the planted {planted}")
        if kind == "diagnostics":
            if "scala" in out:
                problems.append("a program with errors was translated")
            return problems
        if "scala" not in out:
            return problems + ["a clean program was not translated"]
        lean = out["lean"]
        if kind == "golden":
            if out["scala"] != f["scala_golden"]:
                problems.append("scala output differs from the golden file")
            if lean.text != f["lean_golden"]:
                problems.append("lean output differs from the golden file")
            return problems
        problems += check_scala(out["scala"], f)
        if kind == "lean_refused":
            if lean.text is not None:
                problems.append("lean accepted a planted unsupported construct")
            elif (any(d.code != "E-LEAN-001" for d in lean.diagnostics)
                  or refused_pairs(lean.diagnostics) != sorted(f["lean_refused"])):
                problems.append(f"lean refused {refused_pairs(lean.diagnostics)},"
                                f" planted {sorted(f['lean_refused'])}")
        elif lean.text is None:
            problems.append(f"lean refused a supported program: {refused_pairs(lean.diagnostics)}")
        else:
            problems += check_lean(lean.text, f)
        return problems

    def counts(self, f: dict, out: dict) -> dict:
        """Work done by each layer on one traced operation."""
        c = {"lexer.tokens": len(out["lexed"].tokens), "lexer.bytes": len(f["text"].encode())}
        parsed = out["parsed"]
        if parsed.program is not None:
            if f["name"] not in self.nodes:
                self.nodes[f["name"]] = count_nodes(parsed.program)
            c["parser.nodes"] = self.nodes[f["name"]]
            analyzed = out["analyzed"]
            c["analyzer.defs"] = sum(len(cls.definitions) for cls in parsed.program.classes)
            c["analyzer.diagnostics"] = len(analyzed.diagnostics)
            c["syntax.fmt_bytes"] = len(out["fmt"].encode())
            if "scala" in out:
                c["scala_backend.bytes"] = len(out["scala"].encode())
                c["lean_backend.bytes"] = len((out["lean"].text or "").encode())
                c["lean_backend.refused"] = int(out["lean"].text is None)
        return c


class Evaluate:
    """The interpreter alone: one operation checks one case by calling every
    rule of the specification through ``run_entry``."""

    def __init__(self, soda, inputs: Path, tracer):
        self.soda = soda
        source = (inputs / "spec.soda").read_text()
        with tracer.span("lexer.tokenize"):
            tokens = len(soda.tokenize(source, "spec.soda").tokens)
        with tracer.span("parser.parse"):
            parsed = soda.parse(source, "spec.soda")
        if parsed.program is None:
            raise SystemExit(f"spec.soda does not parse: {parsed.diagnostics}")
        with tracer.span("analyzer.analyze"):
            analyzed = soda.analyze(parsed.program)
        if analyzed.diagnostics:
            raise SystemExit(f"spec.soda has diagnostics: {analyzed.diagnostics}")
        with tracer.span("interpreter.Interpreter"):
            self.interp = soda.Interpreter(analyzed)
        self.setup_counts = {
            "lexer.tokens": tokens, "lexer.bytes": len(source.encode()),
            "parser.nodes": count_nodes(parsed.program),
            "analyzer.defs": sum(len(c.definitions) for c in parsed.program.classes),
            "analyzer.diagnostics": 0,
        }
        self.ops = json.loads((inputs / "cases.json").read_text())
        self.check(self.ops[0], self.op(self.ops[0], NullTracer(), False))

    def op(self, case, tracer, traced: bool) -> list:
        interp, results = self.interp, []
        for rule, args, _ in case:
            with tracer.span("interpreter.run_entry/" + rule):
                outcome = interp.run_entry("Spec", rule, args)
            results.append((outcome, interp.last_peak_depth))
        return results

    def check(self, case, results) -> list[str]:
        problems = []
        fault_type = self.soda.RuntimeFault
        for (rule, args, expected), (outcome, _) in zip(case, results):
            if expected[0] == "fault":
                ok = isinstance(outcome, fault_type) and outcome.kind == expected[1]
            else:
                v = expected[1]
                want = ("true" if v else "false") if isinstance(v, bool) else str(v)
                ok = not isinstance(outcome, fault_type) and self.soda.render_value(outcome) == want
            if not ok:
                problems.append(f"{rule} {args} gave {self.soda.render_value(outcome)},"
                                f" expected {expected}")
        return problems

    def counts(self, case, results) -> dict:
        fault_type = self.soda.RuntimeFault
        return {
            "interpreter.calls": len(results),
            "interpreter.faults": sum(isinstance(o, fault_type) for o, _ in results),
            "interpreter.peak_depth": max(p for _, p in results),
        }


class Cli:
    """What a user runs at the shell: one ``python -m soda`` process per
    operation, one at a time."""

    def __init__(self, soda, inputs: Path):
        self.soda = soda
        self.inputs = inputs
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.files = {f["name"]: f for f in json.loads((inputs / "manifest.json").read_text())}
        for f in self.files.values():
            f["text"] = (inputs / f["name"]).read_text()
        # Files written by scala/lean must equal the library's translation,
        # which is itself checked against what the generator planted.
        self.expected: dict[str, str] = {}
        self.ops = json.loads((inputs / "ops.json").read_text())
        for o in self.ops:
            if o["cmd"] in ("scala", "lean") and o["exit"] == 0:
                f = self.files[o["file"]]
                analyzed = soda.analyze(soda.parse(f["text"], f["name"]).program)
                if o["cmd"] == "scala":
                    text = soda.translate_to_scala(analyzed).text
                    problems = check_scala(text, f)
                else:
                    text = soda.translate_to_lean(analyzed).text
                    problems = check_lean(text or "", f)
                if problems:
                    raise SystemExit(f"library translation of {f['name']}: {problems}")
                self.expected[o["out"]] = text
        warm = [next(o for o in self.ops if o["cmd"] == c) for c in ("check", "run")]
        for o in warm:
            self.check(o, self.op(o, NullTracer(), False))

    def op(self, o, tracer, traced: bool):
        if "out" in o:  # so that the check sees this command's output
            (self.inputs / o["out"]).unlink(missing_ok=True)
        with tracer.span("cli." + o["cmd"]):
            return subprocess.run(
                [sys.executable, "-m", "soda", *o["argv"]], cwd=self.inputs, env=self.env,
                capture_output=True, text=True, timeout=30,
            )

    def check(self, o, proc) -> list[str]:
        what = " ".join(o["argv"])
        if proc.returncode != o["exit"]:
            return [f"`soda {what}` exited {proc.returncode}, expected {o['exit']}:"
                    f" {proc.stderr[-300:]}"]
        problems = []
        f = self.files.get(o.get("file"))
        stderr_pairs = sorted(
            [m.group(2), int(m.group(1))]
            for m in re.finditer(r"^[^:\n]+:(\d+):\d+: \w+\[([\w-]+)\]", proc.stderr, re.M))
        if o["cmd"] in ("check", "scala") and o["exit"] == 1:
            if stderr_pairs != sorted(f["diagnostics"]):
                problems.append(f"`soda {what}` reported {stderr_pairs}, planted {f['diagnostics']}")
        elif o["cmd"] != "run" and proc.stderr:
            problems.append(f"`soda {what}` wrote to stderr: {proc.stderr[-300:]}")
        if "out" in o:
            path = self.inputs / o["out"]
            if o["exit"] == 0:
                if not path.is_file() or path.read_text() != self.expected[o["out"]]:
                    problems.append(f"`soda {what}` wrote something else than the library's translation")
            elif path.exists():
                problems.append(f"`soda {what}` wrote output despite errors")
        if o["cmd"] == "fmt" and proc.stdout != f["text"]:
            problems.append(f"`soda {what}` did not print the canonical text")
        if o["cmd"] == "run":
            if "stdout" in o and proc.stdout != o["stdout"] + "\n":
                problems.append(f"`soda {what}` printed {proc.stdout!r}, expected {o['stdout']}")
            if "fault" in o and f"fault[{o['fault']}]" not in proc.stderr:
                problems.append(f"`soda {what}` did not report {o['fault']}: {proc.stderr[-300:]}")
        return problems

    def counts(self, o, proc) -> dict:
        return {}


# ============================================================
# timed phase
# ============================================================


def timed_rounds(wl, seconds: float, tracer) -> dict:
    """Whole rounds of the workload's operations until ``seconds`` have
    passed. With a tracer, rounds alternate untraced and traced, and an even
    number of rounds is run."""
    trace, null = tracer is not None, NullTracer()
    first_span = len(tracer.spans) if trace else 0
    ops = []  # [round, index, traced, cpu seconds, wall seconds, failed]
    counts: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    problems: list[str] = []
    failures: set[str] = set()
    start = time.perf_counter()
    rnd = 0
    while True:
        traced = trace and rnd % 2 == 1
        t = tracer if traced else null
        for i, item in enumerate(wl.ops):
            t.op = len(ops)
            c0, w0 = cpu_clock(), time.perf_counter()
            try:
                with t.span("op"):
                    out = wl.op(item, t, traced)
            except Exception as ex:  # counted as a failed operation
                ops.append([rnd, i, traced, cpu_clock() - c0, time.perf_counter() - w0, True])
                label = (item.get("name") or " ".join(item["argv"])
                         if isinstance(item, dict) else f"case {i}")
                failures.add(f"{label}: {type(ex).__name__}")
                continue
            ops.append([rnd, i, traced, cpu_clock() - c0, time.perf_counter() - w0, False])
            problems += wl.check(item, out)
            if traced:
                for k, v in wl.counts(item, out).items():
                    if k.endswith("peak_depth"):
                        counts[rnd][k] = max(counts[rnd][k], v)
                    else:
                        counts[rnd][k] += v
        rnd += 1
        if time.perf_counter() - start >= seconds and (not trace or rnd % 2 == 0):
            break
    return {"ops": ops, "spans": tracer.spans[first_span:] if trace else [], "counts": {r: dict(c) for r, c in counts.items()},
            "problems": sorted(set(problems)), "failures": sorted(failures), "rounds": rnd}


# ============================================================
# per-layer metrics from the traced rounds
# ============================================================


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def layer_metrics(workload: str, timed: dict, setup_spans: list, setup_counts: dict) -> dict:
    ops, spans = timed["ops"], timed["spans"]
    op_round = {i: o[0] for i, o in enumerate(ops)}
    traced_rounds = sorted({o[0] for o in ops if o[2]})
    busy = defaultdict(lambda: defaultdict(float))  # round -> span name -> seconds
    durations = defaultdict(list)  # span name -> [seconds]
    for _, _, op, name, s, e in spans:
        busy[op_round[op]][name] += e - s
        durations[name].append(e - s)

    def per_round(name: str) -> float:
        return _median(busy[r][name] for r in traced_rounds)

    def count(name: str) -> float:
        return timed["counts"][traced_rounds[0]].get(name, 0) if traced_rounds else 0

    m: dict[str, float] = {}
    if workload == "compile":
        lex, parse = per_round("lexer.tokenize"), per_round("parser.parse")
        c = {k: count(k) for k in ("lexer.tokens", "lexer.bytes", "parser.nodes", "analyzer.defs",
                                    "analyzer.diagnostics", "scala_backend.bytes",
                                    "lean_backend.bytes", "lean_backend.refused", "syntax.fmt_bytes")}
        analyze = per_round("analyzer.analyze")
        m.update({
            "analyzer.busy_s": analyze,
            "analyzer.us_per_def": analyze / c["analyzer.defs"] * 1e6,
            "analyzer.diagnostics": c["analyzer.diagnostics"],
            "scala_backend.busy_s": per_round("scala_backend.translate_to_scala"),
            "scala_backend.out_kb": c["scala_backend.bytes"] / 1024,
            "lean_backend.busy_s": per_round("lean_backend.translate_to_lean"),
            "lean_backend.out_kb": c["lean_backend.bytes"] / 1024,
            "lean_backend.refused": c["lean_backend.refused"],
            "syntax.fmt_busy_s": per_round("syntax.pretty_print"),
            "syntax.fmt_out_kb": c["syntax.fmt_bytes"] / 1024,
        })
    elif workload == "evaluate":
        # The front end runs once, on the specification, during set-up.
        for _, _, _, name, s, e in setup_spans:
            busy["setup"][name] += e - s
        lex, parse = busy["setup"]["lexer.tokenize"], busy["setup"]["parser.parse"]
        c = setup_counts
        m.update({
            "analyzer.busy_s": busy["setup"]["analyzer.analyze"],
            "analyzer.us_per_def": busy["setup"]["analyzer.analyze"] / c["analyzer.defs"] * 1e6,
            "analyzer.diagnostics": 0,
        })
        calls = [n for n in durations if n.startswith("interpreter.run_entry/")]
        empty = _median(durations["interpreter.run_entry/zero"])
        loop = _median(durations["interpreter.run_entry/loop"])
        fold = _median(durations["interpreter.run_entry/fold_sum"])
        const = [n for n in calls if re.fullmatch(r"interpreter\.run_entry/c\d+", n)]
        m.update({
            "interpreter.setup_ms": busy["setup"]["interpreter.Interpreter"] * 1e3,
            "interpreter.busy_s": _median(sum(busy[r][n] for n in calls) for r in traced_rounds),
            "interpreter.calls": count("interpreter.calls"),
            "interpreter.call_us_p50": _median(d for n in calls for d in durations[n]) * 1e6,
            "interpreter.empty_call_us": empty * 1e6,
            "interpreter.tail_iter_us": (loop - empty) / LOOP_N * 1e6,
            "interpreter.fold_item_us": (fold - empty) / FOLD_N * 1e6,
            "interpreter.const_ms": _median(durations[const[0]]) * 1e3 if const else 0.0,
            "interpreter.peak_depth_max": max((timed["counts"][r].get("interpreter.peak_depth", 0)
                                               for r in traced_rounds), default=0),
            "interpreter.faults": count("interpreter.faults"),
        })
    else:
        lex = parse = 0.0
        c = {}
        for cmd in ("check", "scala", "lean", "fmt", "run"):
            m[f"cli.{cmd}_ms"] = _median(durations["cli." + cmd]) * 1e3

    if workload != "cli":
        m.update({
            "lexer.busy_s": lex,
            "lexer.tokens": c["lexer.tokens"],
            "lexer.kb_per_s": c["lexer.bytes"] / 1024 / lex if lex else 0.0,
            "parser.busy_s": parse - lex,
            "parser.nodes": c["parser.nodes"],
            "parser.nodes_per_s": c["parser.nodes"] / (parse - lex) if parse > lex else 0.0,
        })

    # Tracing overhead: each traced round against the untraced round before
    # it, not counting the extra tokenize a traced compile operation makes.
    totals = defaultdict(float)
    for o in ops:
        totals[o[0]] += o[3]
    ratios = [(totals[r] - busy[r]["lexer.tokenize"]) / totals[r - 1] - 1
              for r in traced_rounds if totals[r - 1]]
    m["trace.overhead_pct"] = _median(ratios) * 100
    untraced = [o for o in ops if not o[2]]
    m.update(latency_metrics(untraced))
    m["tail.samples"] = len(untraced)
    return m


def latency_metrics(ops) -> dict:
    """Median CPU time per operation, with a failed operation counted as
    slower than any completed one; operations completed per CPU second,
    as the median over rounds so that a slow spell of the machine moves it
    less; the 90th percentile; and the first two in wall time."""

    def rate(column: int) -> float:
        done, spent = defaultdict(int), defaultdict(float)
        for o in ops:
            done[o[0]] += not o[5]
            spent[o[0]] += o[column]
        return statistics.median(done[r] / spent[r] for r in done)

    cpu = [math.inf if o[5] else o[3] for o in ops]
    return {
        "op_ms_p50": statistics.median(cpu) * 1e3,
        "ops_per_s": rate(3),
        "tail.op_ms_p90": statistics.quantiles(cpu, n=10)[-1] * 1e3,
        "wall.op_ms_p50": statistics.median(math.inf if o[5] else o[4] for o in ops) * 1e3,
        "wall.ops_per_s": rate(4),
    }


# ============================================================
# main
# ============================================================


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["compile", "evaluate", "cli"])
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--t0", required=True, type=float)
    ap.add_argument("--result", required=True, type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    soda = import_soda()
    tracer = Tracer() if args.trace else None
    if args.workload == "compile":
        wl = Compile(soda, args.inputs)
    elif args.workload == "evaluate":
        wl = Evaluate(soda, args.inputs, tracer or NullTracer())
    else:
        wl = Cli(soda, args.inputs)
    result = {"setup_s": cpu_clock(), "setup_wall_s": time.monotonic() - args.t0}
    if not args.setup_only:
        setup_spans = list(tracer.spans) if tracer else []
        timed = timed_rounds(wl, args.seconds, tracer)
        ops = timed["ops"]
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        result.update(latency_metrics([o for o in ops if not o[2]]))
        result.update({
            "attempted": len(ops),
            "failed": sum(o[5] for o in ops),
            "problems": timed["problems"],
            "failures": timed["failures"],
            "rounds": timed["rounds"],
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        })
        if args.trace:
            result["layers"] = layer_metrics(
                args.workload, timed, setup_spans, getattr(wl, "setup_counts", {}))
            with open(args.result.with_name("spans.json"), "w") as fh:
                json.dump({"fields": ["id", "parent", "op", "name", "start", "end"],
                           "spans": tracer.spans}, fh)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
