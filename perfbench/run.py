"""Benchmark of the soda toolchain, one workload per invocation.

    python3 perfbench/run.py --workload compile|evaluate|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. The inputs are generated from ``--seed``
into ``.perfbench_out/``, then the workload runs in fresh processes of its
own (``workload.py``): several that only set up, and one that also measures.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The raw result and, for traced runs, the spans are kept in
``.perfbench_out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Processes that only set up, besides the measuring one; setup_s is the
#: median over all of them.
SETUP_ONLY_RUNS = 6
#: Launches of ``python -c pass`` and of ``python -c "import soda"`` per
#: traced run, for cli.python_startup_ms and cli.import_ms.
STARTUP_PROBES = 7
#: Seconds a set-up-only process and the measuring process may take beyond
#: the run length before the run is abandoned.
SETUP_TIMEOUT_S = 60
MEASURE_GRACE_S = 90


def write_inputs(workload: str, seed: int, inputs: Path) -> None:
    inputs.mkdir(parents=True)

    def save(files):
        for f in files:
            (inputs / f.name).write_text(f.text)
        return [f.manifest() for f in files]

    if workload == "compile":
        manifest = save(gen.compile_corpus(seed))
        # The paper's Pair listings, with their hand-written translations.
        manifest += [{"name": name + ".soda", "kind": "golden", "path": f"tests/goldens/{name}"}
                     for name in ("pair", "pair_param")]
        (inputs / "manifest.json").write_text(json.dumps(manifest))
    elif workload == "evaluate":
        (inputs / "spec.soda").write_text(gen.spec_source())
        (inputs / "cases.json").write_text(json.dumps(gen.eval_cases(seed)))
    else:
        files, ops = gen.cli_inputs(seed)
        (inputs / "manifest.json").write_text(json.dumps(save(files)))
        (inputs / "ops.json").write_text(json.dumps(ops))


def run_child(args, inputs: Path, result: Path, setup_only: bool) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--inputs", str(inputs), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    result.unlink(missing_ok=True)
    t0 = time.monotonic()
    timeout = SETUP_TIMEOUT_S if setup_only else args.seconds + MEASURE_GRACE_S
    proc = subprocess.run(cmd + ["--t0", repr(t0)], timeout=timeout)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: the {args.workload} workload exited {proc.returncode}")
    return json.loads(result.read_text())


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def startup_probes() -> dict:
    """Median CPU time of a bare interpreter start and of one that imports
    soda, launched alternately."""
    bare, imported = [], []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for _ in range(STARTUP_PROBES):
        for code, out in (("pass", bare), ("import soda", imported)):
            before = children_cpu()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            out.append(children_cpu() - before)
    return {"cli.python_startup_ms": statistics.median(bare) * 1e3,
            "cli.import_ms": (statistics.median(imported) - statistics.median(bare)) * 1e3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["compile", "evaluate", "cli"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "soda" / "__init__.py").is_file():
        print(f"perfbench: no soda sources in {ROOT / 'src' / 'soda'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    work = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs, result_path = work / "inputs", work / "result.json"
    write_inputs(args.workload, args.seed, inputs)
    setups = [run_child(args, inputs, result_path, True) for _ in range(SETUP_ONLY_RUNS)]
    res = run_child(args, inputs, result_path, False)
    setups.append(res)
    shutil.rmtree(inputs)

    for line in res["problems"]:
        print(f"perfbench: wrong output: {line}", file=sys.stderr)
    for line in res["failures"]:
        print(f"perfbench: failed operation: {line}", file=sys.stderr)
    if args.trace:
        values = {**res["layers"], **startup_probes(),
                  "wall.setup_s": statistics.median(s["setup_wall_s"] for s in setups)}
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "ops_per_s": res["ops_per_s"],
            "op_ms_p50": res["op_ms_p50"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    # A layer the workload does not run reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    summary = {"correct": not res["problems"], "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    (work / "summary.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
