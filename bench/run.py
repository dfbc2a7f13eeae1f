"""matent benchmark: time to a checked result, per workload, and a traced per-layer run.

Run from the root of a checkout (nothing needs building; the program is
imported from ``src``):

    python3 bench/run.py --workload gas-fit --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn, each printing its own
summary and JSON line.

Workloads are fixed lists of ``matent`` experiment configs (``workloads.py``),
run one after another in one fresh process: a closed loop with one client.
Every config sets ``threads: 1`` and the benchmark's own child processes pin
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` to 1 and clear
``MATENT_THREADS``, which suits a shared two-core machine.

``--trace 0`` runs ceil(``--seconds`` / the workload's baseline pass time)
passes over the op list, each in a fresh process, two at a time side by
side, so the pass count is the same however fast the program is (with
``--seconds 20``: one for ``gas-fit`` and ``matrix-fit``, two side by side
for ``orbital``). It reports the end-to-end metrics: ``wall_s`` (median pass
time), ``setup_s`` (median over several fresh processes of the time from
spawn to ``matent.cli`` imported and the configs written, as each process
stamps it) and ``peak_rss_mb``. Failed ops are counted in the result's
``failed`` out of ``attempted`` and printed as ``fail_frac``; a fraction is
no end-to-end metric because it can be 0. ``--trace 1`` runs one untraced
pass and one traced pass side by side, each in its own fresh process, and
reports the per-layer metrics of the traced pass; the ratio of the two pass
times gives ``trace.overhead_frac``. Whenever a run holds two passes it
requires their ``results.jsonl`` to be byte-identical.

Every failed check is printed with its numbers and counted in ``failed``.
``correct`` is false when an op crashed or broke the CLI's exit-code
contract, when an op failed its check although the program reported the
result as converged and self-consistent (a quiet wrong answer), or when two
passes of the same seed disagreed. The last line of standard output is one
JSON object; a report with the environment and every op goes to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import layers
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 3
# passes of one run that go side by side, one per core of a two-core machine
CORES = 2
# a run must end within 180 s; a slower program fails the run rather than
# the whole benchmark
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env.pop("MATENT_THREADS", None)
    return env


def _workers(runs: List[Tuple[str, List[str]]], scratch: Path, deadline: float) -> List[Dict]:
    """Start one worker per (name, arguments) at once and read their reports.

    On a failure or the deadline every worker is stopped before returning.
    """
    procs = []
    try:
        for name, args in runs:
            out = scratch / name
            out.mkdir(parents=True)
            with open(out / "worker.log", "w") as err:
                procs.append(subprocess.Popen(
                    [sys.executable, str(WORKER), *args, "--out", str(out),
                     "--spawned", repr(worker.clock())],
                    env=child_env(), stdout=subprocess.DEVNULL, stderr=err))
        for proc, (name, _) in zip(procs, runs):
            try:
                code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError("worker ran past the deadline")
            if code != 0:
                log = (scratch / name / "worker.log").read_text().strip()
                raise BenchError(f"worker exited {code}: {log[-2000:]}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return [json.loads((scratch / name / "report.json").read_text()) for name, _ in runs]


def setup_times(workload: str, seed: int, scratch: Path, deadline: float) -> List[float]:
    """Times from spawning a fresh process to its set-up being done."""
    args = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    return [_workers([(f"setup{i}", args)], scratch, deadline)[0]["setup_s"]
            for i in range(SETUP_PROBES)]


def pass_count(workload: str, seconds: float) -> int:
    """Untraced passes in a run: fixed by ``--seconds``, not by the program's speed."""
    return max(1, math.ceil(seconds / workloads.PASS_S[workload]))


def _fmt(nums: Dict[str, float]) -> str:
    return ", ".join(f"{k} {v:.6g}" for k, v in nums.items())


def _cost(ops: List[Dict], layer: str) -> float:
    """Sum over ops of op wall time times the mean squared stderr (nats^2)."""
    total = 0.0
    for op in ops:
        errs = op["stderr_nats"].get(layer)
        if errs:
            total += op["wall_s"] * statistics.fmean(e * e for e in errs)
    return total


def summarize(workload: str, seed: int, trace: int, setup: List[float],
              reports: List[Dict]) -> Dict:
    passes = [r["pass"] for r in reports]
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op["ok"]]
    digests = {}
    mismatched = set()
    for op in ops:
        if digests.setdefault(op["name"], op["sha256"]) != op["sha256"]:
            mismatched.add(op["name"])
    correct = (not mismatched and not any(op["quiet"] or op["error"] for op in ops))

    lines = []
    env = reports[0]["env"]
    lines.append("env " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for i, p in enumerate(passes):
        label = "traced" if trace and i == len(passes) - 1 else f"pass {i}"
        for op in p["ops"]:
            if op["ok"]:
                verdict = "ok"
            else:
                kind = "error" if op["error"] else "quiet" if op["quiet"] else "flagged"
                verdict = f"FAIL ({kind}) {op['reason']}"
            lines.append(f"op {op['name']} {label}: {op['wall_s']:.3f} s {verdict}"
                         + (f" [{_fmt(op['numbers'])}]" if op["numbers"] else ""))
    for name in sorted(mismatched):
        lines.append(f"op {name}: results.jsonl differs between passes of seed {seed}")

    if trace:
        plain, traced = reports[0]["pass"], reports[1]["pass"]
        metrics = dict(reports[1]["layers"])
        times = {op["name"]: op["wall_s"] for op in traced["ops"]}
        metrics.update({f"cli.{name}_s": times.get(name, 0.0) for name in workloads.ALL_OPS})
        metrics["cli.bytes"] = float(sum(op["bytes"] for op in traced["ops"]))
        metrics["maxent.cost_s_nat2"] = _cost(traced["ops"], "maxent")
        metrics["orbital.cost_s_nat2"] = _cost(traced["ops"], "orbital")
        metrics["trace.wall_s"] = traced["wall_s"]
        metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
        units = {**layers.UNITS, **{f"cli.{n}_s": "s" for n in workloads.ALL_OPS}}
        for name in reports[1].get("missing", []):
            lines.append(f"trace: {name} not found, its spans read 0")
    else:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        }
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    for name, value in metrics.items():
        lines.append(f"{workload} {name} {value:.6g} {units[name]}")
    lines.append(f"{workload} seed {seed}: fail_frac {len(failed) / len(ops):.6g} ratio "
                 f"({len(failed)}/{len(ops)} ops failed), "
                 f"{len(passes)} pass(es), correct {correct}")
    result = {"correct": correct, "attempted": len(ops), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return {"lines": lines, "result": result, "env": env, "setup_s": setup,
            "passes": passes}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    deadline = time.monotonic() + DEADLINE_S
    outroot = HERE / "out"
    tag = f"{workload}-s{seed}-t{trace}"
    scratch = outroot / f"{tag}-{os.getpid()}"
    args = ["--workload", workload, "--seed", str(seed)]
    try:
        if trace:
            # both passes at once, one per core: the pair shares whatever
            # else loads the machine, and a traced run costs one pass of time
            setup = []
            reports = _workers([("plain", [*args, "--trace", "0"]),
                                ("traced", [*args, "--trace", "1"])], scratch, deadline)
        else:
            setup = setup_times(workload, seed, scratch, deadline)
            # one fresh process per pass, so every pass is cold; up to one
            # pass per core at a time
            n = pass_count(workload, seconds)
            reports = []
            for i in range(0, n, CORES):
                reports += _workers([(f"pass{j}", args) for j in range(i, min(n, i + CORES))],
                                    scratch, deadline)
    except BenchError as exc:
        print(f"error: {workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    summary = summarize(workload, seed, trace, setup, reports)
    print("\n".join(summary["lines"]))
    (outroot / f"{tag}.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps(summary["result"]), flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="untraced passes: ceil(seconds / the workload's baseline pass time)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "matent" / "cli.py").is_file():
        print(f"error: no matent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    codes = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
