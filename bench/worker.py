"""One benchmark process: set up a workload, run one pass, write a JSON report.

The orchestrator (``run.py``) starts this script in a fresh process with
BLAS threading pinned to one thread; it is not meant to be run by hand:

    python3 bench/worker.py --workload gas-fit --seed 1 --trace 0 \\
        --out bench/out/scratch --spawned <CLOCK_MONOTONIC at spawn>

Set-up is importing ``matent.cli`` and writing the workload's YAML configs;
``--setup-only`` stops there and reports ``setup_s``, the time from the
``--spawned`` stamp to set-up done. A pass runs every op once, in order, each
exactly as ``matent --config <yaml> --out <dir>`` would, then reads and
checks its ``results.jsonl``; with ``--trace 1`` it runs under the timing
wrappers of ``layers.py``. The report goes to ``<out>/report.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent


def setup(workload: str, seed: int, outdir: Path, tiny: bool = False):
    """Import the CLI from the checkout's sources and write the configs."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import yaml
    from matent import cli

    cfgdir = outdir / "configs"
    cfgdir.mkdir(parents=True, exist_ok=True)
    cfgs = workloads.configs(workload, seed, tiny)
    for name, cfg in cfgs.items():
        (cfgdir / f"{name}.yaml").write_text(yaml.safe_dump(cfg, sort_keys=True))
    return cli, cfgdir, cfgs


def _stderr_nats(cfg: Dict, recs: List[Dict]) -> Dict[str, List[float]]:
    """Reported standard errors in nats, by layer, for the cost rows."""
    out: Dict[str, List[float]] = {}
    n2 = cfg.get("model", {}).get("N", 0) ** 2
    for r in recs:
        if "rho" in r:
            out.setdefault("maxent", []).append(r["rho"]["stderr"])
        elif r.get("kind") == "orbital":
            out.setdefault("orbital", []).append(r["stderr"] * n2)
        elif r.get("kind") == "talagrand":
            out.setdefault("orbital", []).append(r["orbital_stderr"] * n2)
    return out


def run_op(cli, op: workloads.Op, cfgdir: Path, cfg: Dict, outdir: Path) -> Dict:
    """Run one config through the CLI entry point and check its records."""
    err = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["--config", str(cfgdir / f"{op.name}.yaml"), "--out", str(outdir)])
    except Exception:
        # a crash is outside the CLI's exit-code contract: report it, go on
        code = -1
        err.write(traceback.format_exc())
    results = outdir / "results.jsonl"
    raw = results.read_bytes() if code == 0 else b""
    recs = [json.loads(line) for line in raw.splitlines()]
    verdict = workloads.judge(op, code, recs, err.getvalue())
    wall = time.perf_counter() - t0
    return {"name": op.name, "exit": code, "wall_s": wall,
            "sha256": hashlib.sha256(raw).hexdigest(),
            "bytes": sum(p.stat().st_size for p in outdir.iterdir()) if outdir.is_dir() else 0,
            "stderr_nats": _stderr_nats(cfg, recs), **verdict}


def run_pass(cli, workload: str, cfgdir: Path, cfgs: Dict[str, Dict], outdir: Path) -> Dict:
    t0 = time.perf_counter()
    ops = [run_op(cli, op, cfgdir, cfgs[op.name], outdir / op.name)
           for op in workloads.WORKLOADS[workload]]
    return {"wall_s": time.perf_counter() - t0, "ops": ops}


def _git_commit() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> Dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": _git_commit(),
        **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                          "MATENT_THREADS")},
    }


def clock() -> float:
    """CLOCK_MONOTONIC: system-wide, so stamps compare across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run(workload: str, seed: int, trace: bool, outdir: Path, tiny: bool = False) -> Dict:
    """Set up, run one pass, and return the report."""
    cli, cfgdir, cfgs = setup(workload, seed, outdir, tiny)
    report = {"env": environment()}
    if trace:
        tracer = layers.Tracer()
        with tracer.installed():
            report["pass"] = run_pass(cli, workload, cfgdir, cfgs, outdir / "pass")
        report["layers"] = layers.layer_metrics(tracer)
        report["missing"] = tracer.missing
    else:
        report["pass"] = run_pass(cli, workload, cfgdir, cfgs, outdir / "pass")
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--spawned", type=float, required=True,
                    help="clock() just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.setup_only:
        setup(args.workload, args.seed, args.out)
        report = {"setup_s": clock() - args.spawned}
    else:
        report = run(args.workload, args.seed, bool(args.trace), args.out)
    (args.out / "report.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
