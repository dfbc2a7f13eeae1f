"""Smoke tests of the benchmark harness on tiny budgets.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

Tiny budgets make every layer run in about a second per workload; they are
far too small for the accuracy checks, so these tests check the harness
(attribution, restoring the wrappers, byte-identical passes, failure
accounting, the output contract), not the program's numbers.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Per workload: two untraced tiny passes and one traced, same seed."""
    out = {}
    for w in workloads.WORKLOADS:
        d = tmp_path_factory.mktemp(w)
        out[w] = [worker.run(w, 3, trace, d / f"pass{i}", tiny=True)
                  for i, trace in enumerate((0, 0, 1))]
    return out


def _matent_bindings():
    """Every attribute of every loaded matent module and traced class."""
    mods = {n: m for n, m in sys.modules.items() if n == "matent" or n.startswith("matent.")}
    snap = {(n, k): v for n, m in mods.items() for k, v in vars(m).items()}
    for module_name, attr, _, _ in layers.TARGETS:
        cls_name, _, method = attr.rpartition(".")
        if cls_name:
            cls = getattr(sys.modules[module_name], cls_name)
            snap[(module_name, attr)] = vars(cls)[method]
    return snap


def test_layers_attributed(reports):
    gas = reports["gas-fit"][2]["layers"]
    assert gas["sampler.gas_sweeps"] > 0 and gas["sampler.gas_s"] > 0
    assert gas["sampler.matrix_steps"] == 0
    assert gas["matrices.haar_unitaries"] == 0
    assert gas["sampler.ti_nodes"] > 0 and gas["maxent.sa_iters"] > 0
    assert gas["maxent.fits"] == 2 and gas["maxent.reference_s"] > 0
    assert gas["sampler.gas_s"] <= gas["maxent.fit_s"]

    mat = reports["matrix-fit"][2]["layers"]
    assert mat["sampler.gas_sweeps"] == 0
    assert mat["sampler.matrix_steps"] > 0 and mat["sampler.ti_nodes"] > 0
    assert mat["ncpoly.evaluate_calls"] > 0 and mat["ncpoly.trace_moment_calls"] > 0
    assert mat["matrices.haar_unitaries"] == 0

    orb = reports["orbital"][2]["layers"]
    assert orb["sampler.ti_s"] == 0 and orb["maxent.sa_iters"] == 0
    assert orb["maxent.fits"] == 0 and orb["sampler.gas_sweeps"] == 0
    assert orb["matrices.haar_unitaries"] > 0 and orb["sampler.chains"] > 0
    assert orb["orbital.inner_batches"] > 0 and orb["matrices.tuples"] > 0

    for w, reps in reports.items():
        lay = reps[2]["layers"]
        assert reps[2]["missing"] == [], w
        assert lay["maxent.self_s"] >= 0 and lay["orbital.self_s"] >= 0, w
        assert lay["maxent.fit_s"] + lay["orbital.self_s"] <= reps[2]["pass"]["wall_s"], w


def test_wrappers_installed_then_restored(tmp_path):
    worker.setup("orbital", 1, tmp_path, tiny=True)
    from matent import maxent, orbital, sampler
    before = _matent_bindings()
    tracer = layers.Tracer()
    with tracer.installed():
        assert maxent.estimate_log_I is not before[("matent.sampler", "estimate_log_I")]
        assert maxent.estimate_log_I is orbital.estimate_log_I
        assert sampler.ChainEngine.step is not before[("matent.sampler", "ChainEngine.step")]
    after = _matent_bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_passes_byte_identical(reports):
    for w, reps in reports.items():
        digests = [[op["sha256"] for op in r["pass"]["ops"]] for r in reps]
        assert digests[0] == digests[1] == digests[2], w


def test_checks_count_flagged_and_quiet_failures():
    op = workloads.WORKLOADS["gas-fit"][0]
    rec = {"N": 16, "chi_value": 1.1906, "chi_stderr": 0.0017,
           "rho": {"bias_bound": 0.7}, "converged": False}
    flagged = workloads.judge(op, 0, [rec], "")
    assert not flagged["ok"] and not flagged["quiet"] and not flagged["error"]
    assert flagged["numbers"]["gap"] == pytest.approx(1.1906 - workloads.README_RHO_CHI)
    quiet = workloads.judge(op, 0, [dict(rec, converged=True)], "")
    assert not quiet["ok"] and quiet["quiet"]
    good = workloads.judge(op, 0, [dict(rec, converged=True, chi_value=1.092)], "")
    assert good["ok"]
    nan = workloads.judge(op, 0, [dict(rec, converged=True, chi_value=float("nan"))], "")
    assert not nan["ok"] and nan["quiet"]
    crashed = workloads.judge(op, 2, [], "config error: bad")
    assert crashed["error"] and "config error" in crashed["reason"]
    assert workloads.judge(op, 4, [], "estimator failure")["error"] is False


def test_summary_matches_benchmark_spec(reports):
    for w, reps in reports.items():
        plain = run.summarize(w, 3, 0, [0.5, 0.6, 0.7], reps[:1])
        res = plain["result"]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert [(k, v["unit"]) for k, v in res["metrics"].items()] == \
            [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
        assert res["failed"] == sum("FAIL" in line for line in plain["lines"])
        traced = run.summarize(w, 3, 1, [], reps[1:])
        assert traced["result"]["correct"] == (not any(
            op["quiet"] for r in reps[1:] for op in r["pass"]["ops"]))
        assert {(k, v["unit"]) for k, v in traced["result"]["metrics"].items()} == \
            {(m["name"], m["unit"]) for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_mismatched_passes_are_not_correct(reports):
    reps = json.loads(json.dumps(reports["orbital"][:2]))
    reps[1]["pass"]["ops"][0]["sha256"] = "0" * 64
    summary = run.summarize("orbital", 3, 0, [0.5], reps)
    assert summary["result"]["correct"] is False
    assert any("differs between passes" in line for line in summary["lines"])


def test_pass_count_follows_seconds_not_speed():
    assert [run.pass_count(w, 20) for w in workloads.WORKLOADS] == [1, 1, 2]
    assert run.pass_count("orbital", 1) == 1


def test_setup_probes_stamp_their_own_setup(tmp_path):
    times = run.setup_times("orbital", 1, tmp_path, time.monotonic() + 60)
    assert len(times) == run.SETUP_PROBES and all(0 < t < 30 for t in times)
    assert (tmp_path / "setup0" / "configs" / "talagrand-16.yaml").is_file()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "orbital",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
