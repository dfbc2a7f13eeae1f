"""Benchmark workloads: fixed lists of ``matent`` experiment configs and their checks.

Each op is one YAML config run exactly as ``matent --config`` runs it. The
YAML schema is the interface the benchmark depends on, so refactors of the
Python API leave the workloads intact. Every config sets ``threads: 1``.

Each check states its accuracy in nats, so a pass's wall time is the time to
a *checked* answer. A failed check is counted, never waived; it is
*flagged* when the program itself marked the result as untrustworthy
(``converged: false``, ``self_consistent: false``, or exit code 3/4) and
*quiet* otherwise. A quiet failure is a wrong answer presented as right.

This module imports nothing heavy: the orchestrator loads it before any
numerical library is imported.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

# the acceptance suite's budgets (tests/test_acceptance.py)
RECIPE = {"iterations": 220, "steps_per_iter": 400, "discard_per_iter": 80,
          "step_size": 8.0, "moment_tol": 0.004, "final_steps": 20000,
          "final_burnin": 3000}
TIGHT = {"iterations": 400, "steps_per_iter": 600, "discard_per_iter": 120,
         "step_size": 8.0, "moment_tol": 0.002, "final_steps": 20000,
         "final_burnin": 3000}
# harness smoke budgets: enough for every layer to run, far too little for
# the accuracy checks to mean anything
TINY_FIT = {"iterations": 4, "steps_per_iter": 24, "discard_per_iter": 8,
            "min_iterations": 2, "final_steps": 120, "final_burnin": 40,
            "ti": {"nodes": 4, "node_burnin": 20, "node_steps": 40}}
TINY_NESTED = {"s_out": 16, "s_in": 16, "chain_burnin": 40, "chain_thin": 2}

SEMICIRCLE = {"name": "semicircle", "variance": 1.0, "radius": 4.0, "K": 4}
FREE_PAIR = {"name": "free-semicircle-pair", "variance": 1.0, "radius": 2.0, "K": 2}

# one-variable quadrature references for the semicircle (variance 1, radius
# 4) at N = 16 and N = 8, as matent.maxent.one_variable_chi_reference gives
# them; at N = 16 the quadrature sits 2.7e-3 from the exact finite-N maxent
# value, which the 0.01 slack covers
README_RHO_CHI = 1.091342
README_RHO_SLACK = 0.01
CHI8_REFERENCE = 1.106190
CHI8_SLACK = 0.02

Check = Tuple[bool, str, Dict[str, float]]


@dataclass(frozen=True)
class Op:
    """One experiment config and the check its records must pass."""

    name: str
    config: Callable[[bool], Dict]
    check: Callable[[List[Dict]], Check]


def op_seed(seed: int, op: str) -> int:
    """Config seed of ``op`` derived from the workload seed."""
    return zlib.crc32(f"{seed}:{op}".encode())


def _fit(full: Dict, tiny: bool) -> Dict:
    return dict(TINY_FIT) if tiny else dict(full)


def _readme_rho(tiny: bool) -> Dict:
    cfg = {"kind": "rho", "N": 4 if tiny else 16, "K": 4, "target": SEMICIRCLE}
    if tiny:
        cfg["fit"] = dict(TINY_FIT)
    return cfg


def _check_readme_rho(recs: List[Dict]) -> Check:
    r = recs[0]
    n2 = r["N"] * r["N"]
    gap = r["chi_value"] - README_RHO_CHI
    tol = 3.0 * r["chi_stderr"] + r["rho"]["bias_bound"] / n2 + README_RHO_SLACK
    nums = {"chi": r["chi_value"], "reference": README_RHO_CHI, "gap": gap,
            "tol": tol, "chi_stderr": r["chi_stderr"]}
    if not r["converged"]:
        return False, "fit not converged", nums
    if not abs(gap) <= tol:
        return False, "chi off the N = 16 reference", nums
    return True, "", nums


def _chi_recipe_8(tiny: bool) -> Dict:
    return {"kind": "chi-tilde", "sizes": [4 if tiny else 8], "K": 4,
            "target": SEMICIRCLE, "fit": _fit(RECIPE, tiny),
            "reference_density": "semicircle"}


def _check_chi_recipe_8(recs: List[Dict]) -> Check:
    r = recs[0]
    n2 = r["N"] * r["N"]
    gap = r["value"] - r["reference"]
    tol = 3.0 * r["stderr"] + r["rho"]["bias_bound"] / n2 + CHI8_SLACK
    nums = {"chi": r["value"], "reference": r["reference"], "gap": gap,
            "tol": tol, "stderr": r["stderr"]}
    if not r["converged"]:
        return False, "fit not converged", nums
    if not abs(r["reference"] - CHI8_REFERENCE) <= 1e-6:
        return False, f"reference moved from {CHI8_REFERENCE}", nums
    if not abs(gap) <= tol:
        return False, "chi off the quadrature reference", nums
    return True, "", nums


def _free_pair_4(tiny: bool) -> Dict:
    return {"kind": "rho", "N": 2 if tiny else 4, "K": 2, "target": FREE_PAIR,
            "fit": _fit(TIGHT, tiny)}


def _check_free_pair_4(recs: List[Dict]) -> Check:
    r = recs[0]
    gap = r["rho"]["value"] - r["dual_value"]["value"]
    tol = 3.0 * r["energy"]["stderr"]
    nums = {"rho": r["rho"]["value"], "dual": r["dual_value"]["value"],
            "gap": gap, "tol": tol}
    if not r["converged"]:
        return False, "fit not converged", nums
    if not abs(gap) <= tol:
        return False, "primal and dual disagree", nums
    return True, "", nums


def _nested(tiny: bool, full: Dict) -> Dict:
    return dict(TINY_NESTED) if tiny else dict(full)


def _orbital(potential: Dict) -> Callable[[bool], Dict]:
    def config(tiny: bool) -> Dict:
        cfg = {"kind": "orbital",
               "model": {"n": 2, "N": 4 if tiny else 8, "R": 2.0,
                         "potential": potential}}
        cfg.update(_nested(tiny, {"s_out": 128, "s_in": 96}))
        return cfg
    return config


def _check_readme_orbital(recs: List[Dict]) -> Check:
    r = recs[0]
    nums = {"value": r["value"], "stderr": r["stderr"]}
    if not r["self_consistent"]:
        return False, "nested estimate not self-consistent", nums
    if not r["value"] < -3.0 * r["stderr"]:
        return False, "coupled value not below -3 stderr", nums
    return True, "", nums


def _check_decoupled(recs: List[Dict]) -> Check:
    r = recs[0]
    tol = 3.0 * r["stderr"] + r["bias_bound"]
    nums = {"value": r["value"], "exact": 0.0, "tol": tol}
    if not abs(r["value"]) <= tol:
        return False, "decoupled value off zero", nums
    return True, "", nums


def _talagrand(N: int) -> Callable[[bool], Dict]:
    def config(tiny: bool) -> Dict:
        cfg = {"kind": "talagrand", "model": {"n": 2, "N": 4 if tiny else N, "R": 2.0},
               "couplings": [1.0] if tiny else [0.25, 0.5, 1.0], "K": 4}
        cfg.update(_nested(tiny, {"s_out": 128, "s_in": 96, "chain_burnin": 1200,
                                  "chain_thin": 20}))
        return cfg
    return config


def _check_talagrand(recs: List[Dict]) -> Check:
    nums = {}
    bad = []
    for r in recs:
        c = r["coupling"]
        nums[f"c{c}_lhs"] = max(r["lhs_free"], r["lhs_conj"])
        nums[f"c{c}_rhs"] = r["rhs_upper"]
        nums[f"c{c}_orbital"] = r["orbital_value"]
        if not (r["holds_free"] and r["holds_conj"]):
            bad.append(f"c={c} transport bound violated")
        if not r["orbital_value"] < 0.0:
            bad.append(f"c={c} orbital value not negative")
    return not bad, "; ".join(bad), nums


WORKLOADS: Dict[str, List[Op]] = {
    # n = 1 fits on the eigenvalue gas: SA sweeps and TI dominate; the only
    # workload that builds the dense quadrature reference (memory)
    "gas-fit": [
        Op("readme-rho", _readme_rho, _check_readme_rho),
        Op("chi-recipe-8", _chi_recipe_8, _check_chi_recipe_8),
    ],
    # one n = 2 fit: matrix-mode Metropolis, word evaluation, matrix-mode TI
    "matrix-fit": [
        Op("free-pair-4", _free_pair_4, _check_free_pair_4),
    ],
    # nested orbital Monte Carlo: Haar batches, outer chains, moments; no
    # SA and no TI; N = 8 against N = 16 separates interpreter from BLAS work
    "orbital": [
        Op("readme-orbital", _orbital({"name": "coupled", "c": 1.0}), _check_readme_orbital),
        Op("decoupled-8", _orbital({"name": "quadratic", "c": 1.0}), _check_decoupled),
        Op("talagrand-8", _talagrand(8), _check_talagrand),
        Op("talagrand-16", _talagrand(16), _check_talagrand),
    ],
}

ALL_OPS = [op.name for ops in WORKLOADS.values() for op in ops]

# seconds of one untraced pass at the first baseline, rounded; a run makes
# ceil(--seconds / PASS_S) passes, so the number of passes follows the time
# asked for and never the speed of the program under test
PASS_S = {"gas-fit": 50.0, "matrix-fit": 30.0, "orbital": 12.5}


def configs(workload: str, seed: int, tiny: bool = False) -> Dict[str, Dict]:
    """The workload's configs in run order, keyed by op name."""
    out = {}
    for op in WORKLOADS[workload]:
        cfg = op.config(tiny)
        cfg["seed"] = op_seed(seed, op.name)
        cfg["threads"] = 1
        out[op.name] = cfg
    return out


def _flagged(recs: List[Dict]) -> bool:
    """Whether the program itself marked a result as untrustworthy."""
    return any(r.get("converged") is False or r.get("self_consistent") is False
               for r in recs)


def judge(op: Op, exit_code: int, recs: List[Dict], stderr: str) -> Dict:
    """Verdict for one op.

    ``ok``: the check passed. ``quiet``: it failed although the program
    claimed a trustworthy result. ``error``: the op did not run under the
    CLI's contract (config error or crash), a fault of the harness or the
    program rather than a measured failure.
    """
    if exit_code != 0:
        return {"ok": False, "quiet": False, "error": exit_code not in (3, 4),
                "reason": f"exit {exit_code}: {stderr.strip()}", "numbers": {}}
    ok, reason, nums = op.check(recs)
    return {"ok": ok, "quiet": not ok and not _flagged(recs),
            "error": False, "reason": reason, "numbers": nums}
