"""Config-driven experiment runner.

Experiments are described by a YAML file with a ``kind`` field, a mandatory
``seed``, and kind-specific sections; every stochastic component draws from a
named substream of the seed, so rerunning a config reproduces the result
records bit for bit. Records go to ``results.jsonl`` (one JSON object per
line, deterministic), an envelope with timing and the config hash goes to
``run.json``, and ready-to-plot delimited tables go to ``*.tsv``.

Exit codes: 0 success, 2 config error, 3 infeasible target, 4 estimator
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, is_dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from . import __version__
from .estimates import EstimatorError, ScalarEstimate
from .matrices import (BlockMap, MatrixTuple, build_compression,
                       log_jacobian_functional_calculus)
from .maxent import (FitOptions, FitResult, InfeasibleTargetError, fit_projection,
                     free_pressure, one_variable_chi_reference)
from .moments import (MomentSpec, arcsine_moments, empirical_moments,
                      free_product_moments, semicircle_moments)
from .ncpoly import NcPoly
from .orbital import (OrbitalRequest, chain_rule_check, orbital_entropy,
                      talagrand_report)
from .sampler import (GibbsModel, TIOptions, log_ball_volume, mcmc_chain,
                      microstate_hit_rate)
from .streams import substream

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunRecord",
    "load_config",
    "config_hash",
    "run",
    "emit_plot_data",
    "main",
    "EXPERIMENT_KINDS",
]

THREADS_ENV = "MATENT_THREADS"


class ConfigError(ValueError):
    """The experiment description is malformed."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description."""

    kind: str
    seed: int
    params: Dict
    out: Optional[str] = None
    threads: int = 1

    def param(self, key: str, default=None):
        return self.params.get(key, default)


@dataclass(frozen=True)
class RunRecord:
    """Everything a finished run produced, before serialization."""

    config: ExperimentConfig
    config_hash: str
    version: str
    results: List[Dict]
    tables: Dict[str, Tuple[Tuple[str, ...], List[Tuple]]]


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the experiment identity, stable under key reordering.

    Covers kind, seed, and params; ``out`` and ``threads`` are execution
    details that cannot change the result records.
    """
    blob = json.dumps({"kind": config.kind, "seed": config.seed,
                       "params": config.params}, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def load_config(path: str, seed_override: Optional[int] = None,
                out_override: Optional[str] = None,
                threads_override: Optional[int] = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}")
    _require(isinstance(raw, dict), "config must be a mapping")
    kind = raw.pop("kind", None)
    _require(kind in EXPERIMENT_KINDS,
             f"kind must be one of {sorted(EXPERIMENT_KINDS)}, got {kind!r}")
    seed = raw.pop("seed", None)
    if seed_override is not None:
        seed = seed_override
    _require(isinstance(seed, int), "an integer seed is required")
    out = raw.pop("out", None)
    if out_override is not None:
        out = out_override
    threads = raw.pop("threads", None)
    if threads_override is not None:
        threads = threads_override
    elif threads is None:
        env_threads = os.environ.get(THREADS_ENV)
        if env_threads:
            try:
                threads = int(env_threads)
            except ValueError:
                raise ConfigError(f"{THREADS_ENV} must be an integer, got {env_threads!r}")
        else:
            threads = 1
    _require(isinstance(threads, int) and threads >= 1, "threads must be a positive integer")
    unknown = sorted(set(raw) - set(_KEYS[kind]))
    _require(not unknown, f"unknown {kind} key(s) {unknown}")
    return ExperimentConfig(kind=str(kind), seed=int(seed), params=raw,
                            out=out, threads=int(threads))


# ---------------------------------------------------------------------------
# building blocks shared by runners

def build_potential(params: Optional[Dict], n: int) -> NcPoly:
    """Potential from a config section: a named family or explicit terms."""
    if params is None or params == {} or params.get("name") == "zero":
        return NcPoly.zero(n)
    if "terms" in params:
        terms = {}
        for t in params["terms"]:
            _require(isinstance(t, dict) and "word" in t, "each term needs a word")
            terms[tuple(t["word"])] = complex(t.get("re", 0.0), t.get("im", 0.0))
        p = NcPoly(n, terms)
        _require(p.is_self_adjoint(), "explicit potential must be self-adjoint")
        return p
    name = params.get("name")
    c = float(params.get("c", 1.0))
    if name == "quadratic":
        p = NcPoly.zero(n)
        for i in range(1, n + 1):
            p = p + c * NcPoly.from_word(n, (i, i))
        return p
    if name == "quartic":
        p = NcPoly.zero(n)
        for i in range(1, n + 1):
            p = p + c * NcPoly.from_word(n, (i,) * 4)
        return p
    if name == "tilt":
        return c * NcPoly.generator(n, 1)
    if name == "coupled":
        _require(n == 2, "the coupled potential needs n = 2")
        d = NcPoly.generator(2, 1) - NcPoly.generator(2, 2)
        return c * (d * d)
    raise ConfigError(f"unknown potential {name!r}")


def build_target(params: Dict) -> MomentSpec:
    """Moment target from a config section."""
    _require(isinstance(params, dict), "target must be a mapping")
    if "file" in params:
        with open(params["file"]) as fh:
            return MomentSpec.from_json(fh.read())
    if "entries" in params:
        return MomentSpec.from_json(json.dumps(params))
    name = params.get("name")
    K = int(params.get("K", 4))
    if name == "semicircle":
        return semicircle_moments(float(params.get("variance", 1.0)), K,
                                  radius=params.get("radius"))
    if name == "arcsine":
        return arcsine_moments(float(params.get("R", 2.0)), K)
    if name == "free-semicircle-pair":
        half = semicircle_moments(float(params.get("variance", 1.0)), K,
                                  radius=params.get("radius"))
        return free_product_moments([half, half], K)
    raise ConfigError(f"unknown target {name!r}")


def build_model(params: Dict) -> GibbsModel:
    _require(isinstance(params, dict), "model must be a mapping")
    for key in ("n", "N", "R"):
        _require(key in params, f"model needs {key}")
    n = int(params["n"])
    return GibbsModel(n, int(params["N"]), float(params["R"]),
                      build_potential(params.get("potential"), n),
                      float(params.get("beta", 1.0)))


def build_blockmap(params: Optional[Sequence[int]], n: int) -> BlockMap:
    if params is None:
        return BlockMap.full(n)
    return BlockMap(tuple(int(g) for g in params))


def _options(cls, params: Optional[Dict], section: str):
    """Settings dataclass ``cls`` from a config section; each value takes the
    type of its default, and a dataclass-valued field its own nested section."""
    defaults = cls()
    fields = {}
    for k, v in (params or {}).items():
        _require(k in cls.__dataclass_fields__, f"unknown {section} option {k!r}")
        default = getattr(defaults, k)
        fields[k] = _options(type(default), v, k) if is_dataclass(default) else type(default)(v)
    return replace(defaults, **fields)


def _fit_options(params: Optional[Dict]) -> FitOptions:
    return _options(FitOptions, params, "fit")


def _est(e: ScalarEstimate) -> Dict:
    return {"value": e.value, "stderr": e.stderr, "count": e.count,
            "bias_bound": e.bias_bound}


def _chain(cfg: ExperimentConfig, model: GibbsModel, stream: str, **kwargs):
    """Samples and diagnostics of the chain described by the ``chain:`` section."""
    p = {"steps": 20000, "burnin": 2000, "thin": 10}
    for k, v in (cfg.param("chain") or {}).items():
        _require(k in p, f"unknown chain option {k!r}")
        p[k] = int(v)
    return mcmc_chain(model, p["steps"], p["burnin"], p["thin"],
                      rng=substream(cfg.seed, stream), **kwargs)


def _spectrum(samples: Sequence[MatrixTuple]) -> np.ndarray:
    """Eigenvalues of the first block of every sample, concatenated."""
    return np.concatenate([np.linalg.eigvalsh(t.blocks[0]) for t in samples])


def _orbital_requests(cfg: ExperimentConfig, couplings: Optional[Sequence],
                      **defaults) -> List[Tuple[Optional[float], OrbitalRequest]]:
    """(c, request) per coupling c, whose potential is c (X1 - X2)^2, or (None,
    request) for the model as given; budget keys default to ``defaults``, else
    to :class:`OrbitalRequest`'s."""
    budget = {k: int(cfg.param(k, defaults.get(k, getattr(OrbitalRequest, k))))
              for k in ("s_out", "s_in", "chain_burnin", "chain_thin")}
    out = []
    for c in [None] if couplings is None else couplings:
        params = cfg.param("model", {})
        if c is not None:
            c = float(c)
            params = dict(params, potential={"name": "coupled", "c": c})
        model = build_model(params)
        try:
            req = OrbitalRequest(model, build_blockmap(cfg.param("groups"), model.n), **budget)
        except ValueError as exc:
            raise ConfigError(str(exc))
        out.append((c, req))
    return out


def _histogram(values: np.ndarray, bins: int, lo: float, hi: float):
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return [(float(edges[i]), float(edges[i + 1]), int(counts[i]))
            for i in range(bins)]


def _parallel_map(fn: Callable, items: Sequence, threads: int) -> List:
    """Order-preserving map, optionally over worker processes.

    Safe because every work item carries its own named substream; results
    cannot depend on scheduling.
    """
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# runners (one per experiment kind)

def _run_volume(cfg: ExperimentConfig):
    sizes = cfg.param("sizes") or [cfg.param("N")]
    _require(all(isinstance(s, int) for s in sizes), "volume needs N or sizes (ints)")
    R = float(cfg.param("R", 1.0))
    results = []
    rows = []
    for N in sizes:
        lv = log_ball_volume(N, R)
        results.append({"kind": "volume", "N": N, "R": R, "log_volume": lv})
        rows.append((N, R, lv))
    return results, {"volume": (("N", "R", "log_volume"), rows)}


def _run_sample(cfg: ExperimentConfig):
    model = build_model(cfg.param("model", {}))
    K = int(cfg.param("K", 4))
    samples, diag = _chain(cfg, model, "sample", record_path=cfg.param("record_file"))
    specs = [empirical_moments(t, K) for t in samples]
    words = [w for w in specs[0].class_reps if w]
    mrows = []
    for w in words:
        vals = np.array([s.values[w] for s in specs])
        mrows.append((".".join(map(str, w)), float(vals.real.mean()),
                      float(vals.imag.mean()),
                      float(vals.real.std(ddof=1) / math.sqrt(len(vals)))))
    hist = _histogram(_spectrum(samples), int(cfg.param("bins", 40)), -model.R, model.R)
    result = {"kind": "sample", "diagnostics": asdict(diag),
              "moments": [{"word": r[0], "re": r[1], "im": r[2], "stderr": r[3]}
                          for r in mrows]}
    return [result], {
        "moments": (("word", "re", "im", "stderr"), mrows),
        "spectrum": (("bin_lo", "bin_hi", "count"), hist),
    }


def _fit_common(cfg: ExperimentConfig) -> Tuple[FitResult, int, int]:
    tau = build_target(cfg.param("target", {}))
    N = int(cfg.param("N", 8))
    K = int(cfg.param("K", tau.K))
    fit = fit_projection(tau, N, K, eps=float(cfg.param("eps", 0.0)),
                         opts=_fit_options(cfg.param("fit")),
                         rng=substream(cfg.seed, "fit", N))
    return fit, N, K


def _fit_record(fit: FitResult, N: int, K: int) -> Dict:
    return {
        "N": N, "K": K,
        "coeffs": {lab: float(c) for lab, c in zip(fit.basis.labels, fit.coeffs)},
        "rho": _est(fit.rho),
        "dual_value": _est(fit.dual_value),
        "log_i": _est(fit.log_i),
        "energy": _est(fit.energy),
        "residuals": fit.residuals.tolist(),
        "residual_stderr": fit.residual_stderr.tolist(),
        "tolerances": fit.tolerances.tolist(),
        "converged": fit.converged,
        "iterations": fit.iterations,
    }


def _fit_tables(fit: FitResult) -> Dict:
    crows = [(lab, int(d), float(c), float(r), float(se), float(tol))
             for lab, d, c, r, se, tol in zip(
                 fit.basis.labels, fit.basis.degrees, fit.coeffs,
                 fit.residuals, fit.residual_stderr, fit.tolerances)]
    trows = [(i, v) for i, v in enumerate(fit.trajectory["residual_max_scaled"])]
    return {
        "coeffs": (("label", "degree", "coeff", "residual", "stderr", "tolerance"), crows),
        "trajectory": (("iteration", "residual_max_scaled"), trows),
    }


def _run_fit(cfg: ExperimentConfig):
    fit, N, K = _fit_common(cfg)
    rec = _fit_record(fit, N, K)
    rec["kind"] = "fit"
    return [rec], _fit_tables(fit)


def _run_rho(cfg: ExperimentConfig):
    fit, N, K = _fit_common(cfg)
    rec = _fit_record(fit, N, K)
    rec.update({"kind": "rho", "chi_value": fit.chi.value, "chi_stderr": fit.chi.stderr})
    return [rec], _fit_tables(fit)


def _chi_point(args):
    (seed, tau, N, K, eps, opts) = args
    fit = fit_projection(tau, N, K, eps=eps, opts=opts,
                         rng=substream(seed, "chi", N))
    rec = _fit_record(fit, N, K)
    rec.update({"kind": "chi-tilde", "value": fit.chi.value, "stderr": fit.chi.stderr})
    return rec


def _run_chi_tilde(cfg: ExperimentConfig):
    tau = build_target(cfg.param("target", {}))
    sizes = cfg.param("sizes")
    _require(isinstance(sizes, list) and sizes, "chi-tilde needs a sizes list")
    K = int(cfg.param("K", tau.K))
    eps = float(cfg.param("eps", 0.0))
    opts = _fit_options(cfg.param("fit"))
    ref = cfg.param("reference_density")
    _require(ref in (None, "semicircle"), f"unknown reference_density {ref!r}")
    work = [(cfg.seed, tau, int(N), K, eps, opts) for N in sizes]
    recs = _parallel_map(_chi_point, work, cfg.threads)
    rows = [(r["N"], r["value"], r["stderr"]) for r in recs]
    if ref is not None:
        dens = _semicircle_density(float(cfg.param("reference_variance", 1.0)))
        for r in recs:
            r["reference"] = one_variable_chi_reference(dens, tau.R, r["N"]).chi
    return recs, {"chi_tilde": (("N", "value", "stderr"), rows)}


def _semicircle_density(var: float):
    edge = 2.0 * math.sqrt(var)

    def dens(x):
        return np.sqrt(np.maximum(edge ** 2 - x ** 2, 0.0)) / (2.0 * math.pi * var)

    return dens


def _run_pressure(cfg: ExperimentConfig):
    n = int(cfg.param("n", 1))
    P = build_potential(cfg.param("potential"), n)
    R = float(cfg.param("R", 2.0))
    sizes = cfg.param("sizes") or [int(cfg.param("N", 8))]
    ti = _options(TIOptions, cfg.param("ti"), "ti")
    results = []
    rows = []
    for N in sizes:
        est = free_pressure(P, int(N), R, substream(cfg.seed, "pressure", int(N)), ti)
        results.append({"kind": "pressure", "N": int(N), "R": R, **_est(est)})
        rows.append((int(N), est.value, est.stderr))
    return results, {"pressure": (("N", "value", "stderr"), rows)}


def _orbital_point(args):
    (seed, c, req) = args
    path = ("orbital",) if c is None else ("orbital", str(c))
    est = orbital_entropy(req, substream(seed, *path))
    rec = {"kind": "orbital", "value": est.value, "stderr": est.stderr,
           "bias_bound": est.bias_bound, "raw": est.raw, "kl": est.kl,
           "half_shift": est.half_shift, "self_consistent": est.self_consistent,
           "s_out": est.s_out, "s_in": est.s_in}
    if c is not None:
        rec["coupling"] = c
    return rec


def _run_orbital(cfg: ExperimentConfig):
    couplings = cfg.param("couplings")
    work = [(cfg.seed, c, req) for c, req in _orbital_requests(cfg, couplings)]
    recs = _parallel_map(_orbital_point, work, cfg.threads)
    header = ("value", "stderr", "bias_bound")
    if couplings is not None:
        header = ("coupling",) + header
    return recs, {"orbital": (header, [tuple(r[k] for k in header) for r in recs])}


def _run_chain_rule(cfg: ExperimentConfig):
    [(_, req)] = _orbital_requests(cfg, None)
    rep = chain_rule_check(req, substream(cfg.seed, "chain-rule"),
                           ti=_options(TIOptions, cfg.param("ti"), "ti"))
    rec = {"kind": "chain-rule", "total": _est(rep.total),
           "orbital": _est(rep.orbital), "conjugated": _est(rep.conjugated),
           "residual": rep.residual, "residual_stderr": rep.residual_stderr,
           "combined_stderr": rep.combined_stderr, "holds": rep.holds}
    rows = [(rep.total.value, rep.orbital.value, rep.conjugated.value,
             rep.residual, rep.combined_stderr)]
    return [rec], {"chain_rule": (("total", "orbital", "conjugated", "residual",
                                   "combined_stderr"), rows)}


def _talagrand_point(args):
    (seed, c, req, K) = args
    rep = talagrand_report(req, substream(seed, "talagrand", str(c)), K=K)
    return {"kind": "talagrand", "coupling": c,
            "orbital_value": rep.orbital.value, "orbital_stderr": rep.orbital.stderr,
            "lhs_free": rep.lhs_free, "lhs_conj": rep.lhs_conj,
            "rhs": rep.rhs, "rhs_upper": rep.rhs_upper,
            "freeness_gap": rep.freeness_gap, "p_tilde": rep.p_tilde,
            "holds_free": rep.holds_free, "holds_conj": rep.holds_conj}


def _run_talagrand(cfg: ExperimentConfig):
    K = int(cfg.param("K", 4))
    requests = _orbital_requests(cfg, cfg.param("couplings") or [1.0],
                                 s_out=192, s_in=96, chain_thin=20)
    recs = _parallel_map(_talagrand_point, [(cfg.seed, c, req, K) for c, req in requests],
                         cfg.threads)
    rows = [(r["coupling"], r["lhs_free"], r["lhs_conj"], r["rhs"],
             r["rhs_upper"], r["orbital_value"], r["freeness_gap"]) for r in recs]
    return recs, {"talagrand": (("coupling", "lhs_free", "lhs_conj", "rhs",
                                 "rhs_upper", "orbital_value", "freeness_gap"), rows)}


def _run_duality_check(cfg: ExperimentConfig):
    entries = cfg.param("targets")
    _require(isinstance(entries, list) and entries, "duality-check needs targets")
    opts = _fit_options(cfg.param("fit"))
    results = []
    rows = []
    for i, ent in enumerate(entries):
        tau = build_target(ent.get("target", {}))
        N = int(ent.get("N", 1))
        K = int(ent.get("K", tau.K))
        fit = fit_projection(tau, N, K, eps=float(ent.get("eps", 0.0)),
                             opts=opts, rng=substream(cfg.seed, "duality", i))
        gap = fit.rho.value - fit.dual_value.value
        sigma = fit.energy.stderr
        name = ent.get("label", f"target-{i}")
        results.append({"kind": "duality-check", "label": name, "N": N, "K": K,
                        "entropy": _est(fit.rho), "dual": _est(fit.dual_value),
                        "gap": gap, "gap_sigma": sigma,
                        "within_3sigma": bool(abs(gap) <= 3 * sigma)})
        rows.append((name, N, K, fit.rho.value, fit.dual_value.value, gap, sigma))
    return results, {"duality": (("label", "N", "K", "entropy", "dual", "gap",
                                  "gap_sigma"), rows)}


def _run_arcsine_demo(cfg: ExperimentConfig):
    N = int(cfg.param("N", 64))
    R = float(cfg.param("R", 2.0))
    samples, diag = _chain(cfg, GibbsModel(1, N, R, NcPoly.zero(1), 0.0), "arcsine")
    eigs = _spectrum(samples)
    m2 = float(np.mean(eigs ** 2))
    m4 = float(np.mean(eigs ** 4))
    bins = int(cfg.param("bins", 48))
    hist = _histogram(eigs, bins, -R, R)
    rows = []
    for lo, hi, count in hist:
        mid = (lo + hi) / 2.0
        dens = 1.0 / (math.pi * math.sqrt(max(R * R - mid * mid, 1e-12)))
        rows.append((lo, hi, count, dens))
    rec = {"kind": "arcsine-demo", "N": N, "R": R,
           "m2_over_R2": m2 / R ** 2, "m4_over_R4": m4 / R ** 4,
           "expected_m2_over_R2": 0.5, "expected_m4_over_R4": 0.375,
           "diagnostics": asdict(diag)}
    return [rec], {"spectrum": (("bin_lo", "bin_hi", "count", "arcsine_density"), rows)}


def _run_compression_check(cfg: ExperimentConfig):
    win = cfg.param("window", {})
    for key in ("T", "R", "S"):
        _require(key in win, f"window needs {key}")
    fn = build_compression(float(win["T"]), float(win["R"]), float(win["S"]))
    N = int(cfg.param("N", 4))
    n_pot = build_potential(cfg.param("potential"), 1)
    model = GibbsModel(1, N, float(win["T"]), n_pot, 1.0 if not n_pot.is_zero() else 0.0)
    samples, _ = _chain(cfg, model, "compression")
    logj = np.array([log_jacobian_functional_calculus(t.blocks[0], fn) for t in samples])
    bound = N * N * abs(math.log(fn.alpha))
    worst = float(np.max(np.abs(logj)))
    rec = {"kind": "compression-check", "N": N,
           "alpha": fn.alpha, "bound": bound,
           "mean_log_jacobian": float(logj.mean()),
           "stderr": float(logj.std(ddof=1) / math.sqrt(logj.size)),
           "max_abs_log_jacobian": worst,
           "bound_satisfied": bool(worst <= bound + 1e-9)}
    rows = [(i, float(v)) for i, v in enumerate(logj)]
    return [rec], {"log_jacobian": (("sample", "log_jacobian"), rows)}


def _run_hit_rate(cfg: ExperimentConfig):
    tau = build_target(cfg.param("target", {}))
    est = microstate_hit_rate(
        tau, float(cfg.param("eps", 0.2)), int(cfg.param("K", tau.K)),
        int(cfg.param("N", 4)), int(cfg.param("steps", 200000)),
        substream(cfg.seed, "hit-rate"),
        burnin=int(cfg.param("burnin", 2000)), thin=int(cfg.param("thin", 4)))
    rec = {"kind": "hit-rate", "hits": est.hits, "trials": est.trials,
           "iat": est.iat, "base_log_volume": est.base_log_volume,
           "log_volume": _est(est.log_volume) if est.log_volume else None}
    rows = ([(est.hits, est.trials, est.log_volume.value, est.log_volume.stderr)]
            if est.log_volume else [])
    return [rec], {"hit_rate": (("hits", "trials", "log_volume", "stderr"), rows)}


_RUNNERS = {
    "volume": _run_volume,
    "sample": _run_sample,
    "fit": _run_fit,
    "rho": _run_rho,
    "chi-tilde": _run_chi_tilde,
    "pressure": _run_pressure,
    "orbital": _run_orbital,
    "chain-rule": _run_chain_rule,
    "talagrand": _run_talagrand,
    "duality-check": _run_duality_check,
    "arcsine-demo": _run_arcsine_demo,
    "compression-check": _run_compression_check,
    "hit-rate": _run_hit_rate,
}

EXPERIMENT_KINDS = tuple(sorted(_RUNNERS))

_NESTED = ("model", "groups", "s_out", "s_in", "chain_burnin", "chain_thin")
# the top-level keys each kind reads, besides kind, seed, out and threads
_KEYS = {
    "volume": ("sizes", "N", "R"),
    "sample": ("model", "chain", "K", "bins", "record_file"),
    "fit": ("target", "N", "K", "eps", "fit"),
    "rho": ("target", "N", "K", "eps", "fit"),
    "chi-tilde": ("target", "sizes", "K", "eps", "fit", "reference_density",
                  "reference_variance"),
    "pressure": ("n", "potential", "R", "sizes", "N", "ti"),
    "orbital": _NESTED + ("couplings",),
    "chain-rule": _NESTED + ("ti",),
    "talagrand": _NESTED + ("couplings", "K"),
    "duality-check": ("targets", "fit"),
    "arcsine-demo": ("N", "R", "chain", "bins"),
    "compression-check": ("window", "N", "potential", "chain"),
    "hit-rate": ("target", "eps", "K", "N", "steps", "burnin", "thin"),
}


def run(config: ExperimentConfig) -> RunRecord:
    """Execute an experiment; result records depend only on (config, seed)."""
    results, tables = _RUNNERS[config.kind](config)
    return RunRecord(config, config_hash(config), __version__, results, tables)


def emit_plot_data(record: RunRecord, outdir: str) -> List[str]:
    """Write each table as a TSV with a single header row.

    Empty tables still get their header (a plottable, if empty, file).
    """
    os.makedirs(outdir, exist_ok=True)
    written = []
    for name, (header, rows) in record.tables.items():
        path = os.path.join(outdir, f"{name}.tsv")
        with open(path, "w") as fh:
            fh.write("\t".join(header) + "\n")
            for row in rows:
                fh.write("\t".join(_format_cell(c) for c in row) + "\n")
        written.append(path)
    return written


def _format_cell(c) -> str:
    if isinstance(c, float):
        return repr(c)
    return str(c)


def write_outputs(record: RunRecord, outdir: str, started: float) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "results.jsonl"), "w") as fh:
        for res in record.results:
            fh.write(json.dumps(res, sort_keys=True) + "\n")
    emit_plot_data(record, outdir)
    envelope = {
        "config": {"kind": record.config.kind, "seed": record.config.seed,
                   "params": record.config.params},
        "config_hash": record.config_hash,
        "version": record.version,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(started)),
        "duration_s": round(time.time() - started, 3),
    }
    with open(os.path.join(outdir, "run.json"), "w") as fh:
        json.dump(envelope, fh, indent=2, sort_keys=True)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="matent",
        description="Run a moment-constrained matrix-ensemble experiment from a YAML config.")
    parser.add_argument("--config", required=True, help="path to the experiment YAML")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory (default runs/<hash8>)")
    parser.add_argument("--threads", type=int, default=None,
                        help=f"worker processes for sweeps (or set {THREADS_ENV})")
    args = parser.parse_args(argv)
    started = time.time()
    try:
        config = load_config(args.config, seed_override=args.seed,
                             out_override=args.out, threads_override=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        record = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleTargetError as exc:
        print(f"infeasible target: {exc}", file=sys.stderr)
        return 3
    except EstimatorError as exc:
        print(f"estimator failure: {exc}", file=sys.stderr)
        return 4
    outdir = config.out or os.path.join("runs", record.config_hash[:8])
    write_outputs(record, outdir, started)
    print(f"{config.kind}: {len(record.results)} records -> {outdir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
