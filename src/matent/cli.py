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
from dataclasses import asdict, dataclass, is_dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import yaml

from . import __version__
from .estimates import EstimatorError, ScalarEstimate, pooled_mean
from .matrices import BlockMap, CompressionFn, log_jacobian_functional_calculus
from .maxent import (FitOptions, FitResult, InfeasibleTargetError, fit_projection,
                     free_pressure, one_variable_chi_reference)
from .moments import (MomentSpec, arcsine_moments, free_product_moments, semicircle_moments,
                      validate)
from .ncpoly import NcPoly, canonical_classes, word_traces
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


def _known(params: Dict, keys: Sequence[str], section: str) -> Dict:
    """``params``, once it is a mapping and every key in it is one of ``keys``."""
    _require(isinstance(params, dict), f"{section} must be a mapping, got {params!r}")
    unknown = sorted(set(params) - set(keys))
    _require(not unknown, f"unknown {section} key(s) {unknown}")
    return params


def load_config(path: str, seed_override: Optional[int] = None,
                out_override: Optional[str] = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            # libyaml's parser where PyYAML has it: the same dicts in a third
            # of the time
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
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
    _require(seed is not None, "an integer seed is required")
    seed = _integer(seed)
    out = raw.pop("out", None)
    if out_override is not None:
        out = out_override
    threads = raw.pop("threads", None)
    threads = 1 if threads is None else _integer(threads)
    _require(threads >= 1, "threads must be a positive integer")
    _known(raw, _KINDS[kind][1], kind)
    return ExperimentConfig(kind=str(kind), seed=seed, params=raw, out=out, threads=threads)


# ---------------------------------------------------------------------------
# building blocks shared by runners

def build_potential(params: Optional[Dict], n: int) -> NcPoly:
    """Potential from a config section: a named family or explicit terms."""
    if params is None or params == {}:
        return NcPoly.zero(n)
    if "terms" in params:
        terms = {}
        for t in _known(params, ("terms",), "potential")["terms"]:
            _require(isinstance(t, dict) and "word" in t, "each term needs a word")
            _known(t, ("word", "re", "im"), "potential term")
            _require(isinstance(t["word"], list), f"a word is a list, got {t['word']!r}")
            terms[tuple(_integer(g) for g in t["word"])] = complex(
                _real(t.get("re", 0.0), "potential re"), _real(t.get("im", 0.0), "potential im"))
        p = _checked(NcPoly, n, terms)
        _require(p.is_self_adjoint(), "explicit potential must be self-adjoint")
        return p
    name = _known(params, ("name", "c"), "potential").get("name")
    if name == "zero":
        return NcPoly.zero(n)
    c = _real(params.get("c", 1.0), "potential c")
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


def _real(value, what: str) -> float:
    """A real config value, such as a potential coefficient: an int or a float,
    finite. A boolean, a string or any other type is a config error, and so is
    a NaN or an infinity; ``what`` names the value in the message."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{what} must be a real number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    _require(math.isfinite(x), f"{what} must be finite, got {value!r}")
    return x


def build_target(params: Dict) -> MomentSpec:
    """Moment target from a config section."""
    _require(isinstance(params, dict), "target must be a mapping")
    if "file" in params:
        path = str(_known(params, ("file",), "file target")["file"])
        try:
            with open(path) as fh:
                return _parse_target(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read target file: {exc}")
    if "entries" in params:
        _known(params, ("n", "K", "R", "entries"), "entries target")
        return _parse_target(json.dumps(params))
    name = params.get("name")
    _require(name in _TARGET_KEYS, f"unknown target {name!r}")
    _known(params, _TARGET_KEYS[name], f"{name} target")
    K = _integer(params.get("K", 4))
    if name == "arcsine":
        return _checked(arcsine_moments, _real(params.get("R", 2.0), "target R"), K)
    radius = params.get("radius")
    half = _checked(semicircle_moments, _real(params.get("variance", 1.0), "target variance"),
                    K, radius=None if radius is None else _real(radius, "target radius"))
    return half if name == "semicircle" else free_product_moments([half, half], K)


def _parse_target(text: str) -> MomentSpec:
    """A target given as moment data, once it parses and passes
    :func:`matent.moments.validate`; positive-definiteness is left to the fit,
    which reports its failure as an infeasible target."""
    try:
        tau = MomentSpec.from_json(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed moment target: {type(exc).__name__}: {exc}")
    problems = validate(tau, check_psd=False)
    _require(not problems, f"inconsistent moment target: {'; '.join(problems)}")
    return tau


def _degree(value, tau: MomentSpec) -> int:
    """A degree cutoff K on target tau from a config value: 1 <= K <= tau.K."""
    K = _integer(value)
    _require(1 <= K <= tau.K, f"K must lie in 1..{tau.K} (the target's K), got {K}")
    return K


def _size(value, what: str = "matrix sizes N") -> int:
    """A matrix size N, or another count such as a generator count n, from a
    config value: an integer >= 1; ``what`` names it in the message."""
    N = _integer(value)
    _require(N >= 1, f"{what} must be >= 1, got {N}")
    return N


def _sweep(cfg: ExperimentConfig, key: str, item: Callable, absent: Optional[List] = None) -> List:
    """The sweep list ``key`` of a config, each entry read by ``item``: a
    non-empty list, else a config error that names the key. Where the key is
    absent the sweep is ``absent``, or a config error if that is None."""
    if key not in cfg.params:
        _require(absent is not None, f"{cfg.kind} needs a {key} list")
        return absent
    values = cfg.params[key]
    _require(isinstance(values, list) and values,
             f"{key} must be a non-empty list, got {values!r}")
    try:
        return [item(v) for v in values]
    except ConfigError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def build_model(params: Dict) -> GibbsModel:
    _known(params, ("n", "N", "R", "potential"), "model")
    for key in ("n", "N", "R"):
        _require(key in params, f"model needs {key}")
    n = _size(params["n"], "model n")
    return _checked(GibbsModel, n, _integer(params["N"]), _real(params["R"], "model R"),
                    build_potential(params.get("potential"), n))


def _checked(cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, its argument checks reported as config errors;
    ``cls`` is a constructor or a conversion of a config value, such as ``int``
    (which raises TypeError on a null or a list)."""
    try:
        return cls(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc))


def _integer(value) -> int:
    """An integer config value: an int, a float without a fractional part or
    a string that ``int`` parses. A boolean, a fractional float (which ``int``
    would truncate, running N: 4.7 as N = 4) or any other type is a config
    error."""
    _require(isinstance(value, (int, float, str)) and not isinstance(value, bool)
             and not (isinstance(value, float) and not value.is_integer()),
             f"expected an integer, got {value!r}")
    return _checked(int, value)


def build_blockmap(params: Optional[Sequence[int]], n: int) -> BlockMap:
    if params is None:
        return BlockMap.full(n)
    _require(isinstance(params, list), f"groups must be a list, got {params!r}")
    return _checked(BlockMap, tuple(_integer(g) for g in params))


def _options(cls, params: Optional[Dict], section: str):
    """Settings dataclass ``cls`` from a config section; each value takes the
    type of its default, and a dataclass-valued field its own nested section."""
    defaults = cls()
    fields = {}
    for k, v in (params or {}).items():
        _require(k in cls.__dataclass_fields__, f"unknown {section} option {k!r}")
        default = getattr(defaults, k)
        fields[k] = (_options(type(default), v, k) if is_dataclass(default)
                     else _integer(v) if type(default) is int else _real(v, f"{section} {k}"))
    return _checked(replace, defaults, **fields)


def _est(e: ScalarEstimate) -> Dict:
    return {"value": e.value, "stderr": e.stderr, "count": e.count,
            "bias_bound": e.bias_bound}


def _chain(cfg: ExperimentConfig, model: GibbsModel, stream: str, **kwargs):
    """Samples and diagnostics of the chain described by the ``chain:`` section."""
    p = {"steps": 20000, "burnin": 2000, "thin": 10}
    for k, v in (cfg.param("chain") or {}).items():
        _require(k in p, f"unknown chain option {k!r}")
        p[k] = _integer(v)
    _require(p["steps"] >= 2 * p["thin"] >= 2 and p["burnin"] >= 0,
             "chain needs steps >= 2 thin, thin >= 1 and burnin >= 0 (two samples "
             "for an error bar)")
    return mcmc_chain(model, p["steps"], p["burnin"], p["thin"],
                      rng=substream(cfg.seed, stream), **kwargs)


def _spectrum(samples: np.ndarray) -> np.ndarray:
    """Eigenvalues of the first block of every sample of an (n, S, N, N)
    array, concatenated."""
    return np.linalg.eigvalsh(samples[0]).ravel()


def _orbital_requests(cfg: ExperimentConfig, absent: List[Optional[float]],
                      **defaults) -> List[Tuple[Optional[float], OrbitalRequest]]:
    """(c, request) per c of the ``couplings`` sweep (``absent`` if not given):
    potential c (X1 - X2)^2, or for None the model as given; budget keys
    default to ``defaults``, else to :class:`OrbitalRequest`'s."""
    budget = {k: _integer(cfg.param(k, defaults.get(k, getattr(OrbitalRequest, k))))
              for k in ("s_out", "s_in", "chain_burnin", "chain_thin")}
    out = []
    for c in _sweep(cfg, "couplings", lambda c: _real(c, "a coupling"), absent):
        params = cfg.param("model", {})
        if c is not None:
            params = dict(params, potential={"name": "coupled", "c": c})
        model = build_model(params)
        out.append((c, _checked(OrbitalRequest, model,
                                build_blockmap(cfg.param("groups"), model.n), **budget)))
    return out


def _histogram(values: np.ndarray, bins: int, lo: float, hi: float):
    _require(bins >= 1, f"bins must be >= 1, got {bins}")
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
    # imported here: a one-thread run need not pay for the pool machinery
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(threads, len(items))) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# runners (one per experiment kind)

def _run_volume(cfg: ExperimentConfig):
    N = cfg.param("N")
    sizes = _sweep(cfg, "sizes", _size, None if N is None else [_size(N)])
    R = _real(cfg.param("R", 1.0), "R")
    _require(R > 0, f"R must be positive, got {R}")
    results = []
    rows = []
    for N in sizes:
        lv = log_ball_volume(N, R)
        results.append({"kind": "volume", "N": N, "R": R, "log_volume": lv})
        rows.append((N, R, lv))
    return results, {"volume": (("N", "R", "log_volume"), rows)}


def _run_sample(cfg: ExperimentConfig):
    model = build_model(cfg.param("model", {}))
    K = _size(cfg.param("K", 4), "K")
    samples, diag = _chain(cfg, model, "sample", record_path=cfg.param("record_file"))
    words = canonical_classes(model.n, K, 1)
    mrows = []
    for w, vals in zip(words, (word_traces(samples, words) / model.N).T):
        real = pooled_mean(vals.real)[0]
        mrows.append((".".join(map(str, w)), real.value, float(vals.imag.mean()), real.stderr))
    hist = _histogram(_spectrum(samples), _integer(cfg.param("bins", 40)), -model.R, model.R)
    result = {"kind": "sample", "diagnostics": asdict(diag),
              "moments": [{"word": r[0], "re": r[1], "im": r[2], "stderr": r[3]}
                          for r in mrows]}
    return [result], {
        "moments": (("word", "re", "im", "stderr"), mrows),
        "spectrum": (("bin_lo", "bin_hi", "count"), hist),
    }


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
    """The ``fit`` and ``rho`` kinds; a ``rho`` record adds the fit's chi."""
    tau = build_target(cfg.param("target", {}))
    N = _size(cfg.param("N", 8))
    K = _degree(cfg.param("K", tau.K), tau)
    fit = fit_projection(tau, N, K, eps=_real(cfg.param("eps", 0.0), "eps"),
                         opts=_options(FitOptions, cfg.param("fit"), "fit"),
                         rng=substream(cfg.seed, "fit", N))
    rec = _fit_record(fit, N, K)
    rec["kind"] = cfg.kind
    if cfg.kind == "rho":
        rec.update({"chi_value": fit.chi.value, "chi_stderr": fit.chi.stderr})
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
    sizes = _sweep(cfg, "sizes", _size)
    K = _degree(cfg.param("K", tau.K), tau)
    eps = _real(cfg.param("eps", 0.0), "eps")
    opts = _options(FitOptions, cfg.param("fit"), "fit")
    ref = cfg.param("reference_density")
    _require(ref in (None, "semicircle"), f"unknown reference_density {ref!r}")
    if ref is not None:
        var = _real(cfg.param("reference_variance", 1.0), "reference_variance")
        _require(var > 0, f"reference_variance must be positive, got {var}")
        dens = _semicircle_density(var)
    work = [(cfg.seed, tau, N, K, eps, opts) for N in sizes]
    recs = _parallel_map(_chi_point, work, cfg.threads)
    rows = [(r["N"], r["value"], r["stderr"]) for r in recs]
    if ref is not None:
        for r in recs:
            r["reference"] = one_variable_chi_reference(dens, tau.R, r["N"]).chi
    return recs, {"chi_tilde": (("N", "value", "stderr"), rows)}


def _semicircle_density(var: float):
    edge = 2.0 * math.sqrt(var)

    def dens(x):
        return np.sqrt(np.maximum(edge ** 2 - x ** 2, 0.0)) / (2.0 * math.pi * var)

    return dens


def _pressure_point(args):
    (seed, P, N, R, ti) = args
    est = free_pressure(P, N, R, substream(seed, "pressure", N), ti)
    return {"kind": "pressure", "N": N, "R": R, **_est(est)}


def _run_pressure(cfg: ExperimentConfig):
    n = _size(cfg.param("n", 1), "n")
    P = build_potential(cfg.param("potential"), n)
    R = _real(cfg.param("R", 2.0), "R")
    _require(R > 0, f"R must be positive, got {R}")
    sizes = _sweep(cfg, "sizes", _size, [_size(cfg.param("N", 8))])
    ti = _options(TIOptions, cfg.param("ti"), "ti")
    recs = _parallel_map(_pressure_point, [(cfg.seed, P, N, R, ti) for N in sizes], cfg.threads)
    rows = [(r["N"], r["value"], r["stderr"]) for r in recs]
    return recs, {"pressure": (("N", "value", "stderr"), rows)}


def _orbital_point(args):
    (seed, c, req) = args
    path = ("orbital",) if c is None else ("orbital", str(c))
    est = orbital_entropy(req, substream(seed, *path))
    rec = {"kind": "orbital", "value": est.value, "stderr": est.stderr,
           "bias_bound": est.bias_bound, "raw": est.raw, "kl": est.kl,
           "half_shift": est.half_shift, "self_consistent": est.self_consistent,
           "s_out": est.s_out, "s_in": est.s_in, "ess": est.ess}
    if c is not None:
        rec["coupling"] = c
    return rec


def _run_orbital(cfg: ExperimentConfig):
    work = [(cfg.seed, c, req) for c, req in _orbital_requests(cfg, [None])]
    recs = _parallel_map(_orbital_point, work, cfg.threads)
    header = ("value", "stderr", "bias_bound")
    if "couplings" in cfg.params:
        header = ("coupling",) + header
    return recs, {"orbital": (header, [tuple(r[k] for k in header) for r in recs])}


def _run_chain_rule(cfg: ExperimentConfig):
    [(_, req)] = _orbital_requests(cfg, [None])
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
            "orbital_ess": rep.orbital.ess,
            "self_consistent": rep.orbital.self_consistent,
            "lhs_free": rep.lhs_free, "lhs_conj": rep.lhs_conj,
            "rhs": rep.rhs, "rhs_upper": rep.rhs_upper,
            "freeness_gap": rep.freeness_gap, "p_tilde": rep.p_tilde,
            "holds_free": rep.holds_free, "holds_conj": rep.holds_conj}


def _run_talagrand(cfg: ExperimentConfig):
    K = _integer(cfg.param("K", 4))
    _require(1 <= K <= 6, f"talagrand checks degrees 1 <= K <= 6, got {K}")
    requests = _orbital_requests(cfg, [1.0], s_out=192, s_in=96, chain_thin=20)
    recs = _parallel_map(_talagrand_point, [(cfg.seed, c, req, K) for c, req in requests],
                         cfg.threads)
    rows = [(r["coupling"], r["lhs_free"], r["lhs_conj"], r["rhs"],
             r["rhs_upper"], r["orbital_value"], r["freeness_gap"]) for r in recs]
    return recs, {"talagrand": (("coupling", "lhs_free", "lhs_conj", "rhs",
                                 "rhs_upper", "orbital_value", "freeness_gap"), rows)}


def _duality_point(args):
    (seed, i, name, tau, N, K, eps, opts) = args
    fit = fit_projection(tau, N, K, eps=eps, opts=opts, rng=substream(seed, "duality", i))
    gap = fit.rho.value - fit.dual_value.value
    sigma = fit.energy.stderr
    # an exact (n = 1) fit has sigma 0 and its residual cost as bias bound
    return {"kind": "duality-check", "label": name, "N": N, "K": K,
            "entropy": _est(fit.rho), "dual": _est(fit.dual_value),
            "gap": gap, "gap_sigma": sigma,
            "within_3sigma": bool(abs(gap) <= 3 * sigma + fit.energy.bias_bound)}


def _run_duality_check(cfg: ExperimentConfig):
    keys = ("target", "N", "K", "eps", "label")
    entries = _sweep(cfg, "targets", lambda ent: _known(ent, keys, "duality-check target"))
    opts = _options(FitOptions, cfg.param("fit"), "fit")
    work = []
    for i, ent in enumerate(entries):
        tau = build_target(ent.get("target", {}))
        N = _size(ent.get("N", 1))
        K = _degree(ent.get("K", tau.K), tau)
        work.append((cfg.seed, i, ent.get("label", f"target-{i}"), tau, N, K,
                     _real(ent.get("eps", 0.0), "eps"), opts))
    recs = _parallel_map(_duality_point, work, cfg.threads)
    rows = [(r["label"], r["N"], r["K"], r["entropy"]["value"], r["dual"]["value"], r["gap"],
             r["gap_sigma"]) for r in recs]
    return recs, {"duality": (("label", "N", "K", "entropy", "dual", "gap", "gap_sigma"), rows)}


def _run_arcsine_demo(cfg: ExperimentConfig):
    N = _integer(cfg.param("N", 64))
    R = _real(cfg.param("R", 2.0), "R")
    samples, diag = _chain(cfg, _checked(GibbsModel, 1, N, R, NcPoly.zero(1)), "arcsine")
    eigs = _spectrum(samples)
    m2 = float(np.mean(eigs ** 2))
    m4 = float(np.mean(eigs ** 4))
    bins = _integer(cfg.param("bins", 48))
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
    win = _known(cfg.param("window", {}), ("T", "R", "S"), "window")
    for key in ("T", "R", "S"):
        _require(key in win, f"window needs {key}")
    T, R, S = (_real(win[key], f"window {key}") for key in ("T", "R", "S"))
    fn = _checked(CompressionFn, T, R, S)
    N = _integer(cfg.param("N", 4))
    n_pot = build_potential(cfg.param("potential"), 1)
    model = _checked(GibbsModel, 1, N, T, n_pot)
    samples, _ = _chain(cfg, model, "compression")
    logj = np.array([log_jacobian_functional_calculus(b, fn) for b in samples[0]])
    bound = N * N * abs(math.log(fn.alpha))
    worst = float(np.max(np.abs(logj)))
    mean = pooled_mean(logj)[0]
    rec = {"kind": "compression-check", "N": N,
           "alpha": fn.alpha, "bound": bound,
           "mean_log_jacobian": mean.value, "stderr": mean.stderr,
           "max_abs_log_jacobian": worst,
           "bound_satisfied": bool(worst <= bound + 1e-9)}
    rows = [(i, float(v)) for i, v in enumerate(logj)]
    return [rec], {"log_jacobian": (("sample", "log_jacobian"), rows)}


def _run_hit_rate(cfg: ExperimentConfig):
    tau = build_target(cfg.param("target", {}))
    eps = _real(cfg.param("eps", 0.2), "eps")
    K, N = _degree(cfg.param("K", tau.K), tau), _integer(cfg.param("N", 4))
    trials = _integer(cfg.param("trials", 50000))
    _require(eps > 0 and N >= 1 and trials >= 1,
             "hit-rate needs eps > 0, N >= 1 and trials >= 1")
    est = microstate_hit_rate(tau, eps, K, N, trials, substream(cfg.seed, "hit-rate"))
    rec = {"kind": "hit-rate", "hits": est.hits, "trials": est.trials,
           "base_log_volume": est.base_log_volume,
           "log_volume": _est(est.log_volume) if est.log_volume else None}
    rows = ([(est.hits, est.trials, est.log_volume.value, est.log_volume.stderr)]
            if est.log_volume else [])
    return [rec], {"hit_rate": (("hits", "trials", "log_volume", "stderr"), rows)}


# the keys of each named target family
_TARGET_KEYS = {
    "semicircle": ("name", "K", "variance", "radius"),
    "arcsine": ("name", "K", "R"),
    "free-semicircle-pair": ("name", "K", "variance", "radius"),
}
_NESTED = ("model", "groups", "s_out", "s_in", "chain_burnin", "chain_thin")
_FIT = ("target", "N", "K", "eps", "fit")
# each kind's runner, and the top-level keys it reads besides kind, seed, out
# and threads
_KINDS = {
    "volume": (_run_volume, ("sizes", "N", "R")),
    "sample": (_run_sample, ("model", "chain", "K", "bins", "record_file")),
    "fit": (_run_fit, _FIT),
    "rho": (_run_fit, _FIT),
    "chi-tilde": (_run_chi_tilde, ("target", "sizes", "K", "eps", "fit",
                                   "reference_density", "reference_variance")),
    "pressure": (_run_pressure, ("n", "potential", "R", "sizes", "N", "ti")),
    "orbital": (_run_orbital, _NESTED + ("couplings",)),
    "chain-rule": (_run_chain_rule, _NESTED + ("ti",)),
    "talagrand": (_run_talagrand, _NESTED + ("couplings", "K")),
    "duality-check": (_run_duality_check, ("targets", "fit")),
    "arcsine-demo": (_run_arcsine_demo, ("N", "R", "chain", "bins")),
    "compression-check": (_run_compression_check, ("window", "N", "potential", "chain")),
    "hit-rate": (_run_hit_rate, ("target", "eps", "K", "N", "trials")),
}

EXPERIMENT_KINDS = tuple(sorted(_KINDS))


def run(config: ExperimentConfig) -> RunRecord:
    """Execute an experiment; result records depend only on (config, seed)."""
    results, tables = _KINDS[config.kind][0](config)
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
    """A table cell: the shortest round-tripping digits of a float (numpy
    floats too, whose repr names their type), ``str`` of anything else."""
    if isinstance(c, float):
        return repr(float(c))
    return str(c)


def _strict_json(obj, **kwargs) -> str:
    """JSON text of ``obj`` with each non-finite float written as null."""
    plain = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    return json.dumps(plain, sort_keys=True, allow_nan=False, **kwargs)


def write_outputs(record: RunRecord, outdir: str, started: float) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "results.jsonl"), "w") as fh:
        for res in record.results:
            fh.write(_strict_json(res) + "\n")
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
        fh.write(_strict_json(envelope, indent=2))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="matent",
        description="Run a moment-constrained matrix-ensemble experiment from a YAML config.")
    parser.add_argument("--config", required=True, help="path to the experiment YAML")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory (default runs/<hash8>)")
    args = parser.parse_args(argv)
    started = time.time()
    try:
        config = load_config(args.config, seed_override=args.seed, out_override=args.out)
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
