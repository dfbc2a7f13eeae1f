"""Relative entropy of a Gibbs ensemble under block-wise Haar conjugation.

For a model mu with density f proportional to exp(-beta N Tr V) and a block
map pi assigning tuple positions to conjugation groups, the conjugation
randomization U^pi mu has density h(M) = E_U[f(conj(M, U, pi))] (one
independent Haar unitary per group). The relative entropy

    Ent(mu | U^pi mu) = -E_mu[log f(M) - log h(M)]

is nonpositive, vanishes when the potential decouples across groups, and its
N^-2 normalization is the finite-size stand-in for the orbital part of the
entropy curve. The inner expectation is estimated by a nested Monte Carlo
log-mean-exp with max shift; its downward (Jensen) bias is tracked by a
leave-one-out jackknife and checked by comparing against the half-inner-
sample value. Every log weight -beta N Tr V, of the outer samples and of
their conjugated copies alike, comes from the sampler's energy function
(``sampler._Energy``, built on the word evaluator of :mod:`matent.ncpoly`)
called once per stack: the S outer samples as (S, N, N) blocks, and the
``s_in`` copies of one sample as (s_in, N, N) blocks. One outer chain feeds
each report; :func:`talagrand_report` hands its samples to both the orbital
estimate and the moment barycenters.

The chain-rule identity Ent(mu|nu) = Ent(mu|U^pi mu) + Ent(U^pi mu|nu) for a
conjugation-invariant reference nu (here: uniform on the ball product), the
absolute-entropy split, and the transport-cost bounds relating moment
distance to the orbital term are exposed as report-producing checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import logsumexp

from .estimates import EstimatorError, ScalarEstimate, mean_with_batch_stderr
from .matrices import (BlockMap, MatrixTuple, _conjugate_blocks, conjugate_tuple,
                       haar_unitary_batch)
from .moments import MomentSpec, empirical_moments, free_product_moments, moment_distance
from .ncpoly import canonical_classes
from .sampler import (GibbsModel, TIOptions, _Energy, estimate_log_I, log_ball_volume,
                      mcmc_chain)

__all__ = [
    "OrbitalRequest",
    "OrbitalEstimate",
    "orbital_entropy",
    "ChainRuleReport",
    "chain_rule_check",
    "SplitReport",
    "entropy_split_check",
    "dW_upper_bound",
    "dW_moment_lower_bound",
    "TalagrandReport",
    "talagrand_report",
]

MIN_NESTED = 16


@dataclass(frozen=True)
class OrbitalRequest:
    """A conjugation-relative-entropy estimation task.

    ``s_out`` outer equilibrium samples, ``s_in`` inner Haar draws per outer
    sample; both at least 16 so the jackknife and the half-sample
    self-consistency check are meaningful. It is the budget of all four
    orbital reports, from :func:`orbital_entropy` to :func:`talagrand_report`.
    """

    model: GibbsModel
    blockmap: BlockMap
    s_out: int = 256
    s_in: int = 128
    chain_burnin: int = 1500
    chain_thin: int = 25

    def __post_init__(self) -> None:
        if self.blockmap.n != self.model.n:
            raise ValueError("block map size does not match model")
        if self.s_out < MIN_NESTED or self.s_in < MIN_NESTED:
            raise ValueError(f"need s_out, s_in >= {MIN_NESTED}")


@dataclass(frozen=True)
class OrbitalEstimate:
    """Nested-MC estimate of Ent(mu | U^pi mu).

    ``value`` is the N^-2-normalized relative entropy (the entropy-curve
    scale quantity, nonpositive in expectation); ``raw`` is unnormalized.
    ``kl`` restates the result as the Kullback-Leibler divergence -raw.
    ``bias_bound`` bounds the inner-average (Jensen) bias at the same
    normalization as ``value``; ``half_shift`` is the move observed when
    halving the inner sample, and ``self_consistent`` records whether that
    move is within the half-sample bias bound plus paired noise.
    """

    value: float
    stderr: float
    bias_bound: float
    raw: float
    raw_stderr: float
    kl: float
    s_out: int
    s_in: int
    half_value: float
    half_shift: float
    self_consistent: bool


class _InnerSampler:
    """Draws conjugated copies of a tuple and their log weights."""

    def __init__(self, model: GibbsModel, blockmap: BlockMap, s_in: int,
                 rng: np.random.Generator):
        self.model = model
        self.blockmap = blockmap
        self.s_in = s_in
        self.rng = rng
        self.energy = _Energy(model.n, model.N, model.potential)

    def conjugated(self, blocks: Sequence[np.ndarray]) -> List[np.ndarray]:
        us = haar_unitary_batch(self.s_in * self.blockmap.ell, self.model.N, self.rng)
        us = us.reshape(self.s_in, self.blockmap.ell, self.model.N, self.model.N)
        return _conjugate_blocks(blocks, us, self.blockmap)

    def log_weights(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        e = -self.model.beta * self.energy.from_state(self.conjugated(blocks))
        if not np.all(np.isfinite(e)):
            raise EstimatorError("conjugated weights overflowed or vanished")
        return e


def _log_mean_exp(e: np.ndarray) -> float:
    return float(logsumexp(e) - math.log(e.size))


def _jackknife_bias(e: np.ndarray) -> float:
    """Leave-one-out jackknife bias estimate of log-mean-exp.

    The leave-one-out sums are formed by the complement trick; when the
    dropped draw carries essentially all of the mass the complement is
    recomputed by a second shifted log-sum-exp so nothing underflows.
    """
    s = e.size
    mx = float(np.max(e))
    a = np.exp(e - mx)
    total = a.sum()
    rest = total - a
    tiny = rest <= total * 1e-12
    if np.any(tiny):
        order = np.argsort(e)
        for idx in np.flatnonzero(tiny):
            others = e[order[:-1]] if order[-1] == idx else np.delete(e, idx)
            rest[idx] = math.exp(logsumexp(others) - mx)
    loo = np.log(rest / (s - 1)) + mx
    theta = math.log(total / s) + mx
    return float((s - 1) * (loo.mean() - theta))


def _collect_terms(samples: Sequence[MatrixTuple], inner: _InnerSampler):
    """Per-sample log density w, inner log-mean weights (full and half),
    and jackknife biases for both resolutions."""
    w = -inner.model.beta * inner.energy.from_samples(samples)
    full = np.empty(len(samples))
    half = np.empty(len(samples))
    bias_full = np.empty(len(samples))
    bias_half = np.empty(len(samples))
    for i, t in enumerate(samples):
        e = inner.log_weights(t.blocks)
        full[i] = _log_mean_exp(e)
        bias_full[i] = _jackknife_bias(e)
        eh = e[: e.size // 2]
        half[i] = _log_mean_exp(eh)
        bias_half[i] = _jackknife_bias(eh)
    return w, full, half, bias_full, bias_half


def orbital_entropy(request: OrbitalRequest, rng: np.random.Generator) -> OrbitalEstimate:
    """Estimate Ent(mu | U^pi mu) for the requested model and block map.

    Outer samples come from a thinned Metropolis chain; for each, the inner
    log-mean-exp over ``s_in`` conjugated copies is max-shifted for
    stability. Reported stderr is batch-means over the outer series; the
    jackknife bias bound and the half-inner-sample shift make the nested
    bias visible rather than silently absorbed.
    """
    return _orbital_from_samples(_outer_chain(request, rng), request, rng)


def _outer_chain(request: OrbitalRequest, rng: np.random.Generator) -> List[MatrixTuple]:
    samples, _ = mcmc_chain(request.model, request.s_out * request.chain_thin,
                            request.chain_burnin, request.chain_thin, rng=rng)
    return samples


def _orbital_from_samples(samples: Sequence[MatrixTuple], request: OrbitalRequest,
                          rng: np.random.Generator) -> OrbitalEstimate:
    """The nested estimate of :func:`orbital_entropy` on given outer samples."""
    model = request.model
    nsq = model.N * model.N
    inner = _InnerSampler(model, request.blockmap, request.s_in, rng)
    w, full, half, bias_full, bias_half = _collect_terms(samples, inner)

    g = full - w
    est = mean_with_batch_stderr(g)
    gh = half - w
    est_h = mean_with_batch_stderr(gh)
    d = g - gh
    shift = abs(float(d.mean()))
    d_se = float(d.std(ddof=1) / math.sqrt(d.size))
    bb = mean_with_batch_stderr(bias_full)
    bb_h = mean_with_batch_stderr(bias_half)
    bound = abs(bb.value) + 2.0 * bb.stderr
    bound_h = abs(bb_h.value) + 2.0 * bb_h.stderr
    consistent = shift <= bound_h + 3.0 * d_se + 1e-12
    return OrbitalEstimate(
        value=est.value / nsq,
        stderr=est.stderr / nsq,
        bias_bound=bound / nsq,
        raw=est.value,
        raw_stderr=est.stderr,
        kl=-est.value,
        s_out=len(samples),
        s_in=request.s_in,
        half_value=est_h.value / nsq,
        half_shift=shift / nsq,
        self_consistent=bool(consistent),
    )


@dataclass(frozen=True)
class ChainRuleReport:
    """Three-term decomposition of relative entropy to the uniform reference.

    ``total`` = Ent(mu|nu), ``orbital`` = Ent(mu|U^pi mu), ``conjugated`` =
    Ent(U^pi mu|nu); the identity says residual = total - orbital -
    conjugated vanishes. ``residual_stderr`` is the paired per-sample
    stderr (shared pieces cancel exactly) and ``holds`` means |residual| <=
    3 residual_stderr; ``combined_stderr`` treats the three terms as
    independent, which counts the shared log I twice.
    """

    total: ScalarEstimate
    orbital: ScalarEstimate
    conjugated: ScalarEstimate
    residual: float
    residual_stderr: float
    combined_stderr: float
    holds: bool
    s_out: int
    s_in: int


def chain_rule_check(request: OrbitalRequest, rng: np.random.Generator,
                     ti: Optional[TIOptions] = None) -> ChainRuleReport:
    """Verify Ent(mu|nu) = Ent(mu|U^pi mu) + Ent(U^pi mu|nu) within noise.

    nu is the uniform ensemble (conjugation-invariant, as required for the
    identity). The request gives the model, the block map and the nested
    budget, as for :func:`orbital_entropy`. All three terms are estimated
    from one outer chain plus one log-normalizer (budget ``ti`` for n >= 2);
    the residual is additionally evaluated in its paired per-sample form, in
    which the shared log I and log-volume contributions cancel identically.
    """
    model, blockmap = request.model, request.blockmap
    base = model.n * log_ball_volume(model.N, model.R)
    samples = _outer_chain(request, rng)
    log_i = estimate_log_I(model, opts=ti, rng=rng)
    inner = _InnerSampler(model, blockmap, request.s_in, rng)

    w = -model.beta * inner.energy.from_samples(samples)
    inner_mu = np.empty(len(samples))
    inner_conj = np.empty(len(samples))
    for i, t in enumerate(samples):
        inner_mu[i] = _log_mean_exp(inner.log_weights(t.blocks))
        rotated = conjugate_tuple(t, haar_unitary_batch(blockmap.ell, t.N, rng), blockmap)
        inner_conj[i] = _log_mean_exp(inner.log_weights(rotated.blocks))

    w_est = mean_with_batch_stderr(w)
    total = ScalarEstimate(log_i.value - w_est.value - base,
                           math.hypot(log_i.stderr, w_est.stderr),
                           w_est.count, log_i.bias_bound)
    orb = mean_with_batch_stderr(inner_mu - w)
    conj_mean = mean_with_batch_stderr(inner_conj)
    conjugated = ScalarEstimate(log_i.value - conj_mean.value - base,
                                math.hypot(log_i.stderr, conj_mean.stderr),
                                conj_mean.count, log_i.bias_bound)
    residual = total.value - orb.value - conjugated.value
    paired = inner_conj - inner_mu
    residual_se = float(paired.std(ddof=1) / math.sqrt(paired.size))
    combined = math.sqrt(total.stderr ** 2 + orb.stderr ** 2 + conjugated.stderr ** 2)
    return ChainRuleReport(total, orb, conjugated, residual, residual_se,
                           combined, bool(abs(residual) <= 3.0 * residual_se),
                           len(samples), request.s_in)


@dataclass(frozen=True)
class SplitReport:
    """Absolute-entropy split Ent(mu) = Ent(mu|U^pi mu) + Ent(U^pi mu)."""

    entropy: ScalarEstimate
    orbital: ScalarEstimate
    conjugated_entropy: ScalarEstimate
    residual: float
    residual_stderr: float
    combined_stderr: float
    holds: bool


def entropy_split_check(request: OrbitalRequest, rng: np.random.Generator,
                        ti: Optional[TIOptions] = None) -> SplitReport:
    """Restate the chain rule with absolute differential entropies.

    Adding n log Vol to both relative terms turns the identity into
    Ent(mu) = Ent(mu|U^pi mu) + Ent(U^pi mu); the request and ``ti`` are
    those of :func:`chain_rule_check`.
    """
    model = request.model
    base = model.n * log_ball_volume(model.N, model.R)
    rep = chain_rule_check(request, rng, ti=ti)
    return SplitReport(
        entropy=rep.total.shifted(base),
        orbital=rep.orbital,
        conjugated_entropy=rep.conjugated.shifted(base),
        residual=rep.residual,
        residual_stderr=rep.residual_stderr,
        combined_stderr=rep.combined_stderr,
        holds=rep.holds,
    )


def dW_upper_bound(pairs: Sequence[Tuple[MatrixTuple, MatrixTuple]]) -> ScalarEstimate:
    """Coupling transport cost: sqrt of the mean squared tuple distance.

    The squared distance of a pair sums (1/N)||A_i - B_i||_HS^2 over
    positions; any explicit coupling upper-bounds the Wasserstein distance of
    the two ensembles. The stderr comes from the delta method on the mean
    squared distance.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    sq = np.array([
        sum(float(np.linalg.norm(a.blocks[i] - b.blocks[i]) ** 2) / a.N
            for i in range(a.n))
        for a, b in pairs
    ])
    est = mean_with_batch_stderr(sq) if sq.size > 1 else ScalarEstimate(float(sq[0]), 0.0, 1)
    value = math.sqrt(max(est.value, 0.0))
    se = est.stderr / (2.0 * value) if value > 0 else est.stderr
    return ScalarEstimate(value, se, est.count)


def dW_moment_lower_bound(a: MomentSpec, b: MomentSpec, K: int,
                          p_tilde: int = 1) -> float:
    """Transport lower bound from the worst moment gap.

    A monomial of degree d is Lipschitz with constant d R^(d-1) sqrt(n p~)
    in the summed block distance, so the moment gap divided by that constant
    bounds the Wasserstein distance from below.
    """
    if a.n != b.n:
        raise ValueError("moment specs over different generator counts")
    R = max(a.R, b.R)
    best = 0.0
    for w in canonical_classes(a.n, K, 1):
        d = len(w)
        lip = d * R ** (d - 1) * math.sqrt(a.n * p_tilde)
        best = max(best, abs(a.value(w) - b.value(w)) / lip)
    return best


@dataclass(frozen=True)
class TalagrandReport:
    """Moment-transport check against the conjugation-entropy bound.

    ``lhs_free`` / ``lhs_conj`` are transport lower bounds from the distance
    between the ensemble barycenter and two independent stand-ins for the
    free state: the free product of the per-group marginals, and the
    barycenter of conjugation-randomized samples. ``rhs`` is
    4 R sqrt(p~ max(0, -orbital value)); ``rhs_upper`` shifts the orbital
    value by 3 stderr before the square root (the well-defined "+3 sigma"
    near zero). ``freeness_gap`` is the moment distance between the two
    stand-ins themselves.
    """

    orbital: OrbitalEstimate
    barycenter: MomentSpec
    proxy_free: MomentSpec
    proxy_conj: MomentSpec
    freeness_gap: float
    p_tilde: int
    lhs_free: float
    lhs_conj: float
    rhs: float
    rhs_upper: float
    holds_free: bool
    holds_conj: bool


def _mean_moments(specs: Sequence[MomentSpec]) -> MomentSpec:
    first = specs[0]
    vals = {}
    for w in first.class_reps:
        if w:
            vals[w] = sum(s.values[w] for s in specs) / len(specs)
    return MomentSpec(first.n, first.K, first.R, vals)


def _group_marginal(spec: MomentSpec, members: Sequence[int]) -> MomentSpec:
    """Restriction of moment data to the given positions, relabeled 1..m."""
    back = {local + 1: g for local, g in enumerate(members)}
    vals = {}
    for w in canonical_classes(len(members), spec.K, 1):
        vals[w] = spec.value(tuple(back[g] for g in w))
    return MomentSpec(len(members), spec.K, spec.R, vals)


def talagrand_report(request: OrbitalRequest, rng: np.random.Generator,
                     K: int = 4) -> TalagrandReport:
    """Check the transport-entropy bound at degree K (K <= 6).

    The conjugation-relative entropy controls how far the ensemble can sit
    from the free product of its per-group marginals; both the free product
    (exact, from the non-crossing recursion) and the empirical conjugation
    randomization provide the comparison state, and their mutual distance is
    reported as a diagnostic of how free the randomized ensemble really is.
    One outer chain of the request feeds both the orbital estimate and the
    moment barycenters.
    """
    if K > 6:
        raise ValueError("transport checks are limited to degree K <= 6")
    model, blockmap = request.model, request.blockmap
    samples = _outer_chain(request, rng)
    orb = _orbital_from_samples(samples, request, rng)
    bary = _mean_moments([empirical_moments(t, K) for t in samples])
    proxy_conj = _mean_moments([
        empirical_moments(conjugate_tuple(t, haar_unitary_batch(blockmap.ell, t.N, rng),
                                          blockmap), K)
        for t in samples])
    groups = [[i + 1 for i in range(model.n) if blockmap.groups[i] == g]
              for g in range(blockmap.ell)]
    proxy_free = free_product_moments([_group_marginal(bary, g) for g in groups], K)

    p_tilde = blockmap.max_group_size
    lhs_free = dW_moment_lower_bound(bary, proxy_free, K, p_tilde)
    lhs_conj = dW_moment_lower_bound(bary, proxy_conj, K, p_tilde)
    rhs = 4.0 * model.R * math.sqrt(p_tilde * max(0.0, -orb.value))
    rhs_upper = 4.0 * model.R * math.sqrt(
        p_tilde * max(0.0, -orb.value + 3.0 * orb.stderr))
    return TalagrandReport(
        orbital=orb,
        barycenter=bary,
        proxy_free=proxy_free,
        proxy_conj=proxy_conj,
        freeness_gap=moment_distance(proxy_free, proxy_conj, K),
        p_tilde=p_tilde,
        lhs_free=lhs_free,
        lhs_conj=lhs_conj,
        rhs=rhs,
        rhs_upper=rhs_upper,
        holds_free=bool(lhs_free <= rhs_upper + 1e-12),
        holds_conj=bool(lhs_conj <= rhs_upper + 1e-12),
    )
