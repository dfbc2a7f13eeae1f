"""Relative entropy of a Gibbs ensemble under block-wise Haar conjugation.

For a model mu with density f proportional to exp(-N Tr V) and a block
map pi assigning tuple positions to ell conjugation groups, the conjugation
randomization U^pi mu has density h(M) = E_U[f(conj(M, U, pi))] (one
independent Haar unitary per group). The relative entropy

    Ent(mu | U^pi mu) = -E_mu[log f(M) - log h(M)]

is nonpositive, vanishes when the potential decouples across groups, and its
N^-2 normalization is the finite-size stand-in for the orbital part of the
entropy curve. Every mean over the outer samples carries the IAT-inflated
stderr of :func:`matent.estimates.pooled_mean` on its per-sample series.

The inner expectation takes one of three routes, chosen from the words of
the potential that cross groups (:func:`_bilinear_coupling`); words inside a
group cancel in f(conj) / f.

- No word crosses groups (a decoupled potential, a global map, V = 0): Ent
  is exactly 0, and no outer chain runs.
- The only crossing words are X_i X_j and X_j X_i of one pair, as in every
  c (X - Y)^2: the inner expectation is the Harish-Chandra-Itzykson-Zuber
  integral, evaluated exactly for each outer sample from the two spectra
  (:func:`_hciz_terms`), with no Haar draw and no Jensen bias. The
  determinant is taken in double precision in a Gaussian-kernel form,
  checked by a second pivot order, and in stdlib ``decimal`` where the two
  orders disagree.
- Any other potential (quartic couplings, two cross pairs over three
  groups): a nested Monte Carlo log-mean-exp over ``s_in`` conjugated
  copies, with max shift; its downward (Jensen) bias is tracked by a
  leave-one-out jackknife and checked against the half-inner-sample value.

Only the rotations of groups 1..ell-1 relative to group 0 matter: every
trace is invariant under one global conjugation, and U_0^* U_g are i.i.d.
Haar when the U_g are. So every conjugated copy, of the inner layer, of the
chain-rule check and of the Talagrand proxy alike, comes from
:func:`_relative_copies`, which leaves group 0 as it is and draws ell - 1
unitaries per copy (none for global conjugation, ell = 1). The outer
samples are the (n, S, N, N) array of :func:`matent.sampler.mcmc_chain`, and
every function here indexes it: ``samples[i]`` is block i of all S samples,
``samples[:, s]`` is sample s. Every log weight -N Tr V, of the outer
samples and of their conjugated copies alike, comes from
:meth:`GibbsModel.energy` (built on the word evaluator of
:mod:`matent.ncpoly`) called once per stack: the S outer samples at once,
and the ``s_in`` copies of one sample as (s_in, N, N) blocks. One outer
chain feeds each report; :func:`talagrand_report` hands its samples to both
the orbital estimate and the moment barycenters, which are means of
:func:`matent.ncpoly.word_traces` over stacks of samples and of their
copies. :func:`chain_rule_check` keeps the nested inner layer on every
route, so its orbital term carries the nested estimate's downward bias.

The chain-rule identity Ent(mu|nu) = Ent(mu|U^pi mu) + Ent(U^pi mu|nu) for a
conjugation-invariant reference nu (here: uniform on the ball product) and
the transport-cost bounds relating moment distance to the orbital term are
exposed as report-producing checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .estimates import EstimatorError, ScalarEstimate, logsumexp, pooled_mean
from .matrices import BlockMap, MatrixTuple, haar_unitary_batch, hermitize
from .moments import MomentSpec, free_product_moments, moment_distance
from .ncpoly import canonical_classes, word_traces
from .sampler import (MIN_ACCEPTANCE, ChainDiagnostics, GibbsModel, TIOptions, _entropy,
                      estimate_log_I, log_ball_volume, mcmc_chain)

__all__ = [
    "OrbitalRequest",
    "OrbitalEstimate",
    "orbital_entropy",
    "ChainRuleReport",
    "chain_rule_check",
    "dW_upper_bound",
    "dW_moment_lower_bound",
    "TalagrandReport",
    "talagrand_report",
]

MIN_NESTED = 16
# nats: the largest pivot-order spread of a double-precision HCIZ determinant
# that is accepted; above it the sample is evaluated in stdlib decimal
EXACT_SPREAD = 1e-10
MAX_DIGITS = 4000
# tuples per stack of the Talagrand barycenters: one Haar batch for all 128
# copies at N = 16 raised the orbital workload's peak memory by 1.5 MB
MOMENT_STACK = 32


@dataclass(frozen=True)
class OrbitalRequest:
    """A conjugation-relative-entropy estimation task.

    ``s_out`` outer equilibrium samples, ``s_in`` inner Haar draws per outer
    sample on the nested route; both at least 16 so the jackknife and the
    half-sample self-consistency check are meaningful. The outer chain
    burns in ``chain_burnin`` >= 0 steps and keeps every ``chain_thin``-th
    state, ``chain_thin`` >= 1. It is the budget of all three orbital
    reports, from :func:`orbital_entropy` to :func:`talagrand_report`.
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
        if self.chain_burnin < 0 or self.chain_thin < 1:
            raise ValueError("need chain_burnin >= 0 and chain_thin >= 1")


@dataclass(frozen=True)
class OrbitalEstimate:
    """Estimate of Ent(mu | U^pi mu), on the route of :func:`orbital_entropy`.

    ``value`` is the N^-2-normalized relative entropy (the entropy-curve
    scale quantity, nonpositive in expectation); ``raw`` is unnormalized.
    ``kl`` restates the result as the Kullback-Leibler divergence -raw.
    ``stderr`` and ``ess`` = ``s_out`` / tau come from one
    :func:`matent.estimates.pooled_mean` of the per-sample terms, whose IAT is
    tau. On one short outer chain this ESS overstates: at ``readme-orbital``
    scale (N = 8, thin 25) the thinned IAT of the per-sample term read 29-58
    over 4,096-sample chains, and a median of 9-11 in their 128-sample
    windows. ``self_consistent`` is false whenever the outer chain accepted
    fewer than ``sampler.MIN_ACCEPTANCE`` of its moves (a stuck chain), on
    every route that runs one.

    - Nested route: ``bias_bound`` bounds the inner-average (Jensen) bias at
      the same normalization as ``value``; ``half_value`` is the estimate
      from the first half of the ``s_in`` copies, ``half_shift`` its move,
      and ``self_consistent`` also records whether that move is within the
      half-sample bias bound plus paired noise.
    - Exact HCIZ route (a bilinear coupling): ``bias_bound`` is the largest
      pivot-order spread of the per-sample determinants over N^2, at most
      1e-10 / N^2; ``half_value`` = ``value``, ``half_shift`` = 0, and
      ``s_in`` is the request's, unused.
    - Decoupled route: every field is 0 (``s_out`` and ``ess`` too: no outer
      sample is used) but ``s_in``, and ``self_consistent`` is true.
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
    ess: float


def _relative_copies(blocks: Sequence[np.ndarray], blockmap: BlockMap, count: int,
                     rng: np.random.Generator) -> List[np.ndarray]:
    """``count`` copies of the blocks with groups 1..ell-1 conjugated by i.i.d.
    Haar unitaries and group 0 left as it is: one (count, N, N) stack per block.

    Every trace is invariant under one global conjugation, and if U_0, ...,
    U_{ell-1} are i.i.d. Haar then so are U_0^* U_g; so for any function of
    traces the copies have the law of conjugating all ell groups
    independently, from count (ell - 1) unitaries drawn in one batch instead
    of count ell. With ell = 1 nothing is drawn and every copy is the tuple
    itself.
    """
    ell, N = blockmap.ell, blocks[0].shape[-1]
    us = haar_unitary_batch(count * (ell - 1), N, rng).reshape(count, ell - 1, N, N)
    out = []
    for b, g in zip(blocks, blockmap.groups):
        if g == 0:
            out.append(np.broadcast_to(b, (count, N, N)))
        else:
            u = us[:, g - 1]
            out.append(u @ b @ np.conj(np.swapaxes(u, -1, -2)))
    return out


class _Coupling(NamedTuple):
    """The part of a potential that a relative conjugation can move, when
    its only words across groups are X_i X_j and X_j X_i for one pair of
    positions i < j (0-based) in different groups: there the log weight
    of a copy moves by t Tr(X_i W X_j W^*) for one Haar W, with
    t = -N k and k the real part of the pair's summed coefficients.
    t = 0 when no word crosses groups (or the pair's coefficients cancel):
    no copy differs in weight from its tuple."""

    i: int
    j: int
    t: float


def _bilinear_coupling(model: GibbsModel, blockmap: BlockMap) -> Optional[_Coupling]:
    """The :class:`_Coupling` of the model under the block map, or None when
    some word across groups is not X_i X_j or X_j X_i of one pair.

    A word whose letters all lie in one group keeps its trace under every
    copy, so it cancels in f(conj) / f; for c (X - Y)^2 on one group per
    block, k = -2c and t = 2 c N.
    """
    pair, k = None, 0.0
    for w, c in model.potential.terms.items():
        if len({blockmap.groups[g - 1] for g in w}) <= 1:
            continue
        ij = (min(w) - 1, max(w) - 1)
        if len(w) != 2 or pair not in (None, ij):
            return None
        pair, k = ij, k + c.real
    i, j = pair or (0, 0)
    return _Coupling(i, j, -model.N * k)


def _hciz_terms(samples: np.ndarray, coupling: _Coupling) -> Tuple[np.ndarray, float]:
    """The exact inner term of every outer sample of an (n, S, N, N) array on
    a bilinear coupling, and the largest pivot-order spread of the
    determinants it accepted.

    The inner expectation of exp(t Tr(X_i W X_j W^*)) over one Haar W is
    the Harish-Chandra-Itzykson-Zuber integral, so the term is
    g = log HCIZ(t; spec X_i, spec X_j) - t Tr(X_i X_j). The cross trace is
    one einsum over the samples, taken as N times the normalized trace
    (1/N) Tr(X_i X_j), whose rounding the results keep. A negative t is |t|
    with the spectrum of X_j negated. A block with a single-point
    spectrum is a multiple of 1 that no conjugation moves, so its g is 0
    (a stuck chain's zero state); any other repeated eigenvalue raises
    :class:`EstimatorError`.
    """
    x, y = samples[coupling.i], samples[coupling.j]
    t, N = coupling.t, x.shape[-1]
    cross = t * N * (np.einsum("...ij,...ji->...", x, y) / N).real
    a, b = np.linalg.eigvalsh(x), np.linalg.eigvalsh(y)
    if t < 0.0:
        t, b = -t, -b[:, ::-1]
    live = (np.ptp(a, axis=1) > 0.0) & (np.ptp(b, axis=1) > 0.0)
    a, b = a[live], b[live]
    if np.any(np.diff(a, axis=1) <= 0.0) or np.any(np.diff(b, axis=1) <= 0.0):
        raise EstimatorError("repeated eigenvalues: the HCIZ term needs simple spectra")
    g = np.zeros(x.shape[0])
    log_hciz, spread = _log_hciz(a, b, t)
    g[live] = log_hciz - cross[live]
    return g, spread


def _log_hciz(a: np.ndarray, b: np.ndarray, t: float) -> Tuple[np.ndarray, float]:
    """log HCIZ(t; a, b) for rows of ascending simple spectra, t > 0, and the
    largest pivot-order spread of the determinants it accepted.

    HCIZ = prod_{p<N} p! det[exp(t a_i b_j)] / (t^(N(N-1)/2) Delta(a) Delta(b))
    (Harish-Chandra 1957; Itzykson & Zuber 1980), and
    exp(t a_i b_j) = exp(t a_i^2 / 2) exp(t b_j^2 / 2) G_ij with the Gaussian
    kernel G_ij = exp(-t (a_i - b_j)^2 / 2), so
    log det = t (|a|^2 + |b|^2) / 2 + log det G exactly. G is close to
    banded where t is large, and its ``slogdet`` holds far more digits than
    that of exp(t a_i b_j). Each determinant is taken twice, of G and of G
    transposed and reversed, in two pivot orders; a row whose two values
    differ by more than ``EXACT_SPREAD`` nats (small t, or N = 32) is
    recomputed by :func:`_log_gram_det_decimal`.
    """
    N = a.shape[1]
    gram = a[:, :, None] - b[:, None, :]
    gram *= gram
    gram *= -0.5 * t
    np.exp(gram, out=gram)
    sign, log_g = np.linalg.slogdet(gram)
    sign_t, log_t = np.linalg.slogdet(np.swapaxes(gram, 1, 2)[:, ::-1, ::-1])
    spread = np.abs(log_g - log_t)
    good = (sign > 0.0) & (sign_t > 0.0) & (spread <= EXACT_SPREAD)
    for s in np.flatnonzero(~good):
        log_g[s], spread[s] = _log_gram_det_decimal(a[s], b[s], t)
    i, j = np.triu_indices(N, 1)
    log_vdm = np.log(a[:, j] - a[:, i]).sum(axis=1) + np.log(b[:, j] - b[:, i]).sum(axis=1)
    const = sum(math.lgamma(p + 1) for p in range(N)) - N * (N - 1) / 2.0 * math.log(t)
    return (const + 0.5 * t * (np.sum(a * a, axis=1) + np.sum(b * b, axis=1)) + log_g
            - log_vdm), float(spread.max(initial=0.0))


def _log_gram_det_decimal(a: np.ndarray, b: np.ndarray, t: float) -> Tuple[float, float]:
    """log det G of :func:`_log_hciz` for one pair of spectra in stdlib
    ``decimal``, and the spread of its two pivot orders.

    It starts at ceil(t spread(a) spread(b) / (2 ln 10)) + 30 digits and
    doubles them until the determinants of G and of G transposed and
    reversed agree to ``EXACT_SPREAD`` nats. At N = 32, t = 16-64 and at
    N = 16, t = 1.6 on spectra of c (X - Y)^2, R = 2, 40 digits were within
    1e-13 nats of a 400-digit elimination.
    """
    from decimal import Decimal, localcontext  # only here: no import cost on the double path

    N = a.size
    digits = math.ceil(t * np.ptp(a) * np.ptp(b) / (2.0 * math.log(10.0))) + 30
    while digits <= MAX_DIGITS:
        with localcontext() as ctx:
            ctx.prec = digits
            half_t = Decimal(t) / 2
            bs = [Decimal(float(y)) for y in b]
            m = [[(-half_t * (Decimal(float(x)) - y) ** 2).exp() for y in bs] for x in a]
            one = _det_by_elimination([row[:] for row in m])
            two = _det_by_elimination([[m[N - 1 - j][N - 1 - i] for j in range(N)]
                                       for i in range(N)])
            if one > 0 and two > 0:
                value, spread = float(one.ln()), abs(float(one.ln() - two.ln()))
                if spread <= EXACT_SPREAD:
                    return value, spread
        digits *= 2
    raise EstimatorError(f"HCIZ determinant unresolved at {MAX_DIGITS} digits")


def _det_by_elimination(m: List[list]):
    """Determinant of a square list of ``decimal`` rows by Gaussian elimination
    with partial pivoting, in the current context; the rows are overwritten."""
    N = len(m)
    det = 1
    for k in range(N):
        p = max(range(k, N), key=lambda r: abs(m[r][k]))
        if m[p][k] == 0:
            return 0
        if p != k:
            m[k], m[p], det = m[p], m[k], -det
        pivot = m[k]
        det *= pivot[k]
        for r in range(k + 1, N):
            row = m[r]
            f = row[k] / pivot[k]
            for c in range(k + 1, N):
                row[c] -= f * pivot[c]
    return det


def _inner_log_weights(blocks: Sequence[np.ndarray], request: OrbitalRequest,
                       rng: np.random.Generator) -> np.ndarray:
    """Log weights -N Tr V of ``request.s_in`` conjugated copies of one
    tuple, from :func:`_relative_copies` (ell - 1 Haar unitaries each)."""
    e = -request.model.energy(_relative_copies(blocks, request.blockmap, request.s_in, rng))
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


def _collect_terms(samples: np.ndarray, request: OrbitalRequest, rng: np.random.Generator):
    """Per-sample log density w, inner log-mean weights (full and half),
    and jackknife biases for both resolutions."""
    w = -request.model.energy(samples)
    full, half, bias_full, bias_half = np.empty((4, samples.shape[1]))
    for i in range(samples.shape[1]):
        e = _inner_log_weights(samples[:, i], request, rng)
        full[i] = _log_mean_exp(e)
        bias_full[i] = _jackknife_bias(e)
        eh = e[: e.size // 2]
        half[i] = _log_mean_exp(eh)
        bias_half[i] = _jackknife_bias(eh)
    return w, full, half, bias_full, bias_half


def orbital_entropy(request: OrbitalRequest, rng: np.random.Generator) -> OrbitalEstimate:
    """Estimate Ent(mu | U^pi mu) for the requested model and block map.

    The route follows the potential's words across groups
    (:func:`_bilinear_coupling`). With none, Ent is exactly 0 and no chain
    runs. With only X_i X_j and X_j X_i of one pair, every outer sample of
    a thinned Metropolis chain gets its exact HCIZ inner term
    (:func:`_hciz_terms`) and no Haar unitary is drawn. Otherwise the inner
    term is a nested log-mean-exp over ``s_in`` conjugated copies,
    max-shifted for stability, whose jackknife bias bound and
    half-inner-sample shift make the nested bias visible rather than
    silently absorbed. Reported stderr is the IAT-inflated stderr of
    :func:`matent.estimates.pooled_mean` over the outer series.
    """
    coupling = _bilinear_coupling(request.model, request.blockmap)
    if coupling is not None and coupling.t == 0.0:
        return _exact_zero(request)
    samples, chain = _outer_chain(request, rng)
    return _orbital_from_samples(samples, chain, request, rng)


def _outer_chain(request: OrbitalRequest, rng: np.random.Generator
                 ) -> Tuple[np.ndarray, ChainDiagnostics]:
    return mcmc_chain(request.model, request.s_out * request.chain_thin,
                      request.chain_burnin, request.chain_thin, rng=rng)


def _exact_zero(request: OrbitalRequest) -> OrbitalEstimate:
    """Ent = 0 exactly, from no outer sample: ``s_out`` and ``ess`` read 0."""
    return OrbitalEstimate(value=0.0, stderr=0.0, bias_bound=0.0, raw=0.0, raw_stderr=0.0,
                           kl=0.0, s_out=0, s_in=request.s_in, half_value=0.0,
                           half_shift=0.0, self_consistent=True, ess=0.0)


def _orbital_from_samples(samples: np.ndarray, chain: ChainDiagnostics,
                          request: OrbitalRequest, rng: np.random.Generator
                          ) -> OrbitalEstimate:
    """The estimate of :func:`orbital_entropy` on given outer samples, on the
    route of the request's coupling; ``chain`` is the outer chain's health,
    and one whose acceptance is below ``sampler.MIN_ACCEPTANCE`` is marked
    not self-consistent."""
    model = request.model
    nsq = model.N * model.N
    coupling = _bilinear_coupling(model, request.blockmap)
    if coupling is not None and coupling.t == 0.0:
        return _exact_zero(request)
    if coupling is not None:
        g, bound = _hciz_terms(samples, coupling)
        est, tau = pooled_mean(g)
        half, shift, consistent = est.value, 0.0, True
    else:
        g, half, shift, bound, consistent = _nested_terms(samples, request, rng)
        est, tau = pooled_mean(g)
    return OrbitalEstimate(
        value=est.value / nsq,
        stderr=est.stderr / nsq,
        bias_bound=bound / nsq,
        raw=est.value,
        raw_stderr=est.stderr,
        kl=-est.value,
        s_out=samples.shape[1],
        s_in=request.s_in,
        ess=samples.shape[1] / tau,
        half_value=half / nsq,
        half_shift=shift / nsq,
        self_consistent=bool(consistent and chain.acceptance >= MIN_ACCEPTANCE),
    )


def _nested_terms(samples: np.ndarray, request: OrbitalRequest, rng: np.random.Generator):
    """Per-sample nested terms g = log-mean-exp - log f; the mean of their
    half-inner-sample counterparts, its shift from the mean of g, the
    jackknife bias bound of that mean, and whether the shift is within the
    half-sample bias bound plus paired noise."""
    w, full, half, bias_full, bias_half = _collect_terms(samples, request, rng)
    g = full - w
    gh = half - w
    est_h = pooled_mean(gh)[0]
    d = pooled_mean(g - gh)[0]
    shift = abs(d.value)
    bb = pooled_mean(bias_full)[0]
    bb_h = pooled_mean(bias_half)[0]
    bound = abs(bb.value) + 2.0 * bb.stderr
    bound_h = abs(bb_h.value) + 2.0 * bb_h.stderr
    consistent = shift <= bound_h + 3.0 * d.stderr + 1e-12
    return g, est_h.value, shift, bound, consistent


@dataclass(frozen=True)
class ChainRuleReport:
    """Three-term decomposition of relative entropy to the uniform reference.

    ``total`` = Ent(mu|nu), ``orbital`` = Ent(mu|U^pi mu), ``conjugated`` =
    Ent(U^pi mu|nu); the identity says residual = total - orbital -
    conjugated vanishes. ``total`` and ``conjugated`` are the absolute
    entropies Ent(mu) and Ent(U^pi mu) less n log Vol, so with n log Vol
    added back the same residual checks the split
    Ent(mu) = Ent(mu|U^pi mu) + Ent(U^pi mu). ``residual_stderr`` is the
    stderr of the paired per-sample residual (shared pieces cancel
    exactly), and every stderr is that of
    :func:`matent.estimates.pooled_mean` on its per-sample series; ``holds``
    means |residual| <= 3 residual_stderr; ``combined_stderr`` treats the
    three terms as independent, which counts the shared log I twice.

    ``orbital`` is the nested estimate, biased low, and ``holds`` cannot see
    that bias (see :func:`chain_rule_check`): for c (X - Y)^2 at N = 8,
    c = 1, R = 2, s_out 128, s_in 96, thin 20 and
    ``np.random.default_rng(901)`` it read -134.8 +- 2.7 nats, where the
    exact HCIZ term on the same outer samples averages -43.5, and ``holds``
    was true.
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
    from one outer chain plus one log-normalizer from
    :func:`matent.sampler.estimate_log_I`. ``total`` and ``conjugated`` are
    entropies log I + E[N Tr V] less n log Vol, by the formula of the fits
    and of :func:`matent.sampler.gibbs_entropy`. For ``total`` the energy is
    N Tr V of the outer samples; for ``conjugated`` it is minus the nested
    log-mean-exp of -N Tr V at a randomized copy of each sample. For a
    bilinear two-matrix model such as c(X - Y)^2 log I is exact, so
    ``total`` and ``conjugated`` carry only their sample stderr and the
    quadrature error in ``bias_bound``;
    ``ti`` budgets only the thermodynamic integration of the other models.
    The residual is additionally evaluated in its paired per-sample form, in
    which the shared log I and log-volume contributions cancel identically.
    The orbital term is the nested estimate on every model: with the exact
    HCIZ term of :func:`orbital_entropy` the paired residual would vanish by
    construction. So the check measures whether the nested inner layer
    satisfies the identity, not the value of Ent(mu|U^pi mu): the nested
    term is biased low (see :class:`ChainRuleReport`), ``conjugated``
    carries the same bias with the opposite sign, and the residual cancels
    them. Take the orbital value from :func:`orbital_entropy`.
    """
    model, blockmap = request.model, request.blockmap
    base = model.n * log_ball_volume(model.N, model.R)
    samples, _ = _outer_chain(request, rng)
    log_i = estimate_log_I(model, opts=ti, rng=rng)

    energy = model.energy(samples)
    inner_mu, inner_conj = np.empty((2, samples.shape[1]))
    for i in range(samples.shape[1]):
        inner_mu[i] = _log_mean_exp(_inner_log_weights(samples[:, i], request, rng))
        rotated = [hermitize(c[0]) for c in _relative_copies(samples[:, i], blockmap, 1, rng)]
        inner_conj[i] = _log_mean_exp(_inner_log_weights(rotated, request, rng))

    total = _entropy(log_i, pooled_mean(energy)[0]).shifted(-base)
    orb = pooled_mean(inner_mu + energy)[0]
    conjugated = _entropy(log_i, pooled_mean(-inner_conj)[0]).shifted(-base)
    residual = total.value - orb.value - conjugated.value
    residual_se = pooled_mean(inner_conj - inner_mu)[0].stderr
    combined = math.sqrt(total.stderr ** 2 + orb.stderr ** 2 + conjugated.stderr ** 2)
    return ChainRuleReport(total, orb, conjugated, residual, residual_se,
                           combined, bool(abs(residual) <= 3.0 * residual_se),
                           samples.shape[1], request.s_in)


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
    est = pooled_mean(sq)[0] if sq.size > 1 else ScalarEstimate(float(sq[0]), 0.0, 1)
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


def _mean_moments(parts: Iterable[Sequence[np.ndarray]], K: int, R: float) -> MomentSpec:
    """Barycenter of the trace moments of degree <= K of tuples that come in
    parts, each one (S_k, N, N) stack per position: the mean of the
    normalized :func:`~matent.ncpoly.word_traces` of every tuple of every
    part."""
    sums, count = 0.0, 0
    for blocks in parts:
        count += blocks[0].shape[0]
        words = canonical_classes(len(blocks), K, 1)
        sums = sums + (word_traces(blocks, words) / blocks[0].shape[-1]).sum(axis=0)
    return MomentSpec(len(blocks), K, R, dict(zip(words, sums / count)))


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
    samples, chain = _outer_chain(request, rng)
    orb = _orbital_from_samples(samples, chain, request, rng)
    parts = [samples[:, k:k + MOMENT_STACK]
             for k in range(0, samples.shape[1], MOMENT_STACK)]
    bary = _mean_moments(parts, K, model.R)
    proxy_conj = _mean_moments(
        (_relative_copies(p, blockmap, p[0].shape[0], rng) for p in parts), K, model.R)
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
