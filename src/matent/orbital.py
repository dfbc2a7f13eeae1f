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

One function, :func:`_inner_terms`, gives the per-sample inner term of all
three reports, on one of three routes chosen from the words of the
potential that cross groups (:func:`_bilinear_coupling`); words inside a
group cancel in f(conj) / f.

- No word crosses groups (a decoupled potential, a global map, V = 0): the
  term is exactly 0, and :func:`orbital_entropy` runs no outer chain.
- The only crossing words are X_i X_j and X_j X_i of one pair, as in every
  c (X - Y)^2: the inner expectation is the Harish-Chandra-Itzykson-Zuber
  integral, evaluated exactly for each outer sample from the two spectra
  (:func:`_hciz_terms`), with no Haar draw and no Jensen bias. Each term
  is taken in double precision, in a Gaussian-kernel form or, where its
  error bound is too wide, by the character series (:func:`_log_hciz`).
- Any other potential (quartic couplings, two cross pairs over three
  groups): a nested Monte Carlo log-mean-exp over ``s_in`` conjugated
  copies, with max shift; its downward (Jensen) bias is tracked by a
  leave-one-out jackknife and checked against the half-inner-sample value.

Only the rotations of groups 1..ell-1 relative to group 0 matter: every
trace is invariant under one global conjugation, and U_0^* U_g are i.i.d.
Haar when the U_g are. So every conjugated copy, of the inner layer, of the
chain-rule check and of the Talagrand proxy alike, comes from
:func:`_relative_copies`, which leaves group 0 as it is and draws ell - 1
unitaries per copy (none for global conjugation, ell = 1); it is the one
conjugation of a tuple in the package. The outer
samples are the (n, S, N, N) array of :func:`matent.sampler.mcmc_chain`, and
every function here indexes it: ``samples[i]`` is block i of all S samples,
``samples[:, s]`` is sample s. Every log weight -N Tr V comes from
:meth:`GibbsModel.energy` (the word evaluator of :mod:`matent.ncpoly`) called
once per stack: the S outer samples, or their S relative copies, at once,
and the ``s_in`` copies of one sample as (s_in, N, N) blocks. One outer
chain feeds each report; :func:`talagrand_report` hands its samples to both
the orbital estimate and the moment barycenters, means of
:func:`matent.ncpoly.word_traces` over stacks of samples and of their
copies. :func:`chain_rule_check` takes the inner terms at the outer samples
and at one relative copy of each for the chain rule Ent(mu|nu) =
Ent(mu|U^pi mu) + Ent(U^pi mu|nu), nu uniform: on the exact routes its
residual checks invariance, on the nested one it compares two passes of
one law. :func:`talagrand_report` checks the transport-cost bounds, whose
transport side is the moment-gap lower bound :func:`dW_moment_lower_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .estimates import EstimatorError, ScalarEstimate, logsumexp, pooled_mean
from .matrices import BlockMap, haar_unitary_batch, hermitize
from .moments import MomentSpec, free_product_moments, moment_distance
from .ncpoly import canonical_classes, word_traces
from .sampler import (EXACT_BOUND, MIN_ACCEPTANCE, ChainDiagnostics, GibbsModel, TIOptions,
                      _entropy, estimate_log_I, log_ball_volume, mcmc_chain)

__all__ = [
    "OrbitalRequest",
    "OrbitalEstimate",
    "orbital_entropy",
    "ChainRuleReport",
    "chain_rule_check",
    "dW_moment_lower_bound",
    "TalagrandReport",
    "talagrand_report",
]

MIN_NESTED = 16
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
      error bound of the per-sample log HCIZ (:func:`_log_hciz`) over N^2,
      at most ``EXACT_BOUND`` / N^2 = 1e-8 / N^2; ``half_value`` =
      ``value``, ``half_shift`` = 0, and ``s_in`` is the request's, unused.
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
    a bilinear coupling, and the largest error bound of its log HCIZ rows
    (:func:`_log_hciz`).

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
    log_hciz, bound = _log_hciz(a, b, t)
    g[live] = log_hciz - cross[live]
    return g, float(bound.max(initial=0.0))


def _log_hciz(a: np.ndarray, b: np.ndarray, t: float) -> Tuple[np.ndarray, np.ndarray]:
    """log HCIZ(t; a, b) for rows of ascending simple spectra, t > 0, and each
    row's error bound.

    HCIZ = prod_{p<N} p! det[exp(t a_i b_j)] / (t^(N(N-1)/2) Delta(a) Delta(b))
    (Harish-Chandra 1957; Itzykson & Zuber 1980). Each row is first taken in
    the Gaussian kernel G_ij = exp(-t (a_i - b_j)^2 / 2), close to banded where
    t is large: log det = t (|a|^2 + |b|^2) / 2 + log det G. Its bound is 4 eps
    times sum_ij |(G^-1)_ji G_ij| (1 + t (a_i - b_j)^2 / 2), the first-order
    move of log det G under the rounding of G's entries and of the elimination,
    plus the addends' magnitudes: at least 9.9 times the distance to
    ``tests/oracles.hciz_log`` on the 856 rows of N = 4-32, t = 0.8-64 it kept.
    Rows with a bound above ``EXACT_BOUND`` (small t, or N >= 32) go to
    :func:`_log_hciz_series` (whose bounds reached 2.6e-10 at N = 64); one
    above it there too raises EstimatorError.
    """
    N = a.shape[1]
    arg = 0.5 * t * (a[:, :, None] - b[:, None, :]) ** 2
    gram = np.exp(-arg)
    sign, log_g = np.linalg.slogdet(gram)
    i, j = np.triu_indices(N, 1)
    log_gaps = np.log(np.stack((a[:, j] - a[:, i], b[:, j] - b[:, i])))
    const = sum(math.lgamma(p + 1) for p in range(N)) - N * (N - 1) / 2.0 * math.log(t)
    square = 0.5 * t * (np.sum(a * a, axis=1) + np.sum(b * b, axis=1))
    value = const + square + log_g - log_gaps.sum(axis=2).sum(axis=0)
    arg += 1.0
    gram[sign <= 0.0] = np.eye(N)  # any invertible matrix: these rows go to the series
    inv = np.linalg.inv(gram)
    cond = np.einsum("sji,sij,sij->s", np.abs(inv, out=inv), gram, arg)
    bound = 4.0 * np.finfo(float).eps * (cond + abs(const) + square + np.abs(log_g)
                                         + np.abs(log_gaps).sum(axis=(0, 2)))
    bad = np.flatnonzero((sign <= 0.0) | ~(bound <= EXACT_BOUND))
    if bad.size:
        value[bad], bound[bad] = _log_hciz_series(a[bad], b[bad], t)
    if not np.all(bound <= EXACT_BOUND):
        raise EstimatorError("HCIZ determinant unresolved in double precision")
    return value, bound


def _log_hciz_series(a: np.ndarray, b: np.ndarray, t: float) -> Tuple[np.ndarray, np.ndarray]:
    """log HCIZ of :func:`_log_hciz` by the character series, with no
    subtraction, and each row's error bound.

    With a = a_0 + ptp(a) u, b = b_0 + ptp(b) v, x = t ptp(a) ptp(b), the
    determinant is that of the divided differences of exp(x u v) (McCurdy, Ng
    & Parlett, Math. Comp. 43 (1984) 501), sum_(k<K) x^k / k! h_(k-i)(u_0..u_i)
    h_(k-j)(v_0..v_j), K = N + x + 12 sqrt(x + N) + 40, h_m complete. The h
    table inverts prod_i (1 - u_i Z_i), Z_i the shift below the diagonal from
    row i + 1, so (Jacobi) HCIZ = exp(t (a_0 sum b + b_0 sum a - N a_0 b_0))
    times the minor from row N on of L_(N-1)..L_0 U_0..U_(N-1), L_a = 1 +
    v_a sqrt(x / k) Z_a and U_b the transpose of that factor for u_b. Round r
    turns L_a D U_b, a + b = r, into U' D' L' (as in Koev, SIAM J. Matrix
    Anal. Appl. 29 (2007) 731): q_(K-1) = 1 / d_(K-1), q_(k-1) = 1 / d_(k-1)
    + l_k e_k q_k; l_k and e_k times q_k / q_(k-1), d'_k = d_(k-1) q_(k-1) /
    q_k, d'_0 = 1 / q_0. The minor is the product of the 2N - 1 diagonals
    left. The bound, 8 eps per pivot of the minor and per unit of the
    addends, was at least 10 times the distance to ``tests/oracles.hciz_log``
    on 468 rows (N = 2-64, x = 0.1-650); past x of about 500 N they overflow.
    """
    S, N = a.shape
    pa, pb = np.ptp(a, axis=1), np.ptp(b, axis=1)
    x = t * pa * pb
    K = math.ceil(N + x.max() + 12.0 * math.sqrt(x.max() + N) + 40.0)
    if S > 1 and S * N * K > 2 ** 18:  # about 15 MB of work arrays per call
        halves = [_log_hciz_series(a[h], b[h], t) for h in (slice(S // 2), slice(S // 2, S))]
        return tuple(np.concatenate(z) for z in zip(*halves))
    k = np.arange(K)[:, None, None]
    below = np.sqrt(x / np.maximum(k, 1)) * (k > np.arange(N)[:, None])  # [k, level, s]
    low = below * ((b - b[:, :1]) / pb[:, None]).T
    up = (below * ((a - a[:, :1]) / pa[:, None]).T)[:, ::-1]  # U_b at N - 1 - b
    diag = np.ones((K, 2 * N - 1, S))  # [k, a - b + N - 1, s]: U_b and L_a last met there
    # a row past the range overflows to nan, whose bound then reports it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for r in range(2, 2 * N - 1):  # u_0 = v_0 = 0: L_0 = U_0 = 1 swap with nothing
            lo, hi, w = max(1, r - N + 1), min(r - 1, N - 1), r // 2  # l_k e_k = 0 for k <= w
            l, e = low[w:, lo:hi + 1], up[w:, N - 1 - r + lo:N - r + hi]
            d = diag[w:, 2 * lo - r + N - 1:2 * hi - r + N:2]
            step = l[1:] * e[1:]
            q = 1.0 / d
            for m in range(K - w - 1, 0, -1):
                q[m - 1] += step[m - 1] * q[m]
            ratio = np.divide(q[1:], q[:-1], out=step)
            l[1:] *= ratio
            e[1:] *= ratio
            d[0], d[1:] = 1.0 / q[0], np.divide(d[:-1], ratio, out=q[1:])
        log_minor = np.log(diag[N:]).sum(axis=1).sum(axis=0)
    parts = np.stack((t * a[:, 0] * b.sum(axis=1), t * b[:, 0] * a.sum(axis=1),
                      -N * t * a[:, 0] * b[:, 0], log_minor))
    return parts.sum(axis=0), 8.0 * np.finfo(float).eps * (
        (2 * N - 1) * (K - N) + np.abs(parts).sum(axis=0))


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
    taken by a log-sum-exp of the others, so nothing underflows.
    """
    s = e.size
    mx = float(np.max(e))
    a = np.exp(e - mx)
    total = a.sum()
    rest = total - a
    tiny = rest <= total * 1e-12
    rest[tiny] = 1.0
    loo = np.log(rest / (s - 1)) + mx
    for idx in np.flatnonzero(tiny):
        loo[idx] = logsumexp(np.delete(e, idx)) - math.log(s - 1)
    theta = math.log(total / s) + mx
    return float((s - 1) * (loo.mean() - theta))


def orbital_entropy(request: OrbitalRequest, rng: np.random.Generator) -> OrbitalEstimate:
    """Estimate Ent(mu | U^pi mu) for the requested model and block map.

    With no word across groups (:func:`_bilinear_coupling`) Ent is exactly
    0 and no chain runs. Otherwise every outer sample of a thinned
    Metropolis chain gets its term from :func:`_inner_terms`, and the
    stderr is the IAT-inflated one of :func:`matent.estimates.pooled_mean`
    over the outer series.
    """
    coupling = _bilinear_coupling(request.model, request.blockmap)
    if coupling is not None and coupling.t == 0.0:
        return _exact_zero(request)
    return _orbital_from_samples(*_outer_chain(request, rng), coupling, request, rng)


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
                          coupling: Optional[_Coupling], request: OrbitalRequest,
                          rng: np.random.Generator) -> OrbitalEstimate:
    """The estimate of :func:`orbital_entropy` on given outer samples, the
    one route of both reports that run it: :func:`_exact_zero` when no word
    crosses groups (t = 0; the samples are not read), and otherwise the mean
    of :func:`_inner_terms`. ``chain`` is the outer chain's health, and one
    whose acceptance is below ``sampler.MIN_ACCEPTANCE`` is marked not
    self-consistent."""
    if coupling is not None and coupling.t == 0.0:
        return _exact_zero(request)
    g, half, shift, bound, consistent = _inner_terms(samples, coupling, request, rng)
    est, tau = pooled_mean(g)
    nsq = request.model.N * request.model.N
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


class _Inner(NamedTuple):
    """Inner terms g of :func:`_inner_terms` and diagnostics of their mean."""

    g: np.ndarray
    half: float
    shift: float
    bound: float
    consistent: bool


def _inner_terms(samples: np.ndarray, coupling: Optional[_Coupling], request: OrbitalRequest,
                 rng: np.random.Generator) -> _Inner:
    """The term g = log E_W f(conj(M, W)) - log f(M) of every sample M of an
    (n, S, N, N) array on the route of ``coupling`` (:func:`_bilinear_coupling`):
    0 at t = 0; the exact :func:`_hciz_terms`, bound its largest row bound,
    for a bilinear coupling; and for None the nested log-mean-exp over
    ``s_in`` copies, bound the jackknife bias bound of the mean of g. There
    ``half`` is the mean from the first half of the copies, ``shift`` its
    move, and ``consistent`` whether that move is within the half-sample bias
    bound plus paired noise; on the exact routes they read mean g, 0, true.
    """
    if coupling is not None:
        g, bound = _hciz_terms(samples, coupling) if coupling.t else (
            np.zeros(samples.shape[1]), 0.0)
        return _Inner(g, pooled_mean(g)[0].value, 0.0, bound, True)
    w = -request.model.energy(samples)
    full, half, bias_full, bias_half = np.empty((4, samples.shape[1]))
    for i in range(samples.shape[1]):
        e = _inner_log_weights(samples[:, i], request, rng)
        eh = e[: e.size // 2]
        full[i], half[i] = _log_mean_exp(e), _log_mean_exp(eh)
        bias_full[i], bias_half[i] = _jackknife_bias(e), _jackknife_bias(eh)
    g = full - w
    gh = half - w
    d = pooled_mean(g - gh)[0]
    bb = pooled_mean(bias_full)[0]
    bb_h = pooled_mean(bias_half)[0]
    bound_h = abs(bb_h.value) + 2.0 * bb_h.stderr
    return _Inner(g, pooled_mean(gh)[0].value, abs(d.value), abs(bb.value) + 2.0 * bb.stderr,
                  abs(d.value) <= bound_h + 3.0 * d.stderr + 1e-12)


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
    means |residual| <= 3 residual_stderr + 1e-13 max(1, |log I|,
    n |log Vol|), the last term the rounding of the exact routes, where the
    paired stderr is itself rounding (1.8e-15 against 5.6e-16 at N = 3,
    R = 2, X^2 + Y^2), and an outer chain that accepted at least
    ``sampler.MIN_ACCEPTANCE`` of its moves, as ``self_consistent`` asks in
    the other two reports. ``combined_stderr`` treats the three terms as
    independent, which counts the shared log I twice. ``orbital`` is
    :func:`orbital_entropy`'s ``raw`` +- ``raw_stderr`` on the same stream,
    with its bias bound: -39.1 +- 2.0 nats for
    c (X - Y)^2 at N = 8, c = 1, R = 2, s_out 128, thin 20 and
    ``np.random.default_rng(901)``. ``conjugated`` carries the inner terms'
    bias bound at the relative copies.
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
                     ti: TIOptions = TIOptions()) -> ChainRuleReport:
    """Verify Ent(mu|nu) = Ent(mu|U^pi mu) + Ent(U^pi mu|nu) within noise.

    nu is the uniform ensemble (conjugation-invariant, as required for the
    identity). The request gives the model, the block map and the nested
    budget, as for :func:`orbital_entropy`. All three terms come from one
    outer chain and, after the inner terms on the stream, one log I from
    :func:`matent.sampler.estimate_log_I` (``ti`` budgets only its
    thermodynamic integration; for c (X - Y)^2 it is exact). ``total`` and
    ``conjugated`` are entropies log I + E[N Tr V] less n log Vol, from
    :func:`matent.sampler._entropy`: for ``total`` the energy is N Tr V
    of the outer samples, for ``conjugated`` -log h = N Tr V - g at one
    relative copy of each sample (one :func:`_relative_copies` batch), with
    g from :func:`_inner_terms` on the route of ``orbital``.

    The paired per-sample residual is log h(copy) - log h(M); log I and the
    log volume cancel from it. h is conjugation-invariant, so on the exact
    routes (t = 0, HCIZ) the residual is rounding: it checks that the
    route's term and the energy do not move under one relative conjugation,
    the invariance the identity rests on. On the nested route the ``s_in``
    copies of a relative copy are conjugated by W_k U with W_k i.i.d. Haar,
    again i.i.d. Haar: both passes have one law, so the residual measures
    their noise and cannot see their shared downward (Jensen) bias.
    """
    model, blockmap = request.model, request.blockmap
    base = model.n * log_ball_volume(model.N, model.R)
    samples, chain = _outer_chain(request, rng)
    coupling = _bilinear_coupling(model, blockmap)
    inner = _inner_terms(samples, coupling, request, rng)
    copies = hermitize(np.stack(_relative_copies(samples, blockmap, samples.shape[1], rng)))
    inner_conj = _inner_terms(copies, coupling, request, rng)
    log_i = estimate_log_I(model, opts=ti, rng=rng)

    energy, minus_log_h = model.energy(samples), model.energy(copies) - inner_conj.g
    total = _entropy(log_i, pooled_mean(energy)[0]).shifted(-base)
    orb = replace(pooled_mean(inner.g)[0], bias_bound=inner.bound)
    conjugated = _entropy(log_i, replace(pooled_mean(minus_log_h)[0],
                                         bias_bound=inner_conj.bound)).shifted(-base)
    residual = total.value - orb.value - conjugated.value
    residual_se = pooled_mean(energy - inner.g - minus_log_h)[0].stderr
    combined = math.sqrt(total.stderr ** 2 + orb.stderr ** 2 + conjugated.stderr ** 2)
    # an exact route's residual is rounding of terms up to |log I| and
    # n |log Vol|, while its paired stderr can be smaller still
    rounding = 1e-13 * max(1.0, abs(log_i.value), abs(base))
    holds = abs(residual) <= 3.0 * residual_se + rounding and chain.acceptance >= MIN_ACCEPTANCE
    return ChainRuleReport(total, orb, conjugated, residual, residual_se, combined,
                           bool(holds), samples.shape[1], request.s_in)


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
    """Check the transport-entropy bound at degree K, 1 <= K <= 6.

    The conjugation-relative entropy controls how far the ensemble can sit
    from the free product of its per-group marginals; both the free product
    (exact, from the non-crossing recursion) and the empirical conjugation
    randomization provide the comparison state, and their mutual distance is
    reported as a diagnostic of how free the randomized ensemble really is.
    One outer chain of the request feeds both the orbital estimate, by
    :func:`_orbital_from_samples`, and the moment barycenters: on a
    decoupled model the chain feeds the barycenters only, and the orbital
    estimate is the exact 0 (``s_out`` and ``ess`` 0, ``self_consistent``
    true). At K = 0 no word is compared and both verdicts would hold by
    construction, so K must lie in 1..6.
    """
    if not 1 <= K <= 6:
        raise ValueError(f"transport checks need degree 1 <= K <= 6, got {K}")
    model, blockmap = request.model, request.blockmap
    samples, chain = _outer_chain(request, rng)
    orb = _orbital_from_samples(samples, chain, _bilinear_coupling(model, blockmap),
                                request, rng)
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
