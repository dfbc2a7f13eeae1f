"""Gibbs ensembles on products of Hermitian norm balls.

The reference measure is Lebesgue on the product of operator-norm balls
{ ||M_i|| <= R }; a model reweights it by exp(-N Tr V(M)) for a
self-adjoint potential V, whose scale is the model's only temperature.
Which sampler draws a model's states is decided in one place,
:func:`_draw`: exact i.i.d. draws where an exact sampler exists (n == 1,
and a Gaussian cut to the ball), random-walk Metropolis otherwise. Its
proposal adds a Gaussian Hermitian increment to every block and rejects
outside the ball, which one batched Cholesky of R^2 - M^2 decides
(:func:`~matent.matrices.in_norm_ball`). One
engine steps one chain or several walkers in lockstep, with one batched
proposal for all of them, and draws the randomness of a block of steps
ahead, in one generator call for the normals and one for the uniforms
(:class:`ChainEngine`). Since no draw depends on the state and a rejected
step leaves it as it is, one walker prices its next few proposals in one
call, as a batch that ends at its first accepted proposal; since a state
in a stack gets the energy bits it gets alone, every decision, state and
energy is the one single steps give.

The normalizer I = integral of exp(-N Tr V) over the ball product is exact
for n == 1: the eigenvalues form an orthogonal-polynomial ensemble, and
Heine's identity turns log I into a sum of log norms of the monic
orthogonal polynomials for the weight exp(-N V) on [-R, R], computed by
a discretized Stieltjes procedure on Gauss-Legendre nodes. It is exact for
two matrices whose potential couples them only through Tr XY: the HCIZ
integral and Andreief's identity turn I into Mehta's bimoment determinant,
evaluated on the same nodes by :func:`_split_form`, whose derivatives are
the moments of the exact K = 2 fit. Every other n >= 2 model is estimated
by thermodynamic integration over an inverse temperature beta in [0, 1],
which only the integrating chain carries (:class:`ChainEngine`), anchored
at the exact log-volume of the ball (Mehta/Selberg closed form).

Samples are one complex array of shape (n, S, N, N): block i of sample s
is ``samples[i, s]``, the layout of :class:`ChainEngine`'s state with the S
samples in the walker slot. Energies N Tr V(M) come from one method,
:meth:`GibbsModel.energy`: one :func:`~matent.ncpoly.word_traces` call
takes the traces of all the potential's word classes on blocks of shape
(n, ..., N, N), and one product with the class coefficients, folded once
per model, sums them; so one call prices a single state or a whole stack
(the orbital estimators pass the sample array),
each state of a stack to the bit as alone, and a potential of degree <= 2
costs no matrix product.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np
from numpy.polynomial.polynomial import polyval

from .estimates import EstimatorError, ScalarEstimate, pooled_mean
from .matrices import MatrixTuple, haar_unitary_batch, hermitize, in_norm_ball
from .moments import MomentSpec
from .ncpoly import NcPoly, Word, canonical_class, canonical_classes, word_rotations, word_traces

__all__ = [
    "GibbsModel",
    "ChainDiagnostics",
    "ChainEngine",
    "TIOptions",
    "MicrostateEstimate",
    "mcmc_chain",
    "log_ball_volume",
    "estimate_log_I",
    "microstate_hit_rate",
]

ACCEPT_BAND = (0.30, 0.45)
MIN_ACCEPTANCE = 0.01
# the share of a chain's burn-in that tunes its step size (see _draw)
TUNE_SHARE = 0.8
# bytes of the increments a chain engine draws at once (see ChainEngine)
DRAW_BUFFER_BYTES = 2 ** 18
# proposals a one-walker chain prices in one batch (see ChainEngine._advance)
SPECULATIVE_DEPTH = 4


@dataclass(frozen=True)
class GibbsModel:
    """Density proportional to exp(-N Tr V) on the norm-ball product."""

    n: int
    N: int
    R: float
    potential: NcPoly
    # the potential folded over word classes, see energy()
    _words: Tuple[Word, ...] = field(init=False, repr=False, compare=False)
    _coeffs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1 or self.N < 1 or not (self.R > 0):
            raise ValueError("need n >= 1, N >= 1, R > 0")
        if self.potential.n != self.n:
            raise ValueError("potential generator count does not match model")
        if not self.potential.is_self_adjoint():
            raise ValueError("potential must be self-adjoint")
        fold: dict = {}
        for word, c in self.potential.terms.items():
            k = canonical_class(word)
            fold[k] = fold.get(k, 0.0) + (c if k in word_rotations(word) else c.conjugate())
        words = tuple(sorted(fold))
        object.__setattr__(self, "_words", words)
        object.__setattr__(self, "_coeffs",
                           self.N * np.array([fold[w] for w in words], dtype=complex))

    def energy(self, blocks) -> np.ndarray:
        """E(M) = N Tr V(M) of blocks of shape (n, ..., N, N) (an array or a
        sequence of n arrays): energies of shape (...).

        Only traces are taken, one per cyclic/reversal class of the
        potential's words: Tr w is the same on every rotation of w and
        conjugates under reversal, so the class coefficient C sums c over
        the class's words in its own orientation and conj(c) over the
        reversed ones. The coefficients are folded once per model into one
        vector N C aligned with the class words (the unit among them, with
        Tr 1 = N), and one :func:`~matent.ncpoly.word_traces` call gives the
        traces T of all classes: E = Re(T @ N C). Classes of degree <= 2
        cost one Gram contraction and no matrix product. A state in a
        C-contiguous stack gets the energy it gets alone, to the bit:
        :class:`ChainEngine` prices several proposals in one call on that.
        """
        return (word_traces(blocks, self._words) @ self._coeffs).real


@dataclass(frozen=True)
class ChainDiagnostics:
    """Post-burn-in health summary of one Metropolis run.

    ``iat`` and ``ess`` = ``retained`` / ``iat`` are those of the retained
    ``tracked`` series, from :func:`matent.estimates.pooled_mean`; a run that
    keeps fewer than 2 samples reports ``iat`` = 1.
    """

    acceptance: float
    step_scale: float
    iat: float
    ess: float
    steps: int
    burnin: int
    thin: int
    retained: int
    tracked: str


class ChainEngine:
    """Random-walk Metropolis state for one Gibbs model, on ``walkers``
    independent chains that step in lockstep.

    Keeps the current blocks, as one (n, K, N, N) array for K walkers (block
    i of walker k is ``blocks[i, k]``), and their energies, shape (K,). The
    chain targets exp(-beta E) with E = N Tr V and an inverse temperature
    ``beta``, 1 until :meth:`set_beta` changes it; beta and the model
    (:meth:`set_model`) can be swapped without discarding the state, as
    annealed thermodynamic integration does at each node and Monte Carlo
    Newton at each iterate. Every step proposes a joint Gaussian Hermitian
    increment of all blocks of every walker, for any n; :func:`_draw`
    draws n == 1 and Gaussian states exactly instead. All walkers share one
    step scale, tuned on their pooled acceptance, and ``accepted`` and
    ``proposed`` count walker-steps, so ``run(s)`` costs s batched steps and
    yields K s walker-steps.

    The randomness of T = max(1, ``DRAW_BUFFER_BYTES`` // (16 n K N^2))
    steps is drawn at once, when the last block of draws is used up: one
    standard normal array Z of shape (T, n, K, N, N) and one uniform array
    U of shape (T, K), in that order. Step t's increment of a block is
    s ((Z + Z^T) + i (Z - Z^T)) / 2 for its N x N slice Z, with the step
    scale s of the step that uses it; the symmetric and antisymmetric parts
    of one Gaussian matrix are independent, so the diagonal has variance s^2
    and the real and imaginary parts off it s^2 / 2. Draws are used in order
    across ``tune``, ``run`` and swaps of beta or the model, each once;
    no draw depends on the state, and those left over die with the engine.
    One walker takes the same decisions as a single chain that reads the
    same layout block by block, with a per-block ``eigvalsh`` ball test, bit
    for bit (the tests hold it to one), except that the Cholesky test
    accepts ||M|| < R where ``eigvalsh`` accepts ||M|| <= R: the two can
    disagree only within rounding of the sphere, a null set for the chain.

    :meth:`run` (which ``tune`` calls) and :meth:`step` advance through one
    batch method, :meth:`_advance`. Package code burns in, tunes and runs an
    engine only through :func:`_draw`, and never calls ``step``. A
    rejected step leaves the state unchanged, so the proposals of the next
    d steps, as long as they all reject, are known from the current state
    and the drawn increments. One walker prices d = ``SPECULATIVE_DEPTH`` of
    them in one energy call and takes the steps up to the first accepted
    one; the draws after it go to the next batch.
    This is exact, not an approximation: both tests of a proposal depend
    only on its draws, the state and the state's energy, all fixed before
    the batch, and :meth:`GibbsModel.energy` gives a state in a stack the
    bits it gets alone, so every decision, state and energy is the one
    single steps give (the tests hold it to that). K > 1 walkers take
    batches of one step: at acceptance 0.35 some one of 8 walkers moves on
    all but 0.65^8, about 3%, of steps.
    """

    def __init__(self, model: GibbsModel, rng: np.random.Generator, walkers: int = 1):
        self.model = model
        self.rng = rng
        self.beta = 1.0
        N = model.N
        self.blocks = np.zeros((model.n, walkers, N, N), dtype=complex)
        self.step_scale = model.R / (2.0 * math.sqrt(N))
        self.energy = model.energy(self.blocks)
        self.accepted = 0
        self.proposed = 0
        # the unscaled increments and log-uniforms of the current block of
        # draws, and the index of the next step's
        self._increments = np.empty((0,))
        self._log_u = np.empty((0,))
        self._next = 0

    @property
    def walkers(self) -> int:
        return self.blocks.shape[1]

    def set_beta(self, beta: float) -> None:
        self.beta = beta

    def set_model(self, model: GibbsModel) -> None:
        self.model = model
        self.energy = model.energy(self.blocks)

    def reset_counters(self) -> None:
        self.accepted = 0
        self.proposed = 0

    @property
    def acceptance(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0

    def _refill(self) -> None:
        """Draw the next block of steps: Z and U, then the increments
        (Z + Z^T) + i (Z - Z^T) of all its steps in place."""
        n, K, N = self.blocks.shape[:3]
        steps = max(1, DRAW_BUFFER_BYTES // (16 * n * K * N * N))
        z = self.rng.standard_normal((steps, n, K, N, N))
        with np.errstate(divide="ignore"):
            self._log_u = np.log(self.rng.random((steps, K)))
        self._increments = _hermitian_blocks(z)
        self._next = 0

    def _advance(self, limit: int, after: Callable[[], None]) -> Tuple[int, int]:
        """Resolve the next d steps, 1 <= d <= ``limit``, as one batch;
        returns (steps taken, walker moves accepted).

        d is the smallest of ``limit``, the draws left in the block and
        ``SPECULATIVE_DEPTH`` for one walker (1 for K > 1 walkers). The
        proposal of step t + j is blocks + s/2 increment[t + j], what that
        step proposes when every step before it rejects; one energy call
        prices all d, each with the bits it gets alone. The Metropolis test,
        log U < -beta (E' - E), runs first on all of them; then, one step at
        a time and in order, the batched Cholesky ball test
        (:func:`~matent.matrices.in_norm_ball`) runs on the K walkers of each
        step where some walker passed it, and on no other step. Neither order
        changes a verdict: both depend only on numbers fixed before the
        batch. The first step where some walker passes both ends the batch:
        the steps up to it are taken, the state moves there, and the draws
        after it stay for the next batch. ``after`` is called once per step
        taken, in order; for the rejected steps before the state moves, so it
        sees what single steps show.
        """
        if self._next == len(self._increments):
            self._refill()
        t = self._next
        K = self.blocks.shape[1]
        d = min(limit, len(self._increments) - t, SPECULATIVE_DEPTH if K == 1 else 1)
        # one C-contiguous (n, d, K, N, N) stack, whose states price as alone
        proposals = np.multiply(self._increments[t:t + d].swapaxes(0, 1),
                                self.step_scale / 2.0, order="C")
        proposals += self.blocks[:, None]
        energies = self.model.energy(proposals)
        accept = self._log_u[t:t + d] < -self.beta * (energies - self.energy)
        taken, count = d, 0
        # a step at a time: the batch ends at the first step with a move
        for j in range(d):
            passed = accept[j]
            if not np.count_nonzero(passed):
                continue
            passed &= in_norm_ball(proposals[:, j], self.model.R).all(axis=0)
            count = int(np.count_nonzero(passed))
            if count:
                taken = j + 1
                break
        self._next = t + taken
        for _ in range(taken - 1):
            self.proposed += K
            after()
        # new arrays, never writes into the old: an observer may hold them
        if count == K:
            self.blocks, self.energy = proposals[:, taken - 1], energies[taken - 1]
        elif count:
            self.blocks = np.where(passed[:, None, None], proposals[:, taken - 1], self.blocks)
            self.energy = np.where(passed, energies[taken - 1], self.energy)
        self.proposed += K
        self.accepted += count
        after()
        return taken, count

    def step(self) -> float:
        """Advance every walker once; returns the fraction of moves accepted."""
        return self._advance(1, lambda: None)[1] / self.walkers

    def run(self, steps: int, observe: Optional[Callable[["ChainEngine"], None]] = None,
            every: int = 1) -> None:
        """Take ``steps`` steps, calling ``observe(self)`` after every
        ``every``-th."""
        done = 0

        def after() -> None:
            nonlocal done
            done += 1
            if observe is not None and done % every == 0:
                observe(self)

        while done < steps:
            self._advance(steps - done, after)

    def tune(self, steps: int) -> None:
        """Adapt the step size toward the acceptance band ``ACCEPT_BAND``.

        After each :meth:`run` of 50 steps (fewer at the end) the scale is
        multiplied by exp(1.5 (acc - target)), with acc the window's
        acceptance (pooled over walkers) and target the band midpoint; the
        factor is clamped to [0.6, 1.6] so a noisy window cannot destabilize
        the scale.
        """
        target = (ACCEPT_BAND[0] + ACCEPT_BAND[1]) / 2.0
        done = 0
        while done < steps:
            chunk = min(50, steps - done)
            accepted = self.accepted
            self.run(chunk)
            acc = (self.accepted - accepted) / self.walkers
            factor = math.exp(1.5 * (acc / chunk - target))
            self.step_scale *= min(max(factor, 0.6), 1.6)
            done += chunk


def mcmc_chain(model: GibbsModel, steps: int, burnin: int, thin: int,
               rng: np.random.Generator,
               record_path: Optional[str] = None) -> Tuple[np.ndarray, ChainDiagnostics]:
    """``steps // thin`` samples of a Gibbs model from :func:`_draw`, as one
    complex array of shape (n, S, N, N) whose ``[:, s]`` is sample s, filled
    batch by batch as they come.

    The IAT (about 1 for exact draws) and ESS are measured on the retained
    tracked series by :func:`matent.estimates.pooled_mean`. ``record_path``
    appends one JSON line per sample: its step, tracked value and
    :class:`~matent.matrices.MatrixTuple` state. Every draw is from ``rng``.
    """
    if steps < 1 or burnin < 0 or thin < 1:
        raise ValueError("need steps >= 1, burnin >= 0, thin >= 1")
    samples = np.empty((model.n, steps // thin, model.N, model.N), dtype=complex)
    filled = 0

    def take(batch: np.ndarray) -> None:
        nonlocal filled
        samples[:, filled:filled + batch.shape[1]] = batch
        filled += batch.shape[1]

    acceptance, step_scale = _draw(model, steps, burnin, thin, rng, take)
    # the tracked scalar: the energy, or (1/N) Tr X_1^2 for the zero potential
    tracked = "m2" if model.potential.is_zero() else "energy"
    series = ([np.vdot(b, b).real / model.N for b in samples[0]] if tracked == "m2"
              else model.energy(samples))
    if record_path:
        with open(record_path, "a") as sink:
            for k, v in enumerate(series):
                t = MatrixTuple(model.n, model.N, model.R, tuple(samples[:, k]))
                rec = {"step": (k + 1) * thin, "tracked": v, "state": json.loads(t.to_json())}
                sink.write(json.dumps(rec, sort_keys=True) + "\n")
    iat = pooled_mean(series)[1] if len(series) >= 2 else 1.0
    return samples, ChainDiagnostics(
        acceptance=acceptance, step_scale=step_scale, iat=iat, ess=len(series) / iat,
        steps=steps, burnin=burnin, thin=thin, retained=samples.shape[1], tracked=tracked)


def _draw(model: GibbsModel, steps: int, burnin: int, thin: int, rng: np.random.Generator,
          take: Callable[[np.ndarray], None], walkers: int = 1,
          engine: Optional[ChainEngine] = None) -> Tuple[float, float]:
    """The one choice of how a model's states are drawn: ``take`` gets them
    in (n, k, N, N) batches, in order, and (acceptance, step scale) is
    returned. The first route that applies is taken:

    - n == 1: ``walkers`` * (``steps`` // ``thin``) exact i.i.d. draws, as
      many as a chain hands on, in one batch: spectra of
      :class:`_ExactSpectra` conjugated by as many Haar unitaries in one
      batched product;
    - a Gaussian model (:func:`_gaussian_draws`, a positive definite
      quadratic form cut to the ball by rejection): as many exact i.i.d.
      draws, in the batches of its proposals;
    - otherwise a chain: the warm ``engine`` if one is given (set to this
      model, at the engine's beta; it skips both exact routes), else a new
      one of ``walkers`` walkers, which also takes a Gaussian model whose
      first batch accepts below ``MIN_ACCEPTANCE``. It tunes its step size over
      the first ``TUNE_SHARE`` of ``burnin`` steps, runs the rest at that
      scale, resets its counters and runs ``steps`` steps, handing ``take``
      every ``thin``-th state of all its walkers, (n, K, N, N) at a time.

    On the exact routes ``burnin`` is unused, the acceptance is that of the
    rejection proposals and the step scale is 0; a chain's acceptance is
    pooled over its walkers. The chain's states are exactly Hermitian (every
    increment is) and inside the ball (the accept test checks it), so they
    are handed on as they are. Every draw is from ``rng``.
    """
    count = walkers * (steps // thin)
    if engine is None and model.n == 1:
        lam, acceptance = _ExactSpectra(model).draw(count, rng)
        us = haar_unitary_batch(count, model.N, rng)
        take(hermitize((us * lam[:, None, :]) @ np.conj(np.swapaxes(us, -1, -2)))[None])
        return acceptance, 0.0
    if engine is None:
        acceptance = _gaussian_draws(model, count, rng, take)
        if acceptance is not None:
            return acceptance, 0.0
        engine = ChainEngine(model, rng, walkers)
    else:
        engine.set_model(model)
    tuned = int(burnin * TUNE_SHARE)
    engine.tune(tuned)
    engine.run(burnin - tuned)
    engine.reset_counters()
    engine.run(steps, observe=lambda e: take(e.blocks), every=thin)
    return engine.acceptance, engine.step_scale


def log_ball_volume(N: int, R: float) -> float:
    """Exact log Lebesgue volume of the Hermitian operator-norm ball.

    Integrating the squared Vandermonde over [-R, R]^N (Selberg's integral
    with unit exponents) against the unitary angular factor gives

        Vol = (2R)^(N^2) pi^(N(N-1)/2) prod_{j=0}^{N-1} j!^2 / (N + j)!.
    """
    if N < 1 or not (R > 0):
        raise ValueError("need N >= 1 and R > 0")
    return float(
        N * N * math.log(2.0 * R)
        + N * (N - 1) / 2.0 * math.log(math.pi)
        + np.sum([2.0 * math.lgamma(j + 1) - math.lgamma(N + j + 1) for j in range(N)])
    )


def _log_heine_norms(x: np.ndarray, logw: np.ndarray, N: int):
    """Sum of log h_k, k < N, for the discrete measure sum_j exp(logw_j) delta_{x_j},
    for each row of a stack ``logw`` of shape (..., M) (one 1-D row, or several).

    h_k is the squared norm of the k-th monic orthogonal polynomial. The
    Stieltjes recurrence runs on orthonormalized vectors q_k = sqrt(w) p_k,
    so nothing overflows; h_k = h_0 prod_{j<=k} b_j^2 with b_j the
    off-diagonal Jacobi coefficients. log w is shifted by its maximum
    first, which scales every h_k by the same factor, added back here.
    The vectors are returned too, as the rows of an (..., N, M) array: they
    give the eigenvalue kernel K(x, y) = sum_k q_k(x) q_k(y) of the N-point
    ensemble on the nodes. So are the recurrence itself, (log h_0, a, b):
    x p_k = b_{k+1} p_{k+1} + a_k p_k + b_k p_{k-1} with a[..., k] = a_k and
    b[..., k] = b_{k+1} for k < N - 1, which evaluates the p_k anywhere.
    The sums and log h_0 have the stack's leading shape (a numpy scalar for
    one row), and each row gets the bits it gets alone: ``np.vecdot``
    matches 1-D ``@``, and the logs are libm's, taken one at a time (numpy's
    own log differs in the last bit on about 1 input in 1,000). A row with
    fewer than N resolved nodes raises :class:`EstimatorError` after
    dividing by its b_k = 0; the callers that can meet such a weight ignore
    that division (``np.errstate``) once per solve or log I, not once per
    call, which would cost a one-row call about 5%.
    """
    lead = logw.shape[:-1]
    # a number per row meets the nodes along a new last axis (one row's is a
    # scalar, as in the 1-D recurrence)
    col = (Ellipsis, None) if lead else ()
    shift = logw.max(axis=-1)
    q = np.exp(0.5 * (logw - shift[col]))
    h0 = np.vecdot(q, q)
    qs = np.empty(lead + (N, x.size))
    q = np.divide(q, np.sqrt(h0)[col], out=qs[..., 0, :])
    a = np.empty(lead + (N - 1,))
    b = np.empty(lead + (N - 1,))
    for k in range(1, N):
        a[..., k - 1] = ak = np.vecdot(x * q, q)
        r = x - ak[col]
        r *= q
        if k > 1:
            r -= bk * prev
        b[..., k - 1] = bk = np.sqrt(np.vecdot(r, r))
        bk = bk[col]
        prev, q = q, np.divide(r, bk, out=qs[..., k, :])
    log_h0, totals = [], []
    for s, h, row in zip(shift.reshape(-1).tolist(), h0.reshape(-1).tolist(),
                         b.reshape(h0.size, N - 1).tolist()):
        log_h0.append(s + math.log(h))
        total = N * log_h0[-1]
        for k, bk in enumerate(row, 1):
            if not bk > 0.0:
                raise EstimatorError(
                    f"quadrature weight has fewer than N = {N} resolved nodes")
            total += 2.0 * (N - k) * math.log(bk)
        totals.append(total)
    return (np.array(totals).reshape(lead)[()], qs,
            (np.array(log_h0).reshape(lead)[()], a, b))


# Gauss-Legendre rules: the terms of Stieltjes' series, and the nodes next to
# x = 1 that take the exact cosine sum instead
GL_TERMS = 16
GL_EDGE = 16


@functools.lru_cache(maxsize=None)
def _gauss_legendre(M: int) -> Tuple[np.ndarray, np.ndarray]:
    """M Gauss-Legendre nodes on [-1, 1], ascending, and their weights (read-only).

    Newton's method runs in theta, x = cos theta, on the ceil(M/2) nonnegative
    nodes, from Tricomi's guesses (1 - (M - 1)/(8 M^3)) cos(pi (k - 1/4) / (M + 1/2)),
    k the node's place counted from x = 1; the rule is mirrored, with an exact 0
    in the middle for odd M. P_n(cos theta), n = M, and dP/dtheta take O(1)
    work per node and no loop over the degree:
    - Stieltjes' series (Szego, Orthogonal Polynomials, Thm 8.21.5; Hale &
      Townsend, SIAM J. Sci. Comput. 35 (2013) A652) for k > GL_EDGE,
      P_n = C_n sum_{m<GL_TERMS} h_m cos((n + m + 1/2) theta - (m + 1/2) pi/2)
      / (2 sin theta)^(m + 1/2), with C_n = (4/pi) prod_{j<=n} j/(j + 1/2),
      h_0 = 1 and h_m = h_(m-1) (m - 1/2)^2 / (m (n + m + 1/2)), summed by
      Horner's rule as C_n Re[e^(i((n + 1/2) theta - pi/4)) (2 sin theta)^(-1/2)
      sum_m h_m z^m] in z = (1 - i cot theta)/2; from k = GL_EDGE + 1 on, the
      first term left out is below 1e-19 of the first;
    - the exact cosine sum P_n = sum_{j<=n} g_j g_(n-j) cos((n - 2j) theta),
      g_j = prod_{i<=j} (2i - 1)/(2i), one node at a time, for the GL_EDGE
      nodes next to x = 1, where the series converges slowly. C_n is
      4 / (pi (2n + 1) g_n), from the running products g_j: through
      exp(lgamma(...)) it is 6e-13 off at n = 600, and even moments 2e-12.
    Newton stops when no step exceeds 1e-12 theta (two or three passes). The
    weight is 2 / (dP/dtheta)^2, with dP/dtheta carried to the stepped node by
    the Legendre equation, so no 1 - x^2 cancels.

    Cost: O(M) time and memory, no (nodes x terms) array; 0.7 ms at M = 600
    and 10 ms at 19,200, warm on a 2-vCPU x86 machine. Accuracy: nodes within
    4e-16 of Newton on the three-term recurrence (every M <= 700, and up to
    4,800 sampled), the five smallest weights and a middle one within 3e-15
    relative of a 60-digit reference at M = 300 and 2,400 (the recurrence's
    2 / ((1 - x^2) P'(x)^2) is off by 1.4e-12 and 1.0e-10 there).
    """
    n, half = M, (M + 1) // 2
    theta = np.arccos((1.0 - (n - 1) / (8.0 * n ** 3))
                      * np.cos(np.pi * (np.arange(half, 0, -1) - 0.25) / (n + 0.5)))
    g = np.arange(-0.5, n)
    g[1:] /= g[1:] + 0.5
    g[0] = 1.0
    np.cumprod(g, out=g)
    c_n = 4.0 / (np.pi * (2 * n + 1) * g[n])
    h = [1.0]
    for m in range(1, GL_TERMS):
        h.append(h[-1] * (m - 0.5) ** 2 / (m * (n + m + 0.5)))
    # the cosine sum folded in half: frequencies n - 2j >= 0, j <= n/2
    coef = g[:n // 2 + 1] * g[:(n - 1) // 2:-1]
    del g  # the one array of length n + 1
    coef[:(n + 1) // 2] *= 2.0
    freq = np.arange(n, -1, -2.0)
    slope = coef * freq

    def series(t):
        cot = 1.0 / np.tan(t)
        z = 0.5 - 0.5j * cot
        q, dq = np.full(t.shape, h[-1], dtype=complex), np.zeros(t.shape, dtype=complex)
        for hm in h[-2::-1]:
            dq *= z
            dq += q
            q *= z
            q += hm
        # d/dt z^m = m z^m (i - cot t), and (i - cot t) z = i (1 + cot^2 t) / 2
        dq *= 0.5j * (1.0 + cot * cot)
        dq += (1j * (n + 0.5) - 0.5 * cot) * q
        lead = np.exp(1j * ((n + 0.5) * t - 0.25 * np.pi))
        lead *= c_n / np.sqrt(2.0 * np.sin(t))
        q *= lead
        dq *= lead
        # copies, so the complex sums are freed before the next pass makes its own
        return q.real.copy(), dq.real.copy()

    def cosine_sum(t):
        phase = freq * t
        return np.cos(phase) @ coef, -(np.sin(phase) @ slope)

    def newton(t, evaluate):
        for _ in range(100):
            p, dp = evaluate(t)
            step = p / dp
            t = t - step
            if np.all(np.abs(step) <= 1e-12 * t):
                break
        # dP/dtheta at the stepped node, by P'' = -cot(theta) P' - n (n + 1) P
        # to first order in the step (the P term is of second order)
        return t, dp * (1.0 + step / np.tan(t))

    edge = max(half - GL_EDGE, 0)
    dp = np.empty(half)
    theta[:edge], dp[:edge] = newton(theta[:edge], series)
    for i in range(edge, half):
        theta[i], dp[i] = newton(theta[i], cosine_sum)
    x, w = np.cos(theta, out=theta), np.divide(2.0, dp * dp, out=dp)
    x[:M % 2] = 0.0
    x, w = np.concatenate((-x[M % 2:][::-1], x)), np.concatenate((w[M % 2:][::-1], w))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _legendre_nodes(M: int, R: float) -> Tuple[np.ndarray, np.ndarray]:
    """M Gauss-Legendre nodes on [-R, R] and the logs of their weights."""
    t, g = _gauss_legendre(M)
    return R * t, np.log(R * g)


def _heine_nodes(N: int) -> int:
    """Starting node count of the one-matrix quadrature at size N."""
    # at N = 64, R = 4 and V = x^2/2, 200 nodes miss by about 100 nats, 300 agree
    # with 4000 to 1e-12 relative; a narrow weight needs more (N = 16, R = 4,
    # V = 100 x^2 is 386 nats off at 300 nodes and resolved from 4800)
    return max(300, 8 * N)


# the trust bound of an exact value, in nats (see _refined)
EXACT_BOUND = 1e-8


def _refined(value: Callable[[int], Tuple[float, float]], N: int, cap: int
             ) -> Tuple[float, int, float]:
    """The trust rule of the exact routes: (value, M, error) for a quadrature
    whose ``value(M)`` gives its value on M nodes and a rounding probe.

    M starts at :func:`_heine_nodes` (N) and doubles while the error, the M-
    and 2M-node values' gap plus both probes, exceeds ``EXACT_BOUND`` and 2M
    stays within ``cap``. A probe beyond ``EXACT_BOUND`` (or nan) stops it at
    once, since more nodes do not shrink rounding; at the first M the error
    is then twice the probe, and no 2M-node value is taken.
    """
    M = _heine_nodes(N)
    coarse = value(M)
    fine = value(2 * M) if coarse[1] <= EXACT_BOUND else coarse
    while True:
        error = abs(coarse[0] - fine[0]) + coarse[1] + fine[1]
        if not (error > EXACT_BOUND and fine[1] <= EXACT_BOUND and 4 * M <= cap):
            return coarse[0], M, error
        M *= 2
        coarse, fine = fine, value(2 * M)


def _heine_log_I(model: GibbsModel) -> ScalarEstimate:
    """Exact log I for one matrix by Heine's identity.

    The eigenvalue density of an n == 1 model is the squared Vandermonde
    times prod_i w(l_i), w = exp(-N V), on [-R, R]^N, and its integral
    is N! prod_{k<N} h_k(w). The angular factor and N! cancel against the
    ball volume (the same integral at V = 0), so

        log I = log Vol + sum_{k<N} log(h_k(V) / h_k(0)).

    The norms come from M-point Gauss-Legendre quadrature; M must grow with
    N, and with the narrowness of the weight, for the nodes to resolve its
    bulk. :func:`_refined` picks M, on up to 19,200 nodes and with no rounding
    probe; the M- and 2M-node values' gap is reported as ``bias_bound``.
    """
    N, R = model.N, model.R
    coeffs = model.potential.scalar_coeffs()

    def value(M: int) -> Tuple[float, float]:
        x, logg = _legendre_nodes(M, R)
        # h_k(V) and h_k(0) in one stack of two rows
        log_h = _log_heine_norms(x, np.stack((logg - N * polyval(x, coeffs), logg)), N)[0]
        return float(log_h[0] - log_h[1]), 0.0

    # an unresolved weight divides by b_k = 0 before it raises (_log_heine_norms)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_i, M, error = _refined(value, N, 19200)
    return ScalarEstimate(log_ball_volume(N, R) + log_i, 0.0, M, error)


def _bilinear_parts(potential: NcPoly) -> Optional[Tuple[np.ndarray, np.ndarray, float]]:
    """(V1 coefficients, V2 coefficients, k) of a two-matrix potential whose
    trace is Tr V1(X) + Tr V2(Y) + k Tr XY, or None for any other potential.

    Such a potential has only single-letter words (the constant goes to V1)
    and the pair XY, YX; k is the real part of their summed coefficients,
    which is what the energy of a state sees.
    """
    if potential.n != 2:
        return None
    sides = np.zeros((2, potential.degree + 1))
    k = 0.0
    for w, c in potential.terms.items():
        if w in ((1, 2), (2, 1)):
            k += c.real
        elif len(set(w)) <= 1:
            sides[w[0] - 1 if w else 0, len(w)] += c.real
        else:
            return None
    return sides[0], sides[1], k


def _remainder(f1: np.ndarray, f2: np.ndarray, u: np.ndarray, s: np.ndarray, N: int,
               order: int = 0) -> np.ndarray:
    """sum_{x,y} f1(x) u^N rho(s u v) v^N f2(y)^T on nodes u = v, for rows f1 and
    f2 of node values (one function per row), with rho(z) = r_N(z) / z^N, where
    r_N(z) = e^z - sum_{m<N} z^m / m!, or its derivative rho' for ``order`` 1;
    for a stack of P points: f1 of shape (P, r1, M), f2 (P, r2, M) and s (P,)
    give (P, r1, r2).

    It is the node-moment series sum_j c_j a_j b_j^T, with a_j the sums of
    f1 u^(N+j) and b_j those of f2, and c_j = (j + order)! s^j / (j! (N + j +
    order)!), rho's (or rho''s) Taylor coefficients times s^j, summed until
    c_j falls below 1e-18 c_0; no kernel matrix is formed. Each point's
    series is zero-padded to the longest, so the powers of the nodes serve
    the whole stack. While every |s| < N every |s u v| < N, the terms shrink
    as rho's do, and the powers are one block. Beyond it the c_j grow to
    about e^|s| / |s|^N before they shrink, over a few |s| terms (1,755 at
    s = 691, N = 32), so the powers come in column blocks of about 2^13
    entries (near 64 kB each). A coefficient that overflows gives that point
    nan (|s| = 1152 at N = 32), and for s <= -N the alternating terms can
    lose up to log10(e^|s| N! / |s|^N) digits to cancellation.
    """
    series = []
    for sp in s.tolist():
        c = [1.0 / math.factorial(N + order)]
        while abs(c[-1]) > 1e-18 * c[0]:
            j = len(c)
            c.append(c[-1] * sp * (j + order) / (j * (N + j + order)))
            if not math.isfinite(c[-1]):
                c = [math.nan]
                break
        series.append(c)
    coef = np.zeros((len(series), max(map(len, series))))
    for row, c in zip(coef, series):
        row[:len(c)] = c
    terms = coef.shape[1]
    step = terms if np.max(np.abs(s)) < N else max(1, 2 ** 13 // u.size)
    rem = 0.0
    for lo in range(0, terms, step):
        cj = coef[:, None, lo:lo + step]
        powers = np.vander(u, cj.shape[2], increasing=True) * (u ** (N + lo))[:, None]
        rem = rem + (f1 @ powers * cj) @ (f2 @ powers).swapaxes(-1, -2)
    return rem


# node count cap of the two-matrix quadrature: values at M and 2M <= this
MEHTA_MAX_NODES = 2400


def _split_form(M: int, R: float, N: int, D: int = 0) -> Callable:
    """Mehta's determinant in split form on M Gauss-Legendre nodes of [-R, R]:
    the one evaluator of log I, and of its derivatives, for two matrices
    coupled only through Tr XY (:func:`_mehta_log_I`, the exact K = 2 fit).

    For Tr V = Tr V1(X) + Tr V2(Y) + k Tr XY the HCIZ integral removes the
    relative rotation and Andreief's identity both spectra: I is a constant
    times t^(-N(N-1)/2) det[int int a^j b^k w1(a) w2(b) e^(tab)]_{j,k<N},
    with w_i = exp(-N V_i) on [-R, R] and t = -N k (Mehta 1981; Bertola,
    Eynard & Harnad 2002 for the biorthogonal view). Split e^(tab) into its
    Taylor part of degree < N and the remainder r_N(tab). In the orthonormal
    bases p_j of w1 and q_k of w2 the Taylor part is A diag(s^m / m!) B^T
    with s = t R^2, A_jm = sum_x p_j w1 (x/R)^m (upper triangular) and B
    alike; its determinant cancels t^(-N(N-1)/2) and the constant, leaving
    the Heine integrals I1, I2 of the two sides:

        log I = log I1 + log I2 + log det(1 + C),
        C = B^-T S A^-1 Rem,  S = diag(m! s^(N-m)),
        Rem_jk = sum_{x,y} p_j w1 (x/R)^N [r_N(s u v) / (s u v)^N] (y/R)^N w2 q_k,

    with u = x/R, v = y/R, and s^N moved into S, so nothing over- or
    underflows as t -> 0. A and B are solved by back substitution (forming
    the Taylor matrix, or inverting A and B, loses digits); Rem comes from
    :func:`_remainder`. C' = A^-T S B^-1 Rem^T, of the model with X and Y
    swapped, solves in the other order on the same remainder, so the swap
    spread |log det(1 + C) - log det(1 + C')| probes rounding.

    Returns ``evaluate(parts)``, which prices a stack of P parameter points
    in one pass: ``parts`` is (V1, V2, k) as :func:`_bilinear_parts` gives
    them, with a leading axis of P on each (V1 and V2 of shape (P, degree +
    1), k of shape (P,)); a single point is a stack of one. It returns (log
    I - 2 log Vol, swap spread, moments), the first two of shape (P,). For
    D >= 1 the moments are log I's derivatives, a (P, 2, D + 1) array whose
    row i, taken in C's order for i = 0 and C''s for 1, holds side i's E Tr
    u^d, d = 1..D, then E Tr XY / R^2. Each is tr((1 + C)^-1 dC), plus a
    side's Heine term sum_x u^d K(x, x), with dC = B^-T S A^-1 (Rem_d0 - A_d
    A^-1 Rem) for side 1 (Rem_d0 on the rows times u^d, A_d their moments
    against u^(m+d)) and B^-T (S' A^-1 Rem + S A^-1 Rem') for XY (Rem' of
    rho', on the rows times u and v); s = 0 is regular. For D = 0 they are
    None. The points share the nodes and their powers; the Heine norms,
    :func:`_remainder`'s series and every solve and determinant are stacked
    over them, so each point's numbers are those it gets alone up to the
    rounding of the stacked products (within 1e-15 on the fit's points). A
    point whose determinant has sign <= 0, or whose remainder's series
    overflows, gets nan and leaves the others as they are; a weight with
    fewer than N resolved nodes at any point raises :class:`EstimatorError`
    for the stack, and an exactly singular solve ``LinAlgError``.
    """
    x, logg = _legendre_nodes(M, R)
    base, _, _ = _log_heine_norms(x, logg, N)
    u = x / R
    powers = u[:, None] ** np.arange(N + D)
    taylor = powers[:, :N].copy()  # u^m, m < N: the columns of A and B
    lift = powers.T[:D + 1, None].copy()  # u^d, d <= D, for the rows times u^d
    upper = np.triu(np.ones((N, N), dtype=bool))
    fact = np.array([math.factorial(m) for m in range(N)], dtype=float)
    # S' = dS/ds = diag(m! (N - m) s^(N-1-m)), as slope * s ** drop
    slope = np.array([math.factorial(m) * (N - m) for m in range(N)], dtype=float)[:, None]
    drop = np.arange(N - 1, -1, -1)[:, None]

    def back(q, y):
        # q^-T y for each q of a stack: q^T reversed is upper triangular, as A and
        # B are, which solve factors without pivoting: a back substitution
        return np.linalg.solve(np.swapaxes(q, -1, -2)[..., ::-1, ::-1],
                               y[..., ::-1, :])[..., ::-1, :]

    def evaluate(parts):
        sides = np.stack(parts[:2], axis=1)  # (P, 2, degree + 1)
        s = -N * np.asarray(parts[2]) * R * R
        P = len(s)
        logw = logg - N * polyval(x, sides.transpose(2, 0, 1))
        log_h, qs, _ = _log_heine_norms(x, logw, N)
        total = -2.0 * base + log_h[:, 0] + log_h[:, 1]
        # rows p_j w on the nodes, up to one factor per side that C ignores
        f = qs * np.exp(0.5 * (logw - logw.max(axis=-1, keepdims=True)))[..., None, :]
        kernels = (qs * qs).sum(axis=-2) @ powers[:, 1:D + 1]
        if not (D or s.any()):
            return total, np.zeros(P), None
        # C's order (A, B), and that of the model with X and Y swapped (B, A)
        p = np.where(upper, f @ taylor, 0.0)
        # the remainder of every side-1 row times u^d against every side-2 row
        # times v^e, d, e <= D, in one pass over the kernel; C' reads it transposed
        rows = (lift * f[:, :, None]).reshape(P, 2, -1, M)
        rem = _remainder(rows[:, 0], rows[:, 1], u, s, N).reshape(P, D + 1, N, D + 1, N)
        rems = (rem, rem.transpose(0, 3, 4, 1, 2))
        diag = (fact * s[:, None] ** (N - np.arange(N)))[:, None, :, None]
        z = np.linalg.solve(p, np.stack([r[:, 0, :, 0] for r in rems], axis=1))
        one = np.eye(N) + back(p[:, ::-1], diag * z)
        sign, log_det = np.linalg.slogdet(one)
        log_det = np.where(sign > 0, log_det, math.nan)
        value, spread = total + log_det[:, 0], abs(log_det[:, 0] - log_det[:, 1])
        if not D:
            return value, spread, None
        moms = (f @ powers).swapaxes(0, 1)
        rem1 = _remainder(rows[:, 0, N:2 * N], rows[:, 1, N:2 * N], u, s, N, 1)
        rhs = np.stack([np.concatenate([r[:, d, :, 0] - m[..., d:d + N] @ zi
                                        for d in range(1, D + 1)] + [r1], axis=-1)
                        for r, m, zi, r1 in zip(rems, moms, z.swapaxes(0, 1),
                                                (rem1, rem1.swapaxes(-1, -2)))], axis=1)
        w = diag * np.linalg.solve(p, rhs)
        w[..., -N:] += (slope * s[:, None, None] ** drop)[:, None] * z
        g = np.linalg.solve(one, back(p[:, ::-1], w)).reshape(P, 2, N, D + 1, N)
        moments = np.einsum("pkiji->pkj", g)
        moments[..., :D] += kernels
        return value, spread, moments

    return evaluate


def _mehta_log_I(model: GibbsModel) -> Optional[ScalarEstimate]:
    """Exact log I of a bilinear two-matrix model (Mehta 1981), or None.

    Values are :func:`_split_form`'s, on up to ``MEHTA_MAX_NODES`` nodes, and
    :func:`_refined` probes their rounding with the swap spread. Returns
    ``ScalarEstimate(value, 0, M, error)``, or None when the potential is not
    bilinear, a value is not finite (|s| = N |t| R^2 so large that the
    remainder's series overflows) or the error stays above ``EXACT_BOUND``.

    Against the all-space Gaussian a(X^2 + Y^2) - c(XY + YX), a = 1, R = 6,
    it is within 6e-10 nats for N <= 32, |c| <= 0.3, and None at N = 24 and
    32, |c| = 0.5 (s = 864 and 1152, where the remainder overflows). On
    c(X -+ Y)^2 at R = 2 it has a value for N <= 8 at c <= 2, N = 10 at
    c <= 0.5, N = 12 at c <= 0.25 and N = 16 at c = 0.1, the same for both
    signs of s, and is None at N = 16, c = 0.25 (swap spread about 1e-7).
    """
    parts = _bilinear_parts(model.potential)
    if parts is None:
        return None
    N, R = model.N, model.R
    stack = (parts[0][None], parts[1][None], np.array([parts[2]]))

    def value(M: int) -> Tuple[float, float]:
        log_i, spread, _ = _split_form(M, R, N)(stack)
        return log_i[0], spread[0]

    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            log_i, M, error = _refined(value, N, MEHTA_MAX_NODES)
    except (EstimatorError, np.linalg.LinAlgError):
        return None
    if not error <= EXACT_BOUND:
        return None
    return ScalarEstimate(2.0 * log_ball_volume(N, R) + log_i, 0.0, M, error)


# the envelope of the exact sampler: uniform cells per eigenvalue, kernel
# values sampled per cell, and the margin over the largest of them
ENV_CELLS = 16
ENV_SAMPLES = 8
ENV_MARGIN = 1.1


class _ExactSpectra:
    """Exact i.i.d. spectra of a one-matrix model (Hough, Krishnapur, Peres
    & Virag 2006).

    The eigenvalues form a projection determinantal point process with
    kernel K(s, t) = phi(s) . phi(t), phi_k = sqrt(w) p_k, for the weight
    w = exp(-N V) on [-R, R]; the p_k come from the Jacobi recurrence
    that :func:`_log_heine_norms` returns on as many Gauss-Legendre nodes as
    :func:`_heine_log_I` needs to converge (at least the exact fit's).
    Points are drawn one at a time: given an orthonormal basis E of the phi
    of the i points drawn so far, the next has density
    |(I - E E^T) phi(t)|^2 / (N - i). It is drawn by rejection from a
    piecewise-constant envelope env >= K(t, t) on ENV_CELLS N uniform cells,
    ENV_MARGIN times the largest of ENV_SAMPLES + 1 kernel values per cell. A
    proposal with K(t, t) > env raises :class:`EstimatorError` rather than
    biasing the draw.
    """

    def __init__(self, model: GibbsModel):
        N, R = model.N, model.R
        self.N, self.R = N, R
        self.coeffs = model.potential.scalar_coeffs()
        # as many nodes as log I needs to converge
        log_i = _heine_log_I(model)
        if not log_i.bias_bound <= EXACT_BOUND:
            raise EstimatorError(f"{log_i.count} quadrature nodes do not resolve the weight")
        x, logg = _legendre_nodes(log_i.count, R)
        _, _, (self.log_h0, self.a, self.b) = _log_heine_norms(
            x, logg - N * polyval(x, self.coeffs), N)
        cells = ENV_CELLS * N
        k = np.sum(self.phi(np.linspace(-R, R, cells * ENV_SAMPLES + 1)) ** 2, axis=-1)
        peak = np.maximum(k[:-1].reshape(cells, ENV_SAMPLES).max(axis=1), k[ENV_SAMPLES::ENV_SAMPLES])
        self.env = ENV_MARGIN * peak
        self.width = 2.0 * R / cells
        self.cdf = np.cumsum(self.env)
        self.mass = float(self.cdf[-1]) * self.width
        self.cdf /= self.cdf[-1]

    def phi(self, t: np.ndarray) -> np.ndarray:
        """phi_k(t), k < N, along a new last axis."""
        # the extra last row stays 0 and stands in for phi_{-1}
        out = np.zeros((self.N + 1,) + t.shape)
        out[0] = np.exp(-0.5 * (self.N * polyval(t, self.coeffs) + self.log_h0))
        for k in range(1, self.N):
            out[k] = ((t - self.a[k - 1]) * out[k - 1] - self.b[k - 2] * out[k - 2]) / self.b[k - 1]
        return np.moveaxis(out[:-1], 0, -1)

    def draw(self, count: int, rng: np.random.Generator) -> Tuple[np.ndarray, float]:
        """``count`` spectra as the rows of a (count, N) array, and the
        fraction of proposals accepted."""
        N = self.N
        lam = np.empty((count, N))
        proposed = 0
        batch = max(1, 2 ** 19 // (N * N))
        for lo in range(0, count, batch):
            size = min(batch, count - lo)
            basis = np.zeros((size, N, N))
            for i in range(N):
                per = math.ceil(1.5 * self.mass / (N - i))
                todo = np.arange(size)
                while todo.size:
                    # cdf[-1] is exactly 1, so every cell drawn has env > 0
                    cell = np.searchsorted(self.cdf, rng.random((todo.size, per)), "right")
                    t = -self.R + (cell + rng.random(cell.shape)) * self.width
                    ph = self.phi(t)
                    k = np.sum(ph ** 2, axis=-1)
                    env = self.env[cell]
                    if np.any(k > env):
                        raise EstimatorError(
                            f"the sampling envelope misses the kernel at "
                            f"t = {t[k > env][0]:.6g} (N = {N}, R = {self.R})")
                    e = basis[todo, :i]
                    c = ph @ np.swapaxes(e, 1, 2)
                    ok = rng.random(cell.shape) * env < k - np.sum(c ** 2, axis=-1)
                    hit = ok.any(axis=1)
                    first = ok.argmax(axis=1)
                    proposed += int(np.where(hit, first + 1, per).sum())
                    rows = np.flatnonzero(hit)
                    j = first[rows]
                    lam[lo + todo[rows], i] = t[rows, j]
                    if i < N - 1:
                        # Gram-Schmidt twice keeps the basis orthonormal
                        e = e[rows]
                        v = ph[rows, j] - np.einsum("ri,rin->rn", c[rows, j], e)
                        v -= np.einsum("ri,rin->rn", np.einsum("rin,rn->ri", e, v), e)
                        basis[todo[rows], i] = v / np.linalg.norm(v, axis=1, keepdims=True)
                    todo = todo[~hit]
        return lam, count * N / proposed if proposed else 1.0


def _hermitian_blocks(z: np.ndarray) -> np.ndarray:
    """(Z + Z^T) + i (Z - Z^T) for each real N x N slice Z of a stack."""
    zt = z.swapaxes(-1, -2)
    h = np.empty(z.shape, dtype=complex)
    np.add(z, zt, out=h.real)
    np.subtract(z, zt, out=h.imag)
    return h


def _screened_ball_test(m: np.ndarray, R: float) -> np.ndarray:
    """:func:`~matent.matrices.in_norm_ball` of a stack (..., N, N), with the
    same verdicts, run only on the matrices a norm bound leaves undecided.

    The Frobenius norm bounds the operator norm, so a matrix whose Frobenius
    norm, from one einsum over the stack, is below R (1 - 1e-12) is inside;
    the margin dwarfs the rounding of both the einsum and the Cholesky test,
    so that test would say inside too. The rest go to ``in_norm_ball``, whose
    verdict on each matrix does not depend on the others in its stack; a
    stack the bound decides nothing of goes whole, with no copy.
    """
    flat = m.view(float)
    undecided = np.einsum("...ij,...ij->...", flat, flat) >= (R * (1.0 - 1e-12)) ** 2
    if undecided.all():
        return in_norm_ball(m, R)
    inside = ~undecided
    inside[undecided] = in_norm_ball(m[undecided], R)
    return inside


def _gaussian_parts(model: GibbsModel) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """(mean, factor) of a model whose potential has degree <= 2 and a positive
    definite quadratic form, or None for any other model.

    Such a potential has Tr V = sum_ab A_ab Tr X_a X_b + sum_a c_a Tr X_a plus a
    constant, with A the symmetric real part of the Tr X_a X_b coefficients
    and c the real parts of the Tr X_a ones (each trace is real on Hermitian
    blocks, so the energy sees only these). Off the ball its law is Gaussian:
    X_a has mean m_a times the identity, m = -A^-1 c / 2, and covariance
    A^-1 / (2N) on the diagonal entries and A^-1 / (4N) on each real and
    imaginary part off it. ``factor`` is F = C^-T / sqrt(8N), for the
    Cholesky factor C of A, so F F^T = A^-1 / (8N), and m_a 1 + sum_b F_ab
    H_b has that law for the increments H = (Z + Z^T) + i (Z - Z^T) of
    :meth:`ChainEngine._refill`. None for a word of degree >= 3, wherever
    the Cholesky factor of A fails, and where a pivot C_ii^2 is at rounding
    level, n eps max_i A_ii or below: a singular A can factor by rounding, as
    that of 0.5 (X - Y)^2 does, with a last pivot of 1.1e-16. Only the
    Cholesky routine, which the ball test runs anyway, decides: a model left
    to the chain loads no other LAPACK code, which would raise peak memory.
    """
    n = model.n
    a, c = np.zeros((n, n)), np.zeros(n)
    for w, coef in model.potential.terms.items():
        if len(w) > 2:
            return None
        if len(w) == 2:
            a[w[0] - 1, w[1] - 1] += coef.real / 2.0
            a[w[1] - 1, w[0] - 1] += coef.real / 2.0
        elif w:
            c[w[0] - 1] += coef.real
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    if not np.diagonal(chol).min() ** 2 > n * np.finfo(float).eps * np.diagonal(a).max():
        return None
    inv = np.linalg.inv(chol)
    return -0.5 * inv.T @ (inv @ c), inv.T / math.sqrt(8.0 * model.N)


def _gaussian_draws(model: GibbsModel, count: int, rng: np.random.Generator,
                    take: Callable[[np.ndarray], None]) -> Optional[float]:
    """Exact i.i.d. draws of a Gaussian model (:func:`_gaussian_parts`) cut to
    the ball, by rejection: ``take`` gets ``count`` draws in all, as (n, k, N, N)
    batches in order. Returns the fraction of proposals accepted; None, and no
    draw, for a model that is not Gaussian, and None after one batch whose
    acceptance is below ``MIN_ACCEPTANCE``, where the caller runs a chain.

    Proposals come in batches of max(1, ``DRAW_BUFFER_BYTES`` // (16 n N^2)):
    a standard normal Z of shape (n, batch, N, N) is mixed over blocks by the
    factor first (a real product, which commutes with the symmetrization),
    then built into Hermitian blocks as :meth:`ChainEngine._refill` builds its
    increments (:func:`_hermitian_blocks`), and shifted by the mean. One
    :func:`_screened_ball_test` decides the batch: a block whose Frobenius
    norm is below R (1 - 1e-12) is inside, and one batched Cholesky test
    (:func:`~matent.matrices.in_norm_ball`) decides the other blocks, with the
    verdicts it gives on the whole batch. The accepted draws of the last
    batch beyond ``count`` are dropped.
    """
    parts = _gaussian_parts(model)
    if parts is None:
        return None
    mean, factor = parts
    n, N = model.n, model.N
    size = max(1, DRAW_BUFFER_BYTES // (16 * n * N * N))
    diag = np.arange(N)
    proposed = accepted = 0
    left = count
    while True:
        x = _hermitian_blocks(np.tensordot(factor, rng.standard_normal((n, size, N, N)),
                                           axes=1))
        x.real[..., diag, diag] += mean[:, None, None]
        ok = _screened_ball_test(x, model.R).all(axis=0)
        hits = int(np.count_nonzero(ok))
        if not proposed and hits < MIN_ACCEPTANCE * size:
            return None
        proposed += size
        accepted += hits
        kept = x[:, ok][:, :left]
        take(kept)
        left -= kept.shape[1]
        if not left:
            return accepted / proposed


@dataclass(frozen=True)
class TIOptions:
    """Budget for thermodynamic integration over the inverse temperature beta
    of the chain; the keys of a ``ti:`` section.

    ``nodes`` values beta_k = (k / (nodes - 1))^2.5 are visited by one
    forward and one backward annealing sweep; each node gets
    ``node_burnin`` burn-in steps, the first ``TUNE_SHARE`` (80%) of them
    tuning (see :func:`_draw`), and ``node_steps / 2`` measured steps per
    sweep; the first node of a sweep burns in 4 ``node_burnin`` steps. Used
    only for the n >= 2 models without an exact log normalizer (see
    :func:`estimate_log_I`); the others ignore it. ``nodes`` is at
    least 3, the fewest with a second divided difference (the trapezoid's
    error bound), ``node_steps`` at least 4, two measured states per node
    and sweep, the fewest :func:`matent.estimates.pooled_mean` accepts, and
    ``node_burnin`` at least 0.
    """

    nodes: int = 31
    node_burnin: int = 300
    node_steps: int = 2000

    def __post_init__(self) -> None:
        if self.nodes < 3:
            raise ValueError("thermodynamic integration needs at least 3 beta nodes")
        if self.node_burnin < 0 or self.node_steps < 4:
            raise ValueError("ti needs node_burnin >= 0 and node_steps >= 4")


def _ti_pass(model: GibbsModel, grid: np.ndarray, node_burnin: int,
              node_steps: int, rng: np.random.Generator,
              forward: bool) -> Tuple[float, float, float]:
    """One annealed pass over the beta grid: (integral, stderr, disc bound).

    One chain visits the nodes in turn, each through :func:`_draw` at the
    node's beta: ``node_burnin`` burn-in steps (4 times as many at the
    pass's first node, where the chain starts cold), whose tuning adapts
    the proposal scale to the node, since the scale that suits the
    reference measure is too wide once the coupling bites; then
    ``node_steps`` measured steps, each read as the energy the chain has
    already computed. The chain lags its annealing schedule, biasing node
    means toward the previous temperature; running passes in both
    directions flips the sign of that lag so the pair average cancels it to
    first order. Each node's mean energy and its stderr come from
    :func:`matent.estimates.pooled_mean` of the node's series, whose
    autocorrelation time is comparable to the node budget.
    """
    engine = ChainEngine(model, rng)
    means = np.empty(grid.size)
    errs = np.empty(grid.size)
    order = range(grid.size) if forward else range(grid.size - 1, -1, -1)
    for i, k in enumerate(order):
        b = grid[k]
        engine.set_beta(float(b))
        series = []
        acceptance, _ = _draw(model, node_steps, node_burnin * (4 if i == 0 else 1), 1, rng,
                              lambda blocks: series.append(engine.energy[0]), engine=engine)
        if acceptance < MIN_ACCEPTANCE:
            raise EstimatorError(
                f"chain acceptance collapsed to {acceptance:.4f} at beta={b:.3f}")
        node = pooled_mean(series)[0]
        means[k], errs[k] = node.value, node.stderr

    w = np.zeros(grid.size)
    w[0] = (grid[1] - grid[0]) / 2.0
    w[-1] = (grid[-1] - grid[-2]) / 2.0
    w[1:-1] = (grid[2:] - grid[:-2]) / 2.0
    integral = float(np.dot(w, means))
    se = math.sqrt(float(np.dot(w ** 2, errs ** 2)))
    h = np.diff(grid)
    # second divided differences approximate f'' at interior nodes;
    # per-interval trapezoid error is h_i^3 |f''| / 12 with the larger
    # adjacent curvature estimate
    d2 = np.abs(2.0 * ((means[2:] - means[1:-1]) / h[1:]
                       - (means[1:-1] - means[:-2]) / h[:-1]) / (h[1:] + h[:-1]))
    curv = np.empty(h.size)
    curv[0] = d2[0]
    curv[-1] = d2[-1]
    curv[1:-1] = np.maximum(d2[:-1], d2[1:])
    disc = float(np.sum(h ** 3 * curv) / 12.0)
    return integral, se, disc


def estimate_log_I(model: GibbsModel, opts: TIOptions = TIOptions(),
                   rng: Optional[np.random.Generator] = None) -> ScalarEstimate:
    """log I of a Gibbs model, exact wherever an exact route exists.

    Exact (stderr 0) when the potential vanishes: n log Vol. For
    n == 1 it is deterministic by Heine's identity (see :func:`_heine_log_I`),
    and for two matrices with potential V1(X) + V2(Y) + k(XY + YX)/2 by
    Mehta's determinant (see :func:`_mehta_log_I`), with the quadrature
    error in ``bias_bound``; ``opts`` and ``rng`` are then unused, so ``rng``
    may be left out. Every other model, and a bilinear one outside the
    determinant's range, is estimated by annealed thermodynamic integration
    with the budget ``opts`` (see :func:`_ti_log_I`), which draws from
    ``rng`` and refuses to run without it.
    """
    if model.potential.is_zero():
        return ScalarEstimate.exact(model.n * log_ball_volume(model.N, model.R))
    if model.n == 1:
        return _heine_log_I(model)
    exact = _mehta_log_I(model)
    return exact if exact is not None else _ti_log_I(model, opts, rng)


def _ti_log_I(model: GibbsModel, opts: TIOptions,
              rng: Optional[np.random.Generator]) -> ScalarEstimate:
    """log I by thermodynamic integration from the exact ball volume.

    With I(beta) the integral of exp(-beta N Tr V), d/dbeta log I(beta) =
    -E_beta[N Tr V], so log I = log I(1) is n log Vol minus the trapezoid of
    the mean energy along an increasing beta grid from 0 to 1, power-law
    packed near 0 where the integrand has most of its curvature.
    The budget is split over a forward and a backward annealing sweep, which
    cancels the chain's schedule-lag bias to first order; node means within
    a sweep share one chain, so the between-sweep spread is the trustworthy
    error signal and the reported stderr is the larger of the spread and the
    per-node IAT-corrected sum. The trapezoid discretization error goes to
    ``bias_bound`` via second divided differences.
    """
    base = model.n * log_ball_volume(model.N, model.R)
    if rng is None:
        raise ValueError("an explicit numpy Generator is required")
    # power-law node packing toward beta = 0, where the mean energy has a
    # 1/beta-like corner before the reference measure takes over
    grid = np.linspace(0.0, 1.0, opts.nodes) ** 2.5

    per_node = opts.node_steps // 2
    passes = [_ti_pass(model, grid, opts.node_burnin, per_node, rng, forward)
              for forward in (True, False)]
    integrals, ses, discs = np.array(passes).T
    integral = float(integrals.mean())
    se = math.sqrt(float(np.mean(ses ** 2)) / 2)
    spread = float(integrals.std(ddof=1) / math.sqrt(2))
    return ScalarEstimate(base - integral, max(se, spread), 2 * per_node * grid.size,
                          float(discs.mean()))


def _entropy(log_i: ScalarEstimate, energy: ScalarEstimate) -> ScalarEstimate:
    """Ent = log I + E[N Tr V], the two errors combined in quadrature and
    the two bias bounds added."""
    return ScalarEstimate(log_i.value + energy.value, math.hypot(log_i.stderr, energy.stderr),
                          energy.count, log_i.bias_bound + energy.bias_bound)


@dataclass(frozen=True)
class MicrostateEstimate:
    """Log-volume of a moment microstate neighborhood, if any hits landed.

    ``log_volume`` is n log Vol(ball) + log(hit fraction); it is None when
    the budget produced no hits (explicitly not an estimate, rather than a
    numeric sentinel).
    """

    log_volume: Optional[ScalarEstimate]
    hits: int
    trials: int
    base_log_volume: float


def microstate_hit_rate(tau: MomentSpec, eps: float, K: int, N: int,
                        trials: int, rng: np.random.Generator) -> MicrostateEstimate:
    """Estimate the log-volume of matrix tuples with moments eps-close to tau.

    Draws ``trials`` tuples of the uniform ensemble at size N, whose blocks
    are independent exact draws (see :func:`_draw`), and counts those
    whose empirical moments are within eps of tau in the max-over-monomials
    distance (degree <= K), taken for a batch of up to 4096 trials at once:
    the n size draws of a batch are its (n, size, N, N) tuples. The hits are
    binomial, and so is the stderr.
    """
    if not (eps > 0) or K < 1 or K > tau.K or trials < 1:
        raise ValueError("need eps > 0, 1 <= K <= tau.K and trials >= 1")
    model = GibbsModel(1, N, tau.R, NcPoly.zero(1))
    words = canonical_classes(tau.n, K, 1)
    target = np.array([tau.value(w) for w in words])
    hits = 0
    for lo in range(0, trials, 4096):
        size = min(4096, trials - lo)
        draws, _ = mcmc_chain(model, tau.n * size, 0, 1, rng)
        tuples = draws[0].reshape(tau.n, size, N, N)
        gap = np.abs(word_traces(tuples, words) / N - target).max(axis=-1)
        hits += int(np.count_nonzero(gap < eps))
    base = tau.n * log_ball_volume(N, tau.R)
    if hits == 0:
        return MicrostateEstimate(None, 0, trials, base)
    p = hits / trials
    est = ScalarEstimate(base + math.log(p), math.sqrt((1 - p) / (p * trials)), trials)
    return MicrostateEstimate(est, hits, trials, base)
