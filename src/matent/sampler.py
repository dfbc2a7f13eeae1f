"""Gibbs ensembles on products of Hermitian norm balls.

The reference measure is Lebesgue on the product of operator-norm balls
{ ||M_i|| <= R }; a model reweights it by exp(-beta N Tr V(M)) for a
self-adjoint potential V. Sampling is random-walk Metropolis, tuned to a
30-45% acceptance band during burn-in and frozen afterwards. For n >= 2 the
proposal adds a Gaussian Hermitian increment to every block and rejects
outside the ball. For n == 1 the law is unitarily invariant, so the chain
runs on the eigenvalue gas (Vandermonde-squared times the Gibbs weight) with
single-site moves; matrices are materialized with fresh Haar eigenvectors,
which is exact because eigenvectors are Haar independent of the spectrum.
Full-matrix proposals are kept for n >= 2 only: near the hard walls the
uniform spectrum packs against +-R and a global increment of size s moves
the edge by s sqrt(N), which stalls at large N, while site moves do not.

The normalizer I(beta) = integral of exp(-beta N Tr V) over the ball product
is exact for n == 1: the eigenvalues form an orthogonal-polynomial ensemble,
and Heine's identity turns log I into a sum of log norms of the monic
orthogonal polynomials for the weight exp(-beta N V) on [-R, R], computed by
a discretized Stieltjes procedure on Gauss-Legendre nodes. For n >= 2 it is
estimated by thermodynamic integration along beta, anchored at the exact
log-volume of the ball (Mehta/Selberg closed form).

Energies N Tr V(M) come from one function, ``_Energy.from_state``: from the
spectrum by ``polyval`` for a one-matrix state, otherwise through the word
evaluator of :mod:`matent.ncpoly` (:meth:`NcPoly.evaluate`) on blocks of
shape (..., N, N), so one call prices a single state or a whole stack (the
orbital estimators and :func:`gibbs_entropy` pass stacks).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.polynomial import polyval
from scipy.special import gammaln, roots_legendre

from .estimates import EstimatorError, ScalarEstimate, mean_with_batch_stderr
from .matrices import MatrixTuple, haar_unitary, hermitize
from .moments import MomentSpec, empirical_moments, moment_distance
from .ncpoly import NcPoly

__all__ = [
    "GibbsModel",
    "ChainDiagnostics",
    "ChainEngine",
    "TIOptions",
    "MicrostateEstimate",
    "mcmc_chain",
    "log_ball_volume",
    "estimate_log_I",
    "gibbs_entropy",
    "microstate_hit_rate",
    "integrated_autocorrelation_time",
]

ACCEPT_BAND = (0.30, 0.45)
MIN_ACCEPTANCE = 0.01


@dataclass(frozen=True)
class GibbsModel:
    """Density proportional to exp(-beta N Tr V) on the norm-ball product."""

    n: int
    N: int
    R: float
    potential: NcPoly
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1 or self.N < 1 or not (self.R > 0):
            raise ValueError("need n >= 1, N >= 1, R > 0")
        if self.potential.n != self.n:
            raise ValueError("potential generator count does not match model")
        if not self.potential.is_self_adjoint():
            raise ValueError("potential must be self-adjoint")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")

    def with_beta(self, beta: float) -> "GibbsModel":
        return GibbsModel(self.n, self.N, self.R, self.potential, beta)

    def with_potential(self, potential: NcPoly) -> "GibbsModel":
        return GibbsModel(self.n, self.N, self.R, potential, self.beta)


@dataclass(frozen=True)
class ChainDiagnostics:
    """Post-burn-in health summary of one Metropolis run."""

    acceptance: float
    step_scale: float
    iat: float
    ess: float
    steps: int
    burnin: int
    thin: int
    retained: int
    tracked: str


def integrated_autocorrelation_time(xs) -> float:
    """Integrated autocorrelation time with the standard automatic window.

    Uses the FFT autocorrelation and the smallest window W with W >= 5
    tau(W). Returns 1.0 for series too short or constant to resolve.
    """
    x = np.asarray(xs, dtype=float)
    n = x.size
    if n < 8:
        return 1.0
    x = x - x.mean()
    if np.max(np.abs(x)) == 0.0:
        return 1.0
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size)
    acf = np.fft.irfft(f * np.conj(f))[:n].real
    if acf[0] <= 0:
        return 1.0
    acf /= acf[0]
    taus = 2.0 * np.cumsum(acf) - 1.0
    window = np.arange(n) >= 5.0 * taus
    w = int(np.argmax(window)) if window.any() else n - 1
    return float(max(1.0, taus[w]))


def _gue_increment(N: int, rng: np.random.Generator) -> np.ndarray:
    return hermitize(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))


class _Energy:
    """Evaluates E(M) = N Tr V(M) on one state or on a stack of states.

    With eigenvalues of a one-matrix state it is N sum_i V(l_i) by
    ``polyval``; otherwise N Tr of :meth:`NcPoly.evaluate` on blocks of shape
    (..., N, N), which gives energies of shape (...).
    """

    def __init__(self, n: int, N: int, potential: NcPoly):
        self.n = n
        self.N = N
        self.set_potential(potential)

    def set_potential(self, potential: NcPoly) -> None:
        self.potential = potential
        self.is_zero = potential.is_zero()
        self.coeffs = potential.scalar_coeffs() if self.n == 1 else None

    def from_state(self, blocks: Optional[Sequence[np.ndarray]],
                   eigs: Optional[Sequence[np.ndarray]] = None):
        if eigs is not None and self.coeffs is not None:
            return self.N * polyval(eigs[0], self.coeffs).sum(axis=-1)
        return self.N * np.trace(self.potential.evaluate(blocks), axis1=-2, axis2=-1).real

    def from_samples(self, samples: Sequence[MatrixTuple]) -> np.ndarray:
        """Energies of matrix tuples, evaluated as one (S, N, N) stack per position."""
        return self.from_state([np.stack([t.blocks[i] for t in samples]) for i in range(self.n)])


class ChainEngine:
    """Random-walk Metropolis state for one Gibbs model.

    Keeps the current state, its eigenvalues, and the current energy so
    observables derived from them cost nothing extra. The model's beta or
    potential can be swapped without discarding the state (used by annealed
    thermodynamic integration and by iterative moment fitting).

    For n == 1 the state is the eigenvalue vector and ``step`` performs one
    Metropolis sweep over sites of the log-gas; ``blocks`` then materializes
    a diagonal matrix on access and ``current_tuple`` draws fresh Haar
    eigenvectors, so retained samples follow the matrix law exactly.
    """

    def __init__(self, model: GibbsModel, rng: np.random.Generator):
        self.model = model
        self.rng = rng
        N = model.N
        self.spectral = model.n == 1
        if self.spectral:
            # distinct points: coincident eigenvalues have zero gas density
            self.lam = np.linspace(-model.R / 2.0, model.R / 2.0, N)
            self.eigs = [self.lam]
            self.step_scale = model.R / N  # typical gas spacing
        else:
            self.blocks = [np.zeros((N, N), dtype=complex) for _ in range(model.n)]
            self.eigs = [np.linalg.eigvalsh(b) for b in self.blocks]
            self.step_scale = model.R / (2.0 * math.sqrt(N))
        self._energy_fn = _Energy(model.n, model.N, model.potential)
        self.energy = self._energy_fn.from_state(None if self.spectral else self.blocks,
                                                 self.eigs)
        self.accepted = 0
        self.proposed = 0

    @property
    def blocks(self) -> List[np.ndarray]:
        if self.spectral:
            return [np.diag(self.lam).astype(complex)]
        return self._blocks

    @blocks.setter
    def blocks(self, value: List[np.ndarray]) -> None:
        self._blocks = value

    def set_beta(self, beta: float) -> None:
        self.model = self.model.with_beta(beta)

    def set_potential(self, potential: NcPoly) -> None:
        self.model = self.model.with_potential(potential)
        self._energy_fn.set_potential(potential)
        self.energy = self._energy_fn.from_state(None if self.spectral else self.blocks,
                                                 self.eigs)

    def reset_counters(self) -> None:
        self.accepted = 0
        self.proposed = 0

    @property
    def acceptance(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0

    def step(self) -> float:
        """Advance the chain once; returns the acceptance fraction of the move.

        Matrix mode proposes a joint increment (0.0 or 1.0); spectral mode
        sweeps all N sites and returns the fraction of accepted sites.
        """
        if self.spectral:
            return self._sweep()
        model = self.model
        self.proposed += 1
        new_blocks = [b + self.step_scale * _gue_increment(model.N, self.rng)
                      for b in self._blocks]
        new_eigs = []
        for b in new_blocks:
            lam = np.linalg.eigvalsh(b)
            if abs(lam[0]) > model.R or abs(lam[-1]) > model.R:
                return 0.0
            new_eigs.append(lam)
        new_energy = self._energy_fn.from_state(new_blocks, new_eigs)
        log_ratio = -model.beta * (new_energy - self.energy)
        if log_ratio < 0 and math.log(self.rng.random()) >= log_ratio:
            return 0.0
        self.blocks = new_blocks
        self.eigs = new_eigs
        self.energy = new_energy
        self.accepted += 1
        return 1.0

    def _sweep(self) -> float:
        """One single-site Metropolis sweep of the n == 1 eigenvalue gas.

        The gas density is prod_{i<j} (l_i - l_j)^2 exp(-beta N sum_i V(l_i))
        on [-R, R]^N. Site moves keep acceptance controlled by local gaps
        rather than by the spectral edge, which is what lets the uniform
        (beta = 0 or V = 0) ensemble mix at large N.
        """
        model = self.model
        lam = self.lam
        N = lam.size
        bumps = self.step_scale * self.rng.standard_normal(N)
        logu = np.log(self.rng.random(N))
        # the potential's share of every site's log ratio; site i still holds
        # its start-of-sweep value when it is visited
        coeffs = self._energy_fn.coeffs
        dv = model.beta * N * (polyval(lam + bumps, coeffs) - polyval(lam, coeffs))
        accepted = 0
        self.proposed += N
        with np.errstate(divide="ignore"):
            for i in range(N):
                x_old = lam[i]
                x_new = x_old + bumps[i]
                if abs(x_new) > model.R:
                    continue
                diff_old = np.abs(x_old - lam)
                diff_new = np.abs(x_new - lam)
                diff_old[i] = 1.0
                diff_new[i] = 1.0
                log_ratio = 2.0 * float(np.log(diff_new).sum() - np.log(diff_old).sum()) - dv[i]
                if log_ratio >= 0 or logu[i] < log_ratio:
                    lam[i] = x_new
                    accepted += 1
        self.accepted += accepted
        if accepted:
            self.energy = self._energy_fn.from_state(None, self.eigs)
        return accepted / N

    def run(self, steps: int, observe: Optional[Callable[["ChainEngine"], None]] = None,
            every: int = 1) -> None:
        for i in range(steps):
            self.step()
            if observe is not None and (i + 1) % every == 0:
                observe(self)

    def tune(self, steps: int, interval: int = 50) -> None:
        """Adapt the step size toward the acceptance band ``ACCEPT_BAND``.

        Multiplicative updates proportional to the log of the window
        acceptance over the band midpoint; the factor is clamped so a noisy
        window cannot destabilize the scale.
        """
        target = (ACCEPT_BAND[0] + ACCEPT_BAND[1]) / 2.0
        done = 0
        while done < steps:
            chunk = min(interval, steps - done)
            acc = sum(self.step() for _ in range(chunk)) / chunk
            factor = math.exp(1.5 * (acc - target))
            self.step_scale *= min(max(factor, 0.6), 1.6)
            done += chunk

    def current_tuple(self) -> MatrixTuple:
        if self.spectral:
            u = haar_unitary(self.model.N, self.rng)
            b = hermitize((u * self.lam) @ u.conj().T)
            return MatrixTuple(1, self.model.N, self.model.R, (b,))
        return MatrixTuple(self.model.n, self.model.N, self.model.R,
                           tuple(hermitize(b) for b in self._blocks))

    def tracked_value(self) -> float:
        """Scalar time series used for diagnostics: the energy when the
        potential is nonzero, else the second moment of the first block."""
        if not self._energy_fn.is_zero:
            return self.energy
        return float(np.mean(self.eigs[0] ** 2))


def mcmc_chain(model: GibbsModel, steps: int, burnin: int, thin: int,
               rng: np.random.Generator = None,
               record_path: Optional[str] = None) -> Tuple[List[MatrixTuple], ChainDiagnostics]:
    """Run a Metropolis chain and retain every ``thin``-th post-burn-in state.

    The step size adapts during the first 80% of burn-in and is frozen for
    the rest of the run, so retained samples come from a fixed kernel.
    Diagnostics (acceptance, autocorrelation time, effective sample size) are
    computed on the retained series of the tracked scalar.
    """
    if rng is None:
        raise ValueError("an explicit numpy Generator is required")
    if steps < 1 or burnin < 0 or thin < 1:
        raise ValueError("need steps >= 1, burnin >= 0, thin >= 1")
    engine = ChainEngine(model, rng)
    engine.tune(int(burnin * 0.8))
    engine.run(burnin - int(burnin * 0.8))
    engine.reset_counters()

    samples: List[MatrixTuple] = []
    series: List[float] = []
    sink = open(record_path, "a") if record_path else None
    try:
        for i in range(steps):
            engine.step()
            if (i + 1) % thin == 0:
                t = engine.current_tuple()
                samples.append(t)
                series.append(engine.tracked_value())
                if sink is not None:
                    rec = {"step": i + 1, "tracked": series[-1], "state": json.loads(t.to_json())}
                    sink.write(json.dumps(rec, sort_keys=True) + "\n")
    finally:
        if sink is not None:
            sink.close()
    iat = integrated_autocorrelation_time(series)
    diag = ChainDiagnostics(
        acceptance=engine.acceptance,
        step_scale=engine.step_scale,
        iat=iat,
        ess=len(series) / iat,
        steps=steps,
        burnin=burnin,
        thin=thin,
        retained=len(samples),
        tracked="energy" if not model.potential.is_zero() else "m2",
    )
    return samples, diag


def log_ball_volume(N: int, R: float) -> float:
    """Exact log Lebesgue volume of the Hermitian operator-norm ball.

    Integrating the squared Vandermonde over [-R, R]^N (Selberg's integral
    with unit exponents) against the unitary angular factor gives

        Vol = (2R)^(N^2) pi^(N(N-1)/2) prod_{j=0}^{N-1} j!^2 / (N + j)!.
    """
    if N < 1 or not (R > 0):
        raise ValueError("need N >= 1 and R > 0")
    j = np.arange(N)
    return float(
        N * N * math.log(2.0 * R)
        + N * (N - 1) / 2.0 * math.log(math.pi)
        + np.sum(2.0 * gammaln(j + 1) - gammaln(N + j + 1))
    )


def _log_heine_norms(x: np.ndarray, logw: np.ndarray, N: int) -> float:
    """Sum of log h_k, k < N, for the discrete measure sum_j exp(logw_j) delta_{x_j}.

    h_k is the squared norm of the k-th monic orthogonal polynomial. The
    Stieltjes recurrence runs on orthonormalized vectors q_k = sqrt(w) p_k,
    so nothing overflows; h_k = h_0 prod_{j<=k} b_j^2 with b_j the
    off-diagonal Jacobi coefficients. log w is shifted by its maximum
    first, which scales every h_k by the same factor, added back here.
    """
    shift = float(logw.max())
    q = np.exp(0.5 * (logw - shift))
    h0 = float(q @ q)
    q = q / math.sqrt(h0)
    q_prev = np.zeros_like(q)
    b = 0.0
    total = N * (shift + math.log(h0))
    for k in range(1, N):
        a = float((x * q) @ q)
        r = (x - a) * q - b * q_prev
        b = float(np.linalg.norm(r))
        if not b > 0.0:
            raise EstimatorError(
                f"quadrature weight has fewer than N = {N} resolved nodes")
        total += 2.0 * (N - k) * math.log(b)
        q_prev, q = q, r / b
    return total


def _heine_log_I(model: GibbsModel) -> ScalarEstimate:
    """Exact log I for one matrix by Heine's identity.

    The eigenvalue density of an n == 1 model is the squared Vandermonde
    times prod_i w(l_i), w = exp(-beta N V), on [-R, R]^N, and its integral
    is N! prod_{k<N} h_k(w). The angular factor and N! cancel against the
    ball volume (the same integral at V = 0), so

        log I = log Vol + sum_{k<N} log(h_k(V) / h_k(0)).

    The norms come from M-point Gauss-Legendre quadrature; M must grow with
    N, and with the narrowness of the weight, for the nodes to resolve its
    bulk. M starts at max(300, 8N) and doubles while the M- and 2M-point
    values differ by more than 1e-8 nats, up to M = 9600; their distance is
    reported as ``bias_bound``.
    """
    N, R = model.N, model.R
    coeffs = model.potential.scalar_coeffs()

    def value(M: int) -> float:
        t, g = roots_legendre(M)
        x = R * t
        logg = np.log(R * g)
        logw = logg - model.beta * N * polyval(x, coeffs)
        return _log_heine_norms(x, logw, N) - _log_heine_norms(x, logg, N)

    # at N = 64, R = 4 and V = x^2/2, 200 nodes miss by about 100 nats, 300 agree
    # with 4000 to 1e-12 relative; a narrow weight needs more (N = 16, R = 4,
    # V = 100 x^2 is 386 nats off at 300 nodes and resolved from 4800)
    M = max(300, 8 * N)
    coarse, fine = value(M), value(2 * M)
    while abs(coarse - fine) > 1e-8 and 2 * M <= 9600:
        M *= 2
        coarse, fine = fine, value(2 * M)
    return ScalarEstimate(log_ball_volume(N, R) + coarse, 0.0, M, abs(coarse - fine))


@dataclass(frozen=True)
class TIOptions:
    """Budget for thermodynamic integration over beta; the keys of a ``ti:`` section.

    ``nodes`` beta values beta_k = beta (k / (nodes - 1))^2.5 are visited by
    one forward and one backward annealing sweep; each node gets
    ``node_burnin`` tuning steps and ``node_steps / 2`` measured steps per
    sweep. Used only for n >= 2; one-matrix log normalizers are exact and
    ignore it.
    """

    nodes: int = 31
    node_burnin: int = 300
    node_steps: int = 2000


def _ti_sweep(model: GibbsModel, grid: np.ndarray, node_burnin: int,
              node_steps: int, rng: np.random.Generator,
              forward: bool) -> Tuple[float, float, float]:
    """One annealed pass over the beta grid: (integral, stderr, disc bound).

    The chain lags its annealing schedule, biasing node means toward the
    previous temperature; running passes in both directions flips the sign
    of that lag so the pair average cancels it to first order.
    """
    start = 0.0 if forward else float(grid[-1])
    engine = ChainEngine(model.with_beta(start), rng)
    engine.tune(3 * node_burnin)
    means = np.empty(grid.size)
    errs = np.empty(grid.size)
    order = range(grid.size) if forward else range(grid.size - 1, -1, -1)
    for k in order:
        b = grid[k]
        engine.set_beta(float(b))
        # re-tune during each node's burnin: the proposal scale that suits
        # the reference measure is too wide once the coupling bites
        engine.tune(node_burnin)
        engine.reset_counters()
        series = np.empty(node_steps)
        for i in range(node_steps):
            engine.step()
            series[i] = engine.energy
        if engine.acceptance < MIN_ACCEPTANCE:
            raise EstimatorError(
                f"chain acceptance collapsed to {engine.acceptance:.4f} at beta={b:.3f}")
        # batch means under-report here: the energy autocorrelation time is
        # comparable to the node budget, so inflate by the measured IAT
        iat = integrated_autocorrelation_time(series)
        means[k] = float(series.mean())
        errs[k] = float(math.sqrt(series.var(ddof=1) * iat / series.size))

    w = np.zeros(grid.size)
    w[0] = (grid[1] - grid[0]) / 2.0
    w[-1] = (grid[-1] - grid[-2]) / 2.0
    w[1:-1] = (grid[2:] - grid[:-2]) / 2.0
    integral = float(np.dot(w, means))
    se = math.sqrt(float(np.dot(w ** 2, errs ** 2)))
    if grid.size >= 3:
        h = np.diff(grid)
        # second divided differences approximate f'' at interior nodes;
        # per-interval trapezoid error is h_i^3 |f''| / 12 with the larger
        # adjacent curvature estimate
        d2 = np.abs(2.0 * ((means[2:] - means[1:-1]) / h[1:]
                           - (means[1:-1] - means[:-2]) / h[:-1]) / (h[1:] + h[:-1]))
        curv = np.empty(h.size)
        curv[0] = d2[0]
        curv[-1] = d2[-1]
        if h.size > 2:
            curv[1:-1] = np.maximum(d2[:-1], d2[1:])
        disc = float(np.sum(h ** 3 * curv) / 12.0)
    else:
        disc = 0.0
    return integral, se, disc


def estimate_log_I(model: GibbsModel, opts: Optional[TIOptions] = None,
                   rng: np.random.Generator = None) -> ScalarEstimate:
    """log I(beta) of a Gibbs model, exact wherever an exact route exists.

    Exact (stderr 0) when the potential or beta vanishes: n log Vol. For
    n == 1 it is deterministic by Heine's identity (see :func:`_heine_log_I`),
    with the quadrature error in ``bias_bound``; ``opts`` and ``rng`` are
    then unused. For n >= 2 it is estimated by annealed thermodynamic
    integration with the budget ``opts`` (see :func:`_ti_log_I`).
    """
    if model.potential.is_zero() or model.beta == 0.0:
        return ScalarEstimate.exact(model.n * log_ball_volume(model.N, model.R))
    if model.n == 1:
        return _heine_log_I(model)
    return _ti_log_I(model, opts, rng)


def _ti_log_I(model: GibbsModel, opts: Optional[TIOptions],
              rng: np.random.Generator) -> ScalarEstimate:
    """log I(beta) by thermodynamic integration from the exact ball volume.

    d/dbeta log I = -E_beta[N Tr V], so log I(beta) = n log Vol minus the
    trapezoid of the mean energy along an increasing beta grid from 0,
    power-law packed near 0 where the integrand has most of its curvature.
    The budget is split over a forward and a backward annealing sweep, which
    cancels the chain's schedule-lag bias to first order; node means within
    a sweep share one chain, so the between-sweep spread is the trustworthy
    error signal and the reported stderr is the larger of the spread and the
    per-node IAT-corrected sum. The trapezoid discretization error goes to
    ``bias_bound`` via second divided differences.
    """
    if opts is None:
        opts = TIOptions()
    base = model.n * log_ball_volume(model.N, model.R)
    if rng is None:
        raise ValueError("an explicit numpy Generator is required")
    if opts.nodes < 2:
        raise ValueError("thermodynamic integration needs at least 2 beta nodes")
    # power-law node packing toward beta = 0, where the mean energy has a
    # 1/beta-like corner before the reference measure takes over
    grid = model.beta * np.linspace(0.0, 1.0, opts.nodes) ** 2.5

    per_node = max(2, opts.node_steps // 2)
    sweeps = [_ti_sweep(model, grid, opts.node_burnin, per_node, rng, forward)
              for forward in (True, False)]
    integrals, ses, discs = np.array(sweeps).T
    integral = float(integrals.mean())
    se = math.sqrt(float(np.mean(ses ** 2)) / 2)
    spread = float(integrals.std(ddof=1) / math.sqrt(2))
    return ScalarEstimate(base - integral, max(se, spread), 2 * per_node * grid.size,
                          float(discs.mean()))


def gibbs_entropy(model: GibbsModel, log_i: ScalarEstimate,
                  samples: Sequence[MatrixTuple]) -> ScalarEstimate:
    """Differential entropy -int f log f of the model from its samples.

    Ent = log I + beta * E[N Tr V]; the mean energy comes from the given
    equilibrium samples with a batch-means stderr, combined with the log I
    error in quadrature. Exact for the uniform ensemble.
    """
    if model.potential.is_zero() or model.beta == 0.0:
        return ScalarEstimate(log_i.value, log_i.stderr, log_i.count, log_i.bias_bound)
    energy = _Energy(model.n, model.N, model.potential)
    return _entropy(log_i, model.beta, mean_with_batch_stderr(energy.from_samples(samples)))


def _entropy(log_i: ScalarEstimate, beta: float, energy: ScalarEstimate) -> ScalarEstimate:
    """Ent = log I + beta E[N Tr V], the two errors combined in quadrature."""
    return ScalarEstimate(log_i.value + beta * energy.value,
                          math.hypot(log_i.stderr, beta * energy.stderr),
                          energy.count, log_i.bias_bound)


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
    iat: float
    base_log_volume: float


def microstate_hit_rate(tau: MomentSpec, eps: float, K: int, N: int,
                        steps: int, rng: np.random.Generator,
                        burnin: int = 2000, thin: int = 4) -> MicrostateEstimate:
    """Estimate the log-volume of matrix tuples with moments eps-close to tau.

    Runs the uniform-ensemble chain at size N and counts states whose
    empirical moments are within eps of tau in the max-over-monomials
    distance (degree <= K). The binomial stderr is widened by the
    autocorrelation time of the hit indicator series.
    """
    if not (eps > 0) or K < 1 or K > tau.K:
        raise ValueError("need eps > 0 and 1 <= K <= tau.K")
    model = GibbsModel(tau.n, N, tau.R, NcPoly.zero(tau.n), 0.0)
    engine = ChainEngine(model, rng)
    engine.tune(int(burnin * 0.8))
    engine.run(burnin - int(burnin * 0.8))
    hits = 0
    flags = np.empty(max(steps // thin, 1))
    trials = 0
    for i in range(steps):
        engine.step()
        if (i + 1) % thin == 0:
            m = empirical_moments(engine.blocks, K, tau.R)
            hit = moment_distance(m, tau, K) < eps
            flags[trials] = hit
            trials += 1
            hits += bool(hit)
    flags = flags[:trials]
    iat = integrated_autocorrelation_time(flags) if hits not in (0, trials) else 1.0
    base = tau.n * log_ball_volume(N, tau.R)
    if hits == 0:
        return MicrostateEstimate(None, 0, trials, iat, base)
    p = hits / trials
    se_p = math.sqrt(p * (1 - p) / (trials / iat)) if hits < trials else 0.0
    est = ScalarEstimate(base + math.log(p), se_p / p, trials)
    return MicrostateEstimate(est, hits, trials, iat, base)
