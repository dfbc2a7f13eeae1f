"""Moment-constrained maximum entropy over matrix ensembles.

Fitting works in the Legendre-dual picture: for a dual basis {b_j} spanning
self-adjoint polynomial constraints up to degree K, the objective

    F(lam) = log I(P_lam) + N^2 (sum_j lam_j tau_j + eps ||lam||_1),
    P_lam = sum_j lam_j b_j,

is convex in lam, and its smooth part has gradient N^2 (tau_j - E_lam[b_j]),
so the optimizer is found by stochastic approximation driven by chain
estimates of the model moments, with soft-thresholding for the L1 term,
decreasing step sizes, iterate averaging, and warm-started chains. The
attained value of F is the (relaxed) maximum entropy; the entropy of the
fitted model itself is log I + E[N Tr V]. Coefficients are stored in
N-normalized units: the potential enters the density as exp(-N Tr V).

A classical one-variable maxent solver on a grid (Newton on the same dual)
serves as the independent scalar oracle, and a logarithmic-energy quadrature
calibrated against the exact uniform-ensemble entropy provides a
one-variable reference curve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.special import logsumexp

from .estimates import ScalarEstimate, mean_with_batch_stderr
from .matrices import MatrixTuple
from .moments import MomentSpec, moment_pairing
from .ncpoly import NcPoly, Word, canonical_classes, is_reversal_symmetric, star_word, trace_moment
from .sampler import (ChainEngine, GibbsModel, TIOptions, _entropy, estimate_log_I,
                      log_ball_volume)

__all__ = [
    "InfeasibleTargetError",
    "BasisElement",
    "DualBasis",
    "build_dual_basis",
    "target_vector",
    "potential_from_coeffs",
    "dual_objective",
    "FitOptions",
    "FitResult",
    "fit_projection",
    "RhoResult",
    "rho",
    "ChiTildePoint",
    "chi_tilde_curve",
    "free_pressure",
    "EtaBoundReport",
    "eta_bound_check",
    "ScalarMaxentResult",
    "scalar_maxent_oracle",
    "log_energy_quadrature",
    "reference_constant",
    "ChiReference",
    "one_variable_chi_reference",
]


class InfeasibleTargetError(RuntimeError):
    """The target moments are not approximable at this (N, K, eps).

    Carries the diagnostics of the diverging fit; the maximum entropy is
    -infinity in this case and is never encoded as a numeric value.
    """

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass(frozen=True)
class BasisElement:
    """One self-adjoint constraint polynomial tied to a canonical class."""

    poly: NcPoly
    word: Word
    kind: str  # "re" or "im"
    degree: int
    label: str


@dataclass(frozen=True)
class DualBasis:
    """Self-adjoint spanning set for trace constraints of degree 1..K.

    Per canonical class: the symmetrized monomial (m + m*)/2, plus
    (m - m*)/(2i) for chiral classes (those whose reversal is not a cyclic
    rotation), whose trace is genuinely complex-valued data.
    """

    n: int
    K: int
    elements: Tuple[BasisElement, ...]

    def __len__(self) -> int:
        return len(self.elements)

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(el.label for el in self.elements)

    @property
    def degrees(self) -> np.ndarray:
        return np.array([el.degree for el in self.elements])


def build_dual_basis(n: int, K: int) -> DualBasis:
    if K < 1:
        raise ValueError("need K >= 1")
    elements: List[BasisElement] = []
    for w in canonical_classes(n, K, 1):
        name = ".".join(map(str, w))
        m = NcPoly.from_word(n, w)
        ms = NcPoly.from_word(n, star_word(w))
        elements.append(BasisElement((m + ms) * 0.5, w, "re", len(w), f"re:{name}"))
        if not is_reversal_symmetric(w):
            elements.append(BasisElement((m - ms) * (-0.5j), w, "im", len(w), f"im:{name}"))
    return DualBasis(n, K, tuple(elements))


def target_vector(tau: MomentSpec, basis: DualBasis) -> np.ndarray:
    """Pairings tau(b_j) for all basis elements (real by self-adjointness)."""
    return np.array([moment_pairing(tau, el.poly) for el in basis.elements])


def potential_from_coeffs(basis: DualBasis, coeffs: Sequence[float]) -> NcPoly:
    p = NcPoly.zero(basis.n)
    for el, c in zip(basis.elements, coeffs):
        if c != 0.0:
            p = p + float(c) * el.poly
    return p


class _BasisMeasurer:
    """Per-state basis moments (1/N) Tr b_j, cheap paths where possible."""

    def __init__(self, basis: DualBasis, N: int):
        self.basis = basis
        self.N = N
        self.scalar = basis.n == 1
        if self.scalar:
            self.degrees = basis.degrees
        else:
            words = sorted({el.word for el in basis.elements}, key=lambda w: (len(w), w))
            self.words = words
            windex = {w: i for i, w in enumerate(words)}
            self.selector = [(windex[el.word], el.kind) for el in basis.elements]

    def from_state(self, blocks, eigs) -> np.ndarray:
        if self.scalar:
            return (eigs[0][:, None] ** self.degrees).mean(axis=0)
        tms = [trace_moment(blocks, w) for w in self.words]
        return np.array([tms[i].real if kind == "re" else tms[i].imag
                         for i, kind in self.selector])

    def from_tuple(self, t: MatrixTuple) -> np.ndarray:
        eigs = [np.linalg.eigvalsh(b) for b in t.blocks] if self.scalar else None
        return self.from_state(t.blocks, eigs)


def dual_objective(basis: DualBasis, coeffs: Sequence[float], tau: MomentSpec,
                   eps: float, N: int,
                   log_i_estimator: Callable[[NcPoly], ScalarEstimate]) -> ScalarEstimate:
    """F(lam) = log I(P_lam) + N^2 (tau(P_lam) + eps ||lam||_1).

    ``log_i_estimator`` maps a potential to its log I (for instance
    ``lambda V: estimate_log_I(GibbsModel(n, N, R, V), ...)``); the
    statistical error is whatever it reports.
    """
    lam = np.asarray(coeffs, dtype=float)
    est = log_i_estimator(potential_from_coeffs(basis, lam))
    linear = float(np.dot(lam, target_vector(tau, basis)))
    value = est.value + N * N * (linear + eps * float(np.abs(lam).sum()))
    return ScalarEstimate(value, est.stderr, est.count, est.bias_bound)


@dataclass(frozen=True)
class FitOptions:
    """Budgets for the stochastic-approximation fit; the keys of a ``fit:`` section.

    Iteration t (counted from 0) runs ``discard_per_iter`` tuning steps and
    then ``steps_per_iter`` steps, measuring every 4th state, and moves the
    scaled coefficients by ``step_size / (1 + t/25)^0.6`` times the moment
    residual. The iterates of the second half of ``iterations`` are averaged.
    The fit stops once ``min_iterations`` have run and every smoothed residual
    is within ``moment_tol`` (scaled); a scaled coefficient beyond 60 with
    residuals stuck above 3 tolerances raises :class:`InfeasibleTargetError`.
    The averaged model is then run for ``final_burnin`` steps and measured on
    every 2nd of ``final_steps`` steps. ``ti`` budgets the log-normalizer of
    the fitted model for n >= 2 only; for one matrix that normalizer is exact
    and ``ti`` is unused.
    """

    iterations: int = 140
    steps_per_iter: int = 240
    discard_per_iter: int = 60
    step_size: float = 2.0
    moment_tol: float = 0.01
    min_iterations: int = 25
    final_steps: int = 10000
    final_burnin: int = 1500
    ti: TIOptions = field(default_factory=TIOptions)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a moment-projection fit.

    ``coeffs`` are the dual coefficients lambda in N-normalized units;
    ``rho`` is the entropy log I + E[N Tr V] of the fitted model, and
    ``dual_value`` the dual objective at lambda (their difference is the
    duality gap up to residual slack). ``residuals`` are signed gaps
    (model moment minus target) in absolute units.
    """

    basis: DualBasis
    coeffs: np.ndarray
    rho: ScalarEstimate
    dual_value: ScalarEstimate
    log_i: ScalarEstimate
    energy: ScalarEstimate
    residuals: np.ndarray
    residual_stderr: np.ndarray
    tolerances: np.ndarray
    converged: bool
    iterations: int
    trajectory: dict
    model: GibbsModel

    @property
    def chi(self) -> ScalarEstimate:
        """Entropy-curve value rho/N^2 + (n/2) log N of the fitted model."""
        N = self.model.N
        return self.rho.scaled(1.0 / (N * N)).shifted(self.model.n / 2.0 * math.log(N))


def _soft_threshold(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def fit_projection(tau: MomentSpec, N: int, K: int, eps: float = 0.0,
                   opts: Optional[FitOptions] = None,
                   rng: np.random.Generator = None,
                   R: Optional[float] = None) -> FitResult:
    """Fit the maximum-entropy model matching tau's moments up to degree K.

    Coordinates are preconditioned by R^degree so that step sizes and
    tolerances are scale-free; the per-element tolerance is
    max(eps, moment_tol * R^degree) in absolute units. The fit is
    ``converged`` when every final residual is within its tolerance plus 3
    stderr; otherwise a ``RuntimeWarning`` is issued. Divergence of the
    coefficients with stalled residuals raises
    :class:`InfeasibleTargetError` (the supremum is -infinity there).
    """
    if rng is None:
        raise ValueError("an explicit numpy Generator is required")
    if opts is None:
        opts = FitOptions()
    if K < 1 or K > tau.K:
        raise ValueError(f"need 1 <= K <= tau.K = {tau.K}")
    R = float(tau.R if R is None else R)
    n = tau.n
    basis = build_dual_basis(n, K)
    scales = R ** basis.degrees.astype(float)
    targets = target_vector(tau, basis)
    tt = targets / scales
    eps_scaled = eps / scales
    tol_scaled = np.maximum(eps_scaled, opts.moment_tol)

    mu = np.zeros(len(basis))
    engine = ChainEngine(GibbsModel(n, N, R, NcPoly.zero(n), 1.0), rng)
    engine.tune(400)
    measurer = _BasisMeasurer(basis, N)

    mubar = np.zeros_like(mu)
    nbar = 0
    ema = None
    ema_w = 0.7
    resid_history: List[float] = []
    converged_sa = False
    iterations_run = opts.iterations
    for t in range(opts.iterations):
        engine.set_potential(potential_from_coeffs(basis, mu / scales))
        engine.tune(opts.discard_per_iter, interval=opts.discard_per_iter)
        acc: List[np.ndarray] = []
        engine.run(opts.steps_per_iter,
                   observe=lambda e: acc.append(measurer.from_state(e.blocks, e.eigs)),
                   every=4)
        mhat = np.mean(acc, axis=0) / scales
        resid = mhat - tt
        ema = resid if ema is None else ema_w * ema + (1 - ema_w) * resid
        resid_history.append(float(np.max(np.abs(ema))))
        step = opts.step_size / (1.0 + t / 25.0) ** 0.6
        mu = _soft_threshold(mu - step * (tt - mhat), step * eps_scaled)
        if t >= 0.5 * opts.iterations:
            mubar += mu
            nbar += 1
        if np.max(np.abs(mu)) > 60.0 and np.max(np.abs(ema) / tol_scaled) > 3.0:
            raise InfeasibleTargetError(
                f"coefficients diverged (|mu| > 60.0) with residuals "
                f"stuck at {np.max(np.abs(ema)):.3g} (scaled); "
                f"target not approximable at N={N}, K={K}, eps={eps}",
                diagnostics={"mu": mu.tolist(), "residual_scaled": ema.tolist(),
                             "iteration": t, "labels": list(basis.labels)})
        if t + 1 >= opts.min_iterations and np.all(np.abs(ema) <= tol_scaled):
            converged_sa = True
            if nbar > 0:
                iterations_run = t + 1
                break

    mu_final = mubar / nbar if nbar > 0 else mu
    lam = mu_final / scales
    final_model = GibbsModel(n, N, R, potential_from_coeffs(basis, lam), 1.0)
    engine.set_potential(final_model.potential)
    engine.tune(int(opts.final_burnin * 0.6))
    engine.run(opts.final_burnin - int(opts.final_burnin * 0.6))
    engine.reset_counters()
    obs: List[np.ndarray] = []
    energies: List[float] = []

    def _collect(e: ChainEngine) -> None:
        obs.append(measurer.from_state(e.blocks, e.eigs))
        energies.append(e.energy)

    engine.run(opts.final_steps, observe=_collect, every=2)
    omat = np.asarray(obs)
    moment_means = omat.mean(axis=0) * 1.0
    residuals = moment_means - targets
    residual_stderr = np.array([
        mean_with_batch_stderr(omat[:, j]).stderr for j in range(omat.shape[1])
    ])
    energy_est = mean_with_batch_stderr(np.asarray(energies))
    log_i = estimate_log_I(final_model, opts=opts.ti, rng=rng)
    rho_est = _entropy(log_i, final_model.beta, energy_est)
    dual = dual_objective(basis, lam, tau, eps, N, lambda _: log_i)
    tol_abs = tol_scaled * scales
    converged = bool(np.all(np.abs(residuals) <= tol_abs + 3.0 * residual_stderr))
    if not converged:
        warnings.warn(f"fit at N={N}, K={K} did not converge: a final moment residual "
                      f"exceeds its tolerance plus 3 stderr", RuntimeWarning, stacklevel=2)
    trajectory = {
        "residual_max_scaled": resid_history,
        "sa_converged": converged_sa,
        "final_acceptance": engine.acceptance,
        "step_scale": engine.step_scale,
    }
    return FitResult(basis, lam, rho_est, dual, log_i, energy_est, residuals,
                     residual_stderr, tol_abs, converged, iterations_run,
                     trajectory, final_model)


@dataclass(frozen=True)
class RhoResult:
    """Finite-N maximum entropy under moment constraints, with its fit."""

    estimate: ScalarEstimate
    fit: FitResult


def rho(tau: MomentSpec, N: int, K: int, eps: float = 0.0,
        opts: Optional[FitOptions] = None, rng: np.random.Generator = None,
        R: Optional[float] = None) -> RhoResult:
    """Maximum entropy over models matching tau to degree K at size N.

    Runs the dual fit and reports the entropy of the fitted model.
    Infeasible targets raise :class:`InfeasibleTargetError`.
    """
    fit = fit_projection(tau, N, K, eps=eps, opts=opts, rng=rng, R=R)
    return RhoResult(fit.rho, fit)


@dataclass(frozen=True)
class ChiTildePoint:
    N: int
    value: ScalarEstimate
    fit: FitResult


def chi_tilde_curve(tau: MomentSpec, N_list: Sequence[int], K: int,
                    eps: float = 0.0, opts: Optional[FitOptions] = None,
                    rng_factory: Callable[[int], np.random.Generator] = None,
                    R: Optional[float] = None) -> List[ChiTildePoint]:
    """Normalized entropy curve rho/N^2 + (n/2) log N over matrix sizes.

    Values are reported per N exactly as measured (no extrapolation);
    ``rng_factory(N)`` supplies an independent stream per size so the points
    are statistically independent and parallelizable.
    """
    if rng_factory is None:
        raise ValueError("need an rng factory keyed by N")
    out = []
    for N in N_list:
        fit = fit_projection(tau, int(N), K, eps=eps, opts=opts, rng=rng_factory(int(N)), R=R)
        out.append(ChiTildePoint(int(N), fit.chi, fit))
    return out


def free_pressure(P: NcPoly, N: int, R: float, rng: np.random.Generator,
                  opts: Optional[TIOptions] = None) -> ScalarEstimate:
    """Normalized log-partition (1/N^2) log I(P) + (n/2) log N."""
    model = GibbsModel(P.n, N, R, P, 1.0)
    est = estimate_log_I(model, opts=opts, rng=rng)
    return est.scaled(1.0 / (N * N)).shifted(P.n / 2.0 * math.log(N))


@dataclass(frozen=True)
class EtaBoundReport:
    """Check of the entropy-pressure duality bound chi <= tau(P) + pi(P)."""

    chi: ScalarEstimate
    tau_P: float
    pressure: ScalarEstimate
    lhs: float
    rhs: float
    sigma: float
    holds: bool


def eta_bound_check(tau: MomentSpec, P: NcPoly, N: int, K: int,
                    eps: float = 0.0, opts: Optional[FitOptions] = None,
                    rng: np.random.Generator = None,
                    R: Optional[float] = None) -> EtaBoundReport:
    """Entropy of the fit vs the linear-plus-pressure upper bound.

    For any self-adjoint test polynomial P, the normalized maximum entropy of
    tau is at most tau(P) plus the normalized pressure of P; both sides are
    estimated and compared with 3-sigma slack.
    """
    if rng is None:
        raise ValueError("an explicit numpy Generator is required")
    R = float(tau.R if R is None else R)
    fit = fit_projection(tau, N, K, eps=eps, opts=opts, rng=rng, R=R)
    chi = fit.chi
    tau_p = moment_pairing(tau, P)
    pressure = free_pressure(P, N, R, rng, opts.ti if opts else None)
    sigma = math.hypot(chi.stderr, pressure.stderr)
    lhs = chi.value
    rhs = tau_p + pressure.value
    return EtaBoundReport(chi, tau_p, pressure, lhs, rhs, sigma,
                          bool(lhs <= rhs + 3.0 * sigma))


@dataclass(frozen=True)
class ScalarMaxentResult:
    """Grid solution of the classical one-variable maxent problem.

    Density p(x) proportional to exp(sum_k theta_k x^k) on [-R, R];
    ``entropy`` is the differential entropy of the grid solution and
    ``dual_value`` the dual objective, equal at the optimum (their absolute
    difference is ``duality_gap``).
    """

    entropy: float
    dual_value: float
    duality_gap: float
    powers: Tuple[int, ...]
    theta: np.ndarray
    xs: np.ndarray
    density: np.ndarray
    converged: bool
    iterations: int


def scalar_maxent_oracle(constraints: dict, R: float) -> ScalarMaxentResult:
    """Newton solution of one-variable maxent on a 2001-point midpoint grid.

    ``constraints`` maps powers (>= 1) to target raw moments. Fully
    independent of the chain machinery: dense grid, exact gradients and
    Hessians of the dual, damped Newton with backtracking, at most 200 steps
    to a gradient below 1e-11. Targets outside the moment body raise
    :class:`InfeasibleTargetError`.
    """
    grid_size = 2001
    powers = tuple(sorted(int(p) for p in constraints))
    if not powers or powers[0] < 1:
        raise ValueError("constraint powers must be >= 1")
    a = np.array([float(constraints[p]) for p in powers])
    dx = 2.0 * R / grid_size
    xs = -R + (np.arange(grid_size) + 0.5) * dx
    feats = np.stack([(xs / R) ** p for p in powers], axis=1)
    a_scaled = a / np.array([R ** p for p in powers], dtype=float)

    theta = np.zeros(len(powers))
    logdx = math.log(dx)

    def dual_parts(th):
        logits = feats @ th
        z = logsumexp(logits)
        p = np.exp(logits - z)
        return z + logdx - float(np.dot(th, a_scaled)), p

    phi, p = dual_parts(theta)
    converged = False
    it = 0
    for it in range(1, 201):
        mean = p @ feats
        grad = mean - a_scaled
        if np.max(np.abs(grad)) < 1e-11:
            converged = True
            break
        cov = feats.T @ (feats * p[:, None]) - np.outer(mean, mean)
        try:
            delta = np.linalg.solve(cov + 1e-13 * np.eye(len(powers)), grad)
        except np.linalg.LinAlgError:
            raise InfeasibleTargetError("singular moment covariance on the grid")
        # minimize phi: full Newton step with backtracking; once the gradient
        # is tiny the Armijo decrease drowns in rounding, so step undamped
        if np.max(np.abs(grad)) < 1e-7:
            theta = theta - delta
            phi, p = dual_parts(theta)
            continue
        s = 1.0
        for _ in range(60):
            phi_new, p_new = dual_parts(theta - s * delta)
            if phi_new <= phi - 1e-4 * s * float(np.dot(grad, delta)):
                theta = theta - s * delta
                phi, p = phi_new, p_new
                break
            s /= 2.0
        else:
            break
        if np.max(np.abs(theta)) > 1e5:
            raise InfeasibleTargetError(
                f"dual coefficients diverged; moments {constraints} lie outside "
                f"the moment body on [-{R}, {R}]",
                diagnostics={"theta_scaled": theta.tolist(), "iteration": it})
    if not converged and np.max(np.abs(p @ feats - a_scaled)) > 1e-6:
        raise InfeasibleTargetError(
            f"scalar maxent did not converge (residual "
            f"{np.max(np.abs(p @ feats - a_scaled)):.3g})",
            diagnostics={"theta_scaled": theta.tolist(), "iteration": it})
    entropy = float(-(p * (np.log(np.maximum(p, 1e-300)) - logdx)).sum())
    dual = phi
    theta_abs = theta / np.array([R ** p_ for p_ in powers], dtype=float)
    return ScalarMaxentResult(entropy, dual, abs(entropy - dual), powers, theta_abs,
                              xs, p / dx, converged, it)


def log_energy_quadrature(density: Callable[[np.ndarray], np.ndarray], R: float) -> float:
    """Double integral of log|s - t| against the density, 4000-point midpoint rule.

    The diagonal cells use the exact mean of log|s - t| over a square,
    log(dx) - 3/2, which removes the integrable singularity.
    """
    npoints = 4000
    dx = 2.0 * R / npoints
    xs = -R + (np.arange(npoints) + 0.5) * dx
    f = np.asarray(density(xs), dtype=float) * dx
    mass = f.sum()
    if not 0.99 < mass < 1.01:
        raise ValueError(f"density mass on [-R, R] is {mass:.4f}, expected 1")
    f = f / mass
    # f W f in row blocks, so no dense npoints x npoints temporary is built
    fw = np.zeros(npoints)
    for start in range(0, npoints, 250):
        rows = np.arange(start, min(start + 250, npoints))
        diff = np.abs(xs[rows, None] - xs[None, :])
        diff[rows - start, rows] = 1.0
        w = np.log(diff)
        w[rows - start, rows] = math.log(dx) - 1.5
        fw += f[rows] @ w
    return float(fw @ f)


def reference_constant(N: int, R: float) -> float:
    """Additive constant linking log-energy to the entropy curve at size N.

    Pinned by the ensemble whose curve value is exactly known: the uniform
    ensemble has chi-curve value (1/N^2) log Vol + (1/2) log N and limit
    spectral law arcsine on [-R, R] with log-energy log(R/2).
    """
    return log_ball_volume(N, R) / (N * N) + 0.5 * math.log(N) - math.log(R / 2.0)


@dataclass(frozen=True)
class ChiReference:
    chi: float
    log_energy: float
    constant: float


def one_variable_chi_reference(density: Callable[[np.ndarray], np.ndarray],
                               R: float, N: int) -> ChiReference:
    """Reference entropy-curve value for a one-variable spectral density.

    log-energy of the density plus the constant calibrated at the same N
    from the uniform/arcsine ensemble (see :func:`reference_constant`).
    """
    c = reference_constant(N, R)
    e = log_energy_quadrature(density, R)
    return ChiReference(e + c, e, c)
