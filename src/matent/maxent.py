"""Moment-constrained maximum entropy over matrix ensembles.

Fitting works in the Legendre-dual picture: for a dual basis {b_j} spanning
self-adjoint polynomial constraints up to degree K, the objective

    F(lam) = log I(P_lam) + N^2 (sum_j lam_j tau_j + eps ||lam||_1),
    P_lam = sum_j lam_j b_j,

is convex in lam, with gradient N^2 (tau_j - E_lam[tr b_j]) and Hessian
N^2 Cov_lam(Tr b_i, Tr b_j) in its smooth part. Every route minimizes it by
damped Newton, with orthant-wise steps for the L1 term. For one matrix the
derivatives are exact, from the orthogonal-polynomial kernel of the
eigenvalue ensemble, and the optimizer is found to rounding level. So they
are for two matrices at K <= 2, whose models couple X and Y only through
Tr XY: from the derivatives of Mehta's determinant, by the evaluator of its
log I (:func:`matent.sampler._split_form`); one final run at the exact
optimizer then checks it and gives the energy, on exact i.i.d. draws where
the fitted model is Gaussian. For other n >= 2 fits, or
where the determinant has no value, they are estimated from one
warm-started run of lockstep matrix-mode walkers per iterate, steps are
line-searched on the dual reweighted from the same samples, and the chain
doubles in length every iterate until the Newton decrement (the dual's
distance to its minimum, in nats) is within noise at full length. The
attained value of F is the (relaxed) maximum entropy; the entropy of the fitted model is
log I + E[N Tr V], with log I from :func:`matent.sampler.estimate_log_I`:
exact for one matrix and, within the determinant's range, for the models of
K = 2 two-matrix fits (whose only mixed word is XY), and by integration
from the potential's one-matrix part otherwise. Coefficients are stored in N-normalized units: the
potential enters the density as exp(-N Tr V). Every fit runs on the ball of
its target's radius ``tau.R``.

A logarithmic-energy quadrature calibrated against the exact
uniform-ensemble entropy provides a one-variable reference curve.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .estimates import EstimatorError, ScalarEstimate, logsumexp, pooled_mean
from .moments import MomentSpec, moment_pairing
from .ncpoly import (NcPoly, Word, canonical_classes, is_reversal_symmetric, star_word,
                     word_traces)
from .sampler import (EXACT_BOUND, ChainEngine, GibbsModel, TIOptions, _bilinear_parts,
                      _draw, _entropy, _heine_nodes, _legendre_nodes, _log_heine_norms,
                      _mehta_log_I, _split_form, estimate_log_I, log_ball_volume)

__all__ = [
    "InfeasibleTargetError",
    "BasisElement",
    "DualBasis",
    "build_dual_basis",
    "target_vector",
    "potential_from_coeffs",
    "FitOptions",
    "FitResult",
    "fit_projection",
    "free_pressure",
    "EtaBoundReport",
    "eta_bound_check",
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
    """Basis moments (1/N) Tr b_j of matrix-mode chain states: the rows of a
    (K, len(basis)) array for the K walkers of blocks of shape (n, K, N, N).

    One :func:`~matent.ncpoly.word_traces` call takes the traces of the
    basis words; read as real pairs, element j is the real (``re``) or the
    imaginary (``im``) part of its word's column, one precomputed index."""

    def __init__(self, basis: DualBasis):
        words = tuple(sorted({el.word for el in basis.elements}, key=lambda w: (len(w), w)))
        self.words = words
        windex = {w: i for i, w in enumerate(words)}
        self.columns = np.array([2 * windex[el.word] + (el.kind == "im")
                                 for el in basis.elements])

    def from_state(self, blocks) -> np.ndarray:
        traces = word_traces(blocks, self.words).view(float)[..., self.columns]
        return traces * (1.0 / np.shape(blocks[0])[-1])


@dataclass(frozen=True)
class FitOptions:
    """Budgets for the n >= 2 fits; the keys of a ``fit:`` section.

    The fit's chain is ``WALKERS`` lockstep walkers (see
    :class:`matent.sampler.ChainEngine`). ``steps_per_iter`` and
    ``final_steps`` count walker-steps in total, split evenly over the
    walkers, so the states measured are as many as one chain of that length
    gives; ``discard_per_iter`` and ``final_burnin`` count steps of every
    walker. At most ``iterations`` Newton iterates of Monte Carlo Newton run;
    each burns the walkers in for ``discard_per_iter`` steps (400 more at the
    first iterate), the first ``TUNE_SHARE`` (80%) of them tuning, and then
    runs n walker-steps in all, n doubling every iterate from about
    ``steps_per_iter`` up to ``final_steps`` (see :func:`_chain_newton`). The
    fitted model is then measured on as many states as every 2nd of
    ``final_steps`` walker-steps gives (:func:`_final_run`), with pooled-IAT
    stderrs (see :func:`matent.estimates.pooled_mean`); where they come from
    a chain, it first burns in ``final_burnin`` steps, the first
    ``TUNE_SHARE`` (80%) of them tuning (see :func:`matent.sampler._draw`).
    The fit is converged when the Newton stop was reached and every final
    residual is within max(eps, ``moment_tol`` R^degree) plus 3 stderr.
    ``ti`` budgets the log-normalizer of the fitted model where it has no
    exact route: the path from the one-matrix part of its potential to the
    whole (see :func:`matent.sampler.estimate_log_I`). A two-matrix fit
    at K <= 2 is solved exactly on Mehta's determinant (see
    :func:`fit_projection`) and reads only ``final_steps``, ``final_burnin``
    and ``moment_tol``, for the final run that checks it; the other keys,
    ``ti`` among them, budget its Monte Carlo fallback where the determinant
    has no value. ``step_size``
    and ``min_iterations`` belonged to the stochastic approximation this
    route replaced and are accepted but unused. A one-matrix fit is exact
    (damped Newton on the dual) and ignores every key. ``iterations``,
    ``steps_per_iter`` and ``final_steps`` are at least 1; the burn-ins and
    ``moment_tol`` are at least 0.
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

    def __post_init__(self) -> None:
        if min(self.iterations, self.steps_per_iter, self.final_steps) < 1:
            raise ValueError("fit needs iterations, steps_per_iter and final_steps >= 1")
        if min(self.discard_per_iter, self.final_burnin) < 0 or not self.moment_tol >= 0:
            raise ValueError("fit needs discard_per_iter, final_burnin and moment_tol >= 0")


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


def _newton_direction(x: np.ndarray, g: np.ndarray, H: np.ndarray, l1: np.ndarray):
    """Newton direction and decrement for f(x) + sum_i l1_i |x_i| at x.

    With an L1 term the step is the Newton step of the pseudo-gradient pg on
    the free coordinates (Andrew & Gao 2007). Returns pg, the free mask, the
    direction d and the decrement -pg . d / 2, which estimates the distance to
    the minimum in the units of f. A singular H raises ``LinAlgError``.
    """
    pg = np.where(x > 0, g + l1, np.where(x < 0, g - l1, _soft_threshold(g, l1)))
    free = (x != 0) | (pg != 0)
    d = np.zeros_like(x)
    d[free] = -np.linalg.solve(H[np.ix_(free, free)], pg[free])
    return pg, free, d, -0.5 * float(pg @ d)


def _backtrack(parts: Callable, x: np.ndarray, f: float, pg: np.ndarray,
               d: np.ndarray, dec: float, l1: np.ndarray):
    """Halve s from 1 until x + s d, kept in the orthant of the step, passes an
    Armijo test on the value f of ``parts`` (see :func:`_damped_newton`).
    Returns the new point and what ``parts`` gave there, or None after 60
    halvings."""
    orthant = np.where(x != 0, np.sign(x), -np.sign(pg))
    s = 1.0
    for _ in range(60):
        xn = x + s * d
        xn[(l1 > 0) & (xn * orthant < 0)] = 0.0
        out = parts(xn)
        # below 1e-12 nats the Armijo test drowns in rounding
        if math.isfinite(out[0]) and (dec < 1e-12 or out[0] + l1 @ np.abs(xn)
                                      <= f + l1 @ np.abs(x) - 2e-4 * s * dec):
            return xn, out
        s /= 2.0
    return None


def _damped_newton(parts: Callable, x0: np.ndarray, l1: np.ndarray, gtol: float, what: str):
    """Minimize f(x) + sum_i l1_i |x_i| for a smooth convex f by damped Newton.

    ``parts(x)``, the protocol of every Newton route, gives f (inf where it
    cannot be evaluated), its gradient g and ``hess``, where ``hess()`` forms
    the Hessian at x, or gives None where it cannot be formed. It is formed
    at x0 and at the points the line search accepts only; one that cannot be
    formed ends the solve at the point before. Steps
    (:func:`_newton_direction`) backtrack on the exact objective
    (:func:`_backtrack`) until the decrement is below 1e-12; one more full
    step then takes it to rounding level. A coefficient beyond 1e5,
    or a stop with a pseudo-gradient beyond ``gtol``, means the minimum is not
    attained and raises :class:`InfeasibleTargetError` (message ending in
    ``what``). Returns x, f and g at x, the decrement at x, and max |g| after
    each step.
    """
    x = np.array(x0, dtype=float)
    f, g, hess = parts(x)
    H = hess()
    history: List[float] = []
    last = math.inf
    while True:
        try:
            pg, _, d, dec = _newton_direction(x, g, H, l1)
        except np.linalg.LinAlgError:
            raise InfeasibleTargetError(f"singular moment covariance; {what}")
        if not dec > 0 or last < 1e-12 or len(history) == 200:
            break
        step = _backtrack(parts, x, f, pg, d, dec, l1)
        H_step = None if step is None else step[1][2]()
        if H_step is None:
            break
        x, (f, g, _), H = step[0], step[1], H_step
        last = dec
        history.append(float(np.max(np.abs(g))))
        if np.max(np.abs(x)) > 1e5:
            break
    if not (np.max(np.abs(x)) <= 1e5 and np.max(np.abs(pg)) <= gtol):
        # diverging coefficients, or a weight collapsing onto too few nodes
        raise InfeasibleTargetError(
            f"the solve stopped with scaled coefficients up to {np.max(np.abs(x)):.3g} "
            f"and gradient {np.max(np.abs(pg)):.3g}; {what}",
            diagnostics={"coeffs_scaled": x.tolist(), "iteration": len(history)})
    return x, f, g, dec, history


def _one_matrix_dual(basis: DualBasis, N: int, R: float, tt: np.ndarray,
                     nodes: int) -> Callable:
    """``parts`` (see :func:`_damped_newton`) of the one-matrix dual's smooth
    part, up to a constant, in scaled coordinates mu = lam R^degree.

    The eigenvalues form an orthogonal-polynomial ensemble, so on ``nodes``
    Gauss-Legendre nodes, as in :func:`matent.sampler._heine_log_I`, it is
    sum_k log h_k + N^2 mu . tau. Its derivatives come from the orthonormal
    rows q_k = sqrt(w) p_k of Q, through the kernel diagonal
    K(x, x) = sum_k q_k(x)^2 and A_j = Q diag(f_j) Q^T (never the M x M kernel):

        E Tr f_j = sum_x f_j K(x, x),
        Cov(Tr f_i, Tr f_j) = sum_x f_i f_j K(x, x) - <A_i, A_j>_F.
    """
    x, logg = _legendre_nodes(nodes, R)
    feats = (x / R)[:, None] ** basis.degrees
    n2 = N * N

    def parts(mu):
        try:
            total, qs, _ = _log_heine_norms(x, logg - N * (feats @ mu), N)
        except EstimatorError:
            return math.inf, None, None
        kdiag = (qs * qs).sum(axis=0)

        def hess():
            a = np.stack([(qs * f) @ qs.T for f in feats.T])
            return n2 * (feats.T @ (feats * kdiag[:, None]) - np.einsum("ikl,jkl->ij", a, a))

        return total + n2 * float(mu @ tt), n2 * tt - N * (kdiag @ feats), hess

    return parts


def _pair_parts(basis: DualBasis) -> Optional[np.ndarray]:
    """The linear map from coefficients lam to the parts of sum_j lam_j b_j,
    or None unless every element is bilinear (n == 2, K <= 2): row j holds
    :func:`matent.sampler._bilinear_parts` of b_j, its V1 coefficients of
    degree 1..K, V2's, then k (a basis has no constant term)."""
    parts = [_bilinear_parts(el.poly) for el in basis.elements]
    if None in parts:
        return None
    rows = np.zeros((len(parts), 2 * basis.K + 1))
    for row, (v1, v2, k) in zip(rows, parts):
        row[:len(v1) - 1], row[basis.K:basis.K + len(v2) - 1], row[-1] = v1[1:], v2[1:], k
    return rows


def _pair_moments(basis: DualBasis, N: int, R: float, nodes: int) -> Callable:
    """Exact log I, up to a constant, and scaled basis moments of the bilinear
    two-matrix models of ``basis`` (:func:`_pair_parts`): a function of a
    stack of P points in the scaled coordinates mu = lam R^degree, the rows
    of a (P, len(basis)) array, which returns for each point log I and E f
    (f_j = (1/N) Tr b_j / R^degree_j), or None where log I cannot be
    evaluated or rounding spoils it (a swap spread beyond ``EXACT_BOUND``,
    the trust bound of :func:`matent.sampler._mehta_log_I`), so the line
    search steps back.

    Both are :func:`matent.sampler._split_form`'s on ``nodes`` nodes, the
    evaluator of :func:`matent.sampler._mehta_log_I`, in one call for the
    whole stack, on the parts lam times the rows, to the bit those that log
    I reads from the potential (one element per part). So the value is log
    I - 2 log Vol to rounding (the derivatives' remainder rows ride in the
    same products), and E f_j is row j against the moments in units of R
    (each b_j is homogeneous).
    """
    rows = _pair_parts(basis)
    D = basis.K
    evaluate = _split_form(nodes, R, N, D)
    scales = R ** basis.degrees.astype(float)

    def moments(mus):
        c = (mus / scales) @ rows
        sides = np.zeros((len(c), 2, D + 1))
        sides[:, :, 1:] = c[:, :-1].reshape(-1, 2, D)
        # an overflowing remainder or a singular 1 + C gives that point None:
        # "cannot be evaluated here", which the line search steps back from;
        # an unresolved weight or a singular A or B gives the stack None
        try:
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                values, spreads, at = evaluate((sides[:, 0], sides[:, 1], c[:, -1]))
        except (EstimatorError, np.linalg.LinAlgError):
            return [None] * len(c)
        # E Tr XY / R^2 from C's order; a determinant of sign <= 0 in either order
        # is nan, and a swap spread beyond EXACT_BOUND is rounding that has
        # already spoiled the moments, so neither can be evaluated either
        outs = np.concatenate((at[:, 0, :D], at[:, 1, :D], at[:, 0, D:]), axis=1) @ rows.T / N
        return [(value, out) if math.isfinite(value) and spread <= EXACT_BOUND
                and np.all(np.isfinite(out)) else None
                for value, spread, out in zip(values, spreads, outs)]

    return moments


def _pair_dual(basis: DualBasis, N: int, R: float, tt: np.ndarray,
               nodes: int) -> Callable:
    """``parts`` (see :func:`_damped_newton`) of the bilinear two-matrix
    dual's smooth part, up to a constant, in scaled coordinates
    mu = lam R^degree, on ``nodes`` nodes.

    The value and gradient are exact (:func:`_pair_moments` on a stack of
    one); the Hessian N^4 Cov f is the central difference of the moments at
    steps of 1e-5, its 2 len(mu) points priced in one stacked call. Forming
    it at a scaled coefficient beyond ``MU_MAX`` raises
    :class:`InfeasibleTargetError` and so leaves the target to Monte Carlo
    Newton, which decides there whether it is out of reach.
    """
    moments = _pair_moments(basis, N, R, nodes)
    n2 = N * N

    def parts(mu):
        at = moments(mu[None])[0]
        if at is None:
            return math.inf, None, None

        def hess():
            if np.max(np.abs(mu)) > MU_MAX:
                raise InfeasibleTargetError(f"a Newton iterate passed |mu| = {MU_MAX}")
            h = 1e-5 * np.eye(len(mu))
            points = moments(np.concatenate((mu + h, mu - h)))
            if any(p is None for p in points):
                return None
            jac = np.array([p[1] - q[1]
                            for p, q in zip(points[:len(mu)], points[len(mu):])]) / 2e-5
            return -0.5 * n2 * (jac + jac.T)

        return at[0] + n2 * float(mu @ tt), n2 * (tt - at[1]), hess

    return parts


def _marginal_start(basis: DualBasis, N: int, R: float, tt: np.ndarray,
                    l1: np.ndarray) -> np.ndarray:
    """The K = 2 Newton start of a bilinear two-matrix basis: the product of
    its two marginal one-matrix fits, coupling 0, each side's scaled
    coefficients from :func:`_damped_newton` on :func:`_one_matrix_dual`,
    from zero, on that side's targets with its share of ``l1``, on the pair
    solve's first node count. It is the first solve of :func:`_exact_solve`
    on that side, with no log I and no re-solve after it. Where the target's
    mixed moment factors (E tr XY = E tr X E tr Y, as for a free pair), log I
    splits into the two sides' at coupling 0 and this start is the exact
    solution. Zeros where a marginal solve fails."""
    mu = np.zeros(len(basis))
    one = build_dual_basis(1, basis.K)
    words = [el.word for el in basis.elements]
    nodes, n2 = _heine_nodes(N), N * N
    for side in (1, 2):
        # the side's powers X^d (or Y^d), in the one-matrix basis's order
        index = [words.index((side,) * d) for d in range(1, basis.K + 1)]
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                mu[index] = _damped_newton(_one_matrix_dual(one, N, R, tt[index], nodes),
                                           np.zeros(basis.K), n2 * l1[index], n2 * 1e-9,
                                           "marginal")[0]
        except InfeasibleTargetError:
            return np.zeros(len(basis))
    return mu


def _exact_solve(basis: DualBasis, N: int, R: float, tt: np.ndarray, l1: np.ndarray,
                 what: str):
    """The exact dual solve: :func:`_damped_newton` on :func:`_one_matrix_dual`
    for one matrix, from zero, and on :func:`_pair_dual` for a bilinear
    two-matrix basis, from the marginal fits (:func:`_marginal_start`), with
    the L1 term N^2 l1 . |mu|, on as many nodes as the fitted model's log I
    needs.

    The first solve runs on max(300, 8N) nodes; while log I of the fitted
    model (:func:`matent.sampler.estimate_log_I` for one matrix,
    :func:`matent.sampler._mehta_log_I` for two) needs more, the dual is
    solved again, warm, on log I's count: on fewer nodes than log I resolves,
    the fitted moments belong to another model than log I does, and rho is
    quietly off. Returns mu, the gradient and decrement there, max |g| after
    each Newton step of every solve, the last node count, and the fitted model
    and its log I; None where Mehta's log I has no value at the fitted model.
    From the marginal start, whose two one-matrix solves take no log I,
    free-pair-4 takes one Newton step, and the whole solve four split-form
    calls and two more for Mehta's log I.
    """
    if basis.n == 1:
        dual, mu = _one_matrix_dual, np.zeros(len(basis))
    else:
        dual, mu = _pair_dual, _marginal_start(basis, N, R, tt, l1)
    scales = R ** basis.degrees.astype(float)
    nodes, history, n2 = _heine_nodes(N), [], N * N
    while True:
        # a trial point whose weight is unresolved divides by b_k = 0 before
        # it raises (matent.sampler._log_heine_norms), and is stepped back from
        with np.errstate(divide="ignore", invalid="ignore"):
            mu, _, grad, dec, steps = _damped_newton(dual(basis, N, R, tt, nodes), mu,
                                                     n2 * l1, n2 * 1e-9, what)
        history += steps
        model = GibbsModel(basis.n, N, R, potential_from_coeffs(basis, mu / scales))
        log_i = estimate_log_I(model) if basis.n == 1 else _mehta_log_I(model)
        if log_i is None:
            return None
        if log_i.count <= nodes:
            return mu, grad, dec, history, nodes, model, log_i
        nodes = log_i.count


# a scaled coefficient beyond this, with residuals stuck, marks a target out
# of reach (see _chain_newton); the exact K = 2 route stops there (_pair_dual)
MU_MAX = 60.0
# a decrement within this many noise floors is indistinguishable from zero
NOISE_MULT = 3.0
# lockstep walkers of every n >= 2 fit chain (see ChainEngine): at N = 4 a
# step of 8 walkers costs about a quarter of 8 single steps
WALKERS = 8
# the last step rests on this many final_steps-long runs, so that its noise
# adds about a fifth of the final chain's variance to the checked residuals
FINAL_POOL = 5


def _reweighted_dual(runs: List[Tuple[np.ndarray, np.ndarray]], n2: int,
                     tt: np.ndarray) -> Callable:
    """The dual and its derivatives at x, estimated from chain runs by
    importance reweighting (Geyer & Thompson 1992).

    Run r holds the scaled moments F_r of S_r states sampled at mu_r; weights
    exp(-N^2 (x - mu_r) . f) turn them into estimates of E_x f, Cov_x f and
    D(x) - D(mu_r) = log mean exp(-N^2 (x - mu_r) . f) + N^2 (x - mu_r) . tt.
    The runs are pooled in proportion to S_r. ``parts(x)`` returns, as
    :func:`_damped_newton` reads them, the value (up to a constant), the
    gradient N^2 (tt - E_x f) and the Hessian N^4 Cov_x f, formed on demand;
    the value is inf where some run's weights have an ESS below half its
    states.
    """
    total = sum(len(F) for _, F in runs)

    def parts(x):
        value, mean, weighted = 0.0, 0.0, []
        for mu_r, F in runs:
            a = -n2 * (F @ (x - mu_r))
            w = np.exp(a - a.max())
            if w.sum() ** 2 < 0.5 * len(F) * (w @ w):
                return math.inf, None, None
            share = len(F) / total
            p = w / w.sum()
            m = p @ F
            value += share * (logsumexp(a) - math.log(len(F)) + n2 * float((x - mu_r) @ tt))
            mean = mean + share * m
            weighted.append((share, p, m, F))

        def hess():
            return n2 * n2 * sum(share * ((F * p[:, None]).T @ F - np.outer(m, m))
                                 for share, p, m, F in weighted)

        return value, n2 * (tt - mean), hess

    return parts


def _chain_newton(engine: ChainEngine, measurer: _BasisMeasurer, basis: DualBasis,
                  scales: np.ndarray, tt: np.ndarray, l1: np.ndarray,
                  tol_scaled: np.ndarray, opts: FitOptions, what: str):
    """Monte Carlo Newton on the n >= 2 dual in scaled coordinates mu = lam R^degree.

    The dual's derivatives are model moments: with f the scaled basis moments
    (1/N) Tr b_j / R^degree of a state, g = N^2 (tt - E f) and H = N^4 Cov f.
    Each iterate is one :func:`matent.sampler._draw` on the warm ``engine``'s
    K walkers at mu: ``discard_per_iter`` burn-in steps of each walker (400
    more at the first iterate, where the engine starts cold), the first
    ``TUNE_SHARE`` (80%) of them tuning, then n walker-steps in all (n / K
    per walker), measuring every 4th state of every walker;
    :func:`_reweighted_dual` of the S states gives g, H, the Newton
    direction of :func:`_newton_direction` and the dual along it, on which
    the step is backtracked (:func:`_backtrack`). The decrement (nats of dual
    above the minimum) has the noise floor sum_k IAT_k / (2 S) over the
    whitened moments of the S states it pools, its expectation when mu is
    already optimal; each IAT_k comes from the autocorrelations of the K
    walker series of that moment in the iterate's own run, averaged
    (:func:`matent.estimates.pooled_mean`). With fewer than 10 states
    per coefficient no step is taken.

    n starts at ``final_steps`` / 2^k, the first such length at or above
    ``steps_per_iter``, and doubles after every iterate up to ``final_steps``.
    The stop is a run of ``final_steps`` whose decrement is within
    ``NOISE_MULT`` noise floors. Its mu is kept and runs
    on until, with the earlier runs of that length whose weights keep half
    their ESS at mu, ``FINAL_POOL`` runs are pooled; one step on their
    reweighted dual gives the result. A scaled coefficient beyond ``MU_MAX`` with a
    residual above 3 tolerances raises :class:`InfeasibleTargetError`.
    Returns mu, the dual's excess over its minimum that the last resolved
    decrement allows (inf if none): that decrement plus ``NOISE_MULT`` of its
    noise floor, since the step it took rests on noisy moments too; whether
    the stop and its pooled step were reached, the number of iterates and their
    trajectory: per iterate the largest scaled residual, n, the decrement,
    its noise floor and the pooled ESS S / max_k IAT_k of the slowest
    whitened moment, and the number of walkers under ``walkers``.
    """
    m = engine.model
    N = m.N
    n2 = N * N
    K = engine.walkers
    mu = np.zeros(len(basis))
    steps = opts.final_steps >> max(0, int(math.log2(opts.final_steps / opts.steps_per_iter)))
    pool: List[Tuple[np.ndarray, np.ndarray]] = []  # the runs of final_steps
    trajectory = {"residual_max_scaled": [], "chain_steps": [], "decrement": [],
                  "noise_floor": [], "ess": []}
    stop = done = False
    for t in range(opts.iterations):
        model = GibbsModel(m.n, N, m.R, potential_from_coeffs(basis, mu / scales))
        acc: List[np.ndarray] = []
        # the first iterate also burns in the engine's cold start
        _draw(model, _walker_steps(steps, K, 4), opts.discard_per_iter + (0 if t else 400), 4,
              engine.rng, lambda blocks: acc.append(measurer.from_state(blocks)), K, engine)
        F = np.asarray(acc).reshape(-1, len(mu)) / scales
        resid = F.mean(axis=0) - tt
        if np.max(np.abs(mu)) > MU_MAX and np.max(np.abs(resid) / tol_scaled) > 3.0:
            raise InfeasibleTargetError(
                f"coefficients diverged (|mu| > {MU_MAX}) with residuals "
                f"stuck at {np.max(np.abs(resid)):.3g} (scaled); {what}",
                diagnostics={"mu": mu.tolist(), "residual_scaled": resid.tolist(),
                             "iteration": t, "labels": list(basis.labels)})
        if steps == opts.final_steps:
            pool = [r for r in pool
                    if math.isfinite(_reweighted_dual([r], n2, tt)(mu)[0])] + [(mu, F)]
        runs = pool if stop else [(mu, F)]
        dec = floor = ess = math.nan
        if len(F) >= 10 * len(mu):  # fewer states give too rough a covariance to step on
            parts = _reweighted_dual(runs, n2, tt)
            f0, g, hess = parts(mu)
            try:
                pg, free, d, dec = _newton_direction(mu, g, hess(), l1)
                chol = np.linalg.cholesky(np.cov(F[:, free], rowvar=False, bias=True))
                white = np.linalg.solve(chol, (F[:, free] - F[:, free].mean(axis=0)).T)
                # one IAT per whitened moment, from its K walker series
                iats = [pooled_mean(w.reshape(-1, K).T)[1] for w in white]
                floor = 0.5 * sum(iats) / sum(len(Fr) for _, Fr in runs)
                ess = len(F) / max(iats)
            except np.linalg.LinAlgError:
                dec = math.nan
        for key, v in zip(trajectory, (float(np.max(np.abs(resid))), steps, dec, floor, ess)):
            trajectory[key].append(v)
        done = stop and len(pool) >= FINAL_POOL  # this iterate's step is on the pool
        stop = stop or (steps == opts.final_steps and dec <= NOISE_MULT * floor)
        if stop and not done:
            continue
        if math.isfinite(dec):
            step = _backtrack(parts, mu, f0, pg, d, dec, l1)
            if step is not None:
                mu = step[0]
        if done:
            break
        steps = min(2 * steps, opts.final_steps)
    trajectory["walkers"] = K
    resolved = [d + NOISE_MULT * f for d, f in zip(trajectory["decrement"],
                                                     trajectory["noise_floor"])
                if math.isfinite(d)]
    return (mu, resolved[-1] if resolved else math.inf, done,
            len(trajectory["decrement"]), trajectory)


def _walker_steps(steps: int, walkers: int, every: int) -> int:
    """Steps per walker that measure at least ``steps / every`` states in all,
    every ``every``-th state of each walker and at least one per walker."""
    return every * max(1, -(-steps // (every * walkers)))


def _final_run(model: GibbsModel, coeffs: np.ndarray, measurer: _BasisMeasurer, steps: int,
               burnin: int, rng: np.random.Generator, engine: Optional[ChainEngine] = None):
    """The measurement run of a fitted model: every 2nd state of ``WALKERS``
    walkers over about ``steps`` walker-steps in all, or as many exact draws,
    from :func:`matent.sampler._draw` (on the warm ``engine`` of Monte Carlo
    Newton if one is given), measured batch by batch, never held all at once.

    Each state is measured once: its energy is N^2 ``coeffs`` . f, from the
    basis moments f that ``measurer`` takes (the model's potential is sum_j
    coeffs_j b_j), with no second trace pass. A run on exact draws costs
    about what its draws cost: a block that a Frobenius bound puts inside the
    ball skips the Cholesky test, and an i.i.d. series reaches Geyer's cut
    within a few lags. Monte Carlo Newton fits keep the chain because their
    rho carries the fit error N^2 lambda . (m(lambda) - tau), which no stderr
    reports; at the separable pair, exact draws put rho 4 of their stderrs
    from the exact maximum. Returns the basis moment means and their
    stderrs, the energy as a :class:`ScalarEstimate`, all from
    :func:`matent.estimates.pooled_mean` (one i.i.d. series for exact draws,
    the walkers' series for a chain), and the acceptance, energy IAT and ESS
    (summed over walkers) under ``final_acceptance``, ``final_iat`` and
    ``final_ess``.
    """
    obs: List[np.ndarray] = []
    acceptance, step_scale = _draw(model, _walker_steps(steps, WALKERS, 2), burnin, 2, rng,
                                   lambda blocks: obs.append(measurer.from_state(blocks)),
                                   WALKERS, engine)
    # (series, T, len(basis)): the walkers' series of a chain (step scale > 0),
    # or one i.i.d. series of exact draws
    omat = np.asarray(obs).swapaxes(0, 1) if step_scale else np.concatenate(obs)[None]
    moments = [pooled_mean(omat[:, :, j])[0] for j in range(omat.shape[2])]
    energy, iat = pooled_mean(model.N * model.N * (omat @ coeffs))
    return (np.array([m.value for m in moments]), np.array([m.stderr for m in moments]),
            energy, {"final_acceptance": acceptance, "final_iat": iat,
                     "final_ess": energy.count / iat})


def fit_projection(tau: MomentSpec, N: int, K: int, eps: float = 0.0,
                   opts: FitOptions = FitOptions(), *,
                   rng: np.random.Generator) -> FitResult:
    """Fit the maximum-entropy model matching tau's moments up to degree K
    on the ball of tau's radius R.

    Coordinates are preconditioned by R^degree so that step sizes and
    tolerances are scale-free. One matrix (n == 1) is solved exactly by
    damped Newton on the dual (:func:`_one_matrix_dual`), on as many quadrature
    nodes as the fitted model's log I needs (:func:`_exact_solve`): the
    per-element tolerance is eps + 1e-9 R^degree, ``energy`` and ``rho`` have
    stderr 0, ``energy.bias_bound`` is the residual cost N^2 |lam . r - eps
    |lam|_1| (rho minus the dual) plus rounding, ``iterations`` counts Newton
    steps over all solves, and ``rng``, a required keyword on every route,
    is not consumed.

    Two matrices at K <= 2 (potentials V1(X) + V2(Y) + k Tr XY) are solved
    exactly the same way (:func:`_pair_dual`), on the function whose value is
    ``log_i`` at the fitted model (:func:`matent.sampler._mehta_log_I`).
    A final run at that lambda measures ``energy`` and the residuals
    (:func:`_final_run`), an independent Monte Carlo check of the solve.
    ``rho`` is the exact log I plus that energy, and the tolerance is
    max(eps, moment_tol R^degree). Where the determinant has no value at the
    fitted model, or the solve fails, the fit is Monte Carlo Newton as below.

    Every other n >= 2 fit runs the Monte Carlo Newton of
    :func:`_chain_newton` on one warm-started matrix-mode engine of
    ``WALKERS`` lockstep walkers with the budgets of :class:`FitOptions`
    (``steps_per_iter`` and ``final_steps`` in walker-steps in total,
    ``discard_per_iter`` and ``final_burnin`` per walker), and a further run
    of the same walkers at the fitted model, independent of the samples that
    chose it, gives ``energy`` and the residuals (:func:`_final_run`). The
    tolerance is max(eps, moment_tol * R^degree).
    ``iterations`` counts Newton iterates, and ``trajectory`` holds per
    iterate the largest scaled residual, the chain's walker-steps, the
    decrement, its noise floor and the pooled ESS, the number of walkers,
    and the final run's acceptance, energy IAT and ESS. On every route the
    fit is ``converged`` when its stop was reached (an exact solve's
    decrement at most 1e-10 nats, or Monte Carlo Newton's stop and pooled
    step) and every residual is within its
    tolerance plus 3 stderr; for one matrix, with stderr 0, the solve's
    gradient test already holds every residual within its tolerance. On
    every route ``dual_value`` is the dual at lam, ``log_i``
    plus N^2 (lam . tau + eps |lam|_1), and its ``bias_bound`` adds the final
    decrement, by which the dual may exceed the maximum entropy, to log I's
    bias bound; for Monte Carlo Newton also ``NOISE_MULT`` times the noise
    floor of the pooled step that set lam. An unconverged fit issues a
    ``RuntimeWarning``. A target the fit cannot reach (coefficients
    diverging, residuals stuck) raises :class:`InfeasibleTargetError`: the
    supremum is -infinity there.
    """
    if K < 1 or K > tau.K:
        raise ValueError(f"need 1 <= K <= tau.K = {tau.K}")
    R = float(tau.R)
    n = tau.n
    basis = build_dual_basis(n, K)
    scales = R ** basis.degrees.astype(float)
    targets = target_vector(tau, basis)
    tt = targets / scales
    eps_scaled = eps / scales
    what = f"target not approximable at N={N}, K={K}, eps={eps}"

    exact = None
    if n == 1:
        exact = _exact_solve(basis, N, R, tt, eps_scaled, what)
    elif _pair_parts(basis) is not None:
        try:
            exact = _exact_solve(basis, N, R, tt, eps_scaled, what)
        except InfeasibleTargetError:
            pass  # Monte Carlo Newton decides whether the target is out of reach
    if exact is not None:
        mu, grad, dec, history, nodes, final_model, log_i = exact
        stopped, iterations = 0.0 <= dec <= 1e-10, len(history)
        trajectory = {"residual_max_scaled": [h / (N * N) for h in history], "decrement": dec}
    if n == 1:
        # exact: a residual may pass eps by rounding only
        tol_scaled = eps_scaled + 1e-9
        lam = mu / scales
        resid = -grad / (N * N)
        moment_means = targets + resid * scales
        # the residual cost, and the rounding of sums of terms up to N^2 |mu|_1
        slack = N * N * (abs(float(mu @ resid) - eps * float(np.abs(lam).sum()))
                         + 1e-14 * (1.0 + float(np.abs(mu).sum())))
        energy_est = ScalarEstimate(N * N * float(lam @ moment_means), 0.0, nodes, slack)
        residual_stderr = np.zeros(len(basis))
    else:
        tol_scaled = np.maximum(eps_scaled, opts.moment_tol)
        measurer = _BasisMeasurer(basis)
        engine = None
        if exact is None:
            engine = ChainEngine(GibbsModel(n, N, R, NcPoly.zero(n)), rng, WALKERS)
            mu, dec, stopped, iterations, trajectory = _chain_newton(
                engine, measurer, basis, scales, tt, N * N * eps_scaled, tol_scaled, opts, what)
            final_model = GibbsModel(n, N, R, potential_from_coeffs(basis, mu / scales))
        lam = mu / scales
        moment_means, residual_stderr, energy_est, final = _final_run(
            final_model, lam, measurer, opts.final_steps, opts.final_burnin, rng, engine)
        trajectory.update(final)
        if exact is None:
            log_i = estimate_log_I(final_model, opts=opts.ti, rng=rng)
    residuals = moment_means - targets
    tol_abs = tol_scaled * scales
    converged = stopped and bool(np.all(np.abs(residuals) <= tol_abs + 3.0 * residual_stderr))
    rho_est = _entropy(log_i, energy_est)
    # the dual F(lam) at lam overshoots its minimum, the maximum entropy, by
    # the decrement, and for n >= 2 by the noise of the last step
    linear = float(np.dot(lam, targets))
    dual = ScalarEstimate(log_i.value + N * N * (linear + eps * float(np.abs(lam).sum())),
                          log_i.stderr, log_i.count, log_i.bias_bound + max(dec, 0.0))
    if not converged:
        warnings.warn(f"fit at N={N}, K={K} did not converge: a final moment residual "
                      f"exceeds its tolerance plus 3 stderr, or the Newton stop was "
                      f"not reached", RuntimeWarning, stacklevel=2)
    return FitResult(basis, lam, rho_est, dual, log_i, energy_est, residuals,
                     residual_stderr, tol_abs, converged, iterations,
                     trajectory, final_model)


def free_pressure(P: NcPoly, N: int, R: float, rng: np.random.Generator,
                  opts: TIOptions = TIOptions()) -> ScalarEstimate:
    """Normalized log-partition (1/N^2) log I(P) + (n/2) log N."""
    model = GibbsModel(P.n, N, R, P)
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
                    eps: float = 0.0, opts: FitOptions = FitOptions(), *,
                    rng: np.random.Generator) -> EtaBoundReport:
    """Entropy of the fit vs the linear-plus-pressure upper bound.

    For any self-adjoint test polynomial P, the normalized maximum entropy of
    tau is at most tau(P) plus the normalized pressure of P; both sides are
    estimated and compared with 3-sigma slack, the pressure on the ball of
    tau's radius.
    """
    fit = fit_projection(tau, N, K, eps=eps, opts=opts, rng=rng)
    chi = fit.chi
    tau_p = moment_pairing(tau, P)
    pressure = free_pressure(P, N, tau.R, rng, opts.ti)
    sigma = math.hypot(chi.stderr, pressure.stderr)
    lhs = chi.value
    rhs = tau_p + pressure.value
    return EtaBoundReport(chi, tau_p, pressure, lhs, rhs, sigma,
                          bool(lhs <= rhs + 3.0 * sigma))


def log_energy_quadrature(density: Callable[[np.ndarray], np.ndarray], R: float) -> float:
    """Double integral of log|s - t| against the density, 4000-point midpoint rule.

    f W f over the normalized cell masses f, with W_ij = log(|i - j| dx) and, on
    the diagonal, log(dx) - 3/2 (the mean of log|s - t| over a square cell), is
    the Toeplitz form c_0 w_0 + 2 sum_{k>=1} c_k w_k with c = f's autocorrelation:
    one O(n^2) correlation and no n x n array. For a semicircle of variance 1 on
    R = 4 it sits 1.9e-4 nats above the closed form (1/2) log v - 1/4.
    """
    npoints = 4000
    dx = 2.0 * R / npoints
    xs = -R + (np.arange(npoints) + 0.5) * dx
    f = np.asarray(density(xs), dtype=float) * dx
    mass = f.sum()
    if not 0.99 < mass < 1.01:
        raise ValueError(f"density mass on [-R, R] is {mass:.4f}, expected 1")
    f = f / mass
    c = np.correlate(f, f, "full")[npoints - 1:]
    w = np.log(np.arange(1, npoints) * dx)
    return float(c[0] * (math.log(dx) - 1.5) + 2.0 * (c[1:] @ w))


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

    The 4000-point midpoint log-energy (:func:`log_energy_quadrature`) plus
    :func:`reference_constant` at the same N, calibrated on the uniform ensemble.
    """
    c = reference_constant(N, R)
    e = log_energy_quadrature(density, R)
    return ChiReference(e + c, e, c)
