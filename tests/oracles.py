"""Independent reference implementations used only by the tests.

Everything here deliberately uses different algorithms than the package
(subset expansion instead of partition recursion, hit-or-miss instead of
closed forms, eigenvalue-only chains instead of matrix chains, dense-grid
quadrature instead of Monte Carlo), so agreement between the two routes is
evidence rather than tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq, minimize

# hand-derived constants (independent of the package)
#
# Large-N ball-volume asymptotics: using Stirling on the exact product
# formula, (1/N^2) log Vol(H_N^R) = log(R/2) + 3/4 + (1/2) log pi
# - (1/2) log N + o(1), so the calibration constant
# (1/N^2) log Vol + (1/2) log N - log(R/2) tends to 3/4 + (1/2) log pi.
REFERENCE_CONSTANT_LIMIT = 0.75 + 0.5 * math.log(math.pi)

# free-entropy integral Sigma(mu) = double integral of log|x-y|:
# semicircle of variance 1 gives -1/4; uniform on [-1,1] gives log 2 - 3/2.
SIGMA_SEMICIRCLE_VAR1 = -0.25
SIGMA_UNIFORM_M11 = math.log(2.0) - 1.5

CATALAN = (1, 1, 2, 5, 14, 42, 132, 429, 1430)


# ---------------------------------------------------------------------------
# scalar (N=1) quadrature

def scalar_grid(R: float, npoints: int = 20001) -> Tuple[np.ndarray, float]:
    """Midpoint grid on [-R, R]."""
    edges = np.linspace(-R, R, npoints + 1)
    return (edges[:-1] + edges[1:]) / 2.0, edges[1] - edges[0]


def potential_values(coeffs: Sequence[float], xs: np.ndarray) -> np.ndarray:
    """V(x) = sum_p coeffs[p] x^p with coeffs[0] the constant term."""
    vals = np.zeros_like(xs)
    for p, c in enumerate(coeffs):
        if c:
            vals = vals + c * xs ** p
    return vals


def gibbs_density(coeffs: Sequence[float], R: float,
                  npoints: int = 20001) -> Tuple[np.ndarray, np.ndarray, float]:
    """Normalized density exp(-V)/Z on the midpoint grid: (xs, f, dx)."""
    xs, dx = scalar_grid(R, npoints)
    logw = -potential_values(coeffs, xs)
    logw -= logw.max()
    w = np.exp(logw)
    f = w / (w.sum() * dx)
    return xs, f, dx


def log_i_quad(coeffs: Sequence[float], R: float, npoints: int = 20001) -> float:
    """log of the unnormalized integral of exp(-V) over [-R, R]."""
    xs, dx = scalar_grid(R, npoints)
    logw = -potential_values(coeffs, xs)
    shift = logw.max()
    return shift + math.log(float(np.exp(logw - shift).sum()) * dx)


def entropy_quad(f: np.ndarray, dx: float) -> float:
    """Differential entropy -int f log f on a midpoint grid."""
    mask = f > 0
    return float(-(f[mask] * np.log(f[mask])).sum() * dx)


def kl_quad(f: np.ndarray, g: np.ndarray, dx: float) -> float:
    """Relative entropy int f log(f/g); +inf when f escapes g's support."""
    mask = f > 0
    if np.any(g[mask] <= 0):
        return math.inf
    return float((f[mask] * (np.log(f[mask]) - np.log(g[mask]))).sum() * dx)


def moment_quad(f: np.ndarray, xs: np.ndarray, dx: float, p: int) -> float:
    return float((f * xs ** p).sum() * dx)


def log_i_linear_exact(c: float, R: float) -> float:
    """Closed form of int exp(-c x) over [-R, R]: 2 sinh(cR)/c."""
    if abs(c) < 1e-12:
        return math.log(2.0 * R)
    # log(2 sinh(cR)/c) computed stably for large |c| R
    a = abs(c) * R
    return a + math.log1p(-math.exp(-2.0 * a)) - math.log(abs(c))


def log_i_ratio_two_eigen_quad(coeffs: Sequence[float], R: float,
                               npoints: int = 2000) -> float:
    """log(I(V) / Vol) of the N = 2 one-matrix model by tensor quadrature.

    The eigenvalue density of a 2 x 2 Hermitian model is proportional to
    (x - y)^2 exp(-2 (V(x) + V(y))) on [-R, R]^2; the angular factor cancels
    in the ratio to the same integral at V = 0. Midpoint grid on the square,
    no orthogonal polynomials involved.
    """
    xs, _ = scalar_grid(R, npoints)
    logw = -2.0 * potential_values(coeffs, xs)
    shift = float(logw.max())
    w = np.exp(logw - shift)
    vdm = (xs[:, None] - xs[None, :]) ** 2
    return 2.0 * shift + math.log(float(w @ vdm @ w)) - math.log(float(vdm.sum()))


def separable_pair_rho(moments: Sequence[float], N: int, R: float) -> float:
    """Finite-N maximum entropy of a free pair whose marginals have raw
    moments ``moments`` = (m_1, ..., m_K), K <= 3: twice the one-matrix value.

    The joint entropy is at most the sum of the marginal entropies, and the
    product of the two one-matrix maxent models attains it while matching
    every constraint: unitary invariance gives E tr(X^a Y^b) = m_a m_b, the
    free value for words of degree <= 3. The one-matrix value minimizes the
    dual log I(V) + N^2 sum_k lam_k m_k over V = sum_k lam_k x^k, where
    I(V) / Vol = det H(w) / det H(1) with the Hankel moment matrices
    H_ij = int t^(i+j) w(R t) dt (i, j < N) of w = exp(-N V), Vol the closed
    form of the ball volume, numpy's Gauss-Legendre rule and scipy's BFGS:
    no orthogonal-polynomial recurrence and no chain.
    """
    K = len(moments)
    if not 1 <= K <= 3:
        raise ValueError("the product model matches free moments only up to degree 3")
    t, g = np.polynomial.legendre.leggauss(400)
    powers = t[None, :] ** np.arange(2 * N - 1)[:, None]
    hankel = np.arange(N)[:, None] + np.arange(N)[None, :]
    log_vol = (N * N * math.log(2.0 * R) + N * (N - 1) / 2.0 * math.log(math.pi)
               + sum(2.0 * math.lgamma(j + 1) - math.lgamma(N + j + 1) for j in range(N)))

    def log_det_hankel(logw):
        shift = float(logw.max())
        mom = powers @ (g * np.exp(logw - shift))
        return N * shift + np.linalg.slogdet(mom[hankel])[1]

    base = log_det_hankel(np.zeros_like(t))
    feats = t[:, None] ** np.arange(1, K + 1)[None, :]  # x^k / R^k
    scaled = np.array(moments, dtype=float) / R ** np.arange(1, K + 1)

    def dual(mu):  # mu_k = lam_k R^k
        return log_det_hankel(-N * (feats @ mu)) - base + N * N * float(mu @ scaled)

    res = minimize(dual, np.zeros(K), method="BFGS", options={"gtol": 1e-9})
    return 2.0 * (log_vol + float(res.fun))


def gaussian_pair_log_I(a: float, c: float, N: int) -> float:
    """log of the integral of exp(-N Tr(a X^2 + a Y^2 - c (XY + YX))) over all
    pairs of N x N Hermitian matrices, |c| < a.

    In the Lebesgue coordinates (diagonal entries, real and imaginary parts
    above it) the exponent splits into 2 x 2 Gaussian forms with matrix
    [[a, -c], [-c, a]]: scaled by N for the N diagonal pairs and by 2N for
    the N(N - 1) off-diagonal ones.
    """
    if not abs(c) < a:
        raise ValueError("need |c| < a")
    root = math.sqrt(a * a - c * c)
    return (N * math.log(math.pi / (N * root))
            + N * (N - 1) * math.log(math.pi / (2.0 * N * root)))


@dataclass(frozen=True)
class ScalarMaxent:
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


def scalar_maxent_oracle(constraints: Dict[int, float], R: float) -> ScalarMaxent:
    """One-variable maxent on a 2001-point midpoint grid, by scipy's BFGS.

    ``constraints`` maps powers (>= 1) to target raw moments. The dual
    log sum_x exp(theta . f(x)) dx - theta . a is minimized in the scaled
    coordinates f_k = (x / R)^k with its exact gradient; no Hessian, no
    orthogonal polynomials and none of the package's solver. A target outside
    the moment body leaves a gradient that cannot vanish, and raises
    ``ValueError``.
    """
    grid_size = 2001
    powers = tuple(sorted(int(p) for p in constraints))
    if not powers or powers[0] < 1:
        raise ValueError("constraint powers must be >= 1")
    scales = np.array([R ** p for p in powers], dtype=float)
    target = np.array([float(constraints[p]) for p in powers]) / scales
    dx = 2.0 * R / grid_size
    xs = -R + (np.arange(grid_size) + 0.5) * dx
    feats = (xs / R)[:, None] ** np.array(powers)[None, :]

    def density(theta):
        logits = feats @ theta
        shift = float(logits.max())
        w = np.exp(logits - shift)
        return w / w.sum(), shift + math.log(float(w.sum()) * dx)

    def dual(theta):
        p, log_z = density(theta)
        return log_z - float(theta @ target), p @ feats - target

    # an infeasible target sends theta off to infinity
    with np.errstate(over="ignore", invalid="ignore"):
        res = minimize(dual, np.zeros(len(powers)), jac=True, method="BFGS",
                       options={"gtol": 1e-11, "maxiter": 2000})
    grad = np.max(np.abs(dual(res.x)[1]))
    if not grad <= 1e-6:
        raise ValueError(f"moments {constraints} lie outside the moment body on [-{R}, {R}]")
    p, _ = density(res.x)
    entropy = float(-(p * (np.log(np.maximum(p, 1e-300)) - math.log(dx))).sum())
    return ScalarMaxent(entropy, float(res.fun), abs(entropy - float(res.fun)), powers,
                        res.x / scales, xs, p / dx, bool(grad <= 1e-9))


def langevin_mean(theta: float, R: float) -> float:
    """Mean of the density proportional to exp(theta x) on [-R, R]."""
    t = theta * R
    if abs(t) < 1e-8:
        return R * t / 3.0
    return R * (1.0 / math.tanh(t) - 1.0 / t)


def tilt_for_mean(mean: float, R: float) -> float:
    """Invert the tilted-uniform mean map; |mean| must be < R."""
    if abs(mean) >= R:
        raise ValueError("mean out of range")
    if mean == 0.0:
        return 0.0
    lo, hi = -400.0 / R, 400.0 / R
    return brentq(lambda th: langevin_mean(th, R) - mean, lo, hi, xtol=1e-14)


def arcsine_moment_quad(R: float, k: int, npoints: int = 200001) -> float:
    """Moment of the arcsine law via the angular substitution x = R sin t.

    The substitution removes the endpoint singularity, so a plain trapezoid
    converges fast: m_k = (R^k / pi) int sin^k t dt over [-pi/2, pi/2].
    """
    ts = np.linspace(-math.pi / 2.0, math.pi / 2.0, npoints)
    vals = np.sin(ts) ** k
    return float(R ** k / math.pi * np.trapezoid(vals, ts))


def log_energy_dense(density, R: float, npoints: int = 4000) -> float:
    """The midpoint rule of ``maxent.log_energy_quadrature`` as a dense sum.

    f W f over the normalized cell masses f, with W_ij = log|x_i - x_j| from
    the grid's own differences and log(dx) - 3/2 on the diagonal, the mean of
    log|s - t| over a square cell; built in row blocks of one buffer, not as
    a Toeplitz form.
    """
    dx = 2.0 * R / npoints
    xs = -R + (np.arange(npoints) + 0.5) * dx
    f = np.asarray(density(xs), dtype=float) * dx
    f = f / f.sum()
    fw = np.zeros(npoints)
    w = np.empty((250, npoints))
    for start in range(0, npoints, 250):
        rows = np.arange(start, start + 250)
        np.subtract(xs[rows, None], xs[None, :], out=w)
        np.abs(w, out=w)
        w[rows - start, rows] = 1.0
        np.log(w, out=w)
        w[rows - start, rows] = math.log(dx) - 1.5
        fw += f[rows] @ w
    return float(fw @ f)


def gauss_legendre_by_recurrence(M: int) -> Tuple[np.ndarray, np.ndarray]:
    """M Gauss-Legendre nodes on [-1, 1], ascending, and their weights, by
    Newton's method on the three-term recurrence (the package's rule before
    it moved to Newton in theta).

    Newton's method on P_M runs on the ceil(M/2) nonnegative nodes, from Tricomi's
    guesses (1 - (M - 1)/(8 M^3)) cos(pi (k - 1/4) / (M + 1/2)); the rule is mirrored,
    with an exact 0 in the middle for odd M. P_M and P_M' come from the recurrence in
    place, O(M^2) per pass. The weights take P_M' from one more pass at the converged
    nodes; 2 / ((1 - x^2) P_M'^2) loses up to 1e-10 relative next to x = 1 at M = 2400.
    """
    def legendre(x):
        p0, p1, t = np.ones_like(x), x.copy(), np.empty_like(x)
        for j in range(2, M + 1):
            np.multiply(x, 2 * j - 1, out=t)
            t *= p1
            t -= np.multiply(p0, j - 1, out=p0)
            t /= j
            p0, p1, t = p1, t, p0
        return p1, M * (x * p1 - p0) / (x * x - 1.0)

    x = np.cos(np.pi * (np.arange((M + 1) // 2, 0, -1) - 0.25) / (M + 0.5))
    x *= 1.0 - (M - 1) / (8.0 * M ** 3)
    x[:M % 2] = 0.0
    for _ in range(100):
        p, dp = legendre(x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    _, dp = legendre(x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate((-x[M % 2:][::-1], x)), np.concatenate((w[M % 2:][::-1], w))


def gauss_legendre_decimal(M: int, guesses: Sequence[float],
                           digits: int = 60) -> Tuple[list, list]:
    """Gauss-Legendre nodes of degree M near ``guesses`` and their weights,
    as ``digits``-digit Decimals: Newton's method on the three-term
    recurrence, four steps from each double guess (each step doubles the
    correct digits of a guess within 1e-14), and w = 2 / ((1 - x^2) P_M'^2),
    whose cancellation costs a few of the digits only."""
    def legendre(x):
        p0, p1 = Decimal(1), x
        for j in range(2, M + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, M * (x * p1 - p0) / (x * x - 1)

    nodes, weights = [], []
    with localcontext() as ctx:
        ctx.prec = digits
        for guess in guesses:
            x = Decimal(float(guess))
            for _ in range(4):
                p, dp = legendre(x)
                x -= p / dp
            dp = legendre(x)[1]
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


# ---------------------------------------------------------------------------
# free products by subset expansion
#
# After merging adjacent equal-letter runs, the product of centered runs is
# alternating, so its trace vanishes; solving that relation for the full word
# gives tau(w) = -sum over proper subsets T of runs of
# prod_{i not in T} (-mu_i) * tau(word restricted to T), a recursion that
# strictly lowers total degree.

def _merge_runs(runs: Tuple[Tuple[int, int], ...]) -> Tuple[Tuple[int, int], ...]:
    merged = []
    for letter, power in runs:
        if merged and merged[-1][0] == letter:
            merged[-1] = (letter, merged[-1][1] + power)
        else:
            merged.append((letter, power))
    return tuple(merged)


def free_word_value(word: Sequence[int], marginals: Dict[int, Sequence[float]]) -> float:
    """tau(word) when the letters are freely independent with given marginals.

    ``marginals[letter][p]`` is the p-th power moment (index 0 gives 1).
    """
    memo: Dict[Tuple[Tuple[int, int], ...], float] = {}

    def mom(letter: int, power: int) -> float:
        seq = marginals[letter]
        if power >= len(seq):
            raise ValueError(f"marginal of letter {letter} too short for power {power}")
        return float(seq[power])

    def tau(runs: Tuple[Tuple[int, int], ...]) -> float:
        runs = _merge_runs(runs)
        if not runs:
            return 1.0
        if len(runs) == 1:
            return mom(*runs[0])
        if runs in memo:
            return memo[runs]
        r = len(runs)
        total = 0.0
        for mask in range(2 ** r - 1):
            kept = tuple(runs[i] for i in range(r) if mask >> i & 1)
            coeff = 1.0
            for i in range(r):
                if not (mask >> i & 1):
                    coeff *= -mom(*runs[i])
            if coeff:
                total += coeff * tau(kept)
        memo[runs] = -total
        return -total

    runs = tuple((letter, 1) for letter in word)
    return tau(runs)


# ---------------------------------------------------------------------------
# word traces one word at a time

def word_trace(blocks: Sequence[np.ndarray], word: Tuple[int, ...]) -> np.ndarray:
    """Tr of a nonempty word on blocks of shape (..., N, N), shape (...):
    the word multiplied left to right, its last factor contracted as a trace."""
    prod = blocks[word[0] - 1]
    for g in word[1:-1]:
        prod = prod @ blocks[g - 1]
    if len(word) == 1:
        return np.trace(prod, axis1=-2, axis2=-1)
    return np.einsum("...ij,...ji->...", prod, blocks[word[-1] - 1])


def trace_moment(blocks: Sequence[np.ndarray], word: Tuple[int, ...]):
    """Normalized trace (1/N) Tr of one word on blocks of shape (..., N, N):
    a Python complex for a single tuple, else an array of shape (...)."""
    w = tuple(word)
    shape = np.shape(blocks[0])
    value = word_trace(blocks, w) / shape[-1] if w else np.ones(shape[:-2])
    return complex(value) if np.ndim(value) == 0 else value


# ---------------------------------------------------------------------------
# ball volume by hit-or-miss

def ball_volume_mc(N: int, R: float, samples: int, rng: np.random.Generator,
                   chunk: int = 200000) -> Tuple[float, float]:
    """(log volume, stderr) of the operator-norm ball from box rejection.

    The ball sits inside the entrywise box (diagonal and off-diagonal real
    and imaginary parts all in [-R, R]) whose volume is (2R)^(N^2).
    """
    hits = 0
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        diag = rng.uniform(-R, R, size=(m, N))
        re = rng.uniform(-R, R, size=(m, N, N))
        im = rng.uniform(-R, R, size=(m, N, N))
        mats = np.zeros((m, N, N), dtype=complex)
        iu = np.triu_indices(N, k=1)
        mats[:, iu[0], iu[1]] = re[:, iu[0], iu[1]] + 1j * im[:, iu[0], iu[1]]
        mats = mats + np.conjugate(np.swapaxes(mats, 1, 2))
        mats[:, np.arange(N), np.arange(N)] = diag
        eigs = np.linalg.eigvalsh(mats)
        hits += int(np.count_nonzero(np.abs(eigs).max(axis=1) <= R))
        done += m
    if hits == 0:
        raise RuntimeError("no hits; sample budget far too small")
    p = hits / samples
    log_vol = N * N * math.log(2.0 * R) + math.log(p)
    stderr = math.sqrt((1.0 - p) / (p * samples))
    return log_vol, stderr


# ---------------------------------------------------------------------------
# eigenvalue-only (log-gas) chain for n = 1 models

def log_gas_chain(N: int, R: float, coeffs: Sequence[float], sweeps: int,
                  burnin: int, rng: np.random.Generator,
                  step: float = 0.3) -> np.ndarray:
    """Samples of the eigenvalue density prod|li-lj|^2 exp(-N sum V(li)).

    Single-site Metropolis on [-R, R]^N; returns an array (sweeps, N). This
    is the joint spectral law of the n = 1 Hermitian model, derived here
    directly from the Vandermonde factor rather than from matrix moves.
    """
    lam = np.linspace(-R / 2.0, R / 2.0, N)
    out = np.empty((sweeps, N))
    accepted = 0
    proposed = 0
    scale = step

    def site_logdens(value: float, i: int) -> float:
        diffs = np.abs(value - lam)
        diffs[i] = 1.0
        if np.any(diffs == 0.0):
            return -math.inf
        v = 0.0
        for p, c in enumerate(coeffs):
            if c:
                v += c * value ** p
        return 2.0 * float(np.log(diffs).sum()) - N * v

    total = burnin + sweeps
    for t in range(total):
        for i in range(N):
            proposed += 1
            old = lam[i]
            new = old + scale * rng.normal()
            if abs(new) > R:
                continue
            logr = site_logdens(new, i) - site_logdens(old, i)
            if logr >= 0.0 or rng.random() < math.exp(logr):
                lam[i] = new
                accepted += 1
        if t < burnin and t % 25 == 24:
            acc = accepted / proposed
            scale = min(max(scale * math.exp(1.5 * (acc - 0.4)), 1e-3), R)
            accepted = 0
            proposed = 0
        if t >= burnin:
            out[t - burnin] = lam
    return out


# ---------------------------------------------------------------------------
# pushforward entropy without derivatives
#
# With F the CDF of f on the x grid, the pushed density between y_k = g(x_k)
# is (F_{k+1} - F_k) / (y_{k+1} - y_k); its entropy follows from the cell
# masses alone, so no derivative of g ever enters this route.

def pushed_entropy_from_cdf(xs: np.ndarray, f: np.ndarray, dx: float,
                            ys: np.ndarray) -> float:
    if np.any(np.diff(ys) <= 0):
        raise ValueError("ys must be strictly increasing along xs")
    mass = f * dx
    widths = np.diff(ys)
    cell = (mass[:-1] + mass[1:]) / 2.0
    # endpoints carry half a cell each; fold them into the first and last
    cell[0] += mass[0] / 2.0
    cell[-1] += mass[-1] / 2.0
    keep = cell > 0
    return float(-(cell[keep] * (np.log(cell[keep]) - np.log(widths[keep]))).sum())


def gibbs_cells_2d(terms: Dict[Tuple[int, int], float], R: float,
                   npoints: int = 320) -> np.ndarray:
    """Cell masses of exp(-sum c_ij x^i y^j) on the midpoint grid of the square.

    Commutative stand-in for a two-generator potential at matrix size 1.
    """
    xs, _ = scalar_grid(R, npoints)
    v = np.zeros((npoints, npoints))
    for (i, j), c in terms.items():
        v += c * np.outer(xs ** i, xs ** j)
    v -= v.min()
    p = np.exp(-v)
    return p / p.sum()


def kl_cells(p: np.ndarray, q: np.ndarray) -> float:
    """Discrete KL divergence of matching cell-mass arrays."""
    p, q = np.ravel(p), np.ravel(q)
    if np.any((q <= 0) & (p > 0)):
        return math.inf
    m = p > 0
    return float((p[m] * np.log(p[m] / q[m])).sum())


# ---------------------------------------------------------------------------
# the Harish-Chandra-Itzykson-Zuber integral

def hciz_log(a: Sequence[float], b: Sequence[float], t: float,
             digits: Optional[int] = None) -> float:
    """log E_U exp(t Tr(A U B U^*)) over Haar U in U(N), for Hermitian A and B
    with spectra ``a`` and ``b``.

    Harish-Chandra 1957; Itzykson & Zuber 1980:

        prod_{p<N} p! det[exp(t a_i b_j)] / (t^(N(N-1)/2) Delta(a) Delta(b)),

    with Delta(x) = prod_{i<j} (x_j - x_i) on ascending spectra. The whole
    formula runs in stdlib ``decimal``: exp, a pivoted elimination of the
    plain determinant, the Vandermonde products and the log, by default at
    ceil(|t| spread(a) spread(b) / (2 ln 10)) + 30 digits. Plain double
    precision is not enough: ``slogdet`` of exp(t a_i b_j) was 5.5e-5 nats
    off at N = 8, t = 16 on spectra of c (X - Y)^2 samples in [-2, 2]. At the
    default digits it agreed to the last bit of a double with 300-digit
    mpmath on such spectra at N = 4-16, t = 0.08-32. A negative t stands as it
    is: the determinant and t^(N(N-1)/2) change sign together. Only N <= 16
    and 0 < |t| <= 32 are accepted, and repeated eigenvalues raise.
    """
    a = sorted(float(x) for x in a)
    b = sorted(float(x) for x in b)
    N = len(a)
    if len(b) != N or not 1 <= N <= 16 or not 0.0 < abs(t) <= 32.0:
        raise ValueError("hciz_log needs two spectra of one size N <= 16 and 0 < |t| <= 32")
    if any(x == y for x, y in zip(a, a[1:])) or any(x == y for x, y in zip(b, b[1:])):
        raise ValueError("hciz_log needs simple spectra")
    if digits is None:
        digits = math.ceil(abs(t) * (a[-1] - a[0]) * (b[-1] - b[0]) / (2.0 * math.log(10.0))) + 30
    with localcontext() as ctx:
        ctx.prec = digits
        a, b, t = [Decimal(x) for x in a], [Decimal(x) for x in b], Decimal(t)
        m = [[(t * x * y).exp() for y in b] for x in a]
        det = Decimal(1)
        for k in range(N):
            p = max(range(k, N), key=lambda r: abs(m[r][k]))
            if p != k:
                m[k], m[p], det = m[p], m[k], -det
            det *= m[k][k]
            for r in range(k + 1, N):
                f = m[r][k] / m[k][k]
                m[r] = [m[r][j] - f * m[k][j] for j in range(N)]
        den = t ** (N * (N - 1) // 2)
        for i in range(N):
            for j in range(i + 1, N):
                den *= (a[j] - a[i]) * (b[j] - b[i])
        return float((det * math.prod(math.factorial(p) for p in range(N)) / den).ln())


# ---------------------------------------------------------------------------
# Mehta's bimoment determinant, unsplit

def bimoment_log_det_ratio(x: Sequence[float], log_g: Sequence[float],
                           v1: Sequence[float], v2: Sequence[float], k: float,
                           N: int, digits: int = 50) -> float:
    """log det(1 + C) of Mehta's determinant in split form, taken as
    log det M(t) - log det M_T(t) in stdlib ``decimal`` on the given nodes x
    with log quadrature weights ``log_g``.

    M(t)_jk = sum_{x,y} x^j y^k g_x g_y w1(x) w2(y) exp(t x y), j, k < N, with
    w_i = exp(-N V_i) (``v1``, ``v2`` coefficients, constant first) and
    t = -N k, is the bimoment matrix itself, in the monomial basis; M_T(t) is
    its Taylor part, exp(t x y) cut to sum_{m<N} (t x y)^m / m!, which is
    sum_m t^m / m! a_(j+m) b_(k+m) for the moments a_p of g w1 and b_p of
    g w2. No orthogonal basis, no back substitution and no remainder
    series: both determinants come from
    :func:`matent.orbital._det_by_elimination`, at ``digits`` digits, so
    the monomial basis's conditioning costs nothing at small N.
    """
    from matent.orbital import _det_by_elimination

    with localcontext() as ctx:
        ctx.prec = digits
        xs = [Decimal(float(v)) for v in x]

        def weights(coeffs):
            return [(Decimal(float(lg)) - N * sum(Decimal(float(c)) * xi ** p
                                                  for p, c in enumerate(coeffs))).exp()
                    for xi, lg in zip(xs, log_g)]

        w1, w2 = weights(v1), weights(v2)
        t = -N * Decimal(float(k))
        a = [sum(w * xi ** p for xi, w in zip(xs, w1)) for p in range(2 * N - 1)]
        b = [sum(w * xi ** p for xi, w in zip(xs, w2)) for p in range(2 * N - 1)]
        taylor = [[sum(t ** m / math.factorial(m) * a[j + m] * b[l + m] for m in range(N))
                   for l in range(N)] for j in range(N)]
        right = [[w * xi ** l for l in range(N)] for xi, w in zip(xs, w2)]
        full = [[Decimal(0)] * N for _ in range(N)]
        for xi, w in zip(xs, w1):
            # sum_y exp(t x y) y^l g w2(y), then x^j g w1(x) times it
            row = [Decimal(0)] * N
            for yj, r in zip(xs, right):
                e = (t * xi * yj).exp()
                row = [acc + e * rl for acc, rl in zip(row, r)]
            for j in range(N):
                lead = w * xi ** j
                full[j] = [acc + lead * rl for acc, rl in zip(full[j], row)]
        return float(_det_by_elimination(full).ln() - _det_by_elimination(taylor).ln())
