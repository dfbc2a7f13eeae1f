"""Hermitian matrix tuples, block maps, Haar unitaries, and the compression map.

A :class:`BlockMap` assigns tuple positions to conjugation groups and
:func:`haar_unitary_batch` draws the unitaries; the one conjugation of a
tuple that runs use is :func:`matent.orbital._relative_copies`, which
rotates groups 1..ell-1 relative to group 0.

The compression map used for range reduction is the odd piecewise function
whose slope profile is 1 on [-S, S], the constant alpha on [R, T] (and its
mirror), and linear in between, with alpha = (R - S) / (2T - (R + S)) chosen
so that [-T, T] maps onto [-R, R]. Its two-variable divided-difference
Jacobian drives the entropy cost of pushing a spectral distribution forward,
bounded by N^2 |log alpha| per block.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "HERMITIAN_TOL",
    "NORM_SLACK",
    "MatrixTuple",
    "BlockMap",
    "CompressionFn",
    "haar_unitary_batch",
    "operator_norm",
    "in_norm_ball",
    "log_jacobian_functional_calculus",
    "hermitize",
]

HERMITIAN_TOL = 1e-12
NORM_SLACK = 1e-9
DEGENERATE_GAP = 1e-10


def hermitize(m: np.ndarray) -> np.ndarray:
    """Nearest Hermitian matrix (average with own adjoint), of each matrix
    in a stack of shape (..., N, N)."""
    return (m + np.swapaxes(m.conj(), -1, -2)) / 2.0


@dataclass(frozen=True)
class MatrixTuple:
    """An n-tuple of N x N Hermitian matrices with operator norm <= R.

    Construction validates hermiticity (entrywise, absolute 1e-12) and the
    norm bound (slack 1e-9); blocks are stored read-only.
    """

    n: int
    N: int
    R: float
    blocks: Tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.N < 1 or not (self.R > 0):
            raise ValueError("need n >= 1, N >= 1, R > 0")
        if len(self.blocks) != self.n:
            raise ValueError(f"expected {self.n} blocks, got {len(self.blocks)}")
        frozen = []
        for i, b in enumerate(self.blocks):
            arr = np.array(b, dtype=complex)
            if arr.shape != (self.N, self.N):
                raise ValueError(f"block {i} has shape {arr.shape}, want ({self.N}, {self.N})")
            if np.max(np.abs(arr - arr.conj().T)) > HERMITIAN_TOL:
                raise ValueError(f"block {i} is not Hermitian within {HERMITIAN_TOL}")
            nrm = operator_norm(arr)
            if nrm > self.R + NORM_SLACK:
                raise ValueError(f"block {i} has norm {nrm:.12g} > R = {self.R}")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "blocks", tuple(frozen))

    @classmethod
    def zero(cls, n: int, N: int, R: float) -> "MatrixTuple":
        return cls(n, N, R, tuple(np.zeros((N, N), dtype=complex) for _ in range(n)))

    def to_json(self) -> str:
        payload = {
            "n": self.n,
            "N": self.N,
            "R": self.R,
            "blocks": [
                np.column_stack([b.real.ravel(), b.imag.ravel()]).ravel().tolist()
                for b in self.blocks
            ],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MatrixTuple":
        obj = json.loads(text)
        N = int(obj["N"])
        blocks = []
        for flat in obj["blocks"]:
            arr = np.asarray(flat, dtype=float).reshape(N * N, 2)
            blocks.append((arr[:, 0] + 1j * arr[:, 1]).reshape(N, N))
        return cls(int(obj["n"]), N, float(obj["R"]), tuple(blocks))


@dataclass(frozen=True)
class BlockMap:
    """Assignment of the n tuple positions to ell conjugation groups.

    ``groups[i]`` is the 0-based group of position i; every group in
    0..ell-1 must be hit. The two common cases: one shared group (global
    conjugation, which preserves all trace moments) and the full partition
    (independent conjugation of every position).
    """

    groups: Tuple[int, ...]

    def __post_init__(self) -> None:
        g = tuple(int(x) for x in self.groups)
        if not g:
            raise ValueError("empty block map")
        ell = max(g) + 1
        if min(g) < 0 or set(g) != set(range(ell)):
            raise ValueError(f"groups {g} do not cover 0..{ell - 1}")
        object.__setattr__(self, "groups", g)

    @property
    def n(self) -> int:
        return len(self.groups)

    @property
    def ell(self) -> int:
        return max(self.groups) + 1

    @property
    def max_group_size(self) -> int:
        return max(self.groups.count(g) for g in range(self.ell))

    @classmethod
    def full(cls, n: int) -> "BlockMap":
        return cls(tuple(range(n)))


# unexported, and kept only for bench/layers.py, whose tracer wraps this name
def haar_unitary(N: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed N x N unitary (a batch of one)."""
    return haar_unitary_batch(1, N, rng)[0]


def haar_unitary_batch(count: int, N: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``count`` independent Haar unitaries: the QR of ``count``
    complex Ginibre matrices with the R-diagonal phases divided out, which
    makes the factorization unique and the Q factors exactly Haar. Each
    matrix gets the bits it gets alone."""
    q, r = np.linalg.qr((rng.standard_normal((count, N, N))
                         + 1j * rng.standard_normal((count, N, N))) / math.sqrt(2.0))
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def operator_norm(m: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix."""
    return float(np.max(np.abs(np.linalg.eigvalsh(m))))


@functools.lru_cache(maxsize=None)
def _scaled_identity(N: int, scale: float) -> np.ndarray:
    """scale times the N x N identity, read-only."""
    out = scale * np.eye(N)
    out.setflags(write=False)
    return out


def in_norm_ball(m: np.ndarray, R: float) -> np.ndarray:
    """Whether each Hermitian matrix of a stack (..., N, N) has operator norm
    below R, as a boolean array of shape (...).

    ||M|| < R exactly when R^2 I - M^2 is positive definite, which one batched
    product and one batched Cholesky decide; R^2 I is built once per (N, R).
    numpy's Cholesky gufunc fills a failed factor with NaN (and warns), so
    each matrix gets its own verdict; ``np.linalg.cholesky`` would raise at
    the first failure of the stack. A matrix whose square overflows is
    outside every ball, and gets that verdict without a warning.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        gap = m @ m
        np.subtract(_scaled_identity(gap.shape[-1], R * R), gap, out=gap)
        factor = _umath_linalg.cholesky_lo(gap)
    return np.isfinite(factor[..., -1, -1])


@dataclass(frozen=True)
class CompressionFn:
    """Odd piecewise map squeezing [-T, T] onto [-R, R], identity on [-S, S].

    The slope is 1 on [-S, S], alpha on R <= |t| <= T, and interpolates
    linearly in between; alpha = (R - S) / (2T - (R + S)).
    """

    T: float
    R: float
    S: float

    def __post_init__(self) -> None:
        if not (self.T > self.R > self.S > 0):
            raise ValueError(f"need T > R > S > 0, got {self.T}, {self.R}, {self.S}")

    @property
    def alpha(self) -> float:
        return (self.R - self.S) / (2.0 * self.T - (self.R + self.S))

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        a = np.abs(x)
        sgn = np.where(x >= 0, 1.0, -1.0)
        al = self.alpha
        L = self.R - self.S
        out = np.array(x, dtype=float)
        ramp = (a > self.S) & (a <= self.R)
        u = a[ramp] - self.S
        out[ramp] = sgn[ramp] * (self.S + al * u + (1 - al) * u * (1 - u / (2 * L)))
        g_at_r = self.S + (1 + al) * L / 2.0
        outer = a > self.R
        out[outer] = sgn[outer] * (g_at_r + al * (a[outer] - self.R))
        return float(out[0]) if scalar else out

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        a = np.abs(np.atleast_1d(x))
        al = self.alpha
        out = np.full(a.shape, al)
        out[a <= self.S] = 1.0
        ramp = (a > self.S) & (a < self.R)
        out[ramp] = al + (1 - al) * (self.R - a[ramp]) / (self.R - self.S)
        return float(out[0]) if scalar else out


def log_jacobian_functional_calculus(m: np.ndarray, fn: CompressionFn) -> float:
    """Log-Jacobian of spectral application of ``fn`` at a Hermitian matrix.

    Sum over eigenvalue pairs (i, j) of log |Dg(lam_i, lam_j)| with Dg the
    divided difference (the derivative at the midpoint when the gap is below
    1e-10). Equal to N log g'(lam) at N = 1 and bounded below by
    N^2 log alpha for a compression map.
    """
    lam = np.linalg.eigvalsh(m)
    g = np.asarray(fn(lam))
    diff = lam[:, None] - lam[None, :]
    close = np.abs(diff) < DEGENERATE_GAP
    safe = np.where(close, 1.0, diff)
    dd = (g[:, None] - g[None, :]) / safe
    mid = np.asarray(fn.derivative((lam[:, None] + lam[None, :]) / 2.0))
    dd = np.where(close, mid, dd)
    return float(np.sum(np.log(np.abs(dd))))
