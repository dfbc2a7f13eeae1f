"""Scalar estimates with error bookkeeping shared by all estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = [
    "ScalarEstimate",
    "EstimatorError",
    "logsumexp",
    "pooled_mean",
]


class EstimatorError(RuntimeError):
    """A Monte Carlo estimator failed to produce a usable value."""


@dataclass(frozen=True)
class ScalarEstimate:
    """A real number with a one-sigma statistical error.

    Parameters
    ----------
    value : float
        The estimate itself.
    stderr : float
        Nonnegative one-sigma statistical error; exactly known values carry 0.
    count : int
        Number of (possibly correlated) samples behind the estimate; 0 for
        exact values.
    bias_bound : float
        Bound on known systematic error (quadrature discretization, nested
        inner-average bias), reported separately from the statistical error.
    """

    value: float
    stderr: float
    count: int = 0
    bias_bound: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise EstimatorError(f"estimate is not finite: {self.value!r}")
        if not (self.stderr >= 0.0):
            raise ValueError(f"stderr must be nonnegative, got {self.stderr!r}")

    @classmethod
    def exact(cls, value: float) -> "ScalarEstimate":
        return cls(float(value), 0.0, 0)

    def scaled(self, c: float) -> "ScalarEstimate":
        return ScalarEstimate(c * self.value, abs(c) * self.stderr,
                              self.count, abs(c) * self.bias_bound)

    def shifted(self, c: float) -> "ScalarEstimate":
        return ScalarEstimate(self.value + c, self.stderr, self.count,
                              self.bias_bound)


def pooled_mean(series) -> Tuple[ScalarEstimate, float]:
    """Mean of a Monte Carlo series with its IAT-inflated stderr; and that IAT.

    A 1-d array is one chain; the rows of a (K, T) array are K lockstep
    walkers, pooled. The autocovariance at lag t is the average over the
    walkers and their T - t pairs of products about the grand mean, so its
    lag-0 value, the pooled variance, counts the spread between walker means
    too (Gelman & Rubin 1992): walkers that disagree keep every lag
    correlated and the IAT large. The IAT tau is Geyer's (1992) initial
    monotone sequence estimate, 2 sum_m G_m - 1 over the pair sums
    G_m = rho_2m + rho_2m+1 of the autocorrelations, cut at the first
    G_m <= 0 and made non-increasing. The stderr is sqrt(var tau / (K T)),
    and K T / tau the ESS summed over walkers. Series of fewer than 8 steps,
    or with no spread (every point equal), get tau = 1, and the latter
    stderr 0. Fewer than 2 points in all, or an array that is neither 1-d
    nor 2-d, raise ``ValueError``.

    The lags are summed directly, two per pair, up to the cut: O(K T L) for
    L lags. L is 3-11 on matrix-fit's 10,000 exact draws, at most 51 on
    orbital's 128-sample series, and up to a few hundred on a default TI
    node's 2,000 chain steps (120-610 for X^2 + Y^2 + 0.3 (X^2 Y^2 + Y^2
    X^2) at N = 8). A series that reaches no cut, which happens only when its IAT
    approaches its length, sums all T lags: O(K T^2).
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.size < 2:
        raise ValueError(f"need a 1-d or (K, T) series of at least 2 points, "
                         f"got shape {np.shape(series)}")
    K, T = x.shape
    mean = float(x.mean())
    d = x - mean
    # the mean of equal points may not round back to them, nor d to 0
    var = float(np.einsum("kt,kt->", d, d)) / (K * T) if np.ptp(x) > 0 else 0.0
    tau = 1.0
    if T >= 8 and var > 0.0:
        cov = [var]
        # the lags of whole pairs: all but the last of an odd T
        for t in range(1, T - T % 2):
            cov.append(float(np.einsum("kt,kt->", d[:, :T - t], d[:, t:])) / (K * (T - t)))
            if t % 2 and cov[t - 1] + cov[t] <= 0.0:
                break
        # only the last pair can be the cut
        pairs = np.reshape(cov, (-1, 2)).sum(axis=1) / var
        pairs = np.minimum.accumulate(pairs[pairs > 0.0])
        tau = max(1.0, 2.0 * float(pairs.sum()) - 1.0)
    return ScalarEstimate(mean, math.sqrt(var * tau / (K * T)), K * T), tau


def logsumexp(a: np.ndarray) -> float:
    """log sum_i exp(a_i), with the maxima summed apart as scipy.special.logsumexp does."""
    mx = a.max()
    top = a == mx
    w = np.exp(a - mx)
    w[top] = 0.0
    return float(np.log1p(w.sum() / top.sum()) + np.log(top.sum()) + mx)
