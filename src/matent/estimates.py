"""Scalar estimates with error bookkeeping shared by all estimators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScalarEstimate",
    "EstimatorError",
    "combine_linear",
    "logsumexp",
    "mean_with_batch_stderr",
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


def combine_linear(terms, constant: float = 0.0) -> ScalarEstimate:
    """Linear combination of independent estimates.

    ``terms`` is an iterable of ``(coefficient, ScalarEstimate)``. Standard
    errors combine in quadrature (independence assumed by the caller); bias
    bounds add up in absolute value.
    """
    value = float(constant)
    var = 0.0
    bias = 0.0
    count = 0
    for coeff, est in terms:
        value += coeff * est.value
        var += (coeff * est.stderr) ** 2
        bias += abs(coeff) * est.bias_bound
        count = max(count, est.count)
    return ScalarEstimate(value, math.sqrt(var), count, bias)


def mean_with_batch_stderr(xs) -> ScalarEstimate:
    """Mean of a (possibly autocorrelated) series with batch-means stderr.

    The series is split into 20 contiguous batches; the spread of the batch
    means absorbs autocorrelation without an explicit correlation-time fit.
    Falls back to the naive stderr when the series has fewer than 80 points.
    """
    nbatch = 20
    x = np.asarray(xs, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need a 1-d series of at least 2 points")
    mean = float(x.mean())
    if x.size < 4 * nbatch:
        se = float(x.std(ddof=1) / math.sqrt(x.size))
        return ScalarEstimate(mean, se, int(x.size))
    usable = (x.size // nbatch) * nbatch
    bm = x[:usable].reshape(nbatch, -1).mean(axis=1)
    se = float(bm.std(ddof=1) / math.sqrt(nbatch))
    return ScalarEstimate(mean, se, int(x.size))


def logsumexp(a: np.ndarray) -> float:
    """log sum_i exp(a_i), with the maxima summed apart as scipy.special.logsumexp does."""
    mx = a.max()
    top = a == mx
    w = np.exp(a - mx)
    w[top] = 0.0
    return float(np.log1p(w.sum() / top.sum()) + np.log(top.sum()) + mx)
