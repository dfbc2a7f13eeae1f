import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from matent import estimates
from matent.estimates import EstimatorError, ScalarEstimate, pooled_mean

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
small = st.floats(min_value=-100, max_value=100, allow_nan=False)


def test_exact_has_zero_error():
    e = ScalarEstimate.exact(3.25)
    assert e.value == 3.25
    assert e.stderr == 0.0
    assert e.bias_bound == 0.0


def test_nonfinite_value_rejected():
    with pytest.raises(EstimatorError):
        ScalarEstimate(math.nan, 0.1)
    with pytest.raises(EstimatorError):
        ScalarEstimate(math.inf, 0.1)


@given(finite, small, small)
def test_scaled_and_shifted(v, c, d):
    e = ScalarEstimate(v, 0.5, count=10, bias_bound=0.2)
    s = e.scaled(c)
    assert s.value == pytest.approx(v * c)
    assert s.stderr == pytest.approx(0.5 * abs(c))
    assert s.bias_bound == pytest.approx(0.2 * abs(c))
    t = e.shifted(d)
    assert t.value == pytest.approx(v + d)
    assert t.stderr == 0.5
    assert t.bias_bound == 0.2
    assert t.count == 10


def test_batch_stderr_iid_scale():
    rng = np.random.default_rng(0)
    xs = rng.normal(0.0, 2.0, size=4000)
    est, _ = pooled_mean(xs)
    naive = 2.0 / math.sqrt(4000)
    assert est.value == pytest.approx(xs.mean())
    assert est.stderr == pytest.approx(naive, rel=0.5)
    assert est.count == 4000


def test_pooled_mean_iid_scale():
    # an i.i.d. series: stderr about sigma / sqrt(n) and tau about 1
    rng = np.random.default_rng(0)
    xs = rng.normal(0.0, 2.0, size=20000)
    est, tau = pooled_mean(xs)
    assert est.value == pytest.approx(xs.mean())
    assert est.stderr == pytest.approx(2.0 / math.sqrt(xs.size), rel=0.15)
    assert est.count == xs.size
    assert tau == pytest.approx(1.0, abs=0.15)


def test_pooled_mean_short_series_has_unit_tau():
    est, tau = pooled_mean(np.array([1.0, 2.0, 4.0, 3.0, 5.0, 4.5, 6.0]))
    assert tau == 1.0
    assert est.value == pytest.approx(25.5 / 7)
    assert est.stderr > 0


def test_pooled_mean_needs_two_points_in_one_or_two_dimensions():
    for bad in (np.array([]), np.array([1.0]), np.ones((1, 1)), np.ones((2, 3, 4))):
        with pytest.raises(ValueError):
            pooled_mean(bad)


def test_pooled_mean_correlated_exceeds_naive():
    # an AR(1) series has a larger true error than the iid formula
    rng = np.random.default_rng(1)
    n, rho = 8000, 0.95
    xs = np.empty(n)
    xs[0] = rng.normal()
    for i in range(1, n):
        xs[i] = rho * xs[i - 1] + math.sqrt(1 - rho ** 2) * rng.normal()
    est, _ = pooled_mean(xs)
    naive = xs.std(ddof=1) / math.sqrt(n)
    assert est.stderr > 1.5 * naive


@pytest.mark.parametrize("n", [2, 7, 8, 129, 4096])
def test_pooled_mean_one_chain_is_one_walker(n):
    # a 1-d series and the same series as a (1, T) walker array give the same bits
    xs = np.random.default_rng(n).normal(3.0, 5.0, size=n)
    assert pooled_mean(xs) == pooled_mean(xs.reshape(1, -1))
    assert pooled_mean(xs)[0].value == float(xs.mean())


def _ar1(rho, T, seed):
    rng = np.random.default_rng(seed)
    x = np.empty(T)
    x[0] = rng.normal() / math.sqrt(1 - rho ** 2)
    for i in range(1, T):
        x[i] = rho * x[i - 1] + rng.normal()
    return x


def _ar2(phi1, phi2, T, seed):
    rng = np.random.default_rng(seed)
    x = np.zeros(T + 200)
    for i in range(2, T + 200):
        x[i] = phi1 * x[i - 1] + phi2 * x[i - 2] + rng.normal()
    return x[200:]


def _split_walkers(T):
    return np.random.default_rng(16).normal(size=(2, T)) + np.array([[0.0], [10.0]])


LAG_CASES = {
    "iid": np.random.default_rng(10).normal(1.0, 2.0, size=10000),
    "ar1-0.5": _ar1(0.5, 10000, 11),
    "ar1-0.99": _ar1(0.99, 10000, 12),
    # AR(2) with rho_1 = -2/3: every odd lag is negative but every pair sum
    # positive, and tau is about 2.7, so a cut on single lags shows
    "ar2-alternating": _ar2(-0.1, 0.85, 10000, 17),
    # 8 walkers whose means differ: the spread keeps every lag correlated
    "offset-walkers": (np.random.default_rng(13).normal(size=(8, 2000))
                       + 0.1 * np.arange(8)[:, None]),
    "T7": np.random.default_rng(14).normal(size=7),
    "constant": np.full(50, 2.5),
    # the mean 0.10000000000000002 leaves every deviation at -1.4e-17
    "constant-0.1": np.full(1000, 0.1),
    "constant-0.1-walkers": np.full((8, 125), 0.1),
    "odd-T": _ar1(0.5, 1001, 15),
    # two walkers 10 apart reach no cut, and every lag in whole pairs is summed
    "split-walkers-T65": _split_walkers(65),
    "split-walkers-T66": _split_walkers(66),
}


class _FftSpy:
    """Stands in for ``np.fft``: records each function called, then calls it."""

    def __init__(self, real):
        self.real, self.calls = real, []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self.calls.append(name)
            return getattr(self.real, name)(*args, **kwargs)
        return call


@pytest.mark.parametrize("case", sorted(LAG_CASES))
def test_pooled_mean_matches_dense_lag_sums(monkeypatch, case):
    # the lags summed up to Geyer's cut give the value, stderr and tau that
    # summing every lag gives, and no series calls np.fft
    series = LAG_CASES[case]
    spy = _FftSpy(np.fft)
    monkeypatch.setattr(estimates.np, "fft", spy)
    est, tau = pooled_mean(series)
    mean, stderr, want_tau = oracles.pooled_mean_dense(series)
    assert est.value == pytest.approx(mean, rel=1e-12, abs=0.0)
    assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0.0)
    assert tau == pytest.approx(want_tau, rel=1e-12, abs=0.0)
    assert est.count == np.size(series)
    assert spy.calls == []
    if case == "ar1-0.99":
        assert tau > 100.0
    if case.startswith("constant"):
        assert (tau, est.stderr) == (1.0, 0.0)
