import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matent.estimates import EstimatorError, ScalarEstimate, combine_linear, pooled_mean

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


def test_combine_linear_quadrature():
    a = ScalarEstimate(1.0, 0.3, count=5, bias_bound=0.1)
    b = ScalarEstimate(2.0, 0.4, count=7, bias_bound=0.05)
    c = combine_linear([(2.0, a), (-1.0, b)], constant=0.5)
    assert c.value == pytest.approx(2.0 - 2.0 + 0.5)
    assert c.stderr == pytest.approx(math.sqrt((2 * 0.3) ** 2 + 0.4 ** 2))
    assert c.bias_bound == pytest.approx(2 * 0.1 + 0.05)


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
