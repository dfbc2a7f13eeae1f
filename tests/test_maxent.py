import math
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest

import oracles
from matent import maxent, sampler
from matent.maxent import (FitOptions, InfeasibleTargetError, build_dual_basis,
                           eta_bound_check, fit_projection,
                           free_pressure, log_energy_quadrature,
                           one_variable_chi_reference, potential_from_coeffs,
                           reference_constant, target_vector)
from matent.moments import MomentSpec, free_product_moments, semicircle_moments
from matent.ncpoly import NcPoly
from matent.sampler import GibbsModel, TIOptions, _heine_log_I, estimate_log_I
from matent.streams import substream

FAST = FitOptions(iterations=60, steps_per_iter=200, discard_per_iter=40,
                  step_size=4.0, min_iterations=15, final_steps=4000,
                  final_burnin=800,
                  ti=TIOptions(nodes=21, node_steps=800))


def test_dual_basis_structure():
    b1 = build_dual_basis(1, 4)
    assert list(b1.labels) == ["re:1", "re:1.1", "re:1.1.1", "re:1.1.1.1"]
    assert list(b1.degrees) == [1, 2, 3, 4]
    assert all(e.poly.is_self_adjoint() for e in b1.elements)
    # chiral classes first contribute imaginary-part elements at n=3, K=3
    b3 = build_dual_basis(3, 3)
    im = [e for e in b3.elements if e.kind == "im"]
    assert len(im) == 1 and im[0].word == (1, 2, 3)
    assert im[0].poly.is_self_adjoint()
    b2 = build_dual_basis(2, 6)
    assert any(e.kind == "im" for e in b2.elements)
    assert all(e.degree == 6 for e in b2.elements if e.kind == "im")


@pytest.mark.parametrize("n, K", [(2, 2), (2, 4), (3, 2), (3, 4)])
def test_basis_measurer_matches_element_definition(n, K):
    # the moment (1/N) Tr b_j of each basis element, re and im alike, from
    # its own word's trace and from the element's evaluated polynomial
    basis = build_dual_basis(n, K)
    walkers, N = 4, 3
    rng = substream(19, "measurer")
    g = rng.standard_normal((n, walkers, N, N)) + 1j * rng.standard_normal((n, walkers, N, N))
    blocks = (g + np.swapaxes(g.conj(), -1, -2)) / 2
    got = maxent._BasisMeasurer(basis).from_state(blocks)
    assert got.shape == (walkers, len(basis))
    assert any(el.kind == "im" for el in basis.elements) == (n == 3 and K >= 3)
    for j, el in enumerate(basis.elements):
        tm = oracles.trace_moment(blocks, el.word)
        want = tm.real if el.kind == "re" else tm.imag
        np.testing.assert_allclose(got[:, j], want, rtol=1e-12, atol=1e-14)
        value = np.trace(el.poly.evaluate(blocks), axis1=-2, axis2=-1) / N
        np.testing.assert_allclose(got[:, j], value.real, rtol=1e-12, atol=1e-13)


def test_target_vector_semicircle():
    basis = build_dual_basis(1, 4)
    tau = semicircle_moments(1.0, 4)
    np.testing.assert_allclose(target_vector(tau, basis), [0.0, 1.0, 0.0, 2.0],
                               atol=1e-12)


def test_scalar_quadrature_log_i_matches_oracle():
    R = 2.0
    rng = substream(0, "quad")
    for _ in range(4):
        basis = build_dual_basis(1, 3)
        coeffs = rng.uniform(-0.6, 0.6, size=len(basis.elements))
        pot = NcPoly(1, {(1,): coeffs[0], (1, 1): coeffs[1], (1, 1, 1): coeffs[2]})
        got = estimate_log_I(GibbsModel(1, 1, R, pot))
        want = oracles.log_i_quad([0.0, coeffs[0], coeffs[1], coeffs[2]], R)
        assert got.value == pytest.approx(want, abs=1e-5)


def test_scalar_oracle_gaussian_case():
    res = oracles.scalar_maxent_oracle({2: 1.0}, R=4.0)
    assert res.converged
    assert res.duality_gap <= 1e-9
    assert res.theta[res.powers.index(2)] == pytest.approx(-0.5, abs=5e-3)
    assert res.entropy == pytest.approx(0.5 * math.log(2 * math.pi * math.e), abs=2e-3)


def test_scalar_oracle_tilt_matches_langevin_inversion():
    R = 2.0
    for mean in (-0.9, 0.25, 0.8):
        res = oracles.scalar_maxent_oracle({1: mean}, R=R)
        want = oracles.tilt_for_mean(mean, R)
        assert res.theta[res.powers.index(1)] == pytest.approx(want, abs=1e-4)


def test_scalar_oracle_moments_reproduced():
    res = oracles.scalar_maxent_oracle({1: 0.3, 2: 1.1}, R=2.0)
    xs, dens = res.xs, res.density
    dx = xs[1] - xs[0]
    assert float((dens * xs).sum() * dx) == pytest.approx(0.3, abs=1e-6)
    assert float((dens * xs ** 2).sum() * dx) == pytest.approx(1.1, abs=1e-6)


def test_scalar_oracle_infeasible_raises():
    with pytest.raises(ValueError, match="outside the moment body"):
        oracles.scalar_maxent_oracle({2: 4.5}, R=2.0)


def test_fit_projection_scalar_agrees_with_newton_oracle():
    # the exact fit at N = 1 and the grid oracle (scipy's BFGS) solve one moment
    # problem on independent quadratures (Gauss-Legendre nodes and a midpoint grid)
    R = 2.0
    for cons in ({1: 0.3, 2: 1.1}, {1: -0.5, 2: 0.8}):
        tau = MomentSpec(1, 2, R, {(1,) * p: v for p, v in cons.items()})
        fit = fit_projection(tau, 1, 2, rng=substream(1, "n1"))
        assert fit.converged
        want = oracles.scalar_maxent_oracle(cons, R).entropy
        assert fit.rho.value == pytest.approx(want, abs=1e-6)


SEMICIRCLE_R4 = semicircle_moments(1.0, 4, radius=4.0)


@pytest.mark.parametrize("N, chi", [(16, 1.094024), (8, 1.115658)])
def test_exact_fit_chi_tilde_values(N, chi):
    # finite-N maxent values of the semicircle target (K = 4, R = 4): the
    # benchmark's readme-rho and chi-recipe-8 ops
    fit = fit_projection(SEMICIRCLE_R4, N, 4, rng=substream(13, "chi", N))
    assert fit.converged
    assert fit.chi.value == pytest.approx(chi, abs=1e-5)
    assert fit.rho.stderr == 0.0 and fit.energy.stderr == 0.0
    # rho and the dual differ by the residual cost, which is rounding here
    assert abs(fit.rho.value - fit.dual_value.value) <= fit.energy.bias_bound + 1e-12
    assert fit.energy.bias_bound <= 1e-8
    # log I is Heine's at the fitted potential
    assert fit.log_i.value == _heine_log_I(fit.model).value


def test_exact_fit_recovers_quadratic_at_n32():
    fit = fit_projection(SEMICIRCLE_R4, 32, 4, rng=substream(13, "n32"))
    coeffs = dict(zip(fit.basis.labels, fit.coeffs))
    assert coeffs["re:1.1"] == pytest.approx(0.49903, abs=1e-5)
    assert coeffs["re:1.1.1.1"] == pytest.approx(0.00024, abs=1e-5)
    assert abs(coeffs["re:1"]) < 1e-9 and abs(coeffs["re:1.1.1"]) < 1e-9
    assert 0 < fit.iterations == len(fit.trajectory["residual_max_scaled"]) <= 20


def test_exact_fit_free_pair_marginal():
    # one semicircle marginal of the free-pair-4 target (N = 4, K = 2, R = 2);
    # the pair's maxent value is twice this
    fit = fit_projection(semicircle_moments(1.0, 2, radius=2.0), 4, 2,
                         rng=substream(13, "marginal"))
    assert fit.rho.value == pytest.approx(7.390099, abs=1e-6)


def test_separable_oracle_matches_exact_fit():
    # two independent one-matrix routes: Hankel determinants with BFGS, and
    # the orthogonal-polynomial Newton fit; free-pair-4's value is 14.780197
    fit = fit_projection(semicircle_moments(1.0, 2, radius=2.0), 4, 2,
                         rng=substream(13, "marginal"))
    want = oracles.separable_pair_rho([0.0, 1.0], 4, 2.0)
    assert want == pytest.approx(14.780197, abs=1e-6)
    assert 2 * fit.rho.value == pytest.approx(want, abs=1e-8)


def test_chain_newton_fit_covers_separable_oracle(monkeypatch):
    # the n = 2 Monte Carlo Newton route on free-pair-4's target lands within
    # its error bars of the exact separable maximum entropy; the exact K = 2
    # route is refused (no Mehta log I at the fitted model), so the fit falls
    # back to Monte Carlo Newton
    monkeypatch.setattr(maxent, "_mehta_log_I", lambda model: None)
    half = semicircle_moments(1.0, 2, radius=2.0)
    tau = free_product_moments([half, half], 2)
    want = oracles.separable_pair_rho([0.0, 1.0], 4, 2.0)
    opts = FitOptions(iterations=60, steps_per_iter=600, discard_per_iter=120,
                      final_steps=10000, final_burnin=2000,
                      ti=TIOptions(nodes=21, node_burnin=200, node_steps=1000))
    for seed in range(3):
        fit = fit_projection(tau, 4, 2, opts=opts, rng=substream(seed, "pair-oracle"))
        assert fit.iterations <= 40
        assert abs(fit.rho.value - want) <= 3 * fit.rho.stderr + fit.rho.bias_bound
        # the dual exceeds the maximum by at most its decrement, up to noise
        assert abs(fit.dual_value.value - want) <= (3 * fit.dual_value.stderr
                                                    + fit.dual_value.bias_bound)
        traj = fit.trajectory
        assert len(traj["chain_steps"]) == len(traj["decrement"]) == fit.iterations
        # 10000 >> 4 is the first length at or above 600; it doubles every
        # iterate, then stays at final_steps
        assert traj["chain_steps"] == [min(10000, 625 << t) for t in range(fit.iterations)]
        assert traj["final_ess"] > 0 and 0 < traj["final_acceptance"] < 1


def _pair_log_i(N, R, basis, mu):
    scales = R ** basis.degrees.astype(float)
    return sampler._mehta_log_I(GibbsModel(2, N, R, potential_from_coeffs(basis, mu / scales)))


@pytest.mark.parametrize("N, R, lam", [
    (4, 2.0, [0.1, -0.05, 0.5, 0.0, 0.6]),  # s = 0, free-pair-4's optimum
    (4, 2.0, [0.1, -0.05, 0.5, 1e-12 / 16, 0.6]),  # |s| = 1e-12
    (4, 2.0, [0.1, -0.05, 0.5, 0.7 / 4, 0.6]),  # s = -2.8, the series in one block
    (4, 2.0, [0.1, -0.05, 0.5, -0.3, 0.6]),  # s = 4.8 > N, the series in column blocks
    (3, 1.5, [0.3, 0.2, -0.4, 0.9, 0.1]),  # s = -6.1 < -N
])
def test_pair_moments_are_derivatives_of_mehta_log_i(N, R, lam):
    # E f_j = -(1/N^2) d log I / d mu_j, against central differences of the
    # determinant route of log I
    basis = build_dual_basis(2, 2)
    mu = np.array(lam) * R ** basis.degrees.astype(float)
    nodes = _pair_log_i(N, R, basis, mu).count
    value, moments = maxent._pair_moments(basis, N, R, nodes)(mu[None])[0]
    h = 1e-4
    for j in range(len(mu)):
        step = h * np.eye(len(mu))[j]
        diff = (_pair_log_i(N, R, basis, mu + step).value
                - _pair_log_i(N, R, basis, mu - step).value) / (2 * h)
        assert moments[j] == pytest.approx(-diff / N ** 2, abs=1e-8)
    # and the value is log I up to a constant that does not depend on mu: one
    # evaluator on the same nodes, so the two differ by rounding alone (up to
    # 3.6e-15 on these cases, 7.1e-14 over random models of N <= 5)
    other = np.array([0.0, 0.02, 0.3, 0.1, 0.4]) * R ** basis.degrees.astype(float)
    assert (value - maxent._pair_moments(basis, N, R, nodes)(other[None])[0][0]) == pytest.approx(
        _pair_log_i(N, R, basis, mu).value - _pair_log_i(N, R, basis, other).value, abs=1e-13)


def test_pair_moments_match_the_gaussian_pair():
    # a (X^2 + Y^2) - c (XY + YX) on the ball of radius 6 is the all-space
    # Gaussian pair to well below 1e-10; its moments are derivatives of its
    # closed-form log I: E Tr X^2 = -(1/2N) d/da, E Tr XY = (1/2N) d/dc
    N, R, a, c, h = 4, 6.0, 1.0, 0.25, 1e-5
    basis = build_dual_basis(2, 2)
    assert basis.labels == ("re:1", "re:2", "re:1.1", "re:1.2", "re:2.2")
    mu = np.array([0.0, 0.0, a, -2 * c, a]) * R ** basis.degrees.astype(float)
    nodes = _pair_log_i(N, R, basis, mu).count
    _, moments = maxent._pair_moments(basis, N, R, nodes)(mu[None])[0]
    d_a = (oracles.gaussian_pair_log_I(a + h, c, N) - oracles.gaussian_pair_log_I(a - h, c, N)) / (2 * h)
    d_c = (oracles.gaussian_pair_log_I(a, c + h, N) - oracles.gaussian_pair_log_I(a, c - h, N)) / (2 * h)
    want = np.array([0.0, 0.0, -d_a / (2 * N), d_c / (2 * N), -d_a / (2 * N)]) / (N * R ** basis.degrees)
    np.testing.assert_allclose(moments, want, rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("N, want_x2, want_xy", [(4, 1.78748, 1.56478), (8, 1.82827, 1.60410)])
def test_pair_moments_match_the_coupled_pair(N, want_x2, want_xy):
    # c (X - Y)^2 at R = 2, c = 1 does not factorize: E tr X^2 and E tr XY
    # against the values from the derivatives of Mehta's log I (s = 64 at N = 8,
    # the remainder's series in column blocks); the model is symmetric in X
    # and Y, and the two sides' moments, taken in the two solve orders, agree
    # to rounding
    R, c = 2.0, 1.0
    basis = build_dual_basis(2, 2)
    mu = np.array([0.0, 0.0, c, -2 * c, c]) * R ** basis.degrees.astype(float)
    nodes = _pair_log_i(N, R, basis, mu).count
    _, moments = maxent._pair_moments(basis, N, R, nodes)(mu[None])[0]
    x2, xy, y2 = moments[2:] * R ** 2
    assert x2 == pytest.approx(want_x2, abs=1e-5) and y2 == pytest.approx(want_x2, abs=1e-5)
    assert xy == pytest.approx(want_xy, abs=1e-5)
    assert abs(x2 - y2) <= 1e-9


def test_pair_moments_refuse_a_swap_spread():
    # V1 = 0.1 x + 0.5 x^2, V2 = -0.05 y + 0.6 y^2, k = -2 at N = 8, R = 2
    # (s = 64): the two solve orders of the split form differ by about 2e-3
    # in log det(1 + C), rounding that has spoiled the moments too, so the
    # line search must step back from it as from a point with no value
    N, R = 8, 2.0
    parts = (np.array([[0.0, 0.1, 0.5]]), np.array([[0.0, -0.05, 0.6]]), np.array([-2.0]))
    (value,), (spread,), _ = sampler._split_form(300, R, N, 2)(parts)
    assert math.isfinite(value) and spread > 1e-4
    basis = build_dual_basis(2, 2)
    mu = np.array([0.1, -0.05, 0.5, -2.0, 0.6]) * R ** basis.degrees.astype(float)
    assert maxent._pair_moments(basis, N, R, 300)(mu[None]) == [None]
    # the same sides uncoupled have no spread, and a value
    mu[3] = 0.0
    assert maxent._pair_moments(basis, N, R, 300)(mu[None])[0] is not None


def test_pair_fit_recovers_a_correlated_lambda():
    # the exact K = 2 route solves for lambda from the moments of a coupled
    # model (s = 4.8 > N, so the remainder's series runs in column blocks)
    N, R = 4, 2.0
    basis = build_dual_basis(2, 2)
    scales = R ** basis.degrees.astype(float)
    lam = np.array([0.1, -0.05, 0.5, -0.3, 0.6])
    nodes = _pair_log_i(N, R, basis, lam * scales).count
    tt = maxent._pair_moments(basis, N, R, nodes)((lam * scales)[None])[0][1]
    mu, grad, dec, history, _, _, log_i = maxent._exact_solve(
        basis, N, R, tt, np.zeros(len(basis)), "test")
    np.testing.assert_allclose(mu / scales, lam, atol=1e-8)
    assert 0.0 <= dec <= 1e-10 and len(history) <= 10
    assert log_i.value == pytest.approx(_pair_log_i(N, R, basis, lam * scales).value, abs=1e-9)


def _free_pair_target():
    # free-pair-4's target: two free semicircles of variance 1 on R = 2, K = 2
    half = semicircle_moments(1.0, 2, radius=2.0)
    tau = free_product_moments([half, half], 2)
    basis = build_dual_basis(2, 2)
    return basis, target_vector(tau, basis) / 2.0 ** basis.degrees


@pytest.mark.parametrize("lam", [
    [0.0, 0.0, 0.474609, 0.0, 0.474609],  # free-pair-4's lambda*: s = +-4e-5
    [0.1, -0.05, 0.5, -0.3, 0.6],  # s = 4.8 >= N, the series in column blocks
], ids=["free-pair-4", "column-blocks"])
def test_stacked_split_form_matches_single_points(lam):
    # the 2 len(mu) central-difference points of a Hessian in one stacked
    # call of the split form: each point's value and moments as it gets them
    # alone, within 1e-13
    N, R = 4, 2.0
    basis = build_dual_basis(2, 2)
    mu = np.array(lam) * R ** basis.degrees.astype(float)
    points = np.concatenate((mu + 1e-5 * np.eye(len(mu)), mu - 1e-5 * np.eye(len(mu))))
    moments = maxent._pair_moments(basis, N, R, 300)
    for point, got in zip(points, moments(points)):
        (want,) = moments(point[None])
        assert got[0] == pytest.approx(want[0], abs=1e-13)
        np.testing.assert_allclose(got[1], want[1], rtol=0, atol=1e-13)


def test_stacked_split_form_isolates_a_failing_point():
    # coupling 50 at N = 4, R = 2 (s = -800): the remainder's series
    # overflows, and that point has no value in a stack as alone (None), while
    # the points beside it keep theirs
    N, R = 4, 2.0
    basis = build_dual_basis(2, 2)
    scales = R ** basis.degrees.astype(float)
    points = np.array([[0.1, -0.05, 0.5, -0.3, 0.6], [0.1, -0.05, 0.5, 50.0, 0.6],
                       [0.0, 0.02, 0.3, 0.1, 0.4]]) * scales
    evaluate = sampler._split_form(300, R, N, 2)
    parts = [sampler._bilinear_parts(potential_from_coeffs(basis, p / scales)) for p in points]
    with np.errstate(over="ignore", invalid="ignore"):
        values, spreads, at = evaluate(tuple(np.array(c) for c in zip(*parts)))
    assert np.isnan(values[1]) and np.all(np.isfinite(values[[0, 2]]))
    moments = maxent._pair_moments(basis, N, R, 300)
    stacked = moments(points)
    assert stacked[1] is None and moments(points[1][None]) == [None]
    for i in (0, 2):
        (want,) = moments(points[i][None])
        assert stacked[i][0] == pytest.approx(want[0], abs=1e-13)
        np.testing.assert_allclose(stacked[i][1], want[1], rtol=0, atol=1e-13)


def _counted_split_form(monkeypatch) -> list:
    """The stack size of every split-form evaluation, from a spy on the evaluator."""
    sizes = []
    split_form = sampler._split_form

    def counted(*args):
        evaluate = split_form(*args)

        def spy(parts):
            sizes.append(len(parts[2]))
            return evaluate(parts)

        return spy

    monkeypatch.setattr(sampler, "_split_form", counted)
    monkeypatch.setattr(maxent, "_split_form", counted)
    return sizes


def test_free_pair_solve_takes_one_step_in_a_few_stacked_calls(monkeypatch):
    # free-pair-4's target factors, so the product of the marginal fits is its
    # solution: at most one Newton step (to rounding), one split-form call
    # for each Hessian's 2 len(mu) points, and at most 8 calls in the whole
    # solve with log I (57 with a call per point and Newton from zero)
    sizes = _counted_split_form(monkeypatch)
    basis, tt = _free_pair_target()
    mu, _, dec, history, nodes, _, log_i = maxent._exact_solve(
        basis, 4, 2.0, tt, np.zeros(len(basis)), "free pair")
    assert len(history) <= 1 and 0.0 <= dec <= 1e-10 and nodes == 300
    assert len(sizes) <= 8
    assert [size for size in sizes if size > 1] == [2 * len(basis)] * (len(history) + 1)
    assert log_i.value + 16 * float(mu @ tt) == pytest.approx(14.780197, abs=1e-6)


def test_pair_solve_starts_from_zero_where_a_marginal_solve_fails(monkeypatch):
    # a marginal one-matrix Newton solve that raises leaves the K = 2 Newton
    # at the zero start, which takes more steps to the same lambda
    basis, tt = _free_pair_target()
    want = maxent._exact_solve(basis, 4, 2.0, tt, np.zeros(len(basis)), "free pair")[0]
    damped_newton = maxent._damped_newton
    marginals = []

    def failing(parts, x0, l1, gtol, what):
        if what == "marginal":
            marginals.append(len(x0))
            raise InfeasibleTargetError("marginal out of reach")
        return damped_newton(parts, x0, l1, gtol, what)

    monkeypatch.setattr(maxent, "_damped_newton", failing)
    mu, _, dec, history, _, _, _ = maxent._exact_solve(
        basis, 4, 2.0, tt, np.zeros(len(basis)), "free pair")
    assert marginals == [2] and len(history) >= 2 and 0.0 <= dec <= 1e-10
    np.testing.assert_allclose(mu, want, atol=1e-9)


def _marginal_fits(basis, N, R, tt) -> np.ndarray:
    """The two sides' one-matrix exact fits, placed at their powers in ``basis``."""
    one = build_dual_basis(1, basis.K)
    mu = np.zeros(len(basis))
    for side in (1, 2):
        index = [basis.elements.index(el) for el in basis.elements if set(el.word) == {side}]
        mu[index] = maxent._exact_solve(one, N, R, tt[index], np.zeros(basis.K), "side")[0]
    return mu


def test_marginal_start_is_the_marginal_exact_fits():
    # free-pair-4's target: the start is, bit for bit, the two one-matrix
    # exact fits' mu; sides of variances 1 and 0.4 with E tr XY = 0.3: the
    # same within 1e-12, with coupling 0
    N, R = 4, 2.0
    basis, tt = _free_pair_target()
    start = maxent._marginal_start(basis, N, R, tt, np.zeros(len(basis)))
    np.testing.assert_array_equal(start, _marginal_fits(basis, N, R, tt))
    tau = MomentSpec(2, 2, R, {(1,): 0.0, (2,): 0.0, (1, 1): 1.0, (1, 2): 0.3, (2, 2): 0.4})
    tt = target_vector(tau, basis) / R ** basis.degrees
    start = maxent._marginal_start(basis, N, R, tt, np.zeros(len(basis)))
    np.testing.assert_allclose(start, _marginal_fits(basis, N, R, tt), rtol=0, atol=1e-12)
    assert start[basis.labels.index("re:1.2")] == 0.0
    assert start[basis.labels.index("re:1.1")] != start[basis.labels.index("re:2.2")]


def test_pair_solve_enters_one_exact_solve(monkeypatch):
    # the marginal start runs its own one-matrix Newton solves, so the K = 2
    # solve enters _exact_solve once, and no one-matrix log I is taken
    basis, tt = _free_pair_target()
    exact_solve, entered = maxent._exact_solve, []

    def spy(one, *args):
        entered.append((one.n, one.K))
        return exact_solve(one, *args)

    def no_log_i(*args, **kwargs):
        raise AssertionError("the pair solve takes no one-matrix log I")

    monkeypatch.setattr(maxent, "_exact_solve", spy)
    monkeypatch.setattr(maxent, "estimate_log_I", no_log_i)
    maxent._exact_solve(basis, 4, 2.0, tt, np.zeros(len(basis)), "free pair")
    assert entered == [(2, 2)]


@pytest.mark.parametrize("lam", [
    [0.0, 0.0, 0.474609, 0.0, 0.474609],  # free-pair-4's lambda*, to 6 digits
    [0.1, -0.05, 0.5, -0.3, 0.6],  # a correlated pair, k = -0.3
], ids=["free-pair-4", "correlated"])
def test_gaussian_draws_match_mehta_moments_on_an_active_ball(lam):
    # at N = 4, R = 2 the ball cuts the Gaussian (acceptance below 1), and
    # the basis moments of exact draws match those of Mehta's determinant
    N, R = 4, 2.0
    basis = build_dual_basis(2, 2)
    scales = R ** basis.degrees.astype(float)
    mu = np.array(lam) * scales
    nodes = _pair_log_i(N, R, basis, mu).count
    want = maxent._pair_moments(basis, N, R, nodes)(mu[None])[0][1] * scales
    model = GibbsModel(2, N, R, potential_from_coeffs(basis, np.array(lam)))
    samples, diag = sampler.mcmc_chain(model, 6000, 0, 1, rng=substream(15, "mehta-draws"))
    assert diag.step_scale == 0.0 and 0.5 < diag.acceptance < 1.0
    f = maxent._BasisMeasurer(basis).from_state(samples)
    z = (f.mean(axis=0) - want) / (f.std(axis=0, ddof=1) / math.sqrt(len(f)))
    print("z", np.round(z, 2))
    assert np.max(np.abs(z)) <= 4.0


def test_damped_newton_stops_where_a_hessian_cannot_be_formed():
    # f = sum(exp(x) - 2 x) takes full Newton steps from 0 to 1, then toward
    # log 2; the stub's Hessian cannot be formed at the second accepted point,
    # which ends the solve at the first with its value and gradient. Hessians
    # are asked for at the start and at accepted points only
    asked = []

    def parts(x):
        def hess():
            asked.append(x.copy())
            return None if len(asked) == 3 else np.diag(np.exp(x))

        return float(np.sum(np.exp(x) - 2.0 * x)), np.exp(x) - 2.0, hess

    x, f, g, dec, history = maxent._damped_newton(
        parts, np.zeros(2), np.zeros(2), 1.0, "stub")
    np.testing.assert_array_equal(x, [1.0, 1.0])
    assert f == 2.0 * (math.e - 2.0) and np.array_equal(g, np.full(2, math.e - 2.0))
    assert len(history) == 1 and dec == pytest.approx((math.e - 2.0) ** 2 / math.e)
    np.testing.assert_allclose(asked, [[0.0, 0.0], [1.0, 1.0], [1.0 - (math.e - 2.0) / math.e] * 2])


def test_free_pair_fit_is_exact_and_runs_no_chain(monkeypatch):
    # free-pair-4's target: lambda from the exact K = 2 solve, and the final
    # run's states are exact Gaussian draws (the fitted model is 0.47 (X^2 +
    # Y^2)), so no chain engine is built and no Metropolis step runs
    def refuse(*args, **kwargs):
        raise AssertionError("the exact K = 2 route must not run Monte Carlo Newton")

    def no_engine(*args, **kwargs):
        raise AssertionError("the exact K = 2 route on a Gaussian model builds no chain")

    monkeypatch.setattr(maxent, "_chain_newton", refuse)
    monkeypatch.setattr(sampler.ChainEngine, "__init__", no_engine)
    half = semicircle_moments(1.0, 2, radius=2.0)
    tau = free_product_moments([half, half], 2)
    opts = FitOptions(final_steps=2000, final_burnin=300)
    fit = fit_projection(tau, 4, 2, opts=opts, rng=substream(3, "pair-exact"))
    assert fit.dual_value.value == pytest.approx(14.780197, abs=1e-6)
    assert fit.dual_value.value == pytest.approx(oracles.separable_pair_rho([0.0, 1.0], 4, 2.0),
                                                 abs=1e-8)
    assert fit.dual_value.bias_bound <= 1e-8 and fit.log_i.bias_bound <= 1e-8
    assert fit.trajectory["decrement"] <= 1e-10 and fit.iterations <= 10
    # as many states as the walkers measure, from rejection proposals
    assert fit.energy.count == maxent.WALKERS * maxent._walker_steps(
        opts.final_steps, maxent.WALKERS, 2) // 2 == 1000
    assert sampler.MIN_ACCEPTANCE <= fit.trajectory["final_acceptance"] < 1
    # rho is the exact log I plus the final run's energy
    assert fit.rho.value == pytest.approx(fit.log_i.value + fit.energy.value, abs=1e-12)
    assert fit.rho.stderr == fit.energy.stderr > 0


def test_pair_route_falls_back_to_chain_newton(monkeypatch):
    # where Mehta's log I has no value at the fitted model, the K = 2 fit runs
    # Monte Carlo Newton as before
    calls = []
    chain_newton = maxent._chain_newton

    def spy(*args, **kwargs):
        calls.append(1)
        return chain_newton(*args, **kwargs)

    monkeypatch.setattr(maxent, "_mehta_log_I", lambda model: None)
    monkeypatch.setattr(maxent, "_chain_newton", spy)
    half = semicircle_moments(1.0, 2, radius=2.0)
    opts = FitOptions(iterations=3, steps_per_iter=100, discard_per_iter=10,
                      final_steps=200, final_burnin=40)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fit = fit_projection(free_product_moments([half, half], 2), 2, 2, opts=opts,
                             rng=substream(5, "fallback"))
    assert calls == [1]
    # Monte Carlo Newton's lengths: final_steps >> 1, the first at or above
    # steps_per_iter, doubled every iterate, then final_steps
    assert fit.trajectory["chain_steps"] == [100, 200, 200]
    assert len(fit.trajectory["chain_steps"]) == fit.iterations


def test_exact_pair_fit_energy_stderr_is_calibrated():
    # the free semicircle pair at N = 4, K = 2, R = 2 under the acceptance
    # suite's TIGHT budget, at the config seeds of the matrix-fit workload's
    # seeds 800-899: on the exact route the dual is exact and rho carries the
    # final run's energy, so z = (rho - dual) / energy.stderr is one standard
    # normal per seed. Seed 866 reads z = -3.82: a 3 stderr check has a
    # two-sided false-alarm rate of about 0.3% on a calibrated error bar
    tight = FitOptions(iterations=400, steps_per_iter=600, discard_per_iter=120,
                       step_size=8.0, moment_tol=0.002, final_steps=20000,
                       final_burnin=3000)
    half = semicircle_moments(1.0, 2, radius=2.0)
    tau = free_product_moments([half, half], 2)
    z = []
    for seed in range(800, 900):
        config_seed = zlib.crc32(f"{seed}:free-pair-4".encode())
        fit = fit_projection(tau, 4, 2, opts=tight, rng=substream(config_seed, "fit", 4))
        z.append((fit.rho.value - fit.dual_value.value) / fit.energy.stderr)
    z = np.array(z)
    assert 0.8 <= z.std(ddof=1) <= 1.2, z.std(ddof=1)
    assert np.sum(np.abs(z) > 3.0) <= 1, z[np.abs(z) > 3.0]


def test_out_of_reach_pair_target_is_left_to_chain_newton(monkeypatch):
    # E tr XY = 1.2 with E tr X^2 = E tr Y^2 = 1 breaks Cauchy-Schwarz: the
    # exact K = 2 route stops once a Newton iterate passes MU_MAX, and Monte
    # Carlo Newton declares the target out of reach
    calls = []
    chain_newton = maxent._chain_newton

    def spy(*args, **kwargs):
        calls.append(1)
        return chain_newton(*args, **kwargs)

    monkeypatch.setattr(maxent, "_chain_newton", spy)
    tau = MomentSpec(2, 2, 2.0, {(1,): 0.0, (2,): 0.0, (1, 1): 1.0, (1, 2): 1.2, (2, 2): 1.0})
    basis = build_dual_basis(2, 2)
    tt = target_vector(tau, basis) / 2.0 ** basis.degrees
    with pytest.raises(InfeasibleTargetError, match=f"passed .mu. = {maxent.MU_MAX}"):
        maxent._exact_solve(basis, 2, 2.0, tt, np.zeros(len(basis)), "out of reach")
    with pytest.raises(InfeasibleTargetError, match="coefficients diverged"):
        fit_projection(tau, 2, 2, opts=FAST, rng=substream(6, "out-of-reach"))
    assert calls == [1]


def test_exact_final_run_energy_is_the_measured_traces(monkeypatch):
    # on exact draws each batch is measured once, and its energy is N^2
    # lambda . f from those basis traces: it matches GibbsModel.energy of the
    # same draws, taken by a spy on the draws, within 1e-12
    energies = []
    gaussian_draws = sampler._gaussian_draws

    def spy(model, count, rng, take, floor):
        def both(blocks):
            energies.append(model.energy(blocks))
            take(blocks)

        return gaussian_draws(model, count, rng, both, floor)

    monkeypatch.setattr(sampler, "_gaussian_draws", spy)
    basis = build_dual_basis(2, 2)
    lam = np.array([0.1, -0.05, 0.5, -0.3, 0.6])
    model = GibbsModel(2, 4, 2.0, potential_from_coeffs(basis, lam))
    _, _, energy, _ = maxent._final_run(model, lam, maxent._BasisMeasurer(basis), 2000, 300,
                                        substream(2, "final-energy"))
    want = np.concatenate(energies)
    assert energy.count == len(want) == 1000
    assert energy.value == pytest.approx(want.mean(), rel=1e-12)
    # walkers follow the same rule, those of an engine passed in as well as
    # those of a model the draws refuse (a negative Y^2 coefficient): the
    # energies of the measured states, taken by a spy on the measurer
    monkeypatch.setattr(sampler, "_gaussian_draws", gaussian_draws)
    engine = sampler.ChainEngine(model, substream(2, "final-engine"), maxent.WALKERS)
    non_gaussian = lam * np.array([1.0, 1.0, 1.0, 1.0, -1.0])
    for coeffs, walkers in ((lam, engine), (non_gaussian, None)):
        model = GibbsModel(2, 4, 2.0, potential_from_coeffs(basis, coeffs))
        assert (sampler._gaussian_parts(model) is None) == (walkers is None)
        measurer, energies = maxent._BasisMeasurer(basis), []
        from_state = measurer.from_state

        def measured(blocks):
            energies.append(model.energy(blocks))
            return from_state(blocks)

        measurer.from_state = measured
        _, _, energy, final = maxent._final_run(model, coeffs, measurer, 2000, 300,
                                                substream(2, "final-walkers"), walkers)
        want = np.concatenate(energies)
        assert energy.count == len(want) == 1000 and final["final_acceptance"] < 1.0
        assert energy.value == pytest.approx(want.mean(), rel=1e-12)


def _final_run_z_scores(chain: bool) -> np.ndarray:
    # free-pair-4's exact lambda*: each side is the n = 1 exact fit of the
    # semicircle marginal, with no coupling. There the energy has mean
    # N^2 lambda* . tau and every residual mean 0; rows of z = (estimate -
    # exact) / stderr of the energy and the residuals of 30 final runs at the
    # default budget, on exact draws or on walkers from a cold start
    half = semicircle_moments(1.0, 2, radius=2.0)
    tau = free_product_moments([half, half], 2)
    one = fit_projection(half, 4, 2, rng=substream(13, "marginal"))
    assert 2 * one.rho.value == pytest.approx(14.780197, abs=1e-6)
    basis = build_dual_basis(2, 2)
    assert basis.labels == ("re:1", "re:2", "re:1.1", "re:1.2", "re:2.2")
    lam = np.array([one.coeffs[0], one.coeffs[0], one.coeffs[1], 0.0, one.coeffs[1]])
    targets = target_vector(tau, basis)
    exact = 16 * float(lam @ targets)
    model = GibbsModel(2, 4, 2.0, potential_from_coeffs(basis, lam))
    zs = []
    defaults = FitOptions()
    for seed in range(30):
        rng = substream(seed, "calibration")
        engine = sampler.ChainEngine(model, rng, maxent.WALKERS) if chain else None
        means, stderrs, energy, _ = maxent._final_run(
            model, lam, maxent._BasisMeasurer(basis), defaults.final_steps,
            defaults.final_burnin, rng, engine)
        assert energy.count == defaults.final_steps // 2
        zs.append([(energy.value - exact) / energy.stderr, *((means - targets) / stderrs)])
    return np.array(zs)


def test_final_run_stderr_calibrated_at_exact_optimum():
    # on exact Gaussian draws, the route of the exact K = 2 fit
    zs = _final_run_z_scores(chain=False)
    spread = zs.std(axis=0, ddof=1)
    print("z spread (energy, residuals):", np.round(spread, 3))
    assert np.all((0.7 <= spread) & (spread <= 1.3)), spread
    assert np.sum(np.abs(zs) > 3.5) <= 1


def test_final_run_chain_stderr_calibrated_at_exact_optimum():
    # on the walkers, which measure every non-Gaussian fitted model
    zs = _final_run_z_scores(chain=True)
    spread = zs.std(axis=0, ddof=1)
    print("z spread (energy, residuals):", np.round(spread, 3))
    assert np.all((0.7 <= spread) & (spread <= 1.3)), spread
    assert np.sum(np.abs(zs) > 3.5) <= 1


def test_exact_fit_runs_no_chain(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-matrix fit must not run a chain")

    monkeypatch.setattr(sampler.ChainEngine, "__init__", refuse)
    rng = substream(13, "no-chain")
    fit = fit_projection(semicircle_moments(1.0, 2, radius=2.0), 4, 2, rng=rng)
    # and it draws no random numbers
    assert fit.converged and rng.random() == substream(13, "no-chain").random()


@pytest.mark.parametrize("variance", [0.04, 0.05])
def test_narrow_one_matrix_fit_is_solved_on_log_i_nodes(monkeypatch, variance):
    # at N = 16, R = 4 the fitted model's log I converges on 600 nodes; solved
    # on the first 300 alone, rho read 0.194 (variance 0.04) and 0.0021
    # (0.05) nats high as converged, with a bias bound of 1e-9
    tau = semicircle_moments(variance, 4, radius=4.0)
    fit = fit_projection(tau, 16, 4, rng=substream(14, "narrow"))
    monkeypatch.setattr(maxent, "_heine_nodes", lambda N: 4800)
    ref = fit_projection(tau, 16, 4, rng=substream(14, "narrow"))
    assert fit.converged and ref.converged
    assert fit.log_i.count == 600 and fit.energy.count == 600
    assert abs(fit.rho.value - ref.rho.value) <= 1e-6


def test_fit_projection_duality_gap_identity():
    # shared log I makes rho - dual exactly N^2 lambda . (mhat - tau)
    tau = semicircle_moments(1.0, 2, radius=2.0)
    fit = fit_projection(tau, 4, 2, opts=FAST, rng=substream(2, "gap"))
    gap = fit.rho.value - fit.dual_value.value
    resid_term = 16.0 * float(np.dot(fit.coeffs, fit.residuals))
    assert gap == pytest.approx(resid_term, abs=1e-9)


def test_fit_projection_infeasible_target_raises():
    tau = MomentSpec(1, 1, 1.0, {(1,): 1.5})
    opts = FitOptions(iterations=160, steps_per_iter=120, discard_per_iter=30,
                      step_size=4.0, min_iterations=20, final_steps=1500,
                      final_burnin=300, ti=TIOptions(nodes=11, node_steps=300))
    with pytest.raises(InfeasibleTargetError):
        fit_projection(tau, 2, 1, opts=opts, rng=substream(3, "inf"))


def test_unconverged_fit_warns():
    # three Monte Carlo Newton iterates of ten steps cannot match the moments
    # of an n = 2, K = 4 target (which has no exact route), and the result
    # says so both in ``converged`` and with a warning
    half = semicircle_moments(1.0, 4, radius=3.0)
    starved = FitOptions(iterations=3, steps_per_iter=10, discard_per_iter=4,
                         min_iterations=2, final_steps=100, final_burnin=10,
                         ti=TIOptions(nodes=3, node_burnin=10, node_steps=20))
    with pytest.warns(RuntimeWarning, match="did not converge"):
        fit = fit_projection(free_product_moments([half, half], 4), 2, 4, opts=starved,
                             rng=substream(12, "starved"))
    assert not fit.converged
    assert "chain_steps" in fit.trajectory


def test_exact_fit_issues_no_warning():
    # the same starved budget does not touch a one-matrix fit, which is exact
    starved = FitOptions(iterations=3, steps_per_iter=10, discard_per_iter=4,
                         min_iterations=2, final_steps=100, final_burnin=10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_projection(semicircle_moments(1.0, 2, radius=3.0), 2, 2, opts=starved,
                             rng=substream(12, "starved"))
    assert fit.converged and fit.iterations > 0


def test_fit_projection_soft_threshold_epsilon():
    # with slack eps the optimum stops within eps of the target and the
    # primal-dual gap closes through the complementarity term
    R = 2.0
    tau = MomentSpec(1, 1, R, {(1,): 0.5})
    fit = fit_projection(tau, 1, 1, eps=0.3, opts=FAST, rng=substream(4, "eps"))
    assert fit.converged
    resid = float(fit.residuals[0])
    assert abs(resid) <= 0.3 + 0.05
    gap = fit.rho.value - fit.dual_value.value
    sigma = max(fit.energy.stderr, 1e-6)
    assert abs(gap) <= 3 * sigma + 0.05


def test_reference_constant_asymptote():
    # (1/N^2) log Vol + (1/2) log N - log(R/2) converges to 3/4 + log(pi)/2
    limit = oracles.REFERENCE_CONSTANT_LIMIT
    c64 = reference_constant(64, 4.0)
    c256 = reference_constant(256, 4.0)
    assert abs(c64 - limit) < 0.006
    assert abs(c256 - limit) < abs(c64 - limit)
    assert c256 - limit > 0
    # R enters only through log(R/2), so the constant is R-free
    assert reference_constant(64, 2.0) == pytest.approx(c64, abs=1e-10)


def test_log_energy_quadrature_reference_values():
    edge = 2.0

    def semicircle(x):
        return np.sqrt(np.maximum(edge ** 2 - x ** 2, 0.0)) / (2 * math.pi)

    got = log_energy_quadrature(semicircle, 2.5)
    assert got == pytest.approx(oracles.SIGMA_SEMICIRCLE_VAR1, abs=2e-3)

    def uniform(x):
        return np.where(np.abs(x) <= 1.0, 0.5, 0.0)

    got_u = log_energy_quadrature(uniform, 1.2)
    assert got_u == pytest.approx(oracles.SIGMA_UNIFORM_M11, abs=2e-3)


def _semicircle(variance):
    edge = 2.0 * math.sqrt(variance)
    return lambda x: np.sqrt(np.maximum(edge ** 2 - x ** 2, 0.0)) * 2.0 / (math.pi * edge ** 2)


@pytest.mark.parametrize("density, R", [
    (_semicircle(1.0), 2.5),
    (lambda x: np.where(np.abs(x) <= 1.0, 0.5, 0.0), 1.2),
    # skewed cubic (x + 1)^2 (2 - x) on (-1, 2)
    (lambda x: np.where((x > -1.0) & (x < 2.0), (x + 1.0) ** 2 * (2.0 - x) * 4.0 / 27.0, 0.0), 3.0),
    # arcsine on [-1, 1], with the endpoint cells clipped
    (lambda x: np.where(np.abs(x) < 1.0, 1.0 / (math.pi * np.sqrt(np.abs(1.0 - x * x))), 0.0), 2.0),
    (_semicircle(0.04), 2.0),
], ids=["semicircle", "uniform", "cubic", "arcsine", "narrow-semicircle"])
def test_log_energy_quadrature_is_the_dense_midpoint_rule(density, R):
    assert abs(log_energy_quadrature(density, R) - oracles.log_energy_dense(density, R)) <= 1e-14


def test_log_energy_quadrature_checks_mass_and_builds_no_square_buffer():
    with pytest.raises(ValueError, match="density mass"):
        log_energy_quadrature(lambda x: np.full_like(x, 0.3), 2.0)
    density = _semicircle(1.0)
    log_energy_quadrature(density, 4.0)
    tracemalloc.start()
    try:
        log_energy_quadrature(density, 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a 250 x 4000 row block alone is 8 MB
    assert peak < 1 << 20


def test_log_energy_quadrature_pins_its_semicircle_error():
    # the midpoint rule sits 1.88e-4 nats above (1/2) log v - 1/4; the
    # benchmark's chi references are the rule's values, not the closed form
    got = log_energy_quadrature(_semicircle(1.0), 4.0)
    assert got - oracles.SIGMA_SEMICIRCLE_VAR1 == pytest.approx(1.878e-4, abs=1e-7)


def test_one_variable_chi_reference_combines_sigma_and_constant():
    edge = 2.0

    def semicircle(x):
        return np.sqrt(np.maximum(edge ** 2 - x ** 2, 0.0)) / (2 * math.pi)

    ref = one_variable_chi_reference(semicircle, 4.0, 16)
    want = oracles.SIGMA_SEMICIRCLE_VAR1 + reference_constant(16, 4.0)
    assert ref.chi == pytest.approx(want, abs=5e-3)
    assert ref.log_energy == pytest.approx(oracles.SIGMA_SEMICIRCLE_VAR1, abs=2e-3)


def test_free_pressure_linear_scalar():
    c, R = 0.8, 2.0
    est = free_pressure(c * NcPoly.generator(1, 1), 1, R,
                        substream(6, "press"), TIOptions(nodes=21, node_steps=900))
    want = oracles.log_i_linear_exact(c, R)  # N=1: no volume shift, log N = 0
    assert abs(est.value - want) <= 3 * est.stderr + est.bias_bound + 0.02


def test_eta_bound_holds_on_easy_case():
    tau = semicircle_moments(1.0, 2, radius=2.0)
    rep = eta_bound_check(tau, 0.3 * NcPoly.generator(1, 1), 4, 2, 0.0,
                          FAST, rng=substream(7, "eta"))
    assert rep.holds
    assert rep.lhs <= rep.rhs + 3 * rep.sigma + 1e-9


def test_rho_monotone_in_K():
    # adding constraints can only shrink the feasible set
    tau = semicircle_moments(1.0, 4, radius=3.0)
    lo = fit_projection(tau, 2, 2, opts=FAST, rng=substream(10, "k2"))
    hi = fit_projection(tau, 2, 4, opts=FAST, rng=substream(10, "k4"))
    sigma = math.hypot(lo.rho.stderr, hi.rho.stderr)
    slack = lo.rho.bias_bound + hi.rho.bias_bound
    assert hi.rho.value <= lo.rho.value + 3 * sigma + slack + 0.05


def test_rho_subadditive_for_product_target():
    # a joint fit with prescribed marginals cannot beat the sum of the
    # marginal fits (entropy is subadditive under marginalization)
    from matent.moments import free_product_moments

    half = semicircle_moments(1.0, 2, radius=2.0)
    joint = free_product_moments([half, half], 2)
    jfit = fit_projection(joint, 3, 2, opts=FAST, rng=substream(11, "joint"))
    m1 = fit_projection(half, 3, 2, opts=FAST, rng=substream(11, "m1"))
    m2 = fit_projection(half, 3, 2, opts=FAST, rng=substream(11, "m2"))
    sigma = math.sqrt(jfit.rho.stderr ** 2 + m1.rho.stderr ** 2 + m2.rho.stderr ** 2)
    slack = jfit.rho.bias_bound + m1.rho.bias_bound + m2.rho.bias_bound
    assert jfit.rho.value <= m1.rho.value + m2.rho.value + 3 * sigma + slack + 0.05


def test_partition_bound_discrete():
    # splitting the support in two and discarding in-cell structure can only
    # increase the entropy bound; exact in cell-mass form
    _, f, dx = oracles.gibbs_density([0.0, 0.4, -0.9, 0.1, 0.3], 1.5, 4001)
    q = f * dx
    q = q / q.sum()
    ent = float(-(q * np.log(q / dx)).sum())
    _, g, _ = oracles.gibbs_density([0.0, -0.2, 0.5], 1.5, 4001)
    nu = g * dx
    nu = nu / nu.sum()
    ent_rel = float(-(q * np.log(q / nu)).sum())
    n = q.size
    for cut in (137, 1000, 2000, 3707):
        mf = float(q[:cut].sum())
        h = -mf * math.log(mf) - (1 - mf) * math.log(1 - mf)
        bound = mf * math.log(cut * dx) + (1 - mf) * math.log((n - cut) * dx) + h
        assert ent <= bound + 1e-12
        nf = float(nu[:cut].sum())
        bound_nu = mf * math.log(nf) + (1 - mf) * math.log(1 - nf) + h
        assert ent_rel <= bound_nu + 1e-12


def test_data_processing_marginal_contracts_relative_entropy():
    # dropping one scalar coordinate of a two-coordinate Gibbs pair can only
    # raise the (negative) relative entropy
    rng = substream(12, "dp")
    R = 1.5
    for _ in range(10):
        cp = {(i, j): float(rng.uniform(-0.5, 0.5))
              for i in range(3) for j in range(3) if 0 < i + j <= 3}
        cq = {(i, j): float(rng.uniform(-0.5, 0.5))
              for i in range(3) for j in range(3) if 0 < i + j <= 3}
        p = oracles.gibbs_cells_2d(cp, R)
        q = oracles.gibbs_cells_2d(cq, R)
        kl_joint = oracles.kl_cells(p, q)
        kl_marg = oracles.kl_cells(p.sum(axis=1), q.sum(axis=1))
        assert 0.0 <= kl_marg <= kl_joint + 1e-12
