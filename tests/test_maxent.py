import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from matent import maxent, sampler
from matent.maxent import (FitOptions, InfeasibleTargetError, build_dual_basis,
                           dual_objective, eta_bound_check, fit_projection,
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


def test_dual_objective_linear_closed_form():
    R = 2.0
    basis = build_dual_basis(1, 1)
    tau = MomentSpec(1, 1, R, {(1,): 0.4})
    for c in (-1.2, -0.3, 0.0, 0.7, 2.1):
        got = dual_objective(basis, np.array([c]), tau, 0.0, 1,
                             lambda pot: estimate_log_I(GibbsModel(1, 1, R, pot)))
        want = oracles.log_i_linear_exact(c, R) + c * 0.4
        assert got.value == pytest.approx(want, abs=1e-6)


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
        assert traj["final_ess"] > 0 and 0 < traj["final_acceptance"] < 1


def _pair_log_i(N, R, basis, mu):
    scales = R ** basis.degrees.astype(float)
    return sampler._mehta_log_I(GibbsModel(2, N, R, potential_from_coeffs(basis, mu / scales)))


@pytest.mark.parametrize("N, R, lam", [
    (4, 2.0, [0.1, -0.05, 0.5, 0.0, 0.6]),  # s = 0, free-pair-4's optimum
    (4, 2.0, [0.1, -0.05, 0.5, 1e-12 / 16, 0.6]),  # |s| = 1e-12
    (4, 2.0, [0.1, -0.05, 0.5, 0.7 / 4, 0.6]),  # s = -2.8, the node-moment series
    (4, 2.0, [0.1, -0.05, 0.5, -0.3, 0.6]),  # s = 4.8 > N, the kernel in row blocks
    (3, 1.5, [0.3, 0.2, -0.4, 0.9, 0.1]),  # s = -6.1 < -N
])
def test_pair_moments_are_derivatives_of_mehta_log_i(N, R, lam):
    # E f_j = -(1/N^2) d log I / d mu_j, against central differences of the
    # determinant route of log I
    basis = build_dual_basis(2, 2)
    mu = np.array(lam) * R ** basis.degrees.astype(float)
    nodes = _pair_log_i(N, R, basis, mu).count
    value, moments = maxent._pair_moments(basis, N, R, nodes)(mu)
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
    assert (value - maxent._pair_moments(basis, N, R, nodes)(other)[0]) == pytest.approx(
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
    _, moments = maxent._pair_moments(basis, N, R, nodes)(mu)
    d_a = (oracles.gaussian_pair_log_I(a + h, c, N) - oracles.gaussian_pair_log_I(a - h, c, N)) / (2 * h)
    d_c = (oracles.gaussian_pair_log_I(a, c + h, N) - oracles.gaussian_pair_log_I(a, c - h, N)) / (2 * h)
    want = np.array([0.0, 0.0, -d_a / (2 * N), d_c / (2 * N), -d_a / (2 * N)]) / (N * R ** basis.degrees)
    np.testing.assert_allclose(moments, want, rtol=1e-8, atol=1e-12)


@pytest.mark.parametrize("N, want_x2, want_xy", [(4, 1.78748, 1.56478), (8, 1.82827, 1.60410)])
def test_pair_moments_match_the_coupled_pair(N, want_x2, want_xy):
    # c (X - Y)^2 at R = 2, c = 1 does not factorize: E tr X^2 and E tr XY
    # against the values from the derivatives of Mehta's log I (s = 64 at N = 8,
    # the remainder in row blocks); the model is symmetric in X and Y, and the
    # two sides' moments, taken in the two solve orders, agree to rounding
    R, c = 2.0, 1.0
    basis = build_dual_basis(2, 2)
    mu = np.array([0.0, 0.0, c, -2 * c, c]) * R ** basis.degrees.astype(float)
    nodes = _pair_log_i(N, R, basis, mu).count
    _, moments = maxent._pair_moments(basis, N, R, nodes)(mu)
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
    parts = (np.array([0.0, 0.1, 0.5]), np.array([0.0, -0.05, 0.6]), -2.0)
    value, spread, _ = sampler._split_form(300, R, N, 2)(parts)
    assert math.isfinite(value) and spread > 1e-4
    basis = build_dual_basis(2, 2)
    mu = np.array([0.1, -0.05, 0.5, -2.0, 0.6]) * R ** basis.degrees.astype(float)
    assert maxent._pair_moments(basis, N, R, 300)(mu) is None
    # the same sides uncoupled have no spread, and a value
    mu[3] = 0.0
    assert maxent._pair_moments(basis, N, R, 300)(mu) is not None


def test_pair_fit_recovers_a_correlated_lambda():
    # the exact K = 2 route solves for lambda from the moments of a coupled
    # model (s = 4.8 > N, so the remainder runs in row blocks)
    N, R = 4, 2.0
    basis = build_dual_basis(2, 2)
    scales = R ** basis.degrees.astype(float)
    lam = np.array([0.1, -0.05, 0.5, -0.3, 0.6])
    nodes = _pair_log_i(N, R, basis, lam * scales).count
    tt = maxent._pair_moments(basis, N, R, nodes)(lam * scales)[1]
    mu, grad, dec, history, _, _, log_i = maxent._exact_solve(
        basis, N, R, tt, np.zeros(len(basis)), "test")
    np.testing.assert_allclose(mu / scales, lam, atol=1e-8)
    assert 0.0 <= dec <= 1e-10 and len(history) <= 10
    assert log_i.value == pytest.approx(_pair_log_i(N, R, basis, lam * scales).value, abs=1e-9)


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


def test_free_pair_fit_is_exact_and_runs_only_the_final_chain(monkeypatch):
    # free-pair-4's target: lambda from the exact K = 2 solve, and the only
    # chain is the final run, burn-in included (no tuning at V = 0)
    def refuse(*args, **kwargs):
        raise AssertionError("the exact K = 2 route must not run Monte Carlo Newton")

    steps = []
    advance = sampler.ChainEngine._advance

    def counting(self, limit, after=None):
        taken = advance(self, limit, after)
        steps.append(taken[0])
        return taken

    monkeypatch.setattr(maxent, "_chain_newton", refuse)
    monkeypatch.setattr(sampler.ChainEngine, "_advance", counting)
    half = semicircle_moments(1.0, 2, radius=2.0)
    tau = free_product_moments([half, half], 2)
    opts = FitOptions(final_steps=2000, final_burnin=300)
    fit = fit_projection(tau, 4, 2, opts=opts, rng=substream(3, "pair-exact"))
    assert fit.dual_value.value == pytest.approx(14.780197, abs=1e-6)
    assert fit.dual_value.value == pytest.approx(oracles.separable_pair_rho([0.0, 1.0], 4, 2.0),
                                                 abs=1e-8)
    assert fit.dual_value.bias_bound <= 1e-8 and fit.log_i.bias_bound <= 1e-8
    assert fit.trajectory["decrement"] <= 1e-10 and fit.iterations <= 10
    assert sum(steps) == opts.final_burnin + maxent._walker_steps(
        opts.final_steps, maxent.WALKERS, 2)
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
    assert len(fit.trajectory["chain_steps"]) == fit.iterations


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


def test_final_run_stderr_calibrated_at_exact_optimum():
    # free-pair-4's exact lambda*: each side is the n = 1 exact fit of the
    # semicircle marginal, with no coupling. There the energy has mean
    # N^2 lambda* . tau and every residual mean 0, so each z = (estimate -
    # exact) / stderr of a final run at the default budget, from a cold start,
    # should have unit spread
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
        engine = sampler.ChainEngine(model, substream(seed, "calibration"), maxent.WALKERS)
        means, stderrs, energy, _ = maxent._final_run(
            engine, maxent._BasisMeasurer(basis), defaults.final_steps, defaults.final_burnin)
        zs.append([(energy.value - exact) / energy.stderr, *((means - targets) / stderrs)])
    zs = np.array(zs)
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
                          FAST, substream(7, "eta"))
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
