"""End-to-end acceptance suite.

Twelve numbered criteria exercise the package at working scale: exact
volume formulas, chain correctness against quadrature, primal-dual
consistency of the moment fits, the entropy-curve checks, the orbital
estimators with their identities and transport bounds, compression-map
entropy shifts, and the classical N = 1 duality and data-processing
facts. Each test prints one PASS/FAIL line with the measured numbers and
its wall time; the lines are also written to acceptance_report.txt next
to the package root. Budgets and seeds are pinned so the whole suite is
deterministic and runs in a few minutes.
"""

import math
import os
import time

import numpy as np
import pytest

import oracles
from matent.estimates import pooled_mean
from matent.matrices import (BlockMap, build_compression,
                             log_jacobian_functional_calculus)
from matent.maxent import FitOptions, fit_projection, one_variable_chi_reference
from matent.moments import (MomentSpec, arcsine_moments, free_product_moments,
                            semicircle_moments)
from matent.ncpoly import NcPoly
from matent.orbital import (OrbitalRequest, chain_rule_check, orbital_entropy,
                            talagrand_report)
from matent.sampler import (GibbsModel, TIOptions, log_ball_volume, mcmc_chain,
                            microstate_hit_rate)

# one production-strength recipe shared by most fits in this suite
RECIPE = FitOptions(iterations=220, steps_per_iter=400, discard_per_iter=80,
                    step_size=8.0, moment_tol=0.004, final_steps=20000,
                    final_burnin=3000)
# the primal-dual gap check amplifies moment residuals by N^2, so the N > 1
# cases there get a longer anneal with a tighter stopping tolerance
TIGHT = FitOptions(iterations=400, steps_per_iter=600, discard_per_iter=120,
                   step_size=8.0, moment_tol=0.002, final_steps=20000,
                   final_burnin=3000)

_LINES = []


def _record(num, desc, ok, detail, t0):
    line = (f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {desc}: "
            f"{detail} [{time.time() - t0:.1f}s]")
    _LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def _report():
    yield
    path = os.path.join(os.path.dirname(__file__), "..", "acceptance_report.txt")
    with open(path, "w") as fh:
        fh.write("\n".join(_LINES) + "\n")


def _scalar_spec(R, K, ms):
    return MomentSpec(1, K, R, {(1,) * k: v for k, v in ms.items()})


def test_criterion_01_ball_volume_exact_and_mc():
    t0 = time.time()
    exact1 = all(abs(log_ball_volume(1, R) - math.log(2 * R)) < 1e-13
                 for R in (0.5, 1.0, 2.0, 3.7))
    details = [f"N=1 exact {exact1}"]
    ok = exact1
    for N, R in ((2, 1.5), (3, 1.0)):
        mc, se = oracles.ball_volume_mc(N, R, 1_200_000, np.random.default_rng(100 + N))
        diff = log_ball_volume(N, R) - mc
        ok = ok and abs(diff) <= 3 * se
        details.append(f"N={N} diff {diff:+.4f} (3se {3 * se:.4f})")
    _record(1, "ball volume closed forms", ok, ", ".join(details), t0)


def test_criterion_02_uniform_chain_arcsine_moments():
    t0 = time.time()
    R = 2.0
    model = GibbsModel(1, 64, R, NcPoly.zero(1))
    samples, diag = mcmc_chain(model, steps=4000, burnin=1500, thin=4,
                               rng=np.random.default_rng(5))
    eig = np.linalg.eigvalsh(samples[0])
    m2 = float(np.mean(eig ** 2))
    m4 = float(np.mean(eig ** 4))
    # arcsine moments by quadrature: x = R cos(theta) flattens the density
    theta = np.linspace(0.0, math.pi, 20001)
    q2 = float(np.trapezoid((R * np.cos(theta)) ** 2, theta) / math.pi)
    q4 = float(np.trapezoid((R * np.cos(theta)) ** 4, theta) / math.pi)
    assert abs(q2 / R ** 2 - 0.5) < 1e-6 and abs(q4 / R ** 4 - 0.375) < 1e-6
    ok = abs(m2 - q2) / R ** 2 <= 0.02 and abs(m4 - q4) / R ** 4 <= 0.02
    _record(2, "uniform-ball chain spectral moments", ok,
            f"m2/R^2 {m2 / R ** 2:.4f} (target {q2 / R ** 2:.4f}), "
            f"m4/R^4 {m4 / R ** 4:.4f} (target {q4 / R ** 4:.4f}), "
            f"acc {diag.acceptance:.2f}", t0)


def test_criterion_03_primal_dual_agreement():
    t0 = time.time()
    targets = [
        ("s1", _scalar_spec(2.0, 2, {1: 0.3, 2: 1.1}), 1, 2, 301),
        ("s2", _scalar_spec(2.0, 2, {1: -0.5, 2: 0.8}), 1, 2, 302),
        ("s3", semicircle_moments(1.0, K=4, radius=4.0), 1, 4, 303),
        ("s4", arcsine_moments(2.0, K=2), 1, 2, 304),
        ("s5", _scalar_spec(2.0, 1, {1: 0.8}), 1, 1, 305),
        ("m1", semicircle_moments(1.0, K=2, radius=4.0), 4, 2, 306),
        ("m2", free_product_moments([semicircle_moments(1.0, K=2, radius=2.0),
                                     semicircle_moments(1.0, K=2, radius=2.0)],
                                    K=2), 4, 2, 307),
    ]
    ok = True
    details = []
    for name, tau, N, K, seed in targets:
        opts = TIGHT if N > 1 else RECIPE
        fit = fit_projection(tau, N, K, opts=opts, rng=np.random.default_rng(seed))
        gap = fit.rho.value - fit.dual_value.value
        # rho and dual share the same log I estimate, so the gap's noise is
        # exactly the energy-term stderr; an exact (n = 1) fit has stderr 0
        # and its residual cost N^2 |lam . r| in the energy's bias bound
        bound = 3 * fit.energy.stderr + fit.energy.bias_bound
        case = abs(gap) <= bound and fit.converged
        ok = ok and case
        details.append(f"{name} gap {gap:+.2e} (bound {bound:.2e}, "
                       f"conv {fit.converged})")
    _record(3, "entropy equals dual objective", ok, ", ".join(details), t0)


def test_criterion_04_projection_recovers_quadratic():
    t0 = time.time()
    tau = semicircle_moments(1.0, K=4, radius=4.0)
    fit = fit_projection(tau, N=32, K=4, opts=RECIPE, rng=np.random.default_rng(41))
    coeffs = dict(zip(fit.basis.labels, fit.coeffs))
    quad = coeffs.pop("re:1.1")
    worst = max(abs(c) for c in coeffs.values())
    ok = fit.converged and 0.4 <= quad <= 0.6 and worst <= 0.1
    _record(4, "semicircle target refits x^2/2", ok,
            f"X^2 coeff {quad:.4f} (band [0.4, 0.6]), max other {worst:.4f} "
            f"(cap 0.1), conv {fit.converged}", t0)


def test_criterion_05_chi_tilde_flat_and_calibrated():
    t0 = time.time()
    tau = semicircle_moments(1.0, K=6, radius=4.0)
    sizes = (16, 32, 64)
    vals = [fit_projection(tau, N, K=6, opts=RECIPE,
                           rng=np.random.default_rng(1000 + N)).chi.value for N in sizes]

    def dens(x):
        return np.sqrt(np.clip(4.0 - x * x, 0.0, None)) / (2.0 * np.pi)

    flat = max(vals) - min(vals)
    diffs = [v - one_variable_chi_reference(dens, 4.0, N).chi for N, v in zip(sizes, vals)]
    ok = flat <= 0.1 and all(abs(d) <= 0.1 for d in diffs)
    _record(5, "chi-tilde curve flat and matches quadrature reference", ok,
            "values " + ", ".join(f"N={N} {v:+.4f}" for N, v in zip(sizes, vals))
            + f"; spread {flat:.4f}, ref gaps "
            + ", ".join(f"{d:+.4f}" for d in diffs), t0)


def test_criterion_06_hit_rate_below_rho():
    t0 = time.time()
    tau = arcsine_moments(2.0, K=2)
    ok = True
    details = []
    for N in (2, 4):
        hit = microstate_hit_rate(tau, eps=0.2, K=2, N=N, trials=10000,
                                  rng=np.random.default_rng(600 + N))
        fit = fit_projection(tau, N, 2, eps=0.2, opts=RECIPE,
                             rng=np.random.default_rng(650 + N))
        n2 = N * N
        lhs, lse = hit.log_volume.value / n2, hit.log_volume.stderr / n2
        rhs, rse = fit.rho.value / n2, fit.rho.stderr / n2
        comb = math.hypot(lse, rse)
        case = lhs <= rhs + 3 * comb
        ok = ok and case
        details.append(f"N={N} hit-rate {lhs:+.4f} <= rho {rhs:+.4f} "
                       f"+ {3 * comb:.4f} ({hit.hits}/{hit.trials} hits)")
    _record(6, "microstate volume below maxent value", ok, ", ".join(details), t0)


def test_criterion_07_rho_concave_under_mixtures():
    t0 = time.time()
    pairs = [
        ({1: 0.6, 2: 1.4}, {1: -0.6, 2: 1.0}, 701),
        ({1: 0.0, 2: 0.8}, {1: 0.0, 2: 2.2}, 702),
        ({1: 0.4, 2: 2.0}, {1: -0.3, 2: 1.2}, 703),
    ]
    N, K, R = 4, 2, 2.0
    ok = True
    details = []
    for ma, mb, seed in pairs:
        ra = fit_projection(_scalar_spec(R, K, ma), N, K, opts=RECIPE,
                            rng=np.random.default_rng(seed)).rho
        rb = fit_projection(_scalar_spec(R, K, mb), N, K, opts=RECIPE,
                            rng=np.random.default_rng(seed + 10)).rho
        for j, t in enumerate((0.25, 0.5, 0.75)):
            mix = {k: (1 - t) * ma[k] + t * mb[k] for k in ma}
            rm = fit_projection(_scalar_spec(R, K, mix), N, K, opts=RECIPE,
                                rng=np.random.default_rng(seed + 20 + j)).rho
            sig = math.hypot(rm.stderr, math.hypot((1 - t) * ra.stderr, t * rb.stderr))
            margin = rm.value - ((1 - t) * ra.value + t * rb.value)
            case = margin >= -3 * sig
            ok = ok and case
            details.append(f"{seed}/t={t} margin {margin:+.3f} (3se {3 * sig:.3f})")
    _record(7, "rho concave across moment mixtures", ok, "; ".join(details), t0)


COUPLED = NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0, (1, 2): -1.0, (2, 1): -1.0})


def test_criterion_08_orbital_vanishing_and_negativity():
    t0 = time.time()
    decoupled = GibbsModel(2, 8, 2.0, NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0}))
    est_d = orbital_entropy(OrbitalRequest(decoupled, BlockMap.full(2), s_out=128,
                                           s_in=96, chain_burnin=1200, chain_thin=20),
                            rng=np.random.default_rng(801))
    coupled = GibbsModel(2, 8, 2.0, COUPLED)
    est_c = orbital_entropy(OrbitalRequest(coupled, BlockMap.full(2), s_out=128,
                                           s_in=96, chain_burnin=1200, chain_thin=20),
                            rng=np.random.default_rng(802))
    ok = (abs(est_d.value) <= 3 * est_d.stderr + est_d.bias_bound
          and est_c.value < -3 * est_c.stderr)
    _record(8, "orbital entropy zero when decoupled, negative when coupled", ok,
            f"decoupled {est_d.value:+.5f} (3se+bias "
            f"{3 * est_d.stderr + est_d.bias_bound:.5f}), "
            f"coupled {est_c.value:+.4f} (3se {3 * est_c.stderr:.4f})", t0)


def test_criterion_09_chain_rule_identity():
    t0 = time.time()
    model = GibbsModel(2, 8, 2.0, COUPLED)
    rep = chain_rule_check(OrbitalRequest(model, BlockMap.full(2), s_out=128, s_in=96,
                                          chain_burnin=1200, chain_thin=20),
                           np.random.default_rng(901),
                           ti=TIOptions(nodes=21, node_steps=800))
    _record(9, "relative entropy splits through the orbital term", rep.holds,
            f"residual {rep.residual:+.4f} (3 paired se {3 * rep.residual_stderr:.4f}, "
            f"combined se {rep.combined_stderr:.4f})", t0)


def test_criterion_10_orbital_talagrand_on_coupling_grid():
    t0 = time.time()
    ok = True
    details = []
    for c in (0.25, 0.5, 1.0):
        pot = NcPoly(2, {(1, 1): c, (2, 2): c, (1, 2): -c, (2, 1): -c})
        model = GibbsModel(2, 8, 2.0, pot)
        rep = talagrand_report(OrbitalRequest(model, BlockMap.full(2), s_out=128, s_in=96,
                                              chain_burnin=1200, chain_thin=20),
                               np.random.default_rng(int(1000 + 100 * c)), K=4)
        case = rep.holds_free and rep.holds_conj
        ok = ok and case
        details.append(f"c={c} lhs {max(rep.lhs_free, rep.lhs_conj):.3f} "
                       f"<= rhs {rep.rhs_upper:.3f}")
    _record(10, "transport lower bound below conjugation-entropy bound", ok,
            ", ".join(details), t0)


def test_criterion_11_compression_entropy_shift():
    t0 = time.time()
    g = build_compression(2.0, 1.6, 1.0)
    coeffs = [0.0, 0.5, -0.6, 0.0, 0.2]
    # N = 1: entropy of the pushed density, built independently on a uniform
    # output grid via the numerical inverse, vs entropy + E[log g']
    xs, p, dx = oracles.gibbs_density(coeffs, 2.0)
    lhs = oracles.entropy_quad(p, dx) + float(np.sum(p * np.log(g.derivative(xs))) * dx)
    ys = np.asarray(g(xs))
    ygrid = np.linspace(ys[0], ys[-1], 20001)
    xinv = np.interp(ygrid, ys, xs)
    q = np.interp(xinv, xs, p) * np.gradient(xinv, ygrid)
    q = q / np.trapezoid(q, ygrid)
    pushed = -float(np.trapezoid(q * np.log(np.maximum(q, 1e-300)), ygrid))
    quad_ok = abs(pushed - lhs) <= 1e-3

    # N = 4: matrix-side divided-difference Jacobian on exact draws vs the
    # spectral formula on an independent eigenvalue-gas chain (tests/oracles.py)
    N = 4
    pot = NcPoly(1, {(1,): 0.5, (1, 1): -0.6, (1, 1, 1, 1): 0.2})
    samples, diag = mcmc_chain(GibbsModel(1, N, 2.0, pot), steps=12000,
                               burnin=2000, thin=6, rng=np.random.default_rng(1101))
    ljs = np.array([log_jacobian_functional_calculus(b, g) for b in samples[0]])
    se1 = ljs.std(ddof=1) / math.sqrt(len(ljs) / max(diag.iat, 1.0))
    lams = oracles.log_gas_chain(N, 2.0, coeffs, sweeps=3000, burnin=500,
                                 rng=np.random.default_rng(1102))

    def spectral_lj(lam):
        lam = np.sort(lam)
        gl = np.asarray(g(lam))
        tot = float(np.sum(np.log(g.derivative(lam))))
        for i in range(len(lam)):
            for j in range(i + 1, len(lam)):
                tot += 2.0 * math.log(abs((gl[i] - gl[j]) / (lam[i] - lam[j])))
        return tot

    ljs2 = np.array([spectral_lj(l) for l in lams])
    se2 = ljs2.std(ddof=1) / math.sqrt(len(ljs2) / pooled_mean(ljs2)[1])
    diff = float(ljs.mean() - ljs2.mean())
    mc_ok = abs(diff) <= 3 * math.hypot(se1, se2)
    bound = N * N * abs(math.log(g.alpha))
    bound_ok = bool(np.all(np.abs(ljs) <= bound) and np.all(np.abs(ljs2) <= bound))
    ok = quad_ok and mc_ok and bound_ok
    _record(11, "pushforward entropy shift equals Jacobian mean", ok,
            f"N=1 gap {pushed - lhs:+.2e} (cap 1e-3), N=4 route diff {diff:+.4f} "
            f"(3se {3 * math.hypot(se1, se2):.4f}), |logJac| <= {bound:.2f}: {bound_ok}",
            t0)


def test_criterion_12_classical_duality_and_data_processing():
    t0 = time.time()
    problems = [
        ({2: 1.0}, 2.0), ({1: 0.3, 2: 1.1}, 2.0), ({1: -0.5, 2: 0.8}, 2.0),
        ({2: 2.0}, 2.0), ({1: 0.2, 2: 1.5, 3: 0.1, 4: 3.5}, 4.0),
    ]
    worst = 0.0
    ok = True
    for cons, R in problems:
        sol = oracles.scalar_maxent_oracle(cons, R)
        worst = max(worst, sol.duality_gap)
        ok = ok and sol.converged and sol.duality_gap <= 1e-6
    # data processing: dropping one of two scalar coordinates cannot increase
    # the relative entropy; cell masses make the check deterministic
    rng = np.random.default_rng(1201)
    contraction = 0.0
    for _ in range(10):
        terms_p = {(i, j): rng.uniform(-0.5, 0.5)
                   for i in range(4) for j in range(4) if 0 < i + j <= 3}
        terms_q = {(i, j): rng.uniform(-0.5, 0.5)
                   for i in range(4) for j in range(4) if 0 < i + j <= 3}
        p = oracles.gibbs_cells_2d(terms_p, 1.5)
        q = oracles.gibbs_cells_2d(terms_q, 1.5)
        kl_joint = oracles.kl_cells(p, q)
        kl_marg = oracles.kl_cells(p.sum(axis=1), q.sum(axis=1))
        contraction = max(contraction, kl_marg - kl_joint)
        ok = ok and kl_marg <= kl_joint + 1e-9
    _record(12, "grid duality gap and KL contraction", ok,
            f"max duality gap {worst:.2e} (cap 1e-6), max KL excess "
            f"{contraction:+.2e} (cap 0)", t0)
