import json
import math
import warnings
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from matent.estimates import EstimatorError, pooled_mean
from matent.matrices import HERMITIAN_TOL, NORM_SLACK, BlockMap, MatrixTuple
from matent.moments import (arcsine_moments, empirical_moments, free_product_moments,
                            moment_distance, semicircle_moments)
from matent.ncpoly import NcPoly
from matent import sampler
from matent.orbital import _bilinear_coupling
from matent.sampler import (GibbsModel, TIOptions, _ExactSpectra, _heine_log_I,
                            _legendre_nodes, _log_heine_norms, _ti_log_I, estimate_log_I,
                            log_ball_volume, mcmc_chain, microstate_hit_rate)
from matent.streams import substream


def test_model_validation():
    with pytest.raises(ValueError):
        GibbsModel(1, 4, 2.0, 1j * NcPoly.generator(1, 1))


def _chiral(n, word, c):
    """c w + conj(c) w*, self-adjoint."""
    return NcPoly(n, {word: c, tuple(reversed(word)): np.conj(c)})


TRACE_CLASS_POTENTIALS = {
    # X1 X2 X3: its reversal is no rotation of it, so Tr is complex
    "chiral cubic": _chiral(3, (1, 2, 3), 0.3 + 0.7j),
    # the same class written through rotations of both orientations
    "chiral cubic, rotated words": _chiral(3, (1, 2, 3), 0.3 + 0.7j)
    + _chiral(3, (2, 3, 1), -0.2 + 0.1j),
    "complex quadratic": _chiral(3, (1, 2), 0.5 + 0.2j) + 0.8 * NcPoly.from_word(3, (3, 3)),
    "odd degrees": NcPoly.generator(3, 1) + 0.4 * NcPoly.from_word(3, (2, 2, 2))
    + _chiral(3, (1, 2, 2), 0.25 - 0.5j),
    "quartic and constant": 1.7 + 0.3 * NcPoly.from_word(3, (1, 1, 2, 2))
    + 0.3 * NcPoly.from_word(3, (2, 2, 1, 1)) + NcPoly.from_word(3, (3, 3, 3, 3)),
    "zero": NcPoly.zero(3),
}


@pytest.mark.parametrize("case", sorted(TRACE_CLASS_POTENTIALS))
def test_trace_class_energy_matches_evaluated_trace(case):
    # E = N sum over word classes of Re(C Tr class) against N Tr V(M) from the
    # matrix value, on an (n, K, N, N) array and on lists of (N, N) blocks
    pot, n, N, K = TRACE_CLASS_POTENTIALS[case], 3, 4, 5
    model = GibbsModel(n, N, 2.0, pot)
    rng = substream(8, "trace-class")
    g = rng.standard_normal((n, K, N, N)) + 1j * rng.standard_normal((n, K, N, N))
    blocks = (g + np.swapaxes(g.conj(), -1, -2)) / 2

    def want(b):
        return N * np.trace(pot.evaluate(b), axis1=-2, axis2=-1).real

    got = model.energy(blocks)
    assert got.shape == (K,)
    if pot.is_zero():
        assert np.array_equal(got, np.zeros(K))
    np.testing.assert_allclose(got, want(blocks), rtol=1e-12, atol=0)
    for k in range(K):
        single = [blocks[i, k] for i in range(n)]
        assert np.ndim(model.energy(single)) == 0
        np.testing.assert_allclose(model.energy(single), want(single), rtol=1e-12, atol=0)


def test_energy_of_degree_two_potential_multiplies_no_word(monkeypatch):
    # word_traces plans by word degree: classes of degree <= 2 come from the
    # diagonal and Gram contractions, with no word product at all
    from matent import ncpoly
    calls = []
    real = ncpoly._word_product

    def spy(blocks, word):
        calls.append(word)
        return real(blocks, word)

    monkeypatch.setattr(ncpoly, "_word_product", spy)
    n, K, N = 3, 6, 4
    rng = substream(9, "degree-two")
    g = rng.standard_normal((n, K, N, N)) + 1j * rng.standard_normal((n, K, N, N))
    blocks = (g + np.swapaxes(g.conj(), -1, -2)) / 2
    quadratic = (0.5 + NcPoly.generator(n, 1) + _chiral(n, (1, 2), 0.3 - 0.4j)
                 + NcPoly.from_word(n, (3, 3)))
    model = GibbsModel(n, N, 2.0, quadratic)
    assert model.energy(blocks).shape == (K,)
    assert calls == []
    assert ncpoly._trace_plan(n, model._words).products == ()
    # the spy sees the word products of a polynomial's matrix value, and a
    # cubic class plans a product
    NcPoly.from_word(n, (1, 2)).evaluate(blocks)
    assert calls == [(1, 2)]
    cubic = GibbsModel(n, N, 2.0, quadratic + _chiral(n, (1, 2, 3), 0.2j))
    assert ncpoly._trace_plan(n, cubic._words).products == ((1, 2),)


def test_log_ball_volume_exact_small_cases():
    # N=1: an interval
    for R in (0.5, 1.0, 3.0):
        assert log_ball_volume(1, R) == pytest.approx(math.log(2 * R), abs=1e-14)
    # N=2 closed form: vol = (4 pi / 3) R^4
    assert log_ball_volume(2, 1.0) == pytest.approx(math.log(4 * math.pi / 3), abs=1e-12)


def test_log_ball_volume_radius_scaling():
    for N in (2, 3, 5, 8):
        for R in (0.5, 2.0):
            assert log_ball_volume(N, R) == pytest.approx(
                log_ball_volume(N, 1.0) + N * N * math.log(R), abs=1e-10)


def test_log_ball_volume_matches_hit_or_miss():
    # cheap version of the volume acceptance check
    lv, se = oracles.ball_volume_mc(2, 1.0, 150000, substream(7, "bv-unit"))
    assert abs(lv - log_ball_volume(2, 1.0)) <= 3 * se


def test_iat_iid_is_one():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=20000)
    assert pooled_mean(xs)[1] == pytest.approx(1.0, abs=0.15)


def test_iat_ar1_matches_theory():
    rng = np.random.default_rng(1)
    rho = 0.9
    n = 200000
    xs = np.empty(n)
    xs[0] = rng.normal()
    for i in range(1, n):
        xs[i] = rho * xs[i - 1] + math.sqrt(1 - rho ** 2) * rng.normal()
    want = (1 + rho) / (1 - rho)
    _, got = pooled_mean(xs)
    assert got == pytest.approx(want, rel=0.2)


def test_chain_detailed_balance_scalar_ks():
    # at N=1 the model is a scalar density exp(-V)/Z on [-R, R]; compare the
    # chain's empirical law against quadrature with a KS test
    coeffs = [0.0, 0.8, 0.0, 0.0, 0.15]
    pot = NcPoly(1, {(1,): coeffs[1], (1, 1, 1, 1): coeffs[4]})
    model = GibbsModel(1, 1, 2.0, pot)
    samples, diag = mcmc_chain(model, 30000, 3000, 10, rng=substream(8, "ks"))
    xs = samples[0, :, 0, 0].real
    grid, f, dx = oracles.gibbs_density(coeffs, 2.0)
    cdf_grid = np.cumsum(f) * dx

    def cdf(v):
        return np.interp(v, grid, cdf_grid, left=0.0, right=1.0)

    # thinned draws still carry some correlation; subsample to near-iid
    iat = max(1.0, diag.iat / diag.thin if diag.thin else diag.iat)
    step = max(1, int(math.ceil(iat)))
    res = stats.kstest(xs[::step], cdf)
    assert res.pvalue > 0.001


def test_chain_acceptance_in_band_and_diagnostics():
    # the tuned acceptance band belongs to the matrix-mode chain (n >= 2)
    model = GibbsModel(2, 4, 2.0, NcPoly.zero(2))
    samples, diag = mcmc_chain(model, 6000, 1500, 5, rng=substream(9, "diag"))
    assert 0.2 <= diag.acceptance <= 0.55
    assert diag.retained == samples.shape[1]
    assert diag.ess > 10
    assert diag.iat >= 1.0


class _PerBlockEngine(sampler.ChainEngine):
    """The chain written block by block: one walker, whose blocks sit in a
    list and whose energy is a scalar, one eigvalsh ball test per block, and
    each block's increment built from its own N x N slice z of the block of
    draws, which this engine draws itself from the documented layout. Its
    batch hook takes one step at a time through its own step(), so run() and
    tune() never reach the engine's batched proposals."""

    walkers = 1

    def _advance(self, limit, after):
        count = int(self.step())
        after()
        return 1, count

    def __init__(self, model, rng):
        super().__init__(model, rng)
        self.blocks = [b[0].copy() for b in self.blocks]
        self.energy = self.energy[0]
        self.per_refill = max(1, sampler.DRAW_BUFFER_BYTES // (16 * model.n * model.N ** 2))
        self.t = self.per_refill

    def step(self):
        model = self.model
        if self.t == self.per_refill:
            self.z = self.rng.standard_normal((self.per_refill, model.n, 1, model.N, model.N))
            with np.errstate(divide="ignore"):
                self.log_u = np.log(self.rng.random((self.per_refill, 1)))
            self.t = 0
        z, log_u = self.z[self.t, :, 0], self.log_u[self.t, 0]
        self.t += 1
        self.proposed += 1
        new_blocks = [b + self.step_scale / 2.0 * ((zi + zi.T) + 1j * (zi - zi.T))
                      for b, zi in zip(self.blocks, z)]
        for b in new_blocks:
            lam = np.linalg.eigvalsh(b)
            if abs(lam[0]) > model.R or abs(lam[-1]) > model.R:
                return 0.0
        new_energy = model.energy(new_blocks)
        if not log_u < -(new_energy - self.energy):
            return 0.0
        self.blocks = new_blocks
        self.energy = new_energy
        self.accepted += 1
        return 1.0


def test_engine_beta_is_a_scale_on_the_potential():
    # the chain at inverse temperature beta on V is the chain on beta V: with
    # one stream, the same decisions, blocks and energies
    pot = NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0, (1, 2): -0.5, (2, 1): -0.5,
                     (1, 1, 2, 2): 0.2, (2, 2, 1, 1): 0.2})
    hot = sampler.ChainEngine(GibbsModel(2, 4, 1.5, pot), substream(23, "beta"), 4)
    hot.set_beta(0.4)
    scaled = sampler.ChainEngine(GibbsModel(2, 4, 1.5, 0.4 * pot), substream(23, "beta"), 4)
    for engine in (hot, scaled):
        engine.tune(2000)
    assert np.array_equal(hot.blocks, scaled.blocks)
    assert hot.accepted == scaled.accepted > 0 and hot.step_scale == scaled.step_scale
    assert np.array_equal(scaled.energy, hot.energy)


@pytest.mark.parametrize("n,N", [(2, 4), (3, 5)])
def test_chain_step_matches_per_block_reference(n, N):
    # 4,100 steps with a potential swap and a beta swap on the way, across
    # many blocks of draws, observed at every step, at none and at every 25th;
    # the batched proposals on one walker must reproduce the per-block chain
    # bit for bit (the engine's state has a walker axis of length 1, ravelled
    # here)
    quad = sum((NcPoly.from_word(n, (i, i)) for i in range(1, n + 1)), NcPoly.zero(n))
    coupled = quad + 0.6 * (NcPoly.from_word(n, (1, 2)) + NcPoly.from_word(n, (2, 1))) \
        + 0.3 * NcPoly.from_word(n, (1, 1, 1, 1))
    runs = []
    for cls in (sampler.ChainEngine, _PerBlockEngine):
        engine = cls(GibbsModel(n, N, 1.2, quad), substream(17, "step", n))
        energies = []
        engine.tune(600)
        engine.run(900, observe=lambda e: energies.append(np.ravel(e.energy)))
        engine.set_model(GibbsModel(n, N, 1.2, coupled))
        engine.run(800, observe=lambda e: energies.append(np.ravel(e.energy)))
        engine.set_beta(0.4)
        engine.run(700, observe=lambda e: energies.append(np.ravel(e.energy)))
        engine.run(500)
        engine.run(600, observe=lambda e: energies.append(np.ravel(e.energy)), every=25)
        runs.append((np.array(energies), np.array(engine.blocks).reshape(n, N, N),
                     engine.accepted, engine.proposed, engine.step_scale))
    (e_new, b_new, *rest_new), (e_ref, b_ref, *rest_ref) = runs
    assert np.array_equal(e_new, e_ref)
    assert np.array_equal(b_new, b_ref)
    assert rest_new == rest_ref
    assert 0 < rest_ref[0] < rest_ref[1]


class _SingleStepEngine(sampler.ChainEngine):
    """The engine advanced one step per batch, as step() advances it."""

    def _advance(self, limit, after):
        return super()._advance(1, after)


class _BatchLogEngine(sampler.ChainEngine):
    """The engine, recording the number of steps each batch takes."""

    def _advance(self, limit, after):
        taken, count = super()._advance(limit, after)
        self.batches.append(taken)
        return taken, count


@pytest.mark.parametrize("walkers", [1, 3])
@pytest.mark.parametrize("degree", [2, 4])
def test_batched_run_equals_single_steps(degree, walkers):
    # tune, runs observed at every 1st, 7th and 25th step, a potential swap
    # and a beta swap: batched runs and single steps on one stream give the
    # same observed states and energies, counters, step scale and next draw;
    # every state observed is inside the ball, so the ball test was made
    quad = NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0})
    pair = _quadratic_pair(1.0, 0.6)
    quartic = pair + 0.3 * NcPoly.from_word(2, (1, 1, 1, 1))
    first, second = (quad, pair) if degree == 2 else (pair, quartic)
    model = GibbsModel(2, 4, 1.2, first)
    runs = []
    for cls in (_BatchLogEngine, _SingleStepEngine):
        engine = cls(model, substream(29, "batched", degree, walkers), walkers)
        engine.batches = []
        seen = []

        def observe(e):
            seen.append((e.blocks.copy(), e.energy.copy()))

        engine.tune(400)
        for every in (1, 7, 25):
            engine.run(300, observe=observe, every=every)
        engine.set_model(GibbsModel(2, 4, 1.2, second))
        engine.run(400, observe=observe, every=7)
        engine.set_beta(0.4)
        engine.run(400, observe=observe, every=25)
        runs.append((seen, engine))
    (seen, batched), (seen_ref, single) = runs
    assert len(seen) == len(seen_ref) == 300 + 42 + 12 + 57 + 16
    for (b, e), (b_ref, e_ref) in zip(seen, seen_ref):
        assert np.array_equal(b, b_ref) and np.array_equal(e, e_ref)
    assert np.array_equal(batched.blocks, single.blocks)
    assert np.array_equal(batched.energy, single.energy)
    assert (batched.accepted, batched.proposed, batched.step_scale) == \
        (single.accepted, single.proposed, single.step_scale)
    assert 0 < single.accepted < single.proposed
    assert np.array_equal(batched.rng.random(4), single.rng.random(4))
    states = np.array([b for b, _ in seen])
    assert np.all(np.abs(np.linalg.eigvalsh(states)) < model.R)
    deepest = max(batched.batches)
    assert deepest == (sampler.SPECULATIVE_DEPTH if walkers == 1 else 1)
    assert sum(batched.batches) == batched.proposed // walkers


def test_split_runs_draw_like_one_run():
    # run(a); run(b) is run(a + b) across a refill of the draws: no draw is
    # skipped or used twice, and the generator is left in the same state
    model = GibbsModel(2, 4, 6.0, _quadratic_pair(1.0, 0.3))
    per_refill = sampler.DRAW_BUFFER_BYTES // (16 * 2 * 3 * 4 * 4)
    a, b = per_refill // 2 + 1, per_refill
    split = sampler.ChainEngine(model, substream(11, "split"), 3)
    whole = sampler.ChainEngine(model, substream(11, "split"), 3)
    split.step_scale = whole.step_scale = 0.2
    split.run(a)
    split.run(b)
    whole.run(a + b)
    assert a < per_refill < a + b < 2 * per_refill
    assert np.array_equal(split.blocks, whole.blocks)
    assert np.array_equal(split.energy, whole.energy)
    assert split.accepted == whole.accepted > 0
    assert np.array_equal(split.rng.random(4), whole.rng.random(4))


def test_increment_law():
    # the zero potential on a ball no increment leaves: every proposal is
    # taken, so from the zero state a step's new blocks are its increment,
    # divided here by the step scale of the step that used it. The law is that
    # of hermitize(A + iB) times s: exactly Hermitian, diagonal variance 1,
    # real and imaginary parts off it 1/2, all N^2 coordinates uncorrelated
    n, K, N, steps = 2, 32, 3, 400
    engine = sampler.ChainEngine(GibbsModel(n, N, 1e3, NcPoly.zero(n)), substream(12, "law"), K)
    draws = []
    for t in range(steps):
        engine.blocks = np.zeros_like(engine.blocks)
        engine.step_scale = 1.0 + t % 3
        engine.run(1)
        assert engine.accepted == K * (t + 1)
        h = engine.blocks
        assert np.array_equal(h, np.conj(np.swapaxes(h, -1, -2)))
        draws.append(h.reshape(-1, N, N) / engine.step_scale)
    h = np.concatenate(draws)
    upper = np.triu_indices(N, 1)
    coords = np.concatenate([np.diagonal(h, axis1=-2, axis2=-1).real,
                             h[:, upper[0], upper[1]].real, h[:, upper[0], upper[1]].imag],
                            axis=1)
    want = np.diag([1.0] * N + [0.5] * (N * (N - 1)))
    # each entry of the sample covariance is within 5 stderrs
    cov = coords.T @ coords / len(coords)
    se = np.sqrt((np.diag(want)[:, None] * np.diag(want)[None] + want ** 2) / len(coords))
    assert np.all(np.abs(cov - want) <= 5 * se), np.round(cov, 3)


def test_walkers_diverge_and_count_walker_steps():
    # eight lockstep walkers from one start: their own proposals part them at
    # once, and the counters count walker-steps, not batched steps
    model = GibbsModel(2, 4, 2.0, _quadratic_pair(1.0, 0.3))
    engine = sampler.ChainEngine(model, substream(4, "walkers"), 8)
    assert engine.walkers == 8 and engine.blocks.shape == (2, 8, 4, 4)
    engine.tune(200)
    engine.reset_counters()
    fractions = [engine.step() for _ in range(300)]
    assert engine.proposed == 8 * 300
    assert engine.accepted == round(8 * sum(fractions))
    assert 0.2 <= engine.acceptance <= 0.55
    flat = engine.blocks.transpose(1, 0, 2, 3).reshape(8, -1)
    assert np.all(np.linalg.norm(flat[:, None] - flat[None], axis=-1) + np.eye(8) > 0)
    assert np.array_equal(engine.energy, model.energy(engine.blocks))


def test_pooled_walker_moment_matches_gaussian_pair_derivative():
    # a (X^2 + Y^2) - c (XY + YX) on a ball it never reaches (R = 6): the
    # pooled mean of N Tr(X^2 + Y^2) over 8 walkers, and its mean over the
    # exact draws of mcmc_chain (the orbital outer samples), is -d/da log I,
    # taken here from the closed form by a central difference
    a, c, N, h = 1.0, 0.5, 4, 1e-5
    want = (oracles.gaussian_pair_log_I(a - h, c, N)
            - oracles.gaussian_pair_log_I(a + h, c, N)) / (2 * h)
    model = GibbsModel(2, N, 6.0, _quadratic_pair(a, c))
    trace = GibbsModel(2, N, 6.0, _quadratic_pair(1.0, 0.0))
    engine = sampler.ChainEngine(model, substream(5, "walker-pair"), 8)
    engine.tune(800)
    series = []
    engine.run(3000, observe=lambda e: series.append(trace.energy(e.blocks)), every=2)
    samples, _ = mcmc_chain(model, 24000, 1000, 2, rng=substream(5, "walker-pair", "one"))
    for walker_series in (np.array(series).T, trace.energy(samples)):
        est, iat = pooled_mean(walker_series)
        assert est.count == 8 * 1500 and iat >= 1.0
        assert abs(est.value - want) <= 3 * est.stderr, (est.value, want, est.stderr)


@pytest.mark.parametrize("walkers,steps", [(1, 40000), (8, 5000)])
def test_pooled_mean_ar1_matches_theory(walkers, steps):
    # AR(1) with phi = 0.9 has tau = (1 + phi) / (1 - phi) = 19; pooled over
    # walkers or not, the estimate lands near it, and the stderr is
    # sqrt(var tau / (K T)) with the variance about the grand mean
    rng = substream(6, "pooled-ar1", str(walkers))
    x = np.zeros((walkers, steps))
    x[:, 0] = rng.standard_normal(walkers) / math.sqrt(1 - 0.81)
    for t in range(1, steps):
        x[:, t] = 0.9 * x[:, t - 1] + rng.standard_normal(walkers)
    est, iat = pooled_mean(x)
    assert est.value == pytest.approx(x.mean()) and est.count == x.size
    assert iat == pytest.approx(19.0, rel=0.15)
    assert est.stderr == pytest.approx(math.sqrt(x.var() * iat / x.size))


@pytest.mark.parametrize("model", [
    GibbsModel(1, 5, 2.0, NcPoly(1, {(1, 1): 0.5, (1, 1, 1, 1): 0.3})),
    # the Gaussian pair below plus a quartic word, which leaves it to the chain
    GibbsModel(2, 4, 1.5, NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0, (1, 2): -0.5, (2, 1): -0.5,
                                     (1, 1, 1, 1): 0.2})),
    GibbsModel(2, 4, 1.5, NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0, (1, 2): -0.5, (2, 1): -0.5}))],
    ids=["exact-n1", "metropolis-n2", "exact-n2"])
def test_chain_samples_are_hermitian_tuples_in_the_ball(model):
    # the checks MatrixTuple made on every retained state, on the array
    samples, diag = mcmc_chain(model, 600, 200, 6, rng=substream(11, "invariant", model.n))
    assert samples.shape == (model.n, 100, model.N, model.N)
    assert diag.retained == samples.shape[1] == 100
    assert np.max(np.abs(samples - np.conj(np.swapaxes(samples, -1, -2)))) <= HERMITIAN_TOL
    assert np.max(np.abs(np.linalg.eigvalsh(samples))) <= model.R + NORM_SLACK
    # and not the zero start: the chain moved
    assert np.all(np.any(samples != 0.0, axis=(0, 2, 3)))


@pytest.mark.parametrize("N,seed", [(2, 3), (4, 4)])
def test_hit_rate_counts_match_per_tuple_distances(N, seed):
    # the stacked max over classes of |(1/N) Tr w - tau|, against each of
    # the same draws as a MatrixTuple with empirical_moments + moment_distance
    half = semicircle_moments(1.0, 2, radius=2.0)
    tau, eps, K, trials = free_product_moments([half, half], 2), 0.3, 2, 20000
    est = microstate_hit_rate(tau, eps, K, N, trials, substream(seed, "hit-ref"))
    rng = substream(seed, "hit-ref")
    model = GibbsModel(1, N, tau.R, NcPoly.zero(1))
    hits = 0
    for lo in range(0, trials, 4096):
        size = min(4096, trials - lo)
        draws, _ = mcmc_chain(model, tau.n * size, 0, 1, rng)
        tuples = [MatrixTuple(tau.n, N, tau.R, tuple(draws[0, i::size])) for i in range(size)]
        hits += sum(moment_distance(empirical_moments(t, K), tau, K) < eps for t in tuples)
    assert est.hits == hits > 0


def test_chain_record_path(tmp_path):
    path = str(tmp_path / "chain.jsonl")
    model = GibbsModel(1, 3, 1.0, NcPoly.zero(1))
    samples, _ = mcmc_chain(model, 500, 100, 50, rng=substream(10, "rec"),
                            record_path=path)
    lines = [json.loads(line) for line in open(path)]
    assert len(lines) == samples.shape[1]


def test_estimate_log_i_exact_cases():
    model = GibbsModel(2, 4, 1.5, NcPoly.zero(2))
    est = estimate_log_I(model)
    assert est.stderr == 0.0
    assert est.value == pytest.approx(2 * log_ball_volume(4, 1.5))


def test_estimate_log_i_linear_matches_closed_form():
    c, R = 0.9, 2.0
    model = GibbsModel(1, 1, R, c * NcPoly.generator(1, 1))
    est = estimate_log_I(model, opts=TIOptions(nodes=25, node_steps=1200),
                         rng=substream(12, "ti-lin"))
    want = oracles.log_i_linear_exact(c, R)
    assert abs(est.value - want) <= 3 * est.stderr + est.bias_bound + 0.02


def _scalar_poly(coeffs):
    return NcPoly(1, {(1,) * k: c for k, c in enumerate(coeffs) if c})


def test_exact_log_i_constant_potential():
    # V = c is not the zero potential, so this goes through the separable route;
    # the Gibbs factor of beta V is the constant exp(-beta N^2 c)
    c, beta, R = 0.7, 0.6, 3.0
    for N in range(1, 65):
        est = estimate_log_I(GibbsModel(1, N, R, beta * _scalar_poly([c])))
        assert est.stderr == 0.0
        assert est.value == pytest.approx(log_ball_volume(N, R) - beta * N * N * c, abs=1e-10)


def test_exact_log_i_linear_n1_matches_closed_form():
    for c, R in ((0.9, 2.0), (-0.4, 1.0), (3.0, 4.0)):
        est = estimate_log_I(GibbsModel(1, 1, R, c * NcPoly.generator(1, 1)))
        assert est.value == pytest.approx(oracles.log_i_linear_exact(c, R), abs=1e-10)


def test_exact_log_i_n2_matches_tensor_quadrature():
    R = 2.0
    for coeffs in ([0.0, 0.3, 0.5], [0.0, -0.2, 0.1, 0.4, 0.3], [0.0, 0.0, 0.0, 0.0, 1.5]):
        est = estimate_log_I(GibbsModel(1, 2, R, _scalar_poly(coeffs)))
        want = oracles.log_i_ratio_two_eigen_quad(coeffs, R)
        assert est.value - log_ball_volume(2, R) == pytest.approx(want, abs=2e-6)


def test_exact_log_i_bias_bound_at_large_n():
    pot = _scalar_poly([0.0, 0.1, 0.45, -0.05, 0.02, 0.0, 0.003])
    est = estimate_log_I(GibbsModel(1, 64, 4.0, pot))
    assert est.stderr == 0.0
    assert est.bias_bound <= 1e-8
    assert est.value < log_ball_volume(64, 4.0)


def test_exact_log_i_resolves_narrow_gaussian_weight():
    # V = c x^2 with its bulk far inside the walls: log I is the Gaussian
    # integral over the N real diagonal and N(N-1)/2 complex entries
    N = 16
    for c in (10.0, 100.0):
        est = estimate_log_I(GibbsModel(1, N, 4.0, c * NcPoly.from_word(1, (1, 1))))
        gauss = (N / 2 * math.log(math.pi / (N * c))
                 + N * (N - 1) / 2 * math.log(math.pi / (2 * N * c)))
        assert est.value == pytest.approx(gauss, abs=1e-8)
        assert est.bias_bound <= 1e-8


def test_exact_log_i_flags_unresolved_weight():
    # a weight narrower than the node spacing leaves the recurrence without
    # N resolved nodes, which raises rather than returning a number
    with pytest.raises(EstimatorError):
        estimate_log_I(GibbsModel(1, 16, 4.0, 1e5 * NcPoly.from_word(1, (1, 1))))


def _quadratic_pair(a, c):
    # a (X^2 + Y^2) - c (XY + YX); a = c gives c (X - Y)^2
    return NcPoly(2, {(1, 1): a, (2, 2): a, (1, 2): -c, (2, 1): -c})


def test_ti_error_bars_cover_exact_coupled_pair():
    # c (X - Y)^2 and X^2 + Y^2 + 0.1 (X^4 + Y^4) - c (XY + YX) do not
    # factorize; Mehta's determinant gives their log I. The second's V0 is
    # not Gaussian, so the path's node 0 comes from the exact spectra
    opts = TIOptions(nodes=21, node_burnin=200, node_steps=1000)
    quartic = NcPoly(2, {(1, 1, 1, 1): 0.1, (2, 2, 2, 2): 0.1})
    misses = []
    for c in (0.25, 1.0):
        for kind, pot in (("ti-coupled", _quadratic_pair(c, c)),
                          ("ti-quartic", _quadratic_pair(1.0, c) + quartic)):
            model = GibbsModel(2, 4, 2.0, pot)
            exact = sampler._mehta_log_I(model)
            for seed in range(4):
                ti = _ti_log_I(model, opts, substream(seed, kind, str(c)))
                diff = ti.value - exact.value
                print(f"{kind} c {c} seed {seed}: TI - exact {diff:+.4f}, z "
                      f"{diff / ti.stderr:+.2f}, bias_bound {ti.bias_bound:.4f}")
                if abs(diff) > 3 * ti.stderr + ti.bias_bound + exact.bias_bound:
                    misses.append((kind, c, seed, diff, ti.stderr, ti.bias_bound))
    assert misses == []


def test_ti_error_bars_cover_gaussian_pair():
    # a (X^2 + Y^2) - c (XY + YX) at R = 6, where the ball cuts off nothing
    # the weight sees: the path from a (X^2 + Y^2) against the Gaussian integral
    opts = TIOptions(nodes=21, node_burnin=200, node_steps=1000)
    misses = []
    for c in (0.3, 0.5):
        want = oracles.gaussian_pair_log_I(1.0, c, 4)
        for seed in range(4):
            ti = _ti_log_I(GibbsModel(2, 4, 6.0, _quadratic_pair(1.0, c)), opts,
                           substream(seed, "ti-gauss", str(c)))
            if abs(ti.value - want) > 3 * ti.stderr + ti.bias_bound:
                misses.append((c, seed, ti.value - want, ti.stderr, ti.bias_bound))
    assert misses == []


def test_mehta_log_i_matches_gaussian_pair():
    # at R = 6 the ball cuts off nothing the Gaussian weight can see; every
    # case here lies inside the determinant's range
    for N in (2, 4, 8, 16):
        for c in (1e-4, -1e-4, 0.01, 0.1, 0.5):
            est = estimate_log_I(GibbsModel(2, N, 6.0, _quadratic_pair(1.0, c)))
            want = oracles.gaussian_pair_log_I(1.0, c, N)
            assert est.stderr == 0.0
            assert abs(est.value - want) <= 1e-9 + est.bias_bound, (N, c, est.value - want)


@pytest.mark.parametrize("N", [1, 4, 9])
def test_remainder_ratio_derivative_is_the_slope(N):
    # rho' against central differences of rho, on both sides of |z| = N
    z = np.concatenate([np.linspace(-2.5 * N, 2.5 * N, 41), [1e-12, -1e-9]])
    z = z[np.abs(np.abs(z) - N) > 1e-3]
    h = 1e-5 * np.maximum(1.0, np.abs(z))
    slope = (oracles.remainder_ratio(z + h, N) - oracles.remainder_ratio(z - h, N)) / (2 * h)
    np.testing.assert_allclose(oracles.remainder_ratio(z, N, 1), slope, rtol=1e-7)


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("s", [0.0, 1e-12, -2.5, 3.99, 4.0, -7.0, 9.0, 40.0, -40.0])
def test_remainder_is_the_kernel_sum(order, s):
    # the node-moment series, in one block of powers (|s| < N) or in column
    # blocks (|s| >= N), against the closed-form kernel summed entry by entry
    # on the whole node grid at once; at s = -40 the series' alternating
    # terms lose digits to cancellation, which the scale at |s| covers
    N, rng = 4, np.random.default_rng(7)
    u = sampler._gauss_legendre(64)[0]
    f1, f2 = rng.standard_normal((3, 64)), rng.standard_normal((2, 64))
    dense = (f1 * u ** N) @ oracles.remainder_ratio(s * np.outer(u, u), N, order) @ (f2 * u ** N).T
    scale = np.abs(f1 * u ** N) @ oracles.remainder_ratio(
        np.abs(s) * np.ones((64, 64)), N, order) @ np.abs(f2 * u ** N).T
    rem = sampler._remainder(f1[None], f2[None], u, np.array([s]), N, order)[0]
    assert np.all(np.abs(rem - dense) <= 1e-14 * scale)


@pytest.mark.parametrize("k", [0.35, 0.0, -0.3])
def test_split_form_takes_e_tr_xy_alike_in_both_solve_orders(k):
    # E Tr XY / R^2 comes from C's order and again from the swapped C''s, on
    # the order-1 remainder transposed; on a model that is not symmetric in X
    # and Y the two agree to rounding (s = -5.6, 0 and 4.8: the series in
    # column blocks, in one block and again in column blocks)
    parts = (np.array([[0.0, 0.1, 0.5]]), np.array([[0.0, -0.05, 0.6]]), np.array([k]))
    _, (spread,), (moments,) = sampler._split_form(300, 2.0, 4, 2)(parts)
    assert moments.shape == (2, 3) and spread <= 1e-14
    assert abs(moments[0, 2] - moments[1, 2]) <= 1e-14


# V = X + 0.2 X^4 + 0.3 Y^2 - Y - 0.25 (XY + YX): unequal sides, odd powers
_TILTED_PAIR = NcPoly(2, {(1,): 1.0, (1, 1, 1, 1): 0.2, (2, 2): 0.3, (2,): -1.0,
                          (1, 2): -0.25, (2, 1): -0.25})


@pytest.mark.parametrize("N,R,pot", [(N, 2.0, _quadratic_pair(c, c))
                                     for c in (0.05, 1.0) for N in (1, 2, 3, 4)]
                         + [(4, 1.5, _TILTED_PAIR)],
                         ids=[f"c{c}-N{N}" for c in (0.05, 1.0) for N in (1, 2, 3, 4)]
                         + ["tilted-N4"])
def test_split_form_log_det_matches_the_unsplit_determinant(N, R, pot):
    # log det(1 + C) against log det M(t) - log det M_T(t), the bimoment
    # matrix and its Taylor part in the monomial basis, in decimal on the same
    # 48 nodes: c (X - Y)^2 at R = 2 has s = 8 c N, so c = 0.05 sums the
    # remainder's series in one block (|s| < N) and c = 1 in column blocks, as
    # does the tilted pair (s = 4.5 at N = 4); the split form's log det is its
    # value less the value at k = 0, which is the Heine part alone (the two
    # points priced in one stack)
    parts = sampler._bilinear_parts(pot)
    value, (spread, _), _ = sampler._split_form(48, R, N)(
        (np.stack([parts[0]] * 2), np.stack([parts[1]] * 2), np.array([parts[2], 0.0])))
    log_det = value[0] - value[1]
    x, log_g = sampler._legendre_nodes(48, R)
    want = oracles.bimoment_log_det_ratio(x, log_g, *parts, N)
    assert abs(log_det - want) <= spread + 1e-12


def test_refined_doubles_to_the_cap_and_stops_on_a_probe():
    # the trust rule on stub quadratures: a gap that halves with each doubling
    # is refined until it is within EXACT_BOUND, or until 2M would pass the
    # cap; a rounding probe beyond EXACT_BOUND stops at once, with no 2M value
    calls = []

    def halving(gap):
        def value(M):
            calls.append(M)
            return 1.0 + 2 * gap * 300 / M, 0.0
        return value

    # the M/2M gap is gap * 300 / M: within 1e-8 from M = 4800
    value, M, error = sampler._refined(halving(1e-7), 4, 19200)
    assert (M, calls) == (4800, [300, 600, 1200, 2400, 4800, 9600])
    assert value == pytest.approx(1.0 + 1.25e-8, abs=1e-15)
    assert error == pytest.approx(6.25e-9, abs=1e-15)
    calls.clear()
    value, M, error = sampler._refined(halving(1e-6), 4, 2400)
    assert (M, calls) == (1200, [300, 600, 1200, 2400])
    assert value == pytest.approx(1.0 + 5e-7, abs=1e-15)
    assert error == pytest.approx(2.5e-7, abs=1e-15)
    calls.clear()
    value, M, error = sampler._refined(lambda M: (calls.append(M) or 1.0, 3e-8), 4, 19200)
    assert (value, M, error, calls) == (1.0, 300, 6e-8, [300])


def test_mehta_log_i_at_zero_coupling_is_heine():
    # V1(X) + V2(Y) factorizes: log I is the sum of the two one-matrix values
    v1 = _scalar_poly([0.0, 0.3, 0.5, 0.0, 0.1])
    v2 = _scalar_poly([0.0, 0.0, 0.8])

    def pair(p, q):
        return NcPoly(2, {**p.terms, **{(2,) * len(w): c for w, c in q.terms.items()}})

    for N in (3, 8):
        h1, h2 = (_heine_log_I(GibbsModel(1, N, 2.0, v)) for v in (v1, v2))
        # the split form at s = 0 itself: estimate_log_I takes the Heine sum
        same = sampler._mehta_log_I(GibbsModel(2, N, 2.0, pair(v1, v1)))
        assert same.stderr == 0.0
        assert abs(same.value - 2 * h1.value) <= 2 * h1.bias_bound + 1e-12
        both = sampler._mehta_log_I(GibbsModel(2, N, 2.0, pair(v1, v2)))
        assert abs(both.value - h1.value - h2.value) <= h1.bias_bound + h2.bias_bound + 1e-12


def test_separable_log_i_is_the_sum_of_one_matrix_values():
    # V1(X) + V2(Y) + V3(Z) with a constant: I is the product of the blocks'
    # integrals, each exact by Heine's identity, and no path is run
    sides = ([0.3, 0.0, 1.0, 0.0, 0.5], [0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 0.2, 0.7])
    pot = NcPoly(3, {(i + 1,) * k: c for i, side in enumerate(sides)
                     for k, c in enumerate(side) if c})
    rng = substream(4, "separable-log-i")
    est = estimate_log_I(GibbsModel(3, 4, 2.0, pot), TIOptions(), rng)
    parts = [_heine_log_I(GibbsModel(1, 4, 2.0, _scalar_poly(side))) for side in sides]
    assert est.value == pytest.approx(sum(p.value for p in parts), abs=1e-12)
    assert est.stderr == 0.0 and est.count == max(p.count for p in parts)
    assert est.bias_bound == pytest.approx(sum(p.bias_bound for p in parts), abs=1e-15)
    assert repr(rng.bit_generator.state) == repr(
        substream(4, "separable-log-i").bit_generator.state)


def test_mehta_log_i_one_by_one_matches_quadrature():
    # at N = 1 log I is a plain double integral over the square: unequal
    # sides with odd powers, a constant term and the potential scaled by beta < 1
    pot = NcPoly(2, {(): 0.1, (1,): 0.3, (1, 1): 0.5, (1, 1, 1): -0.2, (2,): -0.4,
                     (2, 2): 0.8, (1, 2): 0.35, (2, 1): 0.35})
    t, g = np.polynomial.legendre.leggauss(200)
    x, y = np.meshgrid(1.5 * t, 1.5 * t, indexing="ij")
    v = 0.1 + 0.3 * x + 0.5 * x ** 2 - 0.2 * x ** 3 - 0.4 * y + 0.8 * y ** 2 + 0.7 * x * y
    for beta in (0.5, 1.0):
        est = sampler._mehta_log_I(GibbsModel(2, 1, 1.5, beta * pot))
        want = math.log(2.25 * g @ np.exp(-beta * v) @ g)
        assert abs(est.value - want) <= 1e-12 + est.bias_bound


def test_mehta_log_i_draws_no_random_numbers():
    rng, twin = substream(3, "mehta-rng"), substream(3, "mehta-rng")
    model = GibbsModel(2, 4, 2.0, _quadratic_pair(1.0, 1.0))
    est = estimate_log_I(model, opts=TIOptions(), rng=rng)
    assert np.array_equal(rng.random(8), twin.random(8))
    assert est.stderr == 0.0 and est.bias_bound <= 1e-8
    # ROADMAP's reference value for c (X - Y)^2 at N = 4, R = 2, c = 1
    assert est.value == pytest.approx(3.41284, abs=1e-5)


def test_models_without_exact_route_go_to_ti(monkeypatch):
    calls = []

    def fake_ti(model, opts, rng):
        calls.append(model)
        return "ti"

    monkeypatch.setattr(sampler, "_ti_log_I", fake_ti)
    quartic = NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0, (1, 1, 2, 2): 0.3, (2, 2, 1, 1): 0.3})
    triple = NcPoly(3, {(1, 1): 1.0, (2, 2): 1.0, (3, 3): 1.0, (1, 2): -0.5, (2, 1): -0.5})
    # c (X - Y)^2 lies outside the determinant's range at N = 32, c = 0.25;
    # at N = 16 its 300- and 600-node values agree to 8.5e-9, but rounding
    # near 1e-7 shows in the X <-> Y swap; on the Gaussian pair at N = 32,
    # R = 6, c = 0.5 (s = 1152) the remainder's coefficients overflow, which
    # must end the series with no value rather than loop
    models = [GibbsModel(2, 4, 2.0, quartic), GibbsModel(3, 4, 2.0, triple),
              GibbsModel(2, 32, 2.0, _quadratic_pair(0.25, 0.25)),
              GibbsModel(2, 16, 2.0, _quadratic_pair(0.25, 0.25)),
              GibbsModel(2, 32, 6.0, _quadratic_pair(1.0, 0.5))]
    for model in models:
        assert sampler._mehta_log_I(model) is None
        assert estimate_log_I(model, rng=substream(0, "fallback")) == "ti"
    assert calls == models


def test_ti_needs_two_beta_nodes():
    pot = NcPoly.from_word(2, (1, 2)) + NcPoly.from_word(2, (2, 1))
    with pytest.raises(ValueError, match="at least 3 path nodes"):
        _ti_log_I(GibbsModel(2, 3, 1.0, pot), TIOptions(nodes=1),
                  substream(0, "ti-nodes"))


@pytest.mark.parametrize("budget", [{"nodes": 2}, {"node_steps": 1}, {"node_steps": 2},
                                    {"node_steps": 3}], ids=str)
def test_ti_budget_below_its_bound_is_refused(budget):
    # 3 nodes give one second divided difference, the trapezoid's error bound;
    # 4 steps keep 2 states at an ESS of half a node's, pooled_mean's fewest
    with pytest.raises(ValueError, match="at least 3 path nodes|node_steps >= 4"):
        TIOptions(**budget)


def test_three_node_ti_grid_reports_a_discretization_bound():
    # the fewest nodes a path may take still give a second divided difference
    x, y = NcPoly.generator(2, 1), NcPoly.generator(2, 2)
    pot = x * x + y * y + 0.5 * (x * x * y * y + y * y * x * x)
    est = _ti_log_I(GibbsModel(2, 3, 2.0, pot),
                    TIOptions(nodes=3, node_burnin=100, node_steps=2000), substream(1, "x"))
    assert est.bias_bound > 0


def test_ti_draws_its_reference_states_in_one_call(monkeypatch):
    # node 0 of the path is one exact draw of the n-block V0 model, the
    # one-letter words of V; every later node is the warm chain's
    calls = []
    draw = sampler._draw

    def spy(model, steps, burnin, thin, rng, take, walkers=1, engine=None):
        calls.append((model.n, model.potential.terms, steps, engine is None))
        return draw(model, steps, burnin, thin, rng, take, walkers, engine)

    monkeypatch.setattr(sampler, "_draw", spy)
    x, y = NcPoly.generator(2, 1), NcPoly.generator(2, 2)
    pot = x * x + 0.5 * y * y * y * y + 0.5 * (x * x * y * y + y * y * x * x)
    _ti_log_I(GibbsModel(2, 3, 2.0, pot), TIOptions(nodes=3, node_burnin=20, node_steps=40),
              substream(2, "ti-spy"))
    assert calls[0] == (2, {(1, 1): 1.0, (2, 2, 2, 2): 0.5}, 40, True)
    assert len(calls) > 1 and not any(fresh for *_, fresh in calls[1:])


@st.composite
def _routed_models(draw):
    """A self-adjoint potential in 1-3 letters, of degree 2 or 4, with a
    constant, squares that often make a Gaussian, and (for n >= 2) mixed
    words of any kind, only of two letters, or none; and a block map of its
    positions with groups merged at random."""
    n = draw(st.integers(1, 3))
    degree = draw(st.sampled_from((2, 4)))
    real = st.floats(-2.0, 2.0, allow_subnormal=False)
    coeff = st.builds(complex, real, real)
    power = st.builds(lambda a, k: (a,) * k, st.integers(1, n), st.integers(0, degree))
    raw = draw(st.dictionaries(power, coeff, max_size=5))
    kind = draw(st.sampled_from((0, 2, degree))) if n > 1 else 0
    if kind:
        word = st.lists(st.integers(1, n), min_size=2, max_size=kind).map(tuple)
        apart = st.builds(complex, st.one_of(st.floats(-2.0, -0.25), st.floats(0.25, 2.0)), real)
        raw.update(draw(st.dictionaries(word.filter(lambda w: len(set(w)) > 1), apart,
                                        min_size=1, max_size=4)))
    # normal floats only, as for ``real``: the oracles copy loops whose
    # halving of a coefficient is exact only above the subnormal range
    squares = draw(st.lists(st.floats(0.0, 3.0, allow_subnormal=False), min_size=n,
                            max_size=n))
    p = NcPoly(n, raw) + NcPoly(n, {(a + 1, a + 1): s for a, s in enumerate(squares)})
    groups = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    order = list(dict.fromkeys(groups))
    return (GibbsModel(n, 3, 1.5, 0.5 * (p + p.star())),
            BlockMap(tuple(order.index(g) for g in groups)))


def _bits(x):
    """The exact bits of a value: an array's bytes, anything else's repr
    (floats and complex numbers round-trip through it)."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (tuple, list)):
        return [_bits(e) for e in x]
    return repr(x)


class _Stop(Exception):
    pass


@settings(max_examples=200)
@given(_routed_models())
def test_routes_read_the_words_as_their_own_loops_did(case):
    # every reader of NcPoly.letter_parts gives, to the bit, what its own
    # loop over the words gave (oracles), the refusals (None) included
    model, blockmap = case
    pot, n = model.potential, model.n
    blocks, sides = sampler._blocks(model), oracles.separable_sides(pot.terms, n)
    assert (blocks is None) == (sides is None)
    if blocks is not None:
        assert [b.potential for b in blocks] == [NcPoly(1, side) for side in sides]
        assert ([_bits(sorted(b.potential.terms.items())) for b in blocks]
                == [_bits(sorted(NcPoly(1, side).terms.items())) for side in sides])
    assert _bits(sampler._bilinear_parts(pot)) == _bits(oracles.bilinear_parts(pot.terms, n))
    assert _bits(sampler._gaussian_parts(model)) == _bits(
        oracles.gaussian_parts(pot.terms, n, model.N))
    assert _bits(_bilinear_coupling(model, blockmap)) == _bits(
        oracles.bilinear_coupling(pot.terms, blockmap.groups, model.N))
    # V0 is the model _ti_log_I asks estimate_log_I about first
    with mock.patch.object(sampler, "estimate_log_I", side_effect=_Stop) as stub:
        with pytest.raises(_Stop):
            _ti_log_I(model, TIOptions(), np.random.default_rng(0))
    v0 = stub.call_args.args[0].potential
    assert _bits(list(v0.terms.items())) == _bits(
        list(NcPoly(n, oracles.separable_part(pot.terms)).terms.items()))


def test_exact_draws_energy_matches_exact_derivative():
    # d/dt log I(tV) = -E[N Tr V] at t = 1: the mean energy of exact draws,
    # of one matrix and of a separable pair, is checked against the exact
    # route of estimate_log_I.
    N = 8
    quartic = _scalar_poly([0.0, 0.2, 0.5, 0.0, 0.25])
    pair = NcPoly(2, {**quartic.terms, (2, 2): 0.3, (2, 2, 2, 2): 0.4, (2, 2, 2): -0.1})
    for pot in (quartic, pair):
        def slope(h):
            lo, hi = (estimate_log_I(GibbsModel(pot.n, N, 2.0, t * pot)) for t in (1 - h, 1 + h))
            return (hi.value - lo.value) / (2 * h), (hi.bias_bound + lo.bias_bound) / (2 * h)

        d, quad_err = slope(1e-3)
        d_wide, _ = slope(2e-3)
        # central differences err by O(h^2): the h and 2h values differ by 3x that
        want, diff_err = -d, abs(d - d_wide) / 3 + quad_err
        model = GibbsModel(pot.n, N, 2.0, pot)
        samples, diag = mcmc_chain(model, 4000, 0, 1, rng=substream(21, "sweep-dv"))
        series = model.energy(samples)
        se = math.sqrt(series.var(ddof=1) / series.size)
        print(f"n {pot.n}: draws {series.mean():.4f} +- {se:.4f}, "
              f"exact {want:.4f} (+- {diff_err:.1e})")
        assert diag.step_scale == 0.0
        assert abs(series.mean() - want) <= 3 * se + diff_err


def test_estimate_log_i_below_volume_for_positive_potential():
    model = GibbsModel(1, 4, 2.0, NcPoly.from_word(1, (1, 1)))
    est = estimate_log_I(model, opts=TIOptions(nodes=15, node_steps=400),
                         rng=substream(13, "ti-mono"))
    assert est.value < log_ball_volume(4, 2.0)


def test_gibbs_entropy_uniform_is_volume():
    # the uniform ensemble's entropy is its log I, exact for the zero potential
    model = GibbsModel(1, 5, 2.0, NcPoly.zero(1))
    est = estimate_log_I(model)
    assert est.value == pytest.approx(log_ball_volume(5, 2.0))
    assert est.stderr == 0.0


def test_gibbs_entropy_scalar_matches_quadrature():
    coeffs = [0.0, 0.0, 1.1]
    pot = NcPoly(1, {(1, 1): coeffs[2]})
    model = GibbsModel(1, 1, 2.0, pot)
    rng = substream(14, "ent")
    samples, _ = mcmc_chain(model, 20000, 2000, 8, rng=rng)
    est = sampler._entropy(estimate_log_I(model, opts=TIOptions(), rng=rng),
                           pooled_mean(model.energy(samples))[0])
    grid, f, dx = oracles.gibbs_density(coeffs, 2.0)
    want = oracles.entropy_quad(f, dx)
    assert abs(est.value - want) <= 3 * est.stderr + est.bias_bound + 0.02


def test_hit_rate_counts_and_volume():
    tau = arcsine_moments(2.0, 2)
    est = microstate_hit_rate(tau, 0.25, 2, 2, 7500, substream(15, "hit"))
    assert est.trials > 0
    assert est.hits > 0
    assert est.base_log_volume == pytest.approx(log_ball_volume(2, 2.0))
    assert est.log_volume.value < est.base_log_volume


def test_hit_rate_zero_hits_returns_none():
    # an impossible target: second moment at the norm bound cap
    tau = arcsine_moments(2.0, 2)
    est = microstate_hit_rate(tau, 1e-9, 2, 2, 500, substream(16, "miss"))
    assert est.hits == 0
    assert est.log_volume is None


def test_uniform_chain_m2_near_arcsine_at_moderate_size():
    model = GibbsModel(1, 16, 2.0, NcPoly.zero(1))
    samples, _ = mcmc_chain(model, 12000, 2000, 10, rng=substream(17, "m2"))
    m2 = np.mean([empirical_moments([b], 2, model.R).value((1, 1)).real for b in samples[0]])
    # arcsine limit is R^2/2 = 2; finite size pulls it down a little
    assert 1.6 <= m2 <= 2.1


def test_uniform_chain_histogram_is_flat():
    # V = 0 at N = 1: the stationary law is uniform on [-R, R]
    model = GibbsModel(1, 1, 1.0, NcPoly.zero(1))
    samples, diag = mcmc_chain(model, 100000, 1000, 1, rng=substream(20, "flat"))
    xs = samples[0, :, 0, 0].real
    step = max(1, int(math.ceil(diag.iat)))
    sub = xs[::step]
    counts, _ = np.histogram(sub, bins=20, range=(-1.0, 1.0))
    res = stats.chisquare(counts)
    assert res.pvalue > 0.001


def test_estimate_log_i_monotone_in_beta():
    # Tr V >= 0 on the ball makes beta -> log I(beta V) nonincreasing
    pot = NcPoly(1, {(1, 1): 1.0})
    lo = estimate_log_I(GibbsModel(1, 2, 1.5, 0.4 * pot),
                        opts=TIOptions(nodes=15, node_steps=600),
                        rng=substream(21, "lo"))
    hi = estimate_log_I(GibbsModel(1, 2, 1.5, pot),
                        opts=TIOptions(nodes=15, node_steps=600),
                        rng=substream(21, "hi"))
    slack = 3 * math.hypot(lo.stderr, hi.stderr) + lo.bias_bound + hi.bias_bound
    assert hi.value <= lo.value + slack
    assert hi.value < lo.value  # strict at this coupling strength


@pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 64, 300, 301])
def test_gauss_legendre_matches_numpy(M):
    x, w = sampler._gauss_legendre(M)
    t, g = np.polynomial.legendre.leggauss(M)
    assert np.max(np.abs(x - t)) <= 2e-15
    # absolute: numpy's own smallest weights are off by up to 1.2e-10
    # relative at M = 301, and its even moments by 2e-14
    assert np.max(np.abs(w - g)) <= 2e-14
    assert np.all(np.diff(x) > 0)
    assert not x.flags.writeable and not w.flags.writeable
    assert np.array_equal(x[::-1], -x) and np.array_equal(w[::-1], w)
    if M % 2:
        mid = x[M // 2]
        assert mid == 0.0 and not np.signbit(mid)


@pytest.mark.parametrize("M", [300, 600, 2400, 9600])
def test_gauss_legendre_integrates_even_powers(M):
    x, w = sampler._gauss_legendre(M)
    for k in range(40):
        assert abs(w @ x ** (2 * k) - 2.0 / (2 * k + 1)) <= 1e-14


@pytest.mark.parametrize("M", [1, 2, 3, 4, 5, 64, 300, 301, 600, 2400])
def test_gauss_legendre_matches_the_recurrence(M):
    # Newton in theta on Stieltjes' series and the cosine sum against Newton
    # in x on the three-term recurrence: the nodes agree to rounding; the
    # weights absolutely (the recurrence's edge weights are the ones off,
    # by up to 1e-10 relative at M = 2400)
    x, w = sampler._gauss_legendre(M)
    t, g = oracles.gauss_legendre_by_recurrence(M)
    assert np.max(np.abs(x - t)) <= 2e-15
    assert np.max(np.abs(w - g)) <= 2e-14


@pytest.mark.parametrize("M", [300, 2400])
def test_gauss_legendre_weights_match_60_digits(M):
    # the five smallest weights, next to x = 1 where 1 - x^2 cancels, and the
    # weight of the first positive node, to a few units of rounding (the
    # recurrence's 2 / ((1 - x^2) P'^2) is off by 1.4e-12 at M = 300 and
    # 1.0e-10 at M = 2400)
    x, w = sampler._gauss_legendre(M)
    picks = list(range(M - 5, M)) + [M // 2]
    nodes, weights = oracles.gauss_legendre_decimal(M, x[picks])
    for i, node, weight in zip(picks, nodes, weights):
        assert abs(float(node) - x[i]) <= 2e-16
        assert abs(float((Decimal(w[i]) - weight) / weight)) <= 1e-13


@pytest.mark.parametrize("N", [1, 4, 16])
def test_log_heine_norms_rows_are_the_one_row_loop(N):
    # 60 weights as a (3, 20, M) stack: each row gets the bits of the 1-D
    # Stieltjes loop, its sum, vectors and recurrence, and so does a 1-D
    # call; the stacked dot products are np.vecdot's and the logs libm's
    x, logg = _legendre_nodes(300, 2.0)
    coeffs = np.random.default_rng(4).uniform(-0.5, 0.5, (60, 5))
    logw = np.stack([logg - N * np.polynomial.polynomial.polyval(x, c) for c in coeffs])
    total, qs, (log_h0, a, b) = _log_heine_norms(x, logw.reshape(3, 20, -1), N)
    assert qs.shape == (3, 20, N, 300) and a.shape == b.shape == (3, 20, N - 1)
    for i, row in enumerate(logw):
        want = oracles.heine_norms_by_loop(x, row, N)
        for got in ((total.flat[i], qs.reshape(60, N, -1)[i], log_h0.flat[i],
                     a.reshape(60, -1)[i], b.reshape(60, -1)[i]),
                    (lambda t, q, r: (t, q, *r))(*_log_heine_norms(x, row, N))):
            assert got[0] == want[0] and got[2] == want[2][0]
            for g, w in zip((got[1], got[3], got[4]), (want[1], *want[2][1:])):
                assert np.array_equal(g, w)


def test_log_heine_norms_raise_for_a_stack_with_an_unresolved_row():
    # exp(-N 1e5 x^2) on 300 nodes of [-2, 2] leaves 4 nodes above underflow,
    # fewer than N = 16: the stack raises, as that row alone does, and
    # Heine's log I of that weight raises with no warning on the way
    x, logg = _legendre_nodes(300, 2.0)
    logw = np.stack([logg - 16 * 0.5 * x ** 2, logg - 16 * 1e5 * x ** 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        for w in (logw, logw[1]):
            with pytest.raises(EstimatorError, match="resolved nodes"):
                _log_heine_norms(x, w, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _log_heine_norms(x, logw[0], 16)
        with pytest.raises(EstimatorError, match="resolved nodes"):
            _heine_log_I(GibbsModel(1, 16, 2.0, NcPoly(1, {(1, 1): 1e5})))


def _kernel_on_nodes(model):
    """Eigenvalue kernel rows Q (q_k on the nodes) of an n = 1 model, and the nodes."""
    x, logg = _legendre_nodes(_heine_log_I(model).count, model.R)
    logw = logg - model.N * np.polynomial.polynomial.polyval(
        x, model.potential.letter_parts()[0][0])
    return x, _log_heine_norms(x, logw, model.N)[1]


EXACT_CASES = [GibbsModel(1, 16, 2.0, NcPoly.zero(1)),
               GibbsModel(1, 8, 2.0, _scalar_poly([0.0, 0.3, 0.5, 0.0, 0.4]))]


def _assert_kernel_moments(model, lam):
    # one-point: E tr X^p = (1/N) sum_x x^p K(x, x); two-point: Var Tr f(X) =
    # sum_x f^2 K(x, x) - ||Q diag(f) Q^T||_F^2, which a wrong pair law misses;
    # lam holds one draw's eigenvalues per row
    x, qs = _kernel_on_nodes(model)
    kdiag = (qs * qs).sum(axis=0)
    zs = []
    for p in (1, 2, 4):
        vals = np.mean(lam ** p, axis=1)
        want = float(x ** p @ kdiag) / model.N
        zs.append((vals.mean() - want) / (vals.std(ddof=1) / math.sqrt(vals.size)))
    for p in (1, 2):
        traces = np.sum(lam ** p, axis=1)
        f = x ** p
        a = (qs * f) @ qs.T
        want = float(f * f @ kdiag) - float(np.sum(a * a))
        dev2 = (traces - traces.mean()) ** 2
        zs.append((dev2.mean() - want) / (dev2.std(ddof=1) / math.sqrt(dev2.size)))
    print("z", np.round(zs, 2))
    assert np.max(np.abs(zs)) <= 4.0


@pytest.mark.parametrize("model", EXACT_CASES, ids=["uniform-16", "quartic-8"])
def test_exact_draws_match_kernel_moments(model):
    lam, acceptance = _ExactSpectra(model).draw(3000, substream(30, "kernel", model.N))
    assert 0.0 < acceptance < 1.0
    _assert_kernel_moments(model, lam)


def test_wasteful_separable_gaussian_takes_the_spectra_route(monkeypatch):
    # X^2 at N = 8, R = 1: the Gaussian draws' first batch accepts about 0.07,
    # below SPECTRA_ACCEPTANCE, so the exact spectra draw it (acceptance about
    # 0.33); at R = 2 nearly every Gaussian draw is inside, and no spectra are
    # drawn
    square = NcPoly.from_word(1, (1, 1))
    model = GibbsModel(1, 8, 1.0, square)
    samples, diag = mcmc_chain(model, 3000, 0, 1, rng=substream(37, "spectra"))
    assert diag.step_scale == 0.0 and 0.25 <= diag.acceptance <= 0.45
    _assert_kernel_moments(model, np.linalg.eigvalsh(samples[0]))
    monkeypatch.setattr(sampler, "_ExactSpectra", None)
    _, diag = mcmc_chain(GibbsModel(1, 8, 2.0, square), 300, 0, 1, rng=substream(37, "wide"))
    assert diag.step_scale == 0.0 and diag.acceptance >= sampler.SPECTRA_ACCEPTANCE


@pytest.mark.parametrize("model", EXACT_CASES + [
    GibbsModel(1, 64, 2.0, NcPoly.zero(1)),
    GibbsModel(1, 16, 4.0, _scalar_poly([0.0, 0.0, 10.0]))],
    ids=["uniform-16", "quartic-8", "uniform-64", "narrow-16"])
def test_exact_envelope_dominates_kernel_on_finer_grid(model):
    spectra = _ExactSpectra(model)
    t = np.linspace(-model.R, model.R, 16 * sampler.ENV_SAMPLES * spectra.env.size + 1)
    cell = np.minimum(((t + model.R) / spectra.width).astype(int), spectra.env.size - 1)
    k = np.sum(spectra.phi(t) ** 2, axis=-1)
    assert np.all(k <= spectra.env[cell])
    # the phi_k are orthonormal, so the kernel diagonal integrates to N
    assert np.trapezoid(k, t) == pytest.approx(model.N, rel=1e-4)


def test_exact_draws_raise_below_a_shrunken_envelope(monkeypatch):
    monkeypatch.setattr(sampler, "ENV_MARGIN", 0.5)
    spectra = _ExactSpectra(GibbsModel(1, 8, 2.0, NcPoly.zero(1)))
    with pytest.raises(EstimatorError, match="envelope"):
        spectra.draw(50, substream(31, "shrunk"))


GAUSSIAN_CASES = {
    # linear and cross terms, on a ball (R = 8) no draw comes near
    "pair": NcPoly(2, {(1, 1): 1.0, (2, 2): 0.7, (1, 2): -0.3, (2, 1): -0.3,
                       (1,): 0.4, (2,): -0.6}),
    "triple": NcPoly(3, {(1, 1): 1.0, (2, 2): 0.8, (3, 3): 1.2, (1, 2): -0.3, (2, 1): -0.3,
                         (2, 3): 0.2, (3, 2): 0.2, (1,): 0.3, (3,): -0.2, (): 0.5}),
}


@pytest.mark.parametrize("case", sorted(GAUSSIAN_CASES))
def test_gaussian_draws_match_closed_form_moments(case):
    # with the ball inactive the law is the Gaussian: for Tr V = sum_ab A_ab
    # Tr X_a X_b + c . Tr X, E tr X_a = m_a with m = -A^-1 c / 2, and
    # E tr X_a X_b = m_a m_b + (A^-1)_ab / 2 (the diagonal entries carry
    # A^-1 / (2N), the N^2 - N off-diagonal ones A^-1 / (4N) per part)
    pot = GAUSSIAN_CASES[case]
    n, N = pot.n, 4
    a = np.zeros((n, n))
    c = np.zeros(n)
    for w, coef in pot.terms.items():
        if len(w) == 2:
            a[w[0] - 1, w[1] - 1] += coef.real
        elif len(w) == 1:
            c[w[0] - 1] += coef.real
    inv = np.linalg.inv(a)
    m = -0.5 * inv @ c
    samples, diag = mcmc_chain(GibbsModel(n, N, 8.0, pot), 4000, 500, 1,
                               rng=substream(32, "gaussian", case))
    assert samples.shape == (n, 4000, N, N)
    assert diag.acceptance == 1.0 and diag.step_scale == 0.0
    one = np.einsum("asii->as", samples).real / N
    two = np.einsum("asij,bsji->abs", samples, samples).real / N
    zs = []
    for series, want in [(one, m), (two, np.outer(m, m) + inv / 2)]:
        series = series.reshape(-1, series.shape[-1])
        zs += list((series.mean(axis=1) - want.ravel())
                   / (series.std(axis=1, ddof=1) / math.sqrt(series.shape[1])))
    print("z", np.round(zs, 2))
    assert np.max(np.abs(zs)) <= 4.0


@pytest.mark.parametrize("model", EXACT_CASES, ids=["uniform-16", "quartic-8"])
def test_exact_draws_match_kernel_moments(model):
    lam, acceptance = _ExactSpectra(model).draw(3000, substream(30, "kernel", model.N))
    assert 0.0 < acceptance < 1.0
    _assert_kernel_moments(model, lam)


def test_wasteful_separable_gaussian_takes_the_spectra_route(monkeypatch):
    # X^2 at N = 8, R = 1: the Gaussian draws' first batch accepts about 0.07,
    # below SPECTRA_ACCEPTANCE, so the exact spectra draw it (acceptance about
    # 0.33); at R = 2 nearly every Gaussian draw is inside, and no spectra are
    # drawn
    square = NcPoly.from_word(1, (1, 1))
    model = GibbsModel(1, 8, 1.0, square)
    samples, diag = mcmc_chain(model, 3000, 0, 1, rng=substream(37, "spectra"))
    assert diag.step_scale == 0.0 and 0.25 <= diag.acceptance <= 0.45
    _assert_kernel_moments(model, np.linalg.eigvalsh(samples[0]))
    monkeypatch.setattr(sampler, "_ExactSpectra", None)
    _, diag = mcmc_chain(GibbsModel(1, 8, 2.0, square), 300, 0, 1, rng=substream(37, "wide"))
    assert diag.step_scale == 0.0 and diag.acceptance >= sampler.SPECTRA_ACCEPTANCE


@pytest.mark.parametrize("pot", [
    NcPoly(2, {(1, 1): 1.0, (2, 2): -0.5}),
    _quadratic_pair(1.0, 1.0),
    _quadratic_pair(0.5, 0.5),
    NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0, (1, 1, 1): 0.1})],
    ids=["indefinite", "singular", "singular-rounded", "cubic"])
def test_non_gaussian_models_run_the_chain(pot):
    # an indefinite or singular quadratic form, or a word of degree 3, has
    # no Gaussian law: no parts, no draw, and mcmc_chain runs its chain. The
    # singular form of 0.5 (X - Y)^2 factors by rounding, with a last pivot
    # at rounding level. The indefinite and cubic models are separable and
    # draw exactly; coupled by 0.2 (XY + YX), still with no Gaussian law,
    # they run the chain
    if sampler._blocks(GibbsModel(2, 3, 1.5, pot)) is not None:
        _, diag = mcmc_chain(GibbsModel(2, 3, 1.5, pot), 200, 100, 2,
                             rng=substream(33, "separable"))
        assert diag.step_scale == 0.0 and diag.retained == 100
        pot = pot + NcPoly(2, {(1, 2): 0.2, (2, 1): 0.2})
    model = GibbsModel(2, 3, 1.5, pot)
    assert sampler._gaussian_parts(model) is None
    rng = substream(33, "not-gaussian")
    assert sampler._gaussian_draws(model, 10, rng, None) is None
    assert repr(rng.bit_generator.state) == repr(substream(33, "not-gaussian").bit_generator.state)
    _, diag = mcmc_chain(model, 200, 100, 2, rng=rng)
    assert diag.step_scale > 0.0 and diag.retained == 100


def test_flat_gaussian_falls_back_to_the_chain():
    # 0.001 (X^2 + Y^2 - 0.5 (XY + YX)) at N = 8 puts nearly every Gaussian
    # draw outside the ball R = 2: its first batch accepts below
    # MIN_ACCEPTANCE, and the chain runs. The uncoupled 0.001 (X^2 + Y^2) is
    # refused alike, and falls back to the exact draws of a separable model
    model = GibbsModel(2, 8, 2.0, 0.001 * _quadratic_pair(1.0, 0.5))
    assert sampler._gaussian_parts(model) is not None
    taken = []
    assert sampler._gaussian_draws(model, 10, substream(34, "flat"), taken.append) is None
    assert taken == []
    _, diag = mcmc_chain(model, 400, 200, 2, rng=substream(34, "flat"))
    assert diag.step_scale > 0.0 and diag.acceptance >= sampler.MIN_ACCEPTANCE
    flat = GibbsModel(2, 8, 2.0, 0.001 * _quadratic_pair(1.0, 0.0))
    assert sampler._gaussian_draws(flat, 10, substream(34, "flat"), taken.append) is None
    assert taken == []
    _, diag = mcmc_chain(flat, 400, 200, 2, rng=substream(34, "flat"))
    assert diag.step_scale == 0.0 and diag.retained == 200


@pytest.mark.parametrize("c", [5e-324, 1e-310])
def test_subnormal_square_draws_without_a_warning(c):
    # the pivot test's right side underflows to 0, so c X^2 passes as a
    # Gaussian whose factor is about 8e160: its proposals' squares overflow,
    # and the ball test rejects them silently
    model = GibbsModel(1, 4, 2.0, NcPoly(1, {(1, 1): c}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples, diag = mcmc_chain(model, 20, 0, 1, substream(35, "subnormal"))
    assert diag.retained == 20
    assert all(np.abs(np.linalg.eigvalsh(x)).max() < 2.0 for x in samples[0])


def test_narrow_one_matrix_gaussian_draws():
    # 1e5 X^2 at N = 16, R = 4 is too narrow for the spectra's quadrature,
    # which has fewer than N resolved nodes; the Gaussian route, tried first,
    # draws it
    model = GibbsModel(1, 16, 4.0, 1e5 * NcPoly.from_word(1, (1, 1)))
    with pytest.raises(EstimatorError):
        _ExactSpectra(model)
    samples, diag = mcmc_chain(model, 200, 0, 1, rng=substream(35, "narrow"))
    assert diag.step_scale == 0.0 and diag.acceptance == 1.0
    # E (1/N) Tr X^2 = 1 / (2 * 1e5) off the ball, which sits at 4
    m2 = np.einsum("sij,sji->s", samples[0], samples[0]).real.mean() / 16
    assert m2 == pytest.approx(5e-6, rel=0.05)


def test_gaussian_batches_fit_the_draw_buffer(monkeypatch):
    # proposals come max(1, DRAW_BUFFER_BYTES // (16 n N^2)) at a time, each
    # batch decided by one screened ball test; the accepted draws beyond the
    # count asked for are dropped
    sizes = []
    test = sampler._screened_ball_test

    def spy(m, R):
        sizes.append(m.shape)
        return test(m, R)

    monkeypatch.setattr(sampler, "_screened_ball_test", spy)
    model = GibbsModel(2, 16, 8.0, _quadratic_pair(1.0, 0.2))
    batches = []
    acceptance = sampler._gaussian_draws(model, 300, substream(35, "buffer"), batches.append)
    assert acceptance == 1.0
    assert sizes == [(2, 32, 16, 16)] * 10
    assert [b.shape[1] for b in batches] == [32] * 9 + [12]


@pytest.mark.parametrize("N,R", [(4, 1.15), (16, 1.35)])
def test_screened_gaussian_draws_are_the_cholesky_ones(monkeypatch, N, R):
    # on a pair whose draws straddle the sphere (acceptance about 0.5), the
    # Frobenius bound changes no verdict: the draws accepted are, bit for
    # bit, those the Cholesky test alone accepts on the same proposals
    model = GibbsModel(2, N, R, _quadratic_pair(1.0, 0.2))
    runs = []
    for screened in (True, False):
        if not screened:
            monkeypatch.setattr(sampler, "_screened_ball_test", sampler.in_norm_ball)
        batches = []
        acceptance = sampler._gaussian_draws(model, 2000, substream(36, "screen", N),
                                             batches.append)
        runs.append((acceptance, np.concatenate(batches, axis=1)))
    (acc, draws), (want_acc, want) = runs
    assert 0.35 <= acc <= 0.65 and acc == want_acc
    assert draws.shape == want.shape and draws.tobytes() == want.tobytes()


@pytest.mark.parametrize("N", [4, 16])
def test_screened_ball_test_agrees_at_the_bound(N):
    # Frobenius norms of R (1 +- 1e-13) lie past the bound R (1 - 1e-12), so
    # the Cholesky test decides them; a rank-one matrix, whose operator norm
    # is its Frobenius norm, at R (1 - 2e-12) is decided by the bound, and
    # the Cholesky test puts it inside too
    R = 1.7
    rng = substream(37, "bound", N)
    z = rng.standard_normal((4, N, N)) + 1j * rng.standard_normal((4, N, N))
    full = z + np.conj(np.swapaxes(z, -1, -2))
    v = rng.standard_normal((4, N)) + 1j * rng.standard_normal((4, N))
    rank_one = v[:, :, None] * np.conj(v[:, None, :])
    blocks = []
    for scale in (1.0 - 2e-12, 1.0 - 1e-13, 1.0 + 1e-13):
        for h in (*full, *rank_one):
            blocks.append(h * (R * scale / np.linalg.norm(h)))
    stack = np.array(blocks).reshape(3, 8, N, N)
    got = sampler._screened_ball_test(stack, R)
    assert np.array_equal(got, sampler.in_norm_ball(stack, R))
    assert got[0].all() and not got[2, 4:].any()


@pytest.mark.parametrize("c", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("N", [2, 4, 8])
def test_mehta_log_i_has_a_value_on_the_coupled_pair(N, c):
    # the determinant's range on c (X - Y)^2 at R = 2: both solve orders agree
    # to within 1e-8 here (bounds from 8.9e-16 to 1.2e-9, the largest at
    # N = 8, c = 1), so none of these falls back to TI; c (X + Y)^2 is the
    # same model under Y -> -Y, with s of the other sign
    est = sampler._mehta_log_I(GibbsModel(2, N, 2.0, _quadratic_pair(c, c)))
    assert est is not None and est.stderr == 0.0 and est.bias_bound <= 1e-8
    if (N, c) == (8, 1.0):
        assert est.value == pytest.approx(-34.160091, abs=1e-6)
    mirror = sampler._mehta_log_I(GibbsModel(2, N, 2.0, _quadratic_pair(c, -c)))
    assert mirror is not None and mirror.bias_bound <= 1e-8
    assert abs(mirror.value - est.value) <= est.bias_bound + mirror.bias_bound


@pytest.mark.parametrize("N,c", [(12, 0.5), (16, 0.25)])
def test_mehta_log_i_gives_up_on_swap_spread_at_once(monkeypatch, N, c):
    # c (X - Y)^2 at R = 2 rounds beyond 1e-8 in the X <-> Y swap here; more
    # nodes cannot shrink rounding, so the route stops after at most two
    # node counts instead of doubling to MEHTA_MAX_NODES
    counts = []
    real = sampler._legendre_nodes

    def spy(M, R):
        counts.append(M)
        return real(M, R)

    monkeypatch.setattr(sampler, "_legendre_nodes", spy)
    assert sampler._mehta_log_I(GibbsModel(2, N, 2.0, _quadratic_pair(c, c))) is None
    assert 1 <= len(set(counts)) <= 2
