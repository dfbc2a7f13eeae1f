import math
import warnings

import numpy as np
import pytest

import oracles
from matent import matrices, orbital, sampler
from matent.matrices import BlockMap
from matent.moments import MomentSpec, empirical_moments
from matent.ncpoly import NcPoly, canonical_classes
from matent.estimates import EstimatorError, pooled_mean
from matent.orbital import (MOMENT_STACK, OrbitalRequest, _bilinear_coupling,
                            _hciz_terms, _inner_log_weights, _jackknife_bias, _log_mean_exp,
                            _mean_moments, _outer_chain, _relative_copies, chain_rule_check,
                            dW_moment_lower_bound, orbital_entropy,
                            talagrand_report)
from matent.sampler import (EXACT_BOUND, MIN_ACCEPTANCE, GibbsModel, TIOptions,
                            estimate_log_I, log_ball_volume, mcmc_chain)
from matent.streams import substream


def coupled_potential(c=1.0):
    # c (X1 - X2)^2 expanded in monomials
    return NcPoly(2, {(1, 1): c, (2, 2): c, (1, 2): -c, (2, 1): -c})


def decoupled_potential():
    return NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0})


def test_request_validation():
    model = GibbsModel(2, 4, 2.0, decoupled_potential())
    with pytest.raises(ValueError):
        OrbitalRequest(model, BlockMap.full(2), s_out=8)
    with pytest.raises(ValueError):
        OrbitalRequest(model, BlockMap.full(2), s_in=4)
    with pytest.raises(ValueError):
        OrbitalRequest(model, BlockMap.full(3))


def test_stacked_log_weights_equal_per_tuple_energies():
    # N Tr V on a stack of tuples, against one tuple at a time and against
    # the potential c (X1 - X2)^2 + 0.3 written out by hand
    # the samples and the copies' log weights are those of beta V
    c, N, beta = 0.7, 5, 0.6
    model = GibbsModel(2, N, 2.0, coupled_potential(c) + 0.3)
    hot = GibbsModel(2, N, 2.0, beta * model.potential)
    samples, _ = mcmc_chain(hot, 60, 50, 6, rng=substream(9, "stack"))
    stacked = model.energy(samples)
    assert stacked.shape == (samples.shape[1],)
    for value, t in zip(stacked, np.swapaxes(samples, 0, 1)):
        d = t[0] - t[1]
        assert value == pytest.approx(N * (c * np.trace(d @ d).real + 0.3 * N), rel=1e-12)
        assert value == pytest.approx(model.energy(t), rel=1e-12)
    # the inner layer prices its s_in conjugated copies as one stack
    blockmap = BlockMap.full(2)
    e = _inner_log_weights(samples[:, 0], OrbitalRequest(hot, blockmap, s_in=16),
                           substream(10, "stack"))
    copies = _relative_copies(samples[:, 0], blockmap, 16, substream(10, "stack"))
    assert e.shape == (16,)
    for k in range(16):
        assert e[k] == pytest.approx(-beta * model.energy([b[k] for b in copies]),
                                     rel=1e-12)


def test_zero_potential_gives_exact_zero():
    # with V = 0 all conjugated weights equal the original, so the
    # log-mean-exp collapses with no Monte Carlo noise at all
    model = GibbsModel(1, 3, 2.0, NcPoly.zero(1))
    req = OrbitalRequest(model, BlockMap.full(1), s_out=16, s_in=16,
                         chain_burnin=50, chain_thin=2)
    est = orbital_entropy(req, substream(0, "zero"))
    assert est.value == 0.0
    assert est.stderr == 0.0
    assert est.kl == 0.0


def test_decoupled_model_orbital_vanishes():
    # independent conjugation of a product measure changes nothing
    model = GibbsModel(2, 4, 2.0, decoupled_potential())
    req = OrbitalRequest(model, BlockMap.full(2), s_out=64, s_in=48,
                         chain_burnin=400, chain_thin=8)
    est = orbital_entropy(req, substream(1, "dec"))
    assert abs(est.value) <= 3 * est.stderr + est.bias_bound + 1e-9
    assert est.self_consistent


def test_coupled_model_orbital_strictly_negative():
    model = GibbsModel(2, 6, 2.0, coupled_potential())
    req = OrbitalRequest(model, BlockMap.full(2), s_out=96, s_in=64,
                         chain_burnin=600, chain_thin=10)
    est = orbital_entropy(req, substream(2, "coup"))
    assert est.value < -3 * est.stderr
    assert est.self_consistent
    assert est.kl == pytest.approx(-est.raw)
    assert est.value == pytest.approx(est.raw / 36.0)


def test_orbital_reproducible_per_seed():
    model = GibbsModel(2, 3, 2.0, coupled_potential(0.5))
    req = OrbitalRequest(model, BlockMap.full(2), s_out=16, s_in=16,
                         chain_burnin=100, chain_thin=3)
    a = orbital_entropy(req, substream(3, "rep"))
    b = orbital_entropy(req, substream(3, "rep"))
    assert a.value == b.value and a.stderr == b.stderr


def test_global_conjugation_is_also_null_direction():
    # a single shared unitary preserves every trace moment, hence the
    # relative entropy vanishes even for a coupled potential; conjugating
    # relative to group 0 draws no unitary at all, so it vanishes exactly
    model = GibbsModel(2, 4, 2.0, coupled_potential())
    blockmap = BlockMap((0,) * 2)
    req = OrbitalRequest(model, blockmap, s_out=48, s_in=32,
                         chain_burnin=300, chain_thin=8)
    est = orbital_entropy(req, substream(4, "glob"))
    assert abs(est.value) <= 1e-12
    samples, _ = mcmc_chain(model, 8, 50, 8, rng=substream(4, "glob-outer"))
    rng = substream(4, "glob-inner")
    state = repr(rng.bit_generator.state)
    e = _inner_log_weights(samples[:, 0], OrbitalRequest(model, blockmap, s_in=32), rng)
    assert repr(rng.bit_generator.state) == state
    assert np.allclose(e, -model.energy(samples[:, 0]), rtol=1e-13, atol=0.0)


def test_hciz_oracle_closed_form_precision_and_range():
    # N = 2: (e^{t(a1 b1 + a2 b2)} - e^{t(a1 b2 + a2 b1)}) / (t (a1 - a2)(b1 - b2)),
    # on a spectrum given out of order, for either sign of t
    a, b = np.array([1.1, -0.7]), np.array([-1.3, 0.4])
    for t in (3.0, -3.0):
        two = math.log((math.exp(t * (a[0] * b[0] + a[1] * b[1]))
                        - math.exp(t * (a[0] * b[1] + a[1] * b[0])))
                       / (t * (a[0] - a[1]) * (b[0] - b[1])))
        assert oracles.hciz_log(a, b, t) == pytest.approx(two, abs=1e-13)
    # the default digits are converged: 250 digits, or the default plus 100
    # where that is more (about 250 by itself at N = 32, t = 64), change
    # nothing, at both ends of the range and at N = 32 and 48
    for N, t in ((4, 8.0), (16, 32.0), (32, 64.0), (48, 48.0)):
        model = GibbsModel(2, N, 2.0, coupled_potential())
        samples, _ = mcmc_chain(model, 3 * 20, 400, 20, rng=substream(12, "hciz-precision", N))
        for s in np.swapaxes(samples, 0, 1):
            x, y = (np.linalg.eigvalsh(m) for m in s)
            default = math.ceil(t * np.ptp(x) * np.ptp(y) / (2.0 * math.log(10.0))) + 30
            assert oracles.hciz_log(x, y, t) == pytest.approx(
                oracles.hciz_log(x, y, t, digits=max(250, default + 100)), abs=1e-13)
    for bad in ((np.ones(2), b, 3.0), (a, b, 65.0), (a, b, 0.0),
                (np.arange(65.0), np.arange(65.0), 1.0), (a, np.arange(3.0), 1.0)):
        with pytest.raises(ValueError):
            oracles.hciz_log(*bad)


def test_exact_route_detector():
    # the only words across groups are X_i X_j and X_j X_i of one pair
    assert _bilinear_coupling(GibbsModel(2, 4, 2.0, 0.8 * coupled_potential(0.5)),
                              BlockMap.full(2)) == (0, 1, pytest.approx(2 * 0.8 * 0.5 * 4))
    four = NcPoly(4, {(1, 1): 1.0, (3, 3): 1.0, (1, 3): -1.0, (3, 1): -1.0,
                      (2, 2): 0.5, (4, 4): 0.5, (1, 2): 0.3, (2, 1): 0.3})
    assert _bilinear_coupling(GibbsModel(4, 4, 2.0, four), BlockMap((0, 0, 1, 1))) == (
        0, 2, pytest.approx(8.0))
    assert _bilinear_coupling(GibbsModel(2, 4, 2.0, coupled_potential(-0.5)),
                              BlockMap.full(2)).t == pytest.approx(-4.0)
    # two cross pairs over three groups, and a quartic coupling, stay nested
    chain3 = NcPoly(3, {(1, 2): -1.0, (2, 1): -1.0, (2, 3): -1.0, (3, 2): -1.0})
    assert _bilinear_coupling(GibbsModel(3, 4, 2.0, chain3), BlockMap.full(3)) is None
    quartic = NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0, (1, 1, 2, 2): 0.5, (2, 2, 1, 1): 0.5})
    assert _bilinear_coupling(GibbsModel(2, 4, 2.0, quartic), BlockMap.full(2)) is None
    # no word across groups: t = 0, and the estimate is 0 +- 0 without a chain
    for model, blockmap in ((GibbsModel(3, 4, 2.0, chain3), BlockMap((0,) * 3)),
                            (GibbsModel(2, 4, 2.0, decoupled_potential()), BlockMap.full(2)),
                            (GibbsModel(4, 4, 2.0, four), BlockMap((0, 0, 0, 0)))):
        assert _bilinear_coupling(model, blockmap).t == 0.0
        rng = substream(14, "zero-route")
        state = repr(rng.bit_generator.state)
        est = orbital_entropy(OrbitalRequest(model, blockmap, s_out=16, s_in=16), rng)
        assert repr(rng.bit_generator.state) == state
        assert (est.value, est.stderr, est.bias_bound, est.s_out) == (0.0, 0.0, 0.0, 0)
        assert est.self_consistent


def _exact_terms_against_oracle(N, c, seed):
    model = GibbsModel(2, N, 2.0, coupled_potential(c))
    request = OrbitalRequest(model, BlockMap.full(2), s_out=16, s_in=16,
                             chain_burnin=400, chain_thin=5)
    samples, _ = _outer_chain(request, substream(seed, "exact-term", N))
    coupling = _bilinear_coupling(model, request.blockmap)
    g, spread = _hciz_terms(samples, coupling)
    assert spread <= EXACT_BOUND
    t = coupling.t
    for value, (x, y) in zip(g, np.swapaxes(samples, 0, 1)):
        want = (oracles.hciz_log(np.linalg.eigvalsh(x), np.linalg.eigvalsh(y), t)
                - t * np.vdot(x, y).real)
        assert value == pytest.approx(want, abs=1e-10), (N, c)
    _rows_within_their_bounds(samples, t)


def test_exact_inner_term_matches_oracle_on_chain_spectra():
    # t = 2 c N: 8, 16 and 32 in double precision, and -8 for a repulsive c
    for N, c in ((4, 1.0), (8, 1.0), (16, 1.0), (8, -0.5)):
        _exact_terms_against_oracle(N, c, 15)


def test_exact_inner_term_series_matches_oracle(monkeypatch):
    # at small t the Gaussian kernel's error bound is too wide (about 2e-5
    # nats at N = 16, t = 1.6), so the samples go to the character series
    rows = []
    real = orbital._log_hciz_series
    monkeypatch.setattr(orbital, "_log_hciz_series",
                        lambda a, b, t: rows.append(len(a)) or real(a, b, t))
    _exact_terms_against_oracle(16, 0.05, 16)
    assert sum(rows) > 0


def _rows_within_their_bounds(samples, t):
    # each row's reported bound covers its distance to the decimal oracle; a
    # negative t is |t| with Y's spectrum negated, as in _hciz_terms
    a, b = (np.linalg.eigvalsh(m) for m in samples)
    value, bound = orbital._log_hciz(a, *((-b[:, ::-1], -t) if t < 0 else (b, t)))
    for v, e, x, y in zip(value, bound, a, b):
        assert abs(v - oracles.hciz_log(x, y, t)) <= e, (t, v, e)


def test_hciz_bound_covers_error_at_small_t():
    # X^2 + Y^2 - 0.1 (XY + YX) on R = 4, N = 8, t = 1.6: the kernel's error
    # here is far above the spread of its two pivot orders (7.9e-10 against
    # 5.0e-11 on one row), so each row needs a bound that covers its error
    pot = NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0, (1, 2): -0.1, (2, 1): -0.1})
    model = GibbsModel(2, 8, 4.0, pot)
    for seed in range(8):
        samples, _ = mcmc_chain(model, 64, 0, 1, rng=np.random.default_rng(seed))
        _rows_within_their_bounds(samples, 1.6)


def test_exact_inner_term_at_n32_matches_oracle():
    # N = 32 is beyond the kernel: the Gaussian pair at rho = 0.1 (t = 6.4)
    # and 0.5 (t = 32) and c (X - Y)^2 on spectra near its zero start all
    # take the series. The term g also carries the cross trace t Tr(XY),
    # whose rounding is not part of the HCIZ bound
    cases = [(NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0, (1, 2): -rho, (2, 1): -rho}), 4.0, 0, 1)
             for rho in (0.1, 0.5)] + [(coupled_potential(1.0), 2.0, 400, 20)]
    for k, (pot, R, burnin, thin) in enumerate(cases):
        model = GibbsModel(2, 32, R, pot)
        samples, _ = mcmc_chain(model, 3 * thin, burnin, thin, rng=substream(18, "n32", k))
        coupling = _bilinear_coupling(model, BlockMap.full(2))
        g, bound = _hciz_terms(samples, coupling)
        t = coupling.t
        for value, (x, y) in zip(g, np.swapaxes(samples, 0, 1)):
            cross = t * np.vdot(x, y).real
            want = oracles.hciz_log(np.linalg.eigvalsh(x), np.linalg.eigvalsh(y), t) - cross
            assert abs(value - want) <= bound + 1e-14 * abs(cross), (R, t)
        _rows_within_their_bounds(samples, t)


def test_hciz_rows_at_n48_within_their_bounds(monkeypatch):
    # N = 48: the kernel's bound is above 0.07 on every row of the Gaussian
    # pair, so all four rows take the series (x about 70 at rho = 0.1 and
    # 450 at rho = 0.5), in one call per case
    rows = []
    real = orbital._log_hciz_series
    monkeypatch.setattr(orbital, "_log_hciz_series",
                        lambda a, b, t: rows.append(len(a)) or real(a, b, t))
    for k, rho in enumerate((0.1, 0.5)):
        pot = NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0, (1, 2): -rho, (2, 1): -rho})
        samples, _ = mcmc_chain(GibbsModel(2, 48, 4.0, pot), 2, 0, 1,
                                rng=substream(19, "n48", k))
        _rows_within_their_bounds(samples, 2.0 * rho * 48)
    assert sum(rows) == 4


def test_hciz_series_past_its_range_flags_rows_without_warnings():
    # uniform spectra on [0, 1] with x = t: past x of about 500 N the series
    # overflows, and its bound must say so (non-finite, or above the spread
    # an exact term may have) without numpy's overflow warnings; the kernel
    # resolves these rows, so _log_hciz keeps its own
    for N, x in ((2, 1000.0), (4, 2500.0), (8, 6000.0)):
        a = np.linspace(0.0, 1.0, N)[None, :]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, bound = orbital._log_hciz_series(a, a, x)
            value, kept = orbital._log_hciz(a, a, x)
        assert not np.any(bound <= EXACT_BOUND), (N, x, bound)
        assert np.all(np.isfinite(value)) and np.all(kept <= EXACT_BOUND), (N, x)


def test_jackknife_bias_when_one_draw_carries_all_mass():
    # the complement trick leaves nothing for the dominant draw, whose
    # leave-one-out sum is taken from the others: 40 or 800 nats below it,
    # or underflowing exp altogether, it must match brute-force deletion
    def brute(e):
        def lse(v):
            return v.max() + math.log(np.sum(np.exp(v - v.max())))
        loo = [lse(np.delete(e, i)) - math.log(e.size - 1) for i in range(e.size)]
        return (e.size - 1) * (np.mean(loo) - (lse(e) - math.log(e.size)))

    rng = np.random.default_rng(3)
    for gap in (40.0, 800.0):
        e = np.concatenate(([1.5], 1.5 - gap - rng.random(15)))
        assert math.isfinite(_jackknife_bias(e))
        assert _jackknife_bias(e) == pytest.approx(brute(e), rel=1e-12, abs=1e-12)


def test_exact_route_draws_no_haar_unitary(monkeypatch):
    # every Haar unitary, of an orbital batch or of an exact separable draw,
    # comes from matrices.haar_unitary_batch
    drawn = []
    real = matrices.haar_unitary_batch

    def spy(count, N, rng):
        drawn.append(count)
        return real(count, N, rng)

    for module in (matrices, orbital, sampler):
        monkeypatch.setattr(module, "haar_unitary_batch", spy)
    # readme-orbital's model: c (X - Y)^2, c = 1, N = 8, R = 2
    model = GibbsModel(2, 8, 2.0, coupled_potential(1.0))
    est = orbital_entropy(OrbitalRequest(model, BlockMap.full(2), s_out=16, s_in=16,
                                         chain_burnin=200, chain_thin=4), substream(17, "spy"))
    assert drawn == [] and est.value < 0.0
    # a quartic coupling keeps the nested route: s_in unitaries per outer sample
    quartic = NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0, (1, 1, 2, 2): 0.5, (2, 2, 1, 1): 0.5})
    orbital_entropy(OrbitalRequest(GibbsModel(2, 4, 2.0, quartic), BlockMap.full(2), s_out=16,
                                   s_in=16, chain_burnin=200, chain_thin=4),
                    substream(17, "spy-nested"))
    assert drawn == [16] * 16
    # the chain-rule check on the exact route: one relative copy per sample
    drawn.clear()
    chain_rule_check(OrbitalRequest(model, BlockMap.full(2), s_out=16, s_in=32,
                                    chain_burnin=200, chain_thin=4), substream(17, "spy-chain"))
    assert drawn == [16]


def test_stuck_outer_chain_is_flagged():
    # at the command-line tests' tiny orbital budgets, a steep potential at
    # N = 3 keeps the outer chain at its zero start on any stream: every
    # sample is the start, whose term is exactly 0 on either route; the
    # estimate reads 0 +- 0 and is flagged, not raised. From 0 the energy of
    # 100 (X - Y)^2 is 6 c s^2 chi^2_9 for step scale s >= 0.6 R / (2 sqrt N)
    # = 0.35 over 72 steps, which accept with probability at most
    # 72 (1 + 12 c s^2)^(-9/2) < 2e-8; the quartic's Tr X^2 Y^2 terms are
    # >= 0, so its energy is at least that of its 100 (X^2 + Y^2)
    for pot in (coupled_potential(100.0),
                100.0 * NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0, (1, 1, 2, 2): 0.5,
                                   (2, 2, 1, 1): 0.5})):
        request = OrbitalRequest(GibbsModel(2, 3, 2.0, pot), BlockMap.full(2), s_out=16,
                                 s_in=16, chain_burnin=40, chain_thin=2)
        samples, chain = _outer_chain(request, substream(5, "orbital"))
        assert chain.acceptance < MIN_ACCEPTANCE
        assert not np.any(samples)
        est = orbital_entropy(request, substream(5, "orbital"))
        assert (est.value, est.stderr) == (0.0, 0.0)
        assert not est.self_consistent


def test_inner_layer_matches_exact_hciz_term():
    # V = c (X - Y)^2, one group per block: conj(M) leaves X and Tr Y^2 and
    # conjugates Y by one Haar W, so the inner term is exact,
    #   log E_W f(X, W Y W^*)
    #     = -N c (Tr X^2 + Tr Y^2) + log HCIZ(2 c N, spec X, spec Y).
    # The weights are heavy-tailed and the log-mean-exp is biased low by more
    # than its delta-method stderr once t R^2 is large (at R = 2, t = 8 and
    # s_in = 2000 the replicate z-scores average -5.7), so the match is judged
    # against the spread of 20 independent replicates, at t R^2 = 2 (R = 1,
    # c = 1/4), allowing the estimator's own jackknife bias.
    N, c, reps = 4, 0.25, 20
    model = GibbsModel(2, N, 1.0, coupled_potential(c))
    samples, _ = mcmc_chain(model, 4 * 40, 600, 40, rng=substream(13, "hciz-outer"))
    for k, (x, y) in enumerate(np.swapaxes(samples, 0, 1)):
        exact = (-N * c * (np.vdot(x, x).real + np.vdot(y, y).real)
                 + oracles.hciz_log(np.linalg.eigvalsh(x), np.linalg.eigvalsh(y),
                                    2.0 * c * N))
        values, biases = np.empty(reps), np.empty(reps)
        for r in range(reps):
            e = _inner_log_weights((x, y), OrbitalRequest(model, BlockMap.full(2), s_in=2000),
                                   substream(13, "hciz", k, r))
            values[r], biases[r] = _log_mean_exp(e), _jackknife_bias(e)
        se = values.std(ddof=1) / math.sqrt(reps)
        assert abs(values.mean() - exact) <= 3.0 * se + abs(biases.mean()), (k, exact)


def test_chain_rule_identity_coupled():
    model = GibbsModel(2, 4, 2.0, coupled_potential(0.8))
    rep = chain_rule_check(OrbitalRequest(model, BlockMap.full(2), s_out=64, s_in=48,
                                          chain_burnin=400, chain_thin=8),
                           substream(5, "chain"),
                           ti=TIOptions(nodes=17, node_steps=700))
    assert rep.holds
    assert abs(rep.residual) <= 3 * rep.combined_stderr
    # shared chain and normalizer cancel in the paired residual, so the
    # paired stderr must not exceed the independent combination
    assert rep.residual_stderr <= rep.combined_stderr + 1e-12
    assert abs(rep.residual) <= 4 * rep.residual_stderr + 0.05


def test_chain_rule_terms_exact_for_bilinear_model():
    # log I of c (X - Y)^2 comes from Mehta's determinant: the total and
    # conjugated terms carry no TI error, only the outer chain's
    model = GibbsModel(2, 4, 2.0, coupled_potential(0.8))
    request = OrbitalRequest(model, BlockMap.full(2), s_out=32, s_in=16,
                             chain_burnin=200, chain_thin=4)
    log_i = estimate_log_I(model)
    assert log_i.stderr == 0.0
    rep = chain_rule_check(request, substream(7, "chain-exact"))
    assert rep.total.bias_bound == log_i.bias_bound <= 1e-8
    # the conjugated term adds the largest bound of the HCIZ rows at the copies
    assert 0.0 < rep.conjugated.bias_bound - log_i.bias_bound <= EXACT_BOUND
    # the chain check draws its outer samples first, so the same stream repeats them
    samples, _ = _outer_chain(request, substream(7, "chain-exact"))
    energy = pooled_mean(-model.energy(samples))[0]
    assert rep.total.stderr == energy.stderr
    assert rep.total.value == pytest.approx(
        log_i.value - energy.value - 2 * log_ball_volume(4, 2.0), abs=1e-12)


CRITERION_09 = dict(s_out=128, s_in=96, chain_burnin=1200, chain_thin=20)


def test_chain_rule_terms_are_not_positive_at_criterion_09_budget():
    # each term is a relative entropy, so at most 0 within its errors
    model = GibbsModel(2, 8, 2.0, coupled_potential(1.0))
    request = OrbitalRequest(model, BlockMap.full(2), **CRITERION_09)
    for seed in range(3):
        rep = chain_rule_check(request, np.random.default_rng(seed))
        for term in (rep.total, rep.orbital, rep.conjugated):
            assert term.value <= 3.0 * term.stderr + term.bias_bound, (seed, term)


@pytest.mark.parametrize("N, c", [(4, 0.8), (8, 1.0)])
def test_chain_rule_orbital_is_orbital_entropy(N, c):
    # one route for both reports, and the check draws nothing before it
    request = OrbitalRequest(GibbsModel(2, N, 2.0, coupled_potential(c)), BlockMap.full(2),
                             **CRITERION_09)
    rep = chain_rule_check(request, substream(N, "chain-same"))
    est = orbital_entropy(request, substream(N, "chain-same"))
    assert (rep.orbital.value, rep.orbital.stderr) == (est.raw, est.raw_stderr)


def test_chain_rule_identity_on_the_nested_route():
    # crossing words of degree 4 keep the nested route: the check compares a
    # nested pass at each sample with one at its relative copy, whose
    # difference is noise and not rounding
    pot = NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0, (1, 1, 2, 2): 0.15, (2, 2, 1, 1): 0.15})
    model = GibbsModel(2, 4, 2.0, pot)
    request = OrbitalRequest(model, BlockMap.full(2), s_out=32, s_in=32, chain_burnin=400,
                             chain_thin=8)
    assert _bilinear_coupling(model, request.blockmap) is None
    rep = chain_rule_check(request, substream(3, "chain-nested"),
                           ti=TIOptions(nodes=9, node_steps=300))
    assert rep.holds
    assert 0.0 < abs(rep.residual) <= 4.0 * rep.residual_stderr
    est = orbital_entropy(request, substream(3, "chain-nested"))
    assert (rep.orbital.value, rep.orbital.stderr) == (est.raw, est.raw_stderr)


def test_stuck_outer_chain_fails_the_chain_rule_check():
    # the command-line tests' tiny budget: the chain of 5 (X - Y)^2 at N = 3
    # accepts no move, and on the exact route the residual is rounding even
    # so; the chain's acceptance is the only sign left
    request = OrbitalRequest(GibbsModel(2, 3, 2.0, coupled_potential(5.0)), BlockMap.full(2),
                             s_out=16, s_in=16, chain_burnin=40, chain_thin=2)
    assert _outer_chain(request, np.random.default_rng(0))[1].acceptance < MIN_ACCEPTANCE
    rep = chain_rule_check(request, np.random.default_rng(0))
    assert rep.residual == rep.orbital.value == 0.0
    assert not rep.holds


@pytest.mark.parametrize("N", [2, 3, 4, 6])
def test_chain_rule_holds_on_decoupled_models(N):
    # on c (X^2 + Y^2) the identity holds exactly: the residual and its paired
    # stderr are both rounding, which the rounding allowance of holds covers
    for c in (0.5, 1.0):
        model = GibbsModel(2, N, 2.0, NcPoly(2, {(1, 1): c, (2, 2): c}))
        request = OrbitalRequest(model, BlockMap.full(2), s_out=16, s_in=16,
                                 chain_burnin=40, chain_thin=2)
        for seed in range(5):
            rep = chain_rule_check(request, np.random.default_rng(seed))
            assert abs(rep.residual) <= 1e-13 and rep.holds, (c, seed, rep.residual)


def test_dw_moment_lower_bound_hand_case():
    a = MomentSpec(1, 2, 1.0, {(1,): 0.0, (1, 1): 1.0})
    b = MomentSpec(1, 2, 1.0, {(1,): 0.5, (1, 1): 1.0})
    # degree-1 gap 0.5 with Lipschitz constant 1, degree-2 gap 0
    assert dW_moment_lower_bound(a, b, 2) == pytest.approx(0.5)
    assert dW_moment_lower_bound(a, b, 2, p_tilde=4) == pytest.approx(0.25)
    # each gap shrinks by 3 stderr, to no less than 0
    assert dW_moment_lower_bound(a, b, 2, stderr={(1,): 0.1, (1, 1): 0.0}) == pytest.approx(0.2)
    assert dW_moment_lower_bound(a, b, 2, stderr={(1,): 0.2, (1, 1): 0.0}) == 0.0
    with pytest.raises(ValueError):
        dW_moment_lower_bound(a, MomentSpec(2, 1, 1.0, {(1,): 0.0, (2,): 0.0}), 1)


def test_dw_lower_bound_scales_with_radius():
    a = MomentSpec(1, 2, 2.0, {(1,): 0.0, (1, 1): 1.0})
    b = MomentSpec(1, 2, 2.0, {(1,): 0.0, (1, 1): 1.5})
    # degree-2 Lipschitz constant 2 R = 4
    assert dW_moment_lower_bound(a, b, 2) == pytest.approx(0.5 / 4.0)


def test_talagrand_report_coupled_holds():
    model = GibbsModel(2, 6, 2.0, coupled_potential(0.5))
    rep = talagrand_report(OrbitalRequest(model, BlockMap.full(2), s_out=64, s_in=48,
                                          chain_burnin=500, chain_thin=8),
                           substream(7, "tala"), K=4)
    assert rep.holds_free and rep.holds_conj
    assert rep.rhs_upper >= rep.rhs
    assert rep.p_tilde == 1
    assert rep.freeness_gap < 0.5
    assert rep.lhs_free >= 0.0 and rep.lhs_conj >= 0.0
    for K in (0, 8):  # at K = 0 no word is compared: both verdicts would hold vacuously
        with pytest.raises(ValueError, match="1 <= K <= 6"):
            talagrand_report(OrbitalRequest(model, BlockMap.full(2)), substream(8, "k"), K=K)


def test_talagrand_report_decoupled_orbital_is_exact_zero():
    # the one report whose zero route still runs its outer chain: the chain
    # feeds the barycenters, and the orbital term is the exact 0 that
    # orbital_entropy gives with no chain at all
    model = GibbsModel(2, 4, 2.0, decoupled_potential())
    request = OrbitalRequest(model, BlockMap.full(2), s_out=32, s_in=16,
                             chain_burnin=200, chain_thin=4)
    rep = talagrand_report(request, substream(5, "tala-zero"), K=4)
    orb = rep.orbital
    assert orb.value == orb.stderr == orb.s_out == orb.ess == 0
    assert orb.self_consistent
    assert orb == orbital_entropy(request, substream(5, "tala-zero"))
    assert rep.barycenter.value((1, 1)).real > 0.0
    # rhs_upper is 0, and both verdicts hold: the sample's gaps are its noise
    assert rep.rhs_upper == 0.0 and rep.lhs_free > 0.0 and rep.lhs_conj > 0.0
    assert rep.holds_free and rep.holds_conj


def test_talagrand_verdicts_on_decoupled_models():
    # a free pair has gaps of its noise's size where rhs_upper is 0. Over
    # these 20 seeds at N = 4 and 8, on V = 0 and X^2 + Y^2, the verdicts fail
    # 2 times (free) and once (conj), all on X^2 + Y^2 at N = 4. Over 200
    # seeds the conj verdict failed 1%, 0%, 2% and 3% of the time on (V = 0,
    # N = 4), (V = 0, 8), (X^2 + Y^2, 4) and (X^2 + Y^2, 8), near the 2% of
    # seven crossing words at 3 sigma; the free verdict failed 1.5%, 0.5%,
    # 12.5% and 2%: at N = 4 the X^2 + Y^2 barycenter of tr XYXY sits 1.7
    # stderr off the free product on average, a finite-N gap of O(N^-2)
    fails = {"free": 0, "conj": 0}
    for pot in (NcPoly.zero(2), decoupled_potential()):
        for N in (4, 8):
            request = OrbitalRequest(GibbsModel(2, N, 2.0, pot), BlockMap.full(2), s_out=128,
                                     s_in=96, chain_burnin=1200, chain_thin=20)
            for seed in range(20):
                rep = talagrand_report(request, substream(seed, "decoupled", N), K=4)
                assert rep.rhs_upper == 0.0
                fails["free"] += not rep.holds_free
                fails["conj"] += not rep.holds_conj
    assert fails["free"] <= 2 and fails["conj"] <= 1, fails


def test_talagrand_free_proxy_in_position_order():
    # the free stand-in of X^2 + 3 Y^2 does not depend on how the groups are
    # numbered: under BlockMap((1, 0)) the free product lists Y first, and
    # read in that order its tr X1^2 was Y's 0.17 against the barycenter's 0.50
    model = GibbsModel(2, 4, 2.0, NcPoly(2, {(1, 1): 1.0, (2, 2): 3.0}))
    reps = [talagrand_report(OrbitalRequest(model, BlockMap(groups), s_out=64, s_in=16,
                                            chain_burnin=200, chain_thin=5),
                             np.random.default_rng(3), K=2)
            for groups in ((0, 1), (1, 0))]
    for w in canonical_classes(2, 2, 1):
        assert reps[1].proxy_free.value(w) == pytest.approx(reps[0].proxy_free.value(w),
                                                            abs=1e-12)
        if len(set(w)) == 1:
            assert reps[1].proxy_free.value(w) == reps[1].barycenter.value(w)
    assert reps[1].lhs_free == pytest.approx(reps[0].lhs_free, abs=1e-12)
    assert reps[0].holds_free and reps[1].holds_free


def test_free_gap_linearization_and_stderrs_on_complex_words():
    # four matrices in groups {1, 2, 3} and {4}: Tr X1 X2 X3 is complex
    # inside a group and Tr X1 X2 X4 across groups. Samples pulled toward
    # their barycenter by 1e-3 make the linearization exact to O(1e-6): on
    # each word across groups, the mean of the linearized gap series over half
    # the samples, less its mean over all, is the move of the gap from the
    # whole barycenter to the half's
    K, blockmap = 4, BlockMap((0, 0, 0, 1))
    samples, _ = mcmc_chain(GibbsModel(4, 3, 2.0, NcPoly.zero(4)), 64, 0, 1,
                            rng=substream(41, "complex-words"))
    bary, traces = _mean_moments([samples], K, 2.0)
    traces = traces.mean(axis=0) + 1e-3 * (traces - traces.mean(axis=0))
    words = canonical_classes(4, K, 1)

    def gap(rows):
        spec = MomentSpec(4, K, 2.0, dict(zip(words, rows.mean(axis=0))))
        proxy = orbital._free_proxy(spec, blockmap, K)
        return np.array([spec.values[w] - proxy.values[w] for w in words])

    whole = gap(traces)
    spec = MomentSpec(4, K, 2.0, dict(zip(words, traces.mean(axis=0))))
    series = orbital._free_gap_series(spec, traces, blockmap,
                                      orbital._free_proxy(spec, blockmap, K), K)
    crossing = [len({blockmap.groups[g - 1] for g in w}) > 1 for w in words]
    moved = (gap(traces[:32]) - whole)[crossing]
    lin = (series[:32].mean(axis=0) - series.mean(axis=0))[crossing]
    inside, across = words.index((1, 2, 3)), words.index((1, 2, 4))
    assert abs(moved.imag).max() > 1e-5
    assert np.max(np.abs(lin - moved)) <= 1e-3 * np.max(np.abs(moved))
    se = orbital._stderrs(series, K, blockmap)
    assert se[words[inside]] == 0.0
    assert se[words[across]] == math.hypot(pooled_mean(series[:, across].real)[0].stderr,
                                           pooled_mean(series[:, across].imag)[0].stderr)
    assert se[(1, 4)] == pooled_mean(series[:, words.index((1, 4))].real)[0].stderr


def test_exact_term_of_degenerate_spectra():
    # a multiple of 1 is moved by no conjugation: its term is exactly 0; any
    # other repeated eigenvalue has no determinant form and raises
    y = np.array([[0.3, 0.2j, 0.0], [-0.2j, -0.5, 0.1], [0.0, 0.1, 0.9]])
    coupling = _bilinear_coupling(GibbsModel(2, 3, 2.0, coupled_potential(1.0)),
                                  BlockMap.full(2))
    # samples[i, s]: block i of sample s; sample 1 is the zero tuple
    flat = np.zeros((2, 2, 3, 3), dtype=complex)
    flat[:, 0] = 0.5 * np.eye(3), y
    g, spread = _hciz_terms(flat, coupling)
    assert g.tolist() == [0.0, 0.0] and spread == 0.0
    with pytest.raises(EstimatorError):
        _hciz_terms(np.array([[np.diag([1.0, 1.0, 0.0])], [y]], dtype=complex), coupling)


def test_stacked_barycenters_equal_per_tuple_moments():
    # talagrand_report's barycenter and conjugated proxy are means of
    # word_traces over stacks of MOMENT_STACK tuples, each stack's copies
    # from one _relative_copies batch: they equal per-tuple moments averaged
    model = GibbsModel(2, 4, 2.0, coupled_potential(0.5))
    request = OrbitalRequest(model, BlockMap.full(2), s_out=40, s_in=16,
                             chain_burnin=300, chain_thin=4)
    rep = talagrand_report(request, substream(19, "bary"), K=4)
    # the exact route draws nothing, so the copies follow the chain in the stream
    rng = substream(19, "bary")
    samples, _ = _outer_chain(request, rng)
    parts = [samples[:, k:k + MOMENT_STACK] for k in range(0, 40, MOMENT_STACK)]
    copies = [_relative_copies(p, request.blockmap, p[0].shape[0], rng) for p in parts]
    assert [p[0].shape[0] for p in parts] == [32, 8]
    for stacks, got in ((parts, rep.barycenter), (copies, rep.proxy_conj)):
        assert got.values == _mean_moments(stacks, 4, model.R)[0].values
        per_tuple = [empirical_moments([b[k] for b in p], 4, model.R)
                     for p in stacks for k in range(p[0].shape[0])]
        for w, v in got.values.items():
            assert abs(v - sum(m.values[w] for m in per_tuple) / 40) <= 1e-12, w


def test_orbital_monotone_when_dropping_decoupled_blocks():
    # blocks X2, X4 decouple from the X1-X3 coupling, so the (X1, X3)
    # marginal is itself a Gibbs pair; dropping one matrix per group must
    # not lower the estimate, and here the two agree in expectation
    full_pot = NcPoly(4, {(1, 1): 1.0, (3, 3): 1.0, (1, 3): -1.0, (3, 1): -1.0,
                          (2, 2): 0.5, (4, 4): 0.5})
    full = orbital_entropy(
        OrbitalRequest(GibbsModel(4, 4, 2.0, full_pot), BlockMap((0, 0, 1, 1)),
                       s_out=160, s_in=96, chain_burnin=800, chain_thin=10),
        substream(30, "mono-full"))
    sub = orbital_entropy(
        OrbitalRequest(GibbsModel(2, 4, 2.0, coupled_potential()), BlockMap((0, 1)),
                       s_out=160, s_in=96, chain_burnin=800, chain_thin=10),
        substream(30, "mono-sub"))
    sigma = math.hypot(full.stderr, sub.stderr)
    assert sub.value >= full.value - 3 * sigma
    assert abs(sub.value - full.value) <= 3 * sigma + full.bias_bound + sub.bias_bound


def test_orbital_subadditive_across_block_groupings():
    # (1)(2)(3) against (1)(2,3) plus the (2)(3) pair; X1 decoupled keeps
    # the pair marginal exactly Gibbs
    tri_pot = NcPoly(3, {(2, 2): 1.0, (3, 3): 1.0, (2, 3): -1.0, (3, 2): -1.0,
                         (1, 1): 0.4})
    model = GibbsModel(3, 4, 2.0, tri_pot)
    fine = orbital_entropy(
        OrbitalRequest(model, BlockMap((0, 1, 2)), s_out=96, s_in=48,
                       chain_burnin=400, chain_thin=8), substream(31, "A"))
    coarse = orbital_entropy(
        OrbitalRequest(model, BlockMap((0, 1, 1)), s_out=96, s_in=48,
                       chain_burnin=400, chain_thin=8), substream(31, "B"))
    pair = orbital_entropy(
        OrbitalRequest(GibbsModel(2, 4, 2.0, coupled_potential()), BlockMap((0, 1)),
                       s_out=96, s_in=48, chain_burnin=400, chain_thin=8),
        substream(31, "C"))
    # grouping (2,3) together leaves Tr V invariant under the inner
    # conjugation, so the coarse estimate collapses to rounding noise
    assert abs(coarse.value) <= 1e-12 and coarse.stderr <= 1e-12
    sigma = math.sqrt(fine.stderr ** 2 + coarse.stderr ** 2 + pair.stderr ** 2)
    assert fine.value <= coarse.value + pair.value + 3 * sigma


def test_stderr_scales_with_outer_samples():
    model = GibbsModel(2, 3, 2.0, coupled_potential())
    ratios = []
    # ten seeds: at five the mean ratio sits at the band's upper edge (0.849
    # against 0.8485 with the exact inner term), and ten read 0.748
    for seed in range(10):
        ses = []
        for s_out in (112, 224):
            req = OrbitalRequest(model, BlockMap.full(2), s_out=s_out, s_in=24,
                                 chain_burnin=200, chain_thin=40)
            ses.append(orbital_entropy(req, substream(100 + seed, "scale", s_out)).stderr)
        ratios.append(ses[1] / ses[0])
    mean = float(np.mean(ratios))
    # doubling the outer budget should shrink stderr by about 1/sqrt(2)
    assert 0.8 / math.sqrt(2) <= mean <= 1.2 / math.sqrt(2)
