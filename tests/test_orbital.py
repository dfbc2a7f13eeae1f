import math

import numpy as np
import pytest

import oracles
from matent import matrices, orbital, sampler
from matent.matrices import BlockMap, MatrixTuple
from matent.moments import MomentSpec, empirical_moments
from matent.ncpoly import NcPoly
from matent.estimates import EstimatorError, pooled_mean
from matent.orbital import (EXACT_SPREAD, MOMENT_STACK, OrbitalRequest, _bilinear_coupling,
                            _hciz_terms, _inner_log_weights, _jackknife_bias, _log_mean_exp,
                            _mean_moments, _outer_chain, _relative_copies, chain_rule_check,
                            dW_moment_lower_bound, dW_upper_bound, orbital_entropy,
                            talagrand_report)
from matent.sampler import (MIN_ACCEPTANCE, GibbsModel, TIOptions, estimate_log_I,
                            log_ball_volume, mcmc_chain)
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
    hot = model.with_potential(beta * model.potential)
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
    blockmap = BlockMap.global_map(2)
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
    # the default digits are converged: 250 digits change nothing, at both
    # ends of the range
    for N, t in ((4, 8.0), (16, 32.0)):
        model = GibbsModel(2, N, 2.0, coupled_potential())
        samples, _ = mcmc_chain(model, 3 * 20, 400, 20, rng=substream(12, "hciz-precision", N))
        for s in np.swapaxes(samples, 0, 1):
            x, y = (np.linalg.eigvalsh(m) for m in s)
            assert oracles.hciz_log(x, y, t) == pytest.approx(
                oracles.hciz_log(x, y, t, digits=250), abs=1e-13)
    for bad in ((np.ones(2), b, 3.0), (a, b, 33.0), (a, b, 0.0),
                (np.arange(17.0), np.arange(17.0), 1.0), (a, np.arange(3.0), 1.0)):
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
    for model, blockmap in ((GibbsModel(3, 4, 2.0, chain3), BlockMap.global_map(3)),
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
    assert spread <= EXACT_SPREAD
    t = coupling.t
    for value, (x, y) in zip(g, np.swapaxes(samples, 0, 1)):
        want = (oracles.hciz_log(np.linalg.eigvalsh(x), np.linalg.eigvalsh(y), t)
                - t * np.vdot(x, y).real)
        assert value == pytest.approx(want, abs=1e-10), (N, c)


def test_exact_inner_term_matches_oracle_on_chain_spectra():
    # t = 2 c N: 8, 16 and 32 in double precision, and -8 for a repulsive c
    for N, c in ((4, 1.0), (8, 1.0), (16, 1.0), (8, -0.5)):
        _exact_terms_against_oracle(N, c, 15)


def test_exact_inner_term_decimal_fallback_matches_oracle(monkeypatch):
    # at small t the two pivot orders of the double determinant disagree
    # (about 1e-6 nats at N = 16, t = 1.6), so every sample goes to decimal
    calls = []
    real = orbital._log_gram_det_decimal
    monkeypatch.setattr(orbital, "_log_gram_det_decimal",
                        lambda *args: calls.append(1) or real(*args))
    _exact_terms_against_oracle(16, 0.05, 16)
    assert len(calls) > 0


def test_exact_route_draws_no_haar_unitary(monkeypatch):
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
    assert rep.conjugated.bias_bound == log_i.bias_bound
    # the chain check draws its outer samples first, so the same stream repeats them
    samples, _ = _outer_chain(request, substream(7, "chain-exact"))
    energy = pooled_mean(-model.energy(samples))[0]
    assert rep.total.stderr == energy.stderr
    assert rep.total.value == pytest.approx(
        log_i.value - energy.value - 2 * log_ball_volume(4, 2.0), abs=1e-12)


def test_dw_upper_bound_deterministic_pair():
    a = MatrixTuple(1, 2, 2.0, (np.diag([1.0, -1.0]).astype(complex),))
    b = MatrixTuple(1, 2, 2.0, (np.zeros((2, 2), dtype=complex),))
    est = dW_upper_bound([(a, b)])
    assert est.value == pytest.approx(1.0)  # ||diag(1,-1)||^2 / N = 1
    assert est.stderr == 0.0
    with pytest.raises(ValueError):
        dW_upper_bound([])


def test_dw_moment_lower_bound_hand_case():
    a = MomentSpec(1, 2, 1.0, {(1,): 0.0, (1, 1): 1.0})
    b = MomentSpec(1, 2, 1.0, {(1,): 0.5, (1, 1): 1.0})
    # degree-1 gap 0.5 with Lipschitz constant 1, degree-2 gap 0
    assert dW_moment_lower_bound(a, b, 2) == pytest.approx(0.5)
    assert dW_moment_lower_bound(a, b, 2, p_tilde=4) == pytest.approx(0.25)
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
    with pytest.raises(ValueError):
        talagrand_report(OrbitalRequest(model, BlockMap.full(2)), substream(8, "k"), K=8)


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
        assert got.values == _mean_moments(stacks, 4, model.R).values
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
