import math

import numpy as np
import pytest

from matent.matrices import BlockMap, MatrixTuple
from matent.moments import MomentSpec
from matent.ncpoly import NcPoly
from matent.orbital import (OrbitalRequest, _InnerSampler, chain_rule_check,
                            dW_moment_lower_bound, dW_upper_bound, entropy_split_check,
                            orbital_entropy, talagrand_report)
from matent.sampler import GibbsModel, TIOptions, _Energy, mcmc_chain
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
    c, N, beta = 0.7, 5, 0.6
    model = GibbsModel(2, N, 2.0, coupled_potential(c) + 0.3, beta)
    samples, _ = mcmc_chain(model, 60, 50, 6, rng=substream(9, "stack"))
    energy = _Energy(2, N, model.potential)
    stacked = energy.from_samples(samples)
    assert stacked.shape == (len(samples),)
    for value, t in zip(stacked, samples):
        d = t.blocks[0] - t.blocks[1]
        assert value == pytest.approx(N * (c * np.trace(d @ d).real + 0.3 * N), rel=1e-12)
        assert value == pytest.approx(energy.from_state(t.blocks), rel=1e-12)
    # the inner sampler prices its s_in conjugated copies as one stack
    blockmap = BlockMap.full(2)
    e = _InnerSampler(model, blockmap, 16, substream(10, "stack")).log_weights(samples[0].blocks)
    copies = _InnerSampler(model, blockmap, 16, substream(10, "stack")).conjugated(
        samples[0].blocks)
    assert e.shape == (16,)
    for k in range(16):
        assert e[k] == pytest.approx(-beta * energy.from_state([b[k] for b in copies]),
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
    # relative entropy vanishes even for a coupled potential
    model = GibbsModel(2, 4, 2.0, coupled_potential())
    req = OrbitalRequest(model, BlockMap.global_map(2), s_out=48, s_in=32,
                         chain_burnin=300, chain_thin=8)
    est = orbital_entropy(req, substream(4, "glob"))
    assert abs(est.value) <= 3 * est.stderr + est.bias_bound + 1e-9


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


def test_entropy_split_consistency():
    model = GibbsModel(2, 4, 2.0, coupled_potential(0.8))
    rep = entropy_split_check(OrbitalRequest(model, BlockMap.full(2), s_out=64, s_in=48,
                                             chain_burnin=400, chain_thin=8),
                              substream(6, "split"),
                              ti=TIOptions(nodes=17, node_steps=700))
    assert rep.holds
    gap = rep.entropy.value - rep.orbital.value - rep.conjugated_entropy.value
    assert gap == pytest.approx(rep.residual, abs=1e-9)


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
    for seed in range(5):
        ses = []
        for s_out in (112, 224):
            req = OrbitalRequest(model, BlockMap.full(2), s_out=s_out, s_in=24,
                                 chain_burnin=200, chain_thin=4)
            ses.append(orbital_entropy(req, substream(100 + seed, "scale", s_out)).stderr)
        ratios.append(ses[1] / ses[0])
    mean = float(np.mean(ratios))
    # doubling the outer budget should shrink stderr by about 1/sqrt(2)
    assert 0.8 / math.sqrt(2) <= mean <= 1.2 / math.sqrt(2)
