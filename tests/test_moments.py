import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from matent.matrices import MatrixTuple
from matent.moments import (MomentSpec, arcsine_moments, catalan,
                            empirical_moments, free_product_moments,
                            moment_distance, moment_pairing,
                            semicircle_moments, validate)
from matent.ncpoly import NcPoly, canonical_classes
from matent.streams import substream


def _random_tuple(n, N, R, seed):
    rng = substream(seed, "tuple")
    blocks = []
    for _ in range(n):
        g = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        h = (g + g.conj().T) / 2
        h *= 0.9 * R / max(np.abs(np.linalg.eigvalsh(h)).max(), 1e-12)
        blocks.append(h)
    return MatrixTuple(n, N, R, tuple(blocks))


def test_rotation_equivalent_key_stored_unconjugated():
    # (2, 1) is a cyclic rotation of the representative (1, 2): same value
    spec = MomentSpec(2, 2, 1.0, {(2, 1): 0.25})
    assert (1, 2) in spec.values
    assert spec.values[(1, 2)] == pytest.approx(0.25)
    assert spec.value((2, 1)) == pytest.approx(0.25)


def test_chiral_key_stored_with_conjugation():
    # (1, 3, 2) reaches the representative (1, 2, 3) only by reversal, so
    # the stored value is the conjugate of the supplied one
    spec = MomentSpec(3, 3, 1.0, {(1, 3, 2): 0.25 + 0.5j})
    assert (1, 2, 3) in spec.values
    assert spec.values[(1, 2, 3)] == pytest.approx(0.25 - 0.5j)
    assert spec.value((1, 3, 2)) == pytest.approx(0.25 + 0.5j)
    assert spec.value((1, 2, 3)) == pytest.approx(0.25 - 0.5j)
    assert spec.value((2, 3, 1)) == pytest.approx(0.25 - 0.5j)


def test_unit_inserted_and_conflicts_rejected():
    spec = MomentSpec(1, 2, 1.0, {(1,): 0.1})
    assert spec.values[()] == 1.0
    with pytest.raises(ValueError):
        MomentSpec(1, 2, 1.0, {(): 0.5})
    with pytest.raises(ValueError):
        MomentSpec(2, 2, 1.0, {(1, 2): 0.1, (2, 1): 0.3})
    with pytest.raises(ValueError):
        MomentSpec(1, 2, 1.0, {(1, 1, 1): 0.2})


def test_json_roundtrip():
    spec = MomentSpec(2, 3, 2.0, {(1,): 0.5, (1, 2): 0.1 + 0.2j, (1, 2, 2): -0.3j})
    back = MomentSpec.from_json(spec.to_json())
    assert back.n == spec.n and back.K == spec.K and back.R == spec.R
    assert set(back.values) == set(spec.values)
    for w, v in spec.values.items():
        assert back.values[w] == pytest.approx(v)


def test_empirical_moments_diagonal_hand_case():
    d = np.diag([1.0, -1.0]).astype(complex)
    t = MatrixTuple(1, 2, 1.0, (d,))
    spec = empirical_moments(t, 4)
    assert spec.value((1,)) == pytest.approx(0.0)
    assert spec.value((1, 1)) == pytest.approx(1.0)
    assert spec.value((1, 1, 1)) == pytest.approx(0.0)
    assert spec.value((1, 1, 1, 1)) == pytest.approx(1.0)


def test_moment_distance_symmetry_and_triangle():
    a = semicircle_moments(1.0, 4)
    b = semicircle_moments(1.2, 4, radius=a.R)
    c = arcsine_moments(a.R, 4)
    dab, dba = moment_distance(a, b), moment_distance(b, a)
    assert dab == pytest.approx(dba)
    assert moment_distance(a, c) <= dab + moment_distance(b, c) + 1e-12
    assert moment_distance(a, a) == 0.0


def test_moment_pairing_linear_in_poly():
    spec = semicircle_moments(1.0, 4)
    p = NcPoly.from_word(1, (1, 1))
    q = NcPoly.from_word(1, (1, 1, 1, 1))
    assert moment_pairing(spec, p) == pytest.approx(1.0)
    assert moment_pairing(spec, q) == pytest.approx(2.0)
    assert moment_pairing(spec, 2.0 * p - q) == pytest.approx(0.0)


def test_validate_flags_violations():
    assert validate(semicircle_moments(1.0, 4)) == []
    over = MomentSpec(1, 2, 1.0, {(1, 1): 1.5})
    assert any("exceeds" in m or "bound" in m for m in validate(over, check_psd=False))
    # mean 1 with second moment 0.5 violates positivity
    bad = MomentSpec(1, 2, 2.0, {(1,): 1.0, (1, 1): 0.5})
    assert any("positive" in m.lower() or "gram" in m.lower() for m in validate(bad))
    skewed = MomentSpec(1, 2, 1.0, {(1, 1): 0.5 + 0.2j})
    assert any("imaginary" in m.lower() for m in validate(skewed, check_psd=False))


def test_catalan_literals():
    assert [catalan(k) for k in range(7)] == [1, 1, 2, 5, 14, 42, 132]


def test_semicircle_moments_catalan_scaling():
    spec = semicircle_moments(0.7, 6)
    assert spec.R == pytest.approx(2 * math.sqrt(0.7))
    for k in range(1, 4):
        assert spec.value((1,) * (2 * k)) == pytest.approx(catalan(k) * 0.7 ** k)
        assert spec.value((1,) * (2 * k - 1)) == pytest.approx(0.0)


def test_arcsine_moments_match_quadrature_oracle():
    R = 2.0
    spec = arcsine_moments(R, 6)
    for k in range(1, 7):
        want = oracles.arcsine_moment_quad(R, k)
        assert spec.value((1,) * k) == pytest.approx(want, abs=1e-9)


def test_free_product_trivial_values():
    half = semicircle_moments(1.0, 4)
    prod = free_product_moments([half, half], 4)
    assert prod.n == 2
    assert prod.value((1, 2, 1, 2)) == pytest.approx(0.0)
    assert prod.value((1, 1, 2, 2)) == pytest.approx(1.0)
    assert prod.value((1, 1)) == pytest.approx(1.0)


def test_free_product_matches_subset_expansion_oracle():
    rng = substream(5, "fp-test")
    K = 6
    for _ in range(3):
        margs, specs = {}, []
        for letter in (1, 2):
            pts = rng.uniform(-1.5, 1.5, 4)
            ws = rng.dirichlet(np.ones(4))
            moms = [float((ws * pts ** p).sum()) for p in range(K + 1)]
            margs[letter] = moms
            specs.append(MomentSpec(1, K, 1.5, {(1,) * p: moms[p] for p in range(1, K + 1)}))
        prod = free_product_moments(specs, K)
        assert validate(prod) == []
        for w in sorted(prod.values, key=lambda w: (len(w), w)):
            if w:
                assert prod.values[w] == pytest.approx(
                    oracles.free_word_value(w, margs), abs=1e-10)


def _nc_pairings(word, var):
    """Sum over the non-crossing pairings of ``word``'s positions that pair
    equal letters of the product of the pairs' variances."""
    if not word:
        return 1.0
    return sum(var[word[0]] * _nc_pairings(word[1:j], var) * _nc_pairings(word[j + 1:], var)
               for j in range(1, len(word), 2) if word[j] == word[0])


@pytest.mark.parametrize("n", [2, 3])
def test_free_semicirculars_count_noncrossing_pairings(n):
    # free semicirculars: tau(w) is the sum over non-crossing pairings of
    # equal letters (Wick's rule for free Gaussians), at every degree to 8
    var = dict(zip(range(1, n + 1), (0.5, 1.0, 2.0)))
    prod = free_product_moments([semicircle_moments(var[g], 8) for g in var], 8)
    for w in canonical_classes(n, 8, 1):
        assert prod.values[w] == pytest.approx(_nc_pairings(w, var), abs=1e-12)


def test_free_product_runs_split_by_block_not_by_letter():
    # block (X1, X2) with X2 = X1^2 from a discrete law, free with Y: a run
    # of the block mixes two letters, and each word, X2 written as X1 X1,
    # is the oracle's word in two free letters
    rng = substream(6, "fp-runs")
    pts, ws = rng.uniform(-1.2, 1.2, 4), rng.dirichlet(np.ones(4))
    ys, vs = rng.uniform(-1.2, 1.2, 3), rng.dirichlet(np.ones(3))
    power = {1: 1, 2: 2}
    block = MomentSpec(2, 4, 1.44, {w: float((ws * pts ** sum(power[g] for g in w)).sum())
                                    for w in canonical_classes(2, 4, 1)})
    y = MomentSpec(1, 4, 1.2, {(1,) * p: float((vs * ys ** p).sum()) for p in range(1, 5)})
    margs = {1: [float((ws * pts ** p).sum()) for p in range(9)],
             2: [float((vs * ys ** p).sum()) for p in range(5)]}
    spelled = {1: (1,), 2: (1, 1), 3: (2,)}
    prod = free_product_moments([block, y], 4)
    for w in canonical_classes(3, 4, 1):
        want = oracles.free_word_value(sum((spelled[g] for g in w), ()), margs)
        assert prod.values[w] == pytest.approx(want, abs=1e-12)


def test_free_product_guards():
    half = semicircle_moments(1.0, 4)
    with pytest.raises(ValueError):
        free_product_moments([half, half], 9)
    short = semicircle_moments(1.0, 2)
    with pytest.raises(ValueError):
        free_product_moments([short, short], 4)


@given(st.floats(min_value=0.2, max_value=2.0), st.integers(min_value=1, max_value=4))
def test_empirical_moments_within_norm_bound(var, seed):
    t = _random_tuple(2, 3, 2.0 * var, seed)
    spec = empirical_moments(t, 4)
    for w, v in spec.values.items():
        assert abs(v) <= t.R ** len(w) + 1e-9
    assert validate(spec) == []
