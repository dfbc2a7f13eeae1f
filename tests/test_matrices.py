import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matent.matrices import (BlockMap, CompressionFn, MatrixTuple, haar_unitary_batch,
                             hermitize, in_norm_ball, log_jacobian_functional_calculus,
                             operator_norm)
from matent.orbital import _relative_copies
from matent.streams import substream
from oracles import trace_moment


def _hermitian(N, rng, scale=1.0):
    g = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    return scale * (g + g.conj().T) / 2


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=50))
def test_hermitize_projects_and_fixes(N, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    h = hermitize(m)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(hermitize(h), h)


def _with_spectra(lam, rng):
    """Hermitian stack with the given spectra (..., N): U diag(lam) U* for
    Haar U."""
    lam = np.asarray(lam, dtype=float)
    N = lam.shape[-1]
    us = haar_unitary_batch(lam[..., 0].size, N, rng).reshape(lam.shape + (N,))
    return hermitize((us * lam[..., None, :]) @ np.swapaxes(us.conj(), -1, -2))


@pytest.mark.parametrize("N", [1, 4, 16])
def test_in_norm_ball_matches_eigvalsh(N):
    # (n, K, N, N) stacks: verdicts per block equal those of eigvalsh
    rng = substream(3, "ball", N)
    R, n, K = 1.5, 2, 3

    def eig_verdict(m):
        return np.abs(np.linalg.eigvalsh(m)).max(axis=-1) < R

    zero = np.zeros((n, K, N, N), dtype=complex)
    assert in_norm_ball(zero, R).shape == (n, K) and np.all(in_norm_ball(zero, R))
    # one block of one walker outside, the others inside
    lam = rng.uniform(-0.9 * R, 0.9 * R, size=(n, K, N))
    lam[1, 2, 0] = 1.1 * R
    m = _with_spectra(lam, rng)
    want = np.ones((n, K), dtype=bool)
    want[1, 2] = False
    assert np.array_equal(in_norm_ball(m, R), want)
    assert np.array_equal(eig_verdict(m), want)
    # extreme eigenvalues at +-R(1 +- 1e-9), the others well inside
    edges = R * np.array([1 - 1e-9, 1 + 1e-9, -(1 - 1e-9), -(1 + 1e-9)])
    lam = rng.uniform(-0.5 * R, 0.5 * R, size=(4, 1, N))
    lam[:, 0, 0] = edges
    m = _with_spectra(lam, rng)
    assert np.array_equal(in_norm_ball(m, R), [[True], [False], [True], [False]])
    assert np.array_equal(in_norm_ball(m, R), eig_verdict(m))
    # an unbatched matrix gives a scalar verdict
    assert in_norm_ball(m[0, 0], R).shape == () and in_norm_ball(m[0, 0], R)


def test_matrix_tuple_validation():
    rng = substream(0, "mt")
    h = _hermitian(3, rng, scale=0.1)
    t = MatrixTuple(1, 3, 2.0, (h,))
    with pytest.raises(ValueError):
        MatrixTuple(1, 3, 2.0, (h + 1j * np.eye(3),))
    big = np.diag([3.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        MatrixTuple(1, 3, 2.0, (big,))
    with pytest.raises(ValueError):
        MatrixTuple(2, 3, 2.0, (h,))


def test_matrix_tuple_blocks_read_only():
    t = MatrixTuple.zero(2, 4, 1.0)
    with pytest.raises(ValueError):
        t.blocks[0][0, 0] = 1.0


def test_matrix_tuple_json_roundtrip_bit_exact():
    rng = substream(1, "mt-json")
    t = MatrixTuple(2, 3, 1.5, tuple(_hermitian(3, rng, 0.3) for _ in range(2)))
    back = MatrixTuple.from_json(t.to_json())
    for a, b in zip(t.blocks, back.blocks):
        assert np.array_equal(a, b)
    assert json.loads(t.to_json())["N"] == 3


def test_blockmap_structure():
    bm = BlockMap((0, 0, 1))
    assert bm.n == 3
    assert bm.ell == 2
    assert bm.max_group_size == 2
    assert BlockMap.full(3).ell == 3
    assert BlockMap((0,) * 3).ell == 1
    with pytest.raises(ValueError):
        BlockMap((0, 2))  # group ids must be contiguous from 0


def test_haar_unitary_is_unitary():
    rng = substream(2, "haar")
    for N in (1, 2, 5, 16):
        u = haar_unitary_batch(1, N, rng)[0]
        assert np.allclose(u @ u.conj().T, np.eye(N), atol=1e-12)


def test_haar_unitary_batch_matches_unitarity_and_mean():
    rng = substream(3, "haar-batch")
    us = haar_unitary_batch(400, 6, rng)
    assert us.shape == (400, 6, 6)
    prod = np.einsum("bij,bkj->bik", us, us.conj())
    assert np.allclose(prod, np.eye(6)[None], atol=1e-11)
    # E|U_11|^2 = 1/N for Haar measure
    assert np.mean(np.abs(us[:, 0, 0]) ** 2) == pytest.approx(1 / 6, abs=0.02)


def _relative_copy(t: MatrixTuple, bm: BlockMap, rng) -> tuple:
    """One copy of the tuple's blocks from the package's one conjugation."""
    return tuple(stack[0] for stack in _relative_copies(t.blocks, bm, 1, rng))


def test_conjugation_preserves_single_group_moments_exactly():
    rng = substream(4, "conj")
    blocks = tuple(_hermitian(5, rng, 0.3) for _ in range(3))
    t = MatrixTuple(3, 5, 2.0, blocks)
    c = _relative_copy(t, BlockMap((0, 0, 1)), rng)
    # words inside one group see a joint unitary conjugation: trace invariant
    for w in [(1, 1), (1, 2, 1, 2), (3, 3, 3)]:
        assert trace_moment(c, w) == pytest.approx(trace_moment(t.blocks, w), abs=1e-12)
    # mixed words across groups are scrambled (generically different)
    assert trace_moment(c, (1, 3, 1, 3)) != pytest.approx(
        trace_moment(t.blocks, (1, 3, 1, 3)), abs=1e-6)


def test_operator_norm_matches_numpy():
    rng = substream(5, "norm")
    h = _hermitian(6, rng)
    assert operator_norm(h) == pytest.approx(np.linalg.norm(h, ord=2))
    # N = 1: the norm of a 1 x 1 Hermitian matrix is the modulus of its entry
    assert operator_norm(np.array([[0.75 + 0j]])) == 0.75
    assert operator_norm(np.array([[-1.25 + 0j]])) == 1.25


def test_compression_shape():
    fn = CompressionFn(T=3.0, R=2.0, S=1.0)
    assert isinstance(fn, CompressionFn)
    assert fn.alpha == pytest.approx((2.0 - 1.0) / (2 * 3.0 - (2.0 + 1.0)))
    # identity inside [-S, S]
    xs = np.linspace(-1.0, 1.0, 11)
    assert np.allclose(fn(xs), xs)
    # endpoints map to the target radius
    assert fn(3.0) == pytest.approx(2.0)
    assert fn(-3.0) == pytest.approx(-2.0)
    # odd and monotone
    grid = np.linspace(-3.0, 3.0, 4001)
    vals = fn(grid)
    assert np.allclose(vals, -fn(-grid))
    assert np.all(np.diff(vals) > 0)
    assert np.max(np.abs(vals)) <= 2.0 + 1e-12


def test_compression_derivative_bounds_and_continuity():
    fn = CompressionFn(T=3.0, R=2.0, S=1.0)
    grid = np.linspace(-3.0, 3.0, 2001)
    d = fn.derivative(grid)
    assert np.all(d >= fn.alpha - 1e-12)
    assert np.all(d <= 1.0 + 1e-12)
    # numeric derivative agrees where smooth
    h = 1e-6
    num = (fn(grid[1:-1] + h) - fn(grid[1:-1] - h)) / (2 * h)
    assert np.allclose(num, d[1:-1], atol=1e-5)


def test_log_jacobian_diagonal_hand_case():
    fn = CompressionFn(T=3.0, R=2.0, S=1.0)
    a, b = 0.5, 2.5
    m = np.diag([a, b]).astype(complex)
    got = log_jacobian_functional_calculus(m, fn)
    want = (math.log(fn.derivative(np.array([a]))[0])
            + math.log(fn.derivative(np.array([b]))[0])
            + 2 * math.log((fn(b) - fn(a)) / (b - a)))
    assert got == pytest.approx(want, abs=1e-9)


def test_log_jacobian_degenerate_pair_uses_derivative():
    fn = CompressionFn(T=3.0, R=2.0, S=1.0)
    m = np.diag([2.5, 2.5 + 1e-13]).astype(complex)
    got = log_jacobian_functional_calculus(m, fn)
    d = float(fn.derivative(np.array([2.5]))[0])
    assert got == pytest.approx(4 * math.log(d), abs=1e-6)


def test_log_jacobian_bound_on_random_matrices():
    fn = CompressionFn(T=3.0, R=2.0, S=1.0)
    bound = 16 * abs(math.log(fn.alpha))
    rng = substream(6, "jac")
    for _ in range(20):
        m = _hermitian(4, rng, scale=1.2)
        m = m * min(1.0, 2.9 / operator_norm(m))
        lj = log_jacobian_functional_calculus(m, fn)
        assert lj <= 1e-9
        assert lj >= -bound - 1e-9


def test_conjugation_preserves_operator_norms_exactly():
    rng = substream(10, "norms")
    t = MatrixTuple(2, 6, 2.0, tuple(_hermitian(6, rng, 0.3) for _ in range(2)))
    c = _relative_copy(t, BlockMap((0, 1)), rng)
    for a, b in zip(t.blocks, c):
        assert operator_norm(b) == pytest.approx(operator_norm(a), abs=1e-9)


def test_weingarten_rank_one_mean():
    # E_U[(1/N) Tr(U A U* B)] = (1/N Tr A)(1/N Tr B) for Haar U
    rng = substream(11, "wg")
    N, draws = 6, 4000
    a = _hermitian(N, rng)
    b = _hermitian(N, rng)
    us = haar_unitary_batch(draws, N, rng)
    vals = np.einsum("sij,jk,slk,il->s", us, a, us.conj(), b).real / N
    want = np.trace(a).real * np.trace(b).real / N ** 2
    se = vals.std(ddof=1) / math.sqrt(draws)
    assert abs(vals.mean() - want) <= 3 * se


def test_log_jacobian_invariant_under_conjugation():
    rng = substream(13, "ljconj")
    g = CompressionFn(2.0, 1.5, 1.0)
    for _ in range(10):
        m = _hermitian(5, rng, 0.4)
        u = haar_unitary_batch(1, 5, rng)[0]
        lj = log_jacobian_functional_calculus(m, g)
        lj_c = log_jacobian_functional_calculus(u @ m @ u.conj().T, g)
        assert lj_c == pytest.approx(lj, abs=1e-8)
