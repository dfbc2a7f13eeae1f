import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from matent import ncpoly
from matent.ncpoly import (NcPoly, all_words, canonical_class, canonical_classes,
                           is_reversal_symmetric, star_word, word_rotations, word_traces)
from oracles import word_trace

words_n2 = st.lists(st.integers(min_value=1, max_value=2), min_size=0, max_size=7).map(tuple)
words_n3 = st.lists(st.integers(min_value=1, max_value=3), min_size=0, max_size=6).map(tuple)


@given(words_n3)
def test_star_is_reversal_and_involution(w):
    assert star_word(w) == tuple(reversed(w))
    assert star_word(star_word(w)) == w


@given(words_n3)
def test_canonical_class_idempotent(w):
    c = canonical_class(w)
    assert canonical_class(c) == c


@given(words_n3, st.integers(min_value=0, max_value=5))
def test_canonical_class_cyclic_invariant(w, k):
    if w:
        k = k % len(w)
        rotated = w[k:] + w[:k]
        assert canonical_class(rotated) == canonical_class(w)


@given(words_n3)
def test_canonical_class_reversal_invariant(w):
    assert canonical_class(star_word(w)) == canonical_class(w)


@given(words_n2)
def test_canonical_class_is_minimal_representative(w):
    c = canonical_class(w)
    pool = set(word_rotations(w)) | set(word_rotations(star_word(w)))
    assert c == min(pool) if w else c == ()


def test_word_counts():
    assert len(all_words(2, 3, min_degree=3)) == 8
    assert len(all_words(3, 2, min_degree=2)) == 9
    # degrees 0..2 over two letters: 1 + 2 + 4
    assert len(all_words(2, 2)) == 7


def test_class_counts_small():
    # n=1: one class per degree
    assert [len([c for c in canonical_classes(1, 6) if len(c) == d]) for d in range(7)] == [1] * 7
    # n=2, degree 2: (1,1), (1,2), (2,2)
    deg2 = [c for c in canonical_classes(2, 2) if len(c) == 2]
    assert deg2 == [(1, 1), (1, 2), (2, 2)]


def test_chirality_first_appears_at_degree_six_for_two_letters():
    for K in range(1, 6):
        assert all(is_reversal_symmetric(c) for c in canonical_classes(2, K))
    chiral = [c for c in canonical_classes(2, 6) if not is_reversal_symmetric(c)]
    assert chiral, "expected a chiral class of degree 6"
    assert all(len(c) == 6 for c in chiral)


def test_chirality_three_letters_degree_three():
    chiral = [c for c in canonical_classes(3, 3) if not is_reversal_symmetric(c)]
    assert chiral == [(1, 2, 3)]


def test_poly_algebra_star_antihomomorphism():
    x = NcPoly.generator(2, 1)
    y = NcPoly.generator(2, 2)
    p = x * y + 2.0 * x
    q = y * y - 1.5j * x
    assert ((p * q).star() - q.star() * p.star()).is_zero()
    assert (p + p.star()).is_self_adjoint()
    assert not (1j * x).is_self_adjoint()


def test_scalar_times_poly_is_poly_times_scalar():
    p = NcPoly.from_word(2, (1, 2)) - 0.5j * NcPoly.generator(2, 2) + NcPoly.one(2)
    for c in (2, 2.5, 1 - 3j):
        assert c * p == p * c
    with pytest.raises(TypeError, match="cannot combine NcPoly with str"):
        "x" * p
    with pytest.raises(TypeError):
        [1] * p


def test_poly_letter_parts_roundtrip():
    p = NcPoly(1, {(): 0.5, (1,): -1.0, (1, 1, 1): 2.0})
    sides, cross = p.letter_parts()
    np.testing.assert_allclose(sides, [[0.5, -1.0, 0.0, 2.0]])
    assert cross == {}


def test_poly_letter_parts_three_letters():
    # the constant sits at [0, 0], each power in its letter's row; the mixed
    # words keep the polynomial's order and their complex coefficients
    p = NcPoly(3, {(2, 3): 1 - 2j, (3, 3): 4.0, (): -1.5, (1, 2, 1): 0.5,
                   (3, 2): 1 + 2j, (2,): 3.0, (1,): 2 + 1e-13j})
    sides, cross = p.letter_parts()
    assert sides.dtype == float
    # (n, degree + 1): the degree is the mixed word's 3
    np.testing.assert_array_equal(sides, [[-1.5, 2.0, 0.0, 0.0], [0.0, 3.0, 0.0, 0.0],
                                          [0.0, 0.0, 4.0, 0.0]])
    assert list(cross.items()) == [((2, 3), 1 - 2j), ((1, 2, 1), 0.5), ((3, 2), 1 + 2j)]


def test_poly_letter_parts_refuses_a_complex_power():
    with pytest.raises(ValueError, match="complex coefficient"):
        NcPoly(2, {(1, 2): 1.0, (2, 2): 1e-9j}).letter_parts()


def test_poly_degree_and_zero():
    assert NcPoly.zero(3).degree == 0
    assert NcPoly.zero(3).is_zero()
    assert NcPoly.one(2).degree == 0
    assert NcPoly.from_word(2, (1, 2, 1)).degree == 3


def _hermitian_stack(rng, shape):
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return (g + np.swapaxes(g, -1, -2).conj()) / 2


def test_evaluate_matches_trace_moment():
    rng = np.random.default_rng(3)
    blocks = [_hermitian_stack(rng, (4, 4)) for _ in range(2)]
    w = (1, 2, 2, 1)
    p = NcPoly.from_word(2, w)
    ev = p.evaluate(blocks)
    single = word_traces(blocks, (w,))
    assert single.shape == (1,) and single.dtype == complex
    assert np.trace(ev) / 4 == pytest.approx(single[0] / 4)
    # stacked tuples, leading axes (2, 3): the same values tuple by tuple
    stacks = [_hermitian_stack(rng, (2, 3, 4, 4)) for _ in range(2)]
    poly = p + 0.5 * NcPoly.from_word(2, (2,)) - 1.5j * NcPoly.one(2)
    values = poly.evaluate(stacks)
    assert values.shape == (2, 3, 4, 4)
    words = (w, (2,), ())
    traces = word_traces(stacks, words) / 4
    assert traces.shape == (2, 3, len(words))
    for a in range(2):
        for b in range(3):
            one = [s[a, b] for s in stacks]
            np.testing.assert_allclose(values[a, b], poly.evaluate(one), atol=1e-12)
            for k, word in enumerate(words):
                assert traces[a, b, k] == pytest.approx(word_traces(one, (word,))[0] / 4,
                                                        abs=1e-12)


@given(words_n2.filter(lambda w: len(w) >= 1))
def test_trace_moment_reversal_conjugate(w):
    rng = np.random.default_rng(sum(w) + len(w))
    blocks = []
    for _ in range(2):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        blocks.append((g + g.conj().T) / 2)
    a = word_traces(blocks, (w,))[0] / 3
    b = word_traces(blocks, (star_word(w),))[0] / 3
    assert a == pytest.approx(np.conjugate(b))


@given(words_n2.filter(lambda w: len(w) >= 2), st.integers(min_value=1, max_value=6))
def test_trace_moment_cyclic(w, k):
    rng = np.random.default_rng(len(w) * 7 + k)
    blocks = []
    for _ in range(2):
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        blocks.append((g + g.conj().T) / 2)
    k = k % len(w)
    rotated = w[k:] + w[:k]
    value = word_traces(blocks, (w,))[0] / 3
    assert word_traces(blocks, (rotated,))[0] / 3 == pytest.approx(value)
    # a stack of the tuple and its negation: word degree sets the sign
    stacks = [np.stack([b, -b]) for b in blocks]
    np.testing.assert_allclose(word_traces(stacks, (rotated,))[:, 0] / 3,
                               [value, (-1) ** len(w) * value], atol=1e-12)


# words of degree 0 to 6 over 3 letters: the unit, repeats of one word, a
# chiral degree-4 word and its reversal, and words that share prefixes
TRACE_WORDS = ((), (2,), (1, 2), (1, 2), (2, 1), (3, 3), (1, 2, 3), (1, 1, 2, 3),
               (3, 2, 1, 1), (1, 2, 3, 1), (1, 2, 3, 1, 1), (1, 2, 3, 1, 1, 3),
               (1, 2, 3, 1, 1, 3), (3, 2, 1, 1, 2, 3), (2,), (1, 1, 1, 1, 1, 1))


def _reference_traces(blocks, words):
    """Tr w one word at a time: the per-word product's trace path."""
    N = np.shape(blocks[0])[-1]
    return np.stack([word_trace(blocks, w) if w
                     else np.full(np.shape(blocks[0])[:-2], complex(N)) for w in words], axis=-1)


def test_word_traces_matches_per_word_products():
    # non-Hermitian complex blocks: the Gram contraction assumes no symmetry
    n, K, N = 3, 5, 4
    rng = np.random.default_rng(11)
    stack = rng.normal(size=(n, K, N, N)) + 1j * rng.normal(size=(n, K, N, N))
    assert not np.allclose(stack, np.swapaxes(stack.conj(), -1, -2))
    got = word_traces(stack, TRACE_WORDS)
    assert got.shape == (K, len(TRACE_WORDS)) and got.dtype == complex
    np.testing.assert_allclose(got, _reference_traces(stack, TRACE_WORDS), rtol=1e-12, atol=0)
    # a chiral word and its reversal carry different traces on these blocks
    chiral, rev = TRACE_WORDS.index((1, 1, 2, 3)), TRACE_WORDS.index((3, 2, 1, 1))
    assert not is_reversal_symmetric((1, 1, 2, 3))
    assert not np.allclose(got[:, chiral], got[:, rev])
    for k in range(K):
        # one tuple as a list of (N, N) blocks and as one (n, N, N) array
        for one in ([stack[i, k] for i in range(n)], stack[:, k]):
            single = word_traces(one, TRACE_WORDS)
            assert single.shape == (len(TRACE_WORDS),)
            np.testing.assert_allclose(single, _reference_traces(one, TRACE_WORDS),
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(single, got[k], rtol=1e-12, atol=0)
    # repeated words give the same column
    assert np.array_equal(got[:, 1], got[:, -2])
    assert np.array_equal(got[:, 11], got[:, 12])


def test_word_traces_bits_do_not_depend_on_the_stack():
    # a state's traces have the same bits alone and in any C-contiguous stack
    # (what lets a chain price several proposals in one call), and the words
    # of degree >= 3 those of their own product
    n, N = 3, 4
    rng = np.random.default_rng(13)
    stack = rng.normal(size=(n, 4, 3, N, N)) + 1j * rng.normal(size=(n, 4, 3, N, N))
    got = word_traces(stack, TRACE_WORDS)
    long = [i for i, w in enumerate(TRACE_WORDS) if len(w) >= 3]
    for j, k in np.ndindex(4, 3):
        alone = word_traces(stack[:, j, k], TRACE_WORDS)
        assert np.array_equal(got[j, k], alone)
        assert np.array_equal(word_traces(stack[:, j], TRACE_WORDS)[k], alone)
        assert np.array_equal(alone[long], _reference_traces(stack[:, j, k], TRACE_WORDS)[long])
    # the shape of the talagrand barycenters: 32 Hermitian two-matrix states
    # at N = 8 and every class of degree <= 4
    classes = canonical_classes(2, 4)
    herm = _hermitian_stack(rng, (2, 32, 8, 8))
    got = word_traces(herm, classes)
    for s in range(32):
        assert np.array_equal(got[s], word_traces(herm[:, s], classes))


def test_word_traces_batch_axes_and_empty_list():
    rng = np.random.default_rng(12)
    blocks = [rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
              for _ in range(2)]
    words = ((1, 2, 1), (2,), (1, 1))
    got = word_traces(blocks, words)
    assert got.shape == (2, 3, 3)
    np.testing.assert_allclose(got, _reference_traces(blocks, words), rtol=1e-12, atol=0)
    assert word_traces(blocks, ()).shape == (2, 3, 0)
    with pytest.raises(ValueError):
        word_traces(blocks, ((1, 3),))
