"""Words and *-polynomials in noncommuting self-adjoint generators.

A word is a tuple of 1-based generator indices; the empty tuple is the unit.
Since generators are self-adjoint, the adjoint of a word is its reversal, and
trace functionals are constant on cyclic rotations. The canonical
representative of a word is therefore the lexicographic minimum over all
rotations of the word and of its reversal; storing one value per canonical
class is enough to recover every word's trace value (up to conjugation for
the reversed orientation). Rotations, classes and the sorted class lists are
cached and returned as tuples, so no caller can change a cached value.

Traces come from one evaluator, :func:`word_traces`: Tr w of every word of
a list at once, on blocks of shape (n, ..., N, N), as an array of shape
(..., len(words)), with a plan that depends only on the degree of each
word. Every caller that needs the traces of several words goes through it:
:meth:`matent.sampler.GibbsModel.energy` (N Tr V from one trace per word
class, never forming V(M)), the fit's basis moments, the empirical and mean
moments, the sampled moments of the command line and the hit rate. Each
trace it takes is a contraction of one state's matrices alone, so a state
gets the same bits in any C-contiguous stack as on its own.
:meth:`NcPoly.evaluate` gives the matrix value of a polynomial, one word
product at a time (:func:`_word_product`), on blocks of shape (..., N, N)
with leading batch axes, as an array of the same shape.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

__all__ = [
    "Word",
    "star_word",
    "word_rotations",
    "canonical_class",
    "is_reversal_symmetric",
    "all_words",
    "canonical_classes",
    "NcPoly",
    "word_traces",
]

Word = Tuple[int, ...]


def star_word(word: Word) -> Word:
    """Adjoint of a word of self-adjoint generators: the reversal."""
    return tuple(reversed(word))


@functools.lru_cache(maxsize=None)
def word_rotations(word: Word) -> Tuple[Word, ...]:
    """All cyclic rotations of a word (the word itself included)."""
    w = tuple(word)
    return tuple(w[i:] + w[:i] for i in range(max(len(w), 1)))


@functools.lru_cache(maxsize=None)
def canonical_class(word: Word) -> Word:
    """Lexicographically minimal rotation of the word or its reversal."""
    w = tuple(word)
    if not w:
        return w
    return min(min(word_rotations(w)), min(word_rotations(star_word(w))))


def is_reversal_symmetric(word: Word) -> bool:
    """True when the reversed word is a cyclic rotation of the word.

    For such classes the trace value is forced to be real on self-adjoint
    tuples; chiral classes (first appearing at length 4 for 3 generators,
    length 6 for 2) can carry a genuinely complex trace.
    """
    w = tuple(word)
    return star_word(w) in word_rotations(w)


def all_words(n: int, max_degree: int, min_degree: int = 0):
    """Every word in ``n`` generators with degree in [min_degree, max_degree]."""
    if n < 1:
        raise ValueError("need at least one generator")
    out = []
    for k in range(min_degree, max_degree + 1):
        if k == 0:
            out.append(())
            continue
        words = [()]
        for _ in range(k):
            words = [w + (g,) for w in words for g in range(1, n + 1)]
        out.extend(words)
    return out


@functools.lru_cache(maxsize=None)
def canonical_classes(n: int, max_degree: int, min_degree: int = 0) -> Tuple[Word, ...]:
    """Canonical class representatives with degree in the given range, sorted
    by (degree, word)."""
    seen = set()
    for w in all_words(n, max_degree, min_degree):
        seen.add(canonical_class(w))
    return tuple(sorted(seen, key=lambda w: (len(w), w)))


def _validate_word(word: Iterable[int], n: int) -> Word:
    w = tuple(int(g) for g in word)
    for g in w:
        if not 1 <= g <= n:
            raise ValueError(f"generator index {g} outside 1..{n}")
    return w


class NcPoly:
    """A *-polynomial: finite complex combination of words.

    Supports the ring operations, the adjoint (``star``), and evaluation on a
    tuple of matrices. Zero-coefficient terms are dropped on construction.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Word, complex]):
        if n < 1:
            raise ValueError("need at least one generator")
        clean = {}
        for word, coeff in terms.items():
            w = _validate_word(word, n)
            c = complex(coeff)
            if c != 0:
                clean[w] = clean.get(w, 0.0) + c
        self.n = int(n)
        self.terms = {w: c for w, c in clean.items() if c != 0}

    @classmethod
    def zero(cls, n: int) -> "NcPoly":
        return cls(n, {})

    @classmethod
    def one(cls, n: int) -> "NcPoly":
        return cls(n, {(): 1.0})

    @classmethod
    def generator(cls, n: int, i: int) -> "NcPoly":
        return cls(n, {(i,): 1.0})

    @classmethod
    def from_word(cls, n: int, word: Iterable[int], coeff: complex = 1.0) -> "NcPoly":
        return cls(n, {tuple(word): coeff})

    @property
    def degree(self) -> int:
        return max((len(w) for w in self.terms), default=0)

    def star(self) -> "NcPoly":
        return NcPoly(self.n, {star_word(w): c.conjugate() for w, c in self.terms.items()})

    def is_self_adjoint(self, tol: float = 1e-12) -> bool:
        adj = self.star().terms
        words = set(self.terms) | set(adj)
        return all(abs(self.terms.get(w, 0.0) - adj.get(w, 0.0)) <= tol for w in words)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        merged = dict(self.terms)
        for w, c in other.terms.items():
            merged[w] = merged.get(w, 0.0) + c
        return NcPoly(self.n, merged)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return NcPoly(self.n, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return NcPoly(self.n, {w: other * c for w, c in self.terms.items()})
        other = self._coerce(other)
        prod: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                prod[w] = prod.get(w, 0.0) + c1 * c2
        return NcPoly(self.n, prod)

    # an NcPoly on the left calls its own __mul__: only scalars and refused types come here
    __rmul__ = __mul__

    def _coerce(self, other) -> "NcPoly":
        if isinstance(other, NcPoly):
            if other.n != self.n:
                raise ValueError("mixed generator counts")
            return other
        if isinstance(other, (int, float, complex)):
            return NcPoly(self.n, {(): other})
        raise TypeError(f"cannot combine NcPoly with {type(other).__name__}")

    def __eq__(self, other):
        return (isinstance(other, NcPoly) and other.n == self.n
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "NcPoly(0)"
        bits = []
        for w, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0])):
            mono = "1" if not w else "*".join(f"x{g}" for g in w)
            bits.append(f"({c:.6g})*{mono}")
        return "NcPoly(" + " + ".join(bits) + ")"

    def letter_parts(self) -> Tuple[np.ndarray, Dict[Word, complex]]:
        """``(sides, cross)``: ``sides[a, k]`` is the coefficient of x_{a+1}^k
        in a real (n, degree + 1) array, the constant at ``[0, 0]``; ``cross``
        maps each word of two or more distinct letters to its coefficient, in
        the polynomial's order. A power's coefficient with an imaginary part
        above 1e-12 raises ValueError; a smaller one is dropped."""
        sides, cross = np.zeros((self.n, self.degree + 1)), {}
        for w, c in self.terms.items():
            if len(set(w)) > 1:
                cross[w] = c
            elif abs(c.imag) > 1e-12:
                raise ValueError(f"complex coefficient {c} on the power {w}")
            else:
                sides[w[0] - 1 if w else 0, len(w)] = c.real
        return sides, cross

    def evaluate(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Value of the polynomial on blocks of shape (..., N, N), same shape out."""
        if len(blocks) != self.n:
            raise ValueError(f"expected {self.n} blocks, got {len(blocks)}")
        shape = np.shape(blocks[0])
        out = np.zeros(shape, dtype=complex)
        for w, c in self.terms.items():
            out += c * (_word_product(blocks, w) if w else np.eye(shape[-1]))
        return out


def _word_product(blocks: Sequence[np.ndarray], word: Word) -> np.ndarray:
    """Product of a nonempty word's factors on blocks of shape (..., N, N),
    multiplied left to right."""
    prod = blocks[word[0] - 1]
    for g in word[1:]:
        prod = prod @ blocks[g - 1]
    return prod


class _TracePlan(NamedTuple):
    """How :func:`word_traces` computes one (n, words): the parts it builds,
    and the column of their concatenation that holds each word's trace."""

    # the parts, in this order: a column of N for the unit, the n diagonal
    # sums Tr X_a, the n x n Gram matrix Tr X_a X_b, then one Gram row
    # Tr P X_b per row prefix P
    unit: bool
    singles: bool
    pairs: bool
    # the prefix products of degree >= 2, depth first (each right after its
    # own prefix), and for each the last letters of the words it prefixes
    # (none when it is no row prefix)
    products: Tuple[Word, ...]
    rows: Tuple[Tuple[int, ...], ...]
    columns: np.ndarray


@functools.lru_cache(maxsize=None)
def _trace_plan(n: int, words: Tuple[Word, ...]) -> _TracePlan:
    words = tuple(_validate_word(w, n) for w in words)
    heads = {w[:-1] for w in words if len(w) > 2}
    # lexicographic order visits a prefix tree depth first
    products = sorted({h[:k] for h in heads for k in range(2, len(h) + 1)})
    unit, singles, pairs = (any(len(w) == d for w in words) for d in (0, 1, 2))
    diag = int(unit)
    gram = diag + n * singles
    heads_in_order = [p for p in products if p in heads]
    row_start = {p: gram + n * n * pairs + n * i for i, p in enumerate(heads_in_order)}

    def column(w: Word) -> int:
        if len(w) <= 1:
            return diag + w[0] - 1 if w else 0
        start = gram + (w[0] - 1) * n if len(w) == 2 else row_start[w[:-1]]
        return start + w[-1] - 1

    columns = np.array([column(w) for w in words], dtype=np.intp)
    columns.setflags(write=False)
    rows = tuple(tuple(sorted({w[-1] for w in words if len(w) > 2 and w[:-1] == p}))
                 for p in products)
    return _TracePlan(unit, singles, pairs, tuple(products), rows, columns)


def word_traces(blocks, words: Sequence[Word]) -> np.ndarray:
    """Tr w, unnormalized, of every word of ``words`` on blocks of shape
    (n, ..., N, N) (an array, or a sequence of n arrays of shape (..., N, N)):
    a complex array of shape (..., len(words)).

    The plan depends only on the degree of each word and is cached per
    (n, words). The unit gives N, all Tr X_a come from one diagonal
    contraction, and all Tr X_a X_b from one Gram contraction,
    ``einsum("a...ij,b...ji->...ab")``, exact for any square blocks
    (Hermitian or not). A longer word is Tr(P X_b) for its prefix product P
    and last letter b: the products are multiplied left to right, each once
    however many words share it, depth first so that only one branch of
    them is held at a time, and each P gives the traces of the one-letter
    extensions the words use, its Gram row, one letter at a time. Words of
    degree <= 2 multiply no matrices. One gather picks every word's column.

    Each trace of a row is one einsum over a single state's two matrices,
    whose summation order the stack does not change; one contraction of P
    against all n letters at once sums in an order that depends on the
    batch shape. So every state of a C-contiguous stack gets the bits of a
    call on that state alone (the tests hold every part to that), and a
    chain prices several proposals in one call
    (:meth:`matent.sampler.ChainEngine._advance`) with the decisions of
    single steps.
    """
    stack = np.asarray(blocks, dtype=complex)
    n, N = stack.shape[0], stack.shape[-1]
    plan = _trace_plan(n, tuple(words))
    parts = []
    if plan.unit:
        parts.append(np.full(stack.shape[1:-2] + (1,), N, dtype=complex))
    if plan.singles:
        parts.append(np.einsum("a...ii->...a", stack))
    if plan.pairs:
        gram = np.einsum("a...ij,b...ji->...ab", stack, stack)
        parts.append(gram.reshape(gram.shape[:-2] + (n * n,)))
    branch = []
    for p, row in zip(plan.products, plan.rows):
        while branch and branch[-1][0] != p[:-1]:
            branch.pop()
        prod = (branch[-1][1] if branch else stack[p[0] - 1]) @ stack[p[-1] - 1]
        branch.append((p, prod))
        if row:
            # only the letters the words use; the other columns are never read
            part = np.zeros(prod.shape[:-2] + (n,), dtype=complex)
            for b in row:
                np.einsum("...ij,...ji->...", prod, stack[b - 1], out=part[..., b - 1])
            parts.append(part)
    if not parts:
        return np.empty(stack.shape[1:-2] + (0,), dtype=complex)
    source = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    return source.take(plan.columns, axis=-1)
