"""Truncated trace-moment data: storage, validation, and reference laws.

A :class:`MomentSpec` holds the trace values of all monomials up to a degree
cutoff for a tuple of self-adjoint variables bounded by ``R`` in norm. Values
are keyed by canonical class representative; querying an arbitrary word
resolves the class and conjugates when the word sits on the reversed
orientation of its class.

Reference constructors produce the semicircle and arcsine moment sequences
and moments of free products of given blocks (via the non-crossing partition
moment-cumulant recursion).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from .ncpoly import (
    NcPoly,
    Word,
    all_words,
    canonical_class,
    canonical_classes,
    is_reversal_symmetric,
    star_word,
    trace_moment,
    word_rotations,
)

__all__ = [
    "MomentSpec",
    "empirical_moments",
    "moment_distance",
    "validate",
    "moment_pairing",
    "semicircle_moments",
    "arcsine_moments",
    "free_product_moments",
    "catalan",
    "nc_partitions",
]

PSD_TOL_FACTOR = 1e-8
SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class MomentSpec:
    """Trace moments of degree <= K for n variables of norm <= R.

    ``values`` maps canonical class representatives to complex trace values;
    the unit word is always present with value 1 unless explicitly overridden
    (validation flags that).
    """

    n: int
    K: int
    R: float
    values: Mapping[Word, complex]

    def __post_init__(self) -> None:
        if self.n < 1 or self.K < 0 or not (self.R > 0):
            raise ValueError("need n >= 1, K >= 0, R > 0")
        clean: Dict[Word, complex] = {(): 1.0 + 0.0j}
        for word, val in self.values.items():
            w = tuple(int(g) for g in word)
            if len(w) > self.K:
                raise ValueError(f"word {w} exceeds degree cutoff {self.K}")
            if any(not 1 <= g <= self.n for g in w):
                raise ValueError(f"word {w} outside generator range 1..{self.n}")
            rep = canonical_class(w)
            val = complex(val)
            # store the value as seen from the representative's orientation
            stored = val if w in word_rotations(rep) else val.conjugate()
            if rep in clean and abs(clean[rep] - stored) > 1e-9:
                raise ValueError(f"inconsistent duplicate values for class {rep}")
            clean[rep] = stored
        object.__setattr__(self, "values", clean)

    @property
    def class_reps(self):
        return sorted(self.values, key=lambda w: (len(w), w))

    def value(self, word: Word) -> complex:
        """Trace value of an arbitrary word of degree <= K."""
        w = tuple(word)
        rep = canonical_class(w)
        try:
            stored = self.values[rep]
        except KeyError:
            raise KeyError(f"moment of class {rep} not recorded (degree {len(rep)})")
        if w in word_rotations(rep):
            return stored
        return stored.conjugate()

    def to_json(self) -> str:
        entries = [
            {"word": list(w), "re": v.real, "im": v.imag}
            for w, v in sorted(self.values.items(), key=lambda t: (len(t[0]), t[0]))
        ]
        return json.dumps(
            {"n": self.n, "K": self.K, "R": self.R, "entries": entries},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "MomentSpec":
        obj = json.loads(text)
        vals = {
            tuple(e["word"]): complex(e["re"], e["im"]) for e in obj["entries"]
        }
        return cls(int(obj["n"]), int(obj["K"]), float(obj["R"]), vals)


def empirical_moments(tuple_or_blocks, K: int, R: float | None = None) -> MomentSpec:
    """All canonical trace moments of degree <= K of a matrix tuple.

    Accepts a :class:`~matent.matrices.MatrixTuple` or a plain sequence of
    square arrays (then ``R`` must be given).
    """
    blocks = getattr(tuple_or_blocks, "blocks", tuple_or_blocks)
    if R is None:
        R = getattr(tuple_or_blocks, "R", None)
        if R is None:
            raise ValueError("norm radius R required for raw block sequences")
    n = len(blocks)
    vals = {w: trace_moment(blocks, w) for w in canonical_classes(n, K, 1)}
    return MomentSpec(n, K, float(R), vals)


def moment_distance(a: MomentSpec, b: MomentSpec, K: int | None = None) -> float:
    """Max over monomials of degree <= K of |a(m) - b(m)|."""
    if a.n != b.n:
        raise ValueError("moment specs over different generator counts")
    if K is None:
        K = min(a.K, b.K)
    if K > min(a.K, b.K):
        raise ValueError(f"degree {K} not recorded by both specs")
    best = 0.0
    for w in canonical_classes(a.n, K):
        best = max(best, abs(a.value(w) - b.value(w)))
    return best


def moment_pairing(spec: MomentSpec, poly: NcPoly) -> float:
    """Trace of a self-adjoint polynomial under the moment data (real)."""
    total = 0.0 + 0.0j
    for w, c in poly.terms.items():
        total += c * spec.value(w)
    if abs(total.imag) > 1e-7 * max(1.0, abs(total.real)):
        raise ValueError(f"pairing of a non-self-adjoint polynomial: {total}")
    return float(total.real)


def validate(spec: MomentSpec, check_psd: bool = True) -> list:
    """Consistency violations of moment data, empty when clean.

    Checks: unit value, completeness to degree K, realness on
    reversal-symmetric classes, the norm bound |m| <= R^deg, and positive
    semidefiniteness of the Gram matrix over words of degree <= floor(K/2)
    (eigenvalue floor -1e-8 times the Gram trace).
    """
    out = []
    unit = spec.values.get((), None)
    if unit is None or abs(unit - 1.0) > 1e-12:
        out.append(f"unit moment is {unit!r}, expected 1")
    missing = [w for w in canonical_classes(spec.n, spec.K) if w not in spec.values]
    if missing:
        out.append(f"missing {len(missing)} classes up to degree {spec.K}, first {missing[0]}")
    for w, v in spec.values.items():
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            out.append(f"non-finite value for {w}")
            continue
        if is_reversal_symmetric(w) and abs(v.imag) > SYMMETRY_TOL:
            out.append(f"reversal-symmetric class {w} has imaginary part {v.imag:.3e}")
        bound = spec.R ** len(w)
        if abs(v) > bound * (1 + 1e-9) + 1e-12:
            out.append(f"|moment({w})| = {abs(v):.6g} exceeds R^deg = {bound:.6g}")
    if check_psd and not missing:
        basis = all_words(spec.n, spec.K // 2)
        try:
            gram = np.array(
                [[spec.value(star_word(u) + v) for v in basis] for u in basis],
                dtype=complex,
            )
        except KeyError as exc:
            out.append(f"gram entry unavailable: {exc}")
            return out
        gram = (gram + gram.conj().T) / 2
        eigs = np.linalg.eigvalsh(gram)
        floor = -PSD_TOL_FACTOR * max(float(np.trace(gram).real), 1e-30)
        if eigs[0] < floor:
            out.append(f"gram matrix has eigenvalue {eigs[0]:.6g} below {floor:.6g}")
    return out


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def semicircle_moments(variance: float, K: int, radius: float | None = None) -> MomentSpec:
    """Moments of the centered semicircle law with the given variance.

    Even moments are Catalan(k) * variance^k; odd ones vanish. The norm
    radius defaults to the support edge 2*sqrt(variance).
    """
    if variance <= 0:
        raise ValueError("variance must be positive")
    R = 2.0 * math.sqrt(variance) if radius is None else float(radius)
    vals = {}
    for k in range(1, K + 1):
        vals[(1,) * k] = 0.0 if k % 2 else catalan(k // 2) * variance ** (k // 2)
    return MomentSpec(1, K, R, vals)


def arcsine_moments(R: float, K: int) -> MomentSpec:
    """Moments of the arcsine law on [-R, R]: m_2k = C(2k, k) (R/2)^(2k)."""
    if R <= 0:
        raise ValueError("R must be positive")
    vals = {}
    for k in range(1, K + 1):
        vals[(1,) * k] = 0.0 if k % 2 else math.comb(k, k // 2) * (R / 2.0) ** k
    return MomentSpec(1, K, float(R), vals)


@lru_cache(maxsize=None)
def nc_partitions(size: int):
    """All non-crossing partitions of range(size), blocks as sorted tuples.

    Recursion on the block containing position 0: its members split the rest
    into independent contiguous segments.
    """
    if size == 0:
        return ((),)
    out = []
    rest = range(1, size)
    for r in range(0, size):
        for members in combinations(rest, r):
            block = (0,) + members
            edges = block + (size,)
            segments = [
                range(edges[i] + 1, edges[i + 1]) for i in range(len(block))
            ]
            partials = [()]
            for seg in segments:
                seg = list(seg)
                sub = nc_partitions(len(seg))
                partials = [
                    p + tuple(tuple(seg[i] for i in blk) for blk in q)
                    for p in partials
                    for q in sub
                ]
            for p in partials:
                out.append(((block,) + p))
    return tuple(out)


def free_product_moments(blocks: Sequence[MomentSpec], K: int) -> MomentSpec:
    """Joint moments of the free product of the given marginal blocks.

    Mixed moments come from the moment-cumulant relation on non-crossing
    partitions with color-homogeneous blocks; mixed free cumulants vanish, so
    each partition contributes the product of within-block cumulants. The
    restriction to any single block reproduces that block's moments exactly.
    Degree is capped at 8 (partition count grows as Catalan numbers).
    """
    if K > 8:
        raise ValueError("free products supported up to degree 8")
    if not blocks:
        raise ValueError("need at least one block")
    for i, b in enumerate(blocks):
        if b.K < K:
            raise ValueError(f"block {i} only records moments to degree {b.K} < {K}")
    offsets = []
    total = 0
    for b in blocks:
        offsets.append(total)
        total += b.n
    color_of = {}
    local_of = {}
    for bi, b in enumerate(blocks):
        for g in range(1, b.n + 1):
            color_of[offsets[bi] + g] = bi
            local_of[offsets[bi] + g] = g

    cumulant_memo: Dict[Tuple[int, Word], complex] = {}

    def cumulant(bi: int, word: Word) -> complex:
        key = (bi, word)
        if key in cumulant_memo:
            return cumulant_memo[key]
        total_c = complex(blocks[bi].value(word))
        for part in nc_partitions(len(word)):
            if len(part) == 1:
                continue
            prod = 1.0 + 0.0j
            for blk in part:
                prod *= cumulant(bi, tuple(word[i] for i in blk))
            total_c -= prod
        cumulant_memo[key] = total_c
        return total_c

    def tau(word: Word) -> complex:
        colors = [color_of[g] for g in word]
        local = tuple(local_of[g] for g in word)
        total_v = 0.0 + 0.0j
        for part in nc_partitions(len(word)):
            prod = 1.0 + 0.0j
            for blk in part:
                c0 = colors[blk[0]]
                if any(colors[i] != c0 for i in blk[1:]):
                    prod = 0.0
                    break
                prod *= cumulant(c0, tuple(local[i] for i in blk))
            total_v += prod
        return total_v

    vals = {w: tau(w) for w in canonical_classes(total, K, 1)}
    R = max(b.R for b in blocks)
    return MomentSpec(total, K, R, vals)
