"""Symmetric group machinery: permutations of {0, ..., n-1}, their action on
mod-p vectors, the one enumeration of rearrangements (orbits, S_n itself),
and the standard generating pair {transposition, n-cycle}.

Action convention, fixed once for the whole package: (w^s)_i = w_{s(i)}.
This makes `act` a right action, act(act(w, a), b) == act(w, a∘b) with
(a∘b)(i) = a(b(i)), which the property suite pins down. Every graph-level
quantity downstream (orbits, spectra, diameters) averages over all of S_n
and is invariant under the choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby, product
from typing import List, Sequence

import numpy as np

from .modp import FpVector

ORBIT_MAX_N = 10


@dataclass(frozen=True, eq=False)
class Permutation:
    """Permutation stored as its image table: images[i] = s(i). Immutable."""

    images: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.images, dtype=np.int64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("images must be a nonempty one-dimensional sequence")
        if not np.array_equal(np.sort(arr), np.arange(arr.size)):
            raise ValueError(f"not a bijection of 0..{arr.size - 1}: {arr.tolist()}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "images", arr)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n))

    @property
    def n(self) -> int:
        return int(self.images.size)

    def __call__(self, i: int) -> int:
        return int(self.images[i])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return np.array_equal(self.images, other.images)

    def __hash__(self) -> int:
        return hash(self.images.tobytes())

    def __repr__(self) -> str:
        return f"Permutation({tuple(int(x) for x in self.images)})"


def inverse(a: Permutation) -> Permutation:
    inv = np.empty(a.n, dtype=np.int64)
    inv[a.images] = np.arange(a.n)
    return Permutation(inv)


def act(w: FpVector, s: Permutation) -> FpVector:
    """w^s with (w^s)_i = w_{s(i)}."""
    if w.n != s.n:
        raise ValueError(f"length mismatch: vector {w.n}, permutation {s.n}")
    return FpVector(w.entries[s.images], w.p)


def transposition(n: int, i: int, j: int) -> Permutation:
    imgs = np.arange(n)
    imgs[i], imgs[j] = j, i
    return Permutation(imgs)


def standard_generators(n: int) -> List[Permutation]:
    """The pair [(0 1), (0 1 ... n-1)]. Returned as a list: at n = 2 the two
    coincide and generating sets are treated as multisets throughout."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    cycle = Permutation((np.arange(n) + 1) % n)
    return [transposition(n, 0, 1), cycle]


def arrangements(entries: Sequence[int]) -> np.ndarray:
    """Distinct rearrangements of `entries`, one per row, in lexicographic
    order. Those of a multiset M that start with f are f followed by those
    of M less one f, so each level maps every sub-multiset of its size (a
    vector of value counts) to its rearrangements, as indices into the
    sorted distinct values; a level is freed once the next is built."""
    values, counts = np.unique(np.asarray(entries, dtype=np.int64), return_counts=True)
    index = np.min_scalar_type(counts.size)
    subs = sorted(product(*(range(c + 1) for c in counts.tolist())), key=sum)
    level = {subs[0]: np.zeros((1, 0), dtype=index)}
    for size, group in groupby(subs[1:], key=sum):
        below, level = level, {}
        for sub in group:
            parts = [(f, below[sub[:f] + (c - 1,) + sub[f + 1 :]]) for f, c in enumerate(sub) if c]
            rows = level[sub] = np.empty((sum(len(r) for _, r in parts), size), dtype=index)
            at = 0
            for f, rest in parts:
                rows[at : at + len(rest), 0] = f
                rows[at : at + len(rest), 1:] = rest
                at += len(rest)
    return values[level[subs[-1]]]


def orbit_size(v: FpVector) -> int:
    """n! divided by the product of entry-multiplicity factorials."""
    size = math.factorial(v.n)
    for count in np.bincount(v.entries, minlength=v.p):
        size //= math.factorial(int(count))
    return size


def orbit_matrix(v: FpVector) -> np.ndarray:
    """All distinct rearrangements of v's entries, one per row."""
    if v.n > ORBIT_MAX_N:
        raise ValueError(f"orbit enumeration guarded at n <= {ORBIT_MAX_N}, got n = {v.n}")
    return arrangements(v.entries)


def orbit_span_rank(v: FpVector) -> int:
    """Rank over F_p of the S_n-submodule generated by v: 0 for v = 0, 1
    for a nonzero constant v, n - 1 for a nonconstant sum-zero v, else n.

    A constant v spans a line. Otherwise v_i != v_j for some i, j, and for
    t = (i j), v - v^t = (v_i - v_j)(e_i - e_j), whose orbit spans the
    sum-zero hyperplane V0. Permuting keeps the sum: the module is V0 for a
    sum-zero v and V0 + <v> = F_p^n for any other.
    """
    if v.is_zero:
        return 0
    if v.is_constant:
        return 1
    return v.n - 1 if v.is_sum_zero else v.n
