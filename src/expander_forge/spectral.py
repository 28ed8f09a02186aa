"""Spectra of Cayley graphs, two ways.

For the abelian graph of the sum-zero hyperplane on the orbit of a vector v,
eigenvalues come from characters: each coset of the all-ones line in F_p^n
indexes one character, whose eigenvalue is Re of the permutation-averaged
character sum. All p^(n-1) of them are one inverse DFT of the orbit's
histogram (`modp.char_means`), so the spectrum needs no matrix.

For everything else there is a dense route: build the multigraph adjacency
of Cay(G, S) (for the hyperplane itself by index arithmetic, otherwise from a
group table) and diagonalize the normalized matrix with LAPACK's symmetric
eigensolver. The two routes must agree on their common domain; that
agreement is the central cross-check of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import blas
from .modp import FpVector, char_means, enumerate_v0, first_near_max
from .perm import orbit_matrix

SPECTRUM_MAX_CHARACTERS = 10**6
# `gap --n 3 --p 61 --crosscheck dense` (dimension 3721) takes about 4 s
# and 245 MiB peak RSS per process (shared 2-core Xeon, numpy 2.4.6): two
# float64 matrices of 106 MiB, the adjacency scaled in place and LAPACK's
# working copy, on top of about 30 MiB of interpreter and numpy
DENSE_MAX_DIM = 4000


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues (ascending) of a normalized adjacency operator.

    gap is one minus the second-largest eigenvalue, signed rather than
    absolute: the doubled single edge on two vertices has spectrum {-1, 1}
    and gap 2. Positive gap is equivalent to connectivity. The character
    route also records extremal_w, a representative w whose character gives
    the second-largest eigenvalue.
    """

    eigenvalues: np.ndarray
    gap: float
    graph_order: int
    extremal_w: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        eigs = np.asarray(self.eigenvalues, dtype=np.float64)
        eigs.setflags(write=False)
        object.__setattr__(self, "eigenvalues", eigs)

    @property
    def second_largest(self) -> float:
        if self.eigenvalues.size < 2:
            return -1.0
        return float(self.eigenvalues[-2])


def _finish(eigs: np.ndarray, extremal_w: Optional[np.ndarray] = None) -> SpectrumResult:
    eigs = np.sort(np.asarray(eigs, dtype=np.float64))
    if eigs.min() < -1.0 - 1e-9 or eigs.max() > 1.0 + 1e-9:
        raise ArithmeticError("normalized eigenvalue escaped [-1, 1]")
    if abs(eigs.max() - 1.0) > 1e-9:
        raise ArithmeticError("trivial eigenvalue 1 is missing")
    gap = 2.0 if eigs.size < 2 else 1.0 - float(eigs[-2])
    return SpectrumResult(
        eigenvalues=eigs,
        gap=gap,
        graph_order=int(eigs.size),
        extremal_w=extremal_w,
    )


def abelian_spectrum(v: FpVector) -> SpectrumResult:
    """Spectrum of the Cayley graph of the sum-zero hyperplane on orbit(v),
    by characters: one value per coset representative, p^(n-1) in all.

    The representatives are the w with last coordinate zero, so lam(v, w)
    only sees the first n-1 coordinates of the orbit, and all p^(n-1) values
    come from one inverse DFT of their histogram. The histogram is real, so
    negating w conjugates its value and the real parts are the eigenvalues;
    the trivial character (the zero representative) contributes the
    eigenvalue 1.

    The result's `extremal_w` is the first representative, in the order with
    the first coordinate fastest, whose eigenvalue is within 1e-12 of the
    largest nontrivial one.
    """
    n, p = v.n, v.p
    if not v.is_sum_zero:
        raise ValueError("v must lie in the sum-zero hyperplane")
    if v.is_zero:
        raise ValueError("v must be nonzero")
    if p ** (n - 1) > SPECTRUM_MAX_CHARACTERS:
        raise ValueError(f"character enumeration guarded at {SPECTRUM_MAX_CHARACTERS}")
    eigs = char_means(orbit_matrix(v)[:, : n - 1], p).real
    if abs(eigs[0] - 1.0) > 1e-12:
        raise ArithmeticError("trivial character did not evaluate to 1")
    extremal = np.unravel_index(first_near_max(eigs[1:]) + 1, (p,) * (n - 1), order="F")
    return _finish(eigs, extremal_w=np.array([*extremal, 0], dtype=np.int64))


def _asymmetry(a: np.ndarray) -> float:
    """Largest |a - a.T| of a square matrix, taken a block of rows at a time
    (about 2^16 entries) rather than through dim x dim temporaries."""
    step = max(1, (1 << 16) // max(a.shape[0], 1))
    return max((float(np.max(np.abs(a[i : i + step] - a[:, i : i + step].T)))
                for i in range(0, a.shape[0], step)), default=0.0)


def dense_spectrum(adjacency: np.ndarray, degree: int) -> SpectrumResult:
    """Full spectrum of adjacency/degree by LAPACK (`numpy.linalg.eigvalsh`).

    Requires an exactly regular symmetric multigraph matrix. The backward
    error of the symmetric solver is a small multiple of machine epsilon
    times the norm (at most 1 here), well inside the 1e-8 agreement
    tolerance used by the cross-checks.

    The route takes `adjacency` over: a float64 matrix is divided by the
    degree in place (the adjacency builders return a fresh one per call).
    With symmetry checked a block of rows at a time, the route holds two
    dim x dim arrays at its peak, that matrix and LAPACK's working copy.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    if a.shape[0] > DENSE_MAX_DIM:
        raise ValueError(f"dense solver guarded at dimension {DENSE_MAX_DIM}")
    if _asymmetry(a) > 1e-12:
        raise ValueError("adjacency must be symmetric")
    rows = a.sum(axis=1)
    if np.max(np.abs(rows - degree)) > 1e-9:
        raise ValueError("row sums must all equal the stated degree")
    if degree <= 0:
        raise ValueError("degree must be positive")
    a /= degree
    with blas.all_cores(a.shape[0] > blas.DENSE_DIM):
        eigs = np.linalg.eigvalsh(a)
    return _finish(eigs)


def cayley_adjacency(group, gens: Sequence) -> np.ndarray:
    """Multigraph adjacency of Cay(group, gens): entry (g, h) counts how many
    times h equals g*s or g*s^-1 over the generator multiset. Row sums are
    2*len(gens)."""
    if group.order > DENSE_MAX_DIM:
        raise ValueError(f"dense adjacency guarded at order {DENSE_MAX_DIM}")
    gen_indices = group.resolve(list(gens))
    a = np.zeros((group.order, group.order))
    all_g = np.arange(group.order)
    for s in gen_indices:
        a[all_g, group.table[:, s]] += 1.0
        a[all_g, group.table[:, group.inverse[s]]] += 1.0
    if _asymmetry(a) > 0:
        raise ArithmeticError("Cayley adjacency came out asymmetric")
    return a


def hyperplane_adjacency(v: FpVector) -> np.ndarray:
    """`cayley_adjacency` of Cay(V0, orbit(v)), rows in `modp.enumerate_v0`
    order, by index arithmetic: row u joins the rows of u + s and u - s for
    each s in orbit(v), and a row's index is the base-p value of its first
    n-1 coordinates (first coordinate fastest)."""
    n, p = v.n, v.p
    dim = p ** (n - 1)
    if dim > DENSE_MAX_DIM:
        raise ValueError(f"hyperplane of order {dim} too large for the dense route "
                         f"(guarded at {DENSE_MAX_DIM})")
    heads = enumerate_v0(n, p)[:, : n - 1]
    steps = orbit_matrix(v)[:, : n - 1]
    weights = p ** np.arange(n - 1, dtype=np.int64)
    a = np.zeros((dim, dim))
    rows = np.arange(dim)
    for s in np.concatenate([steps, -steps]):
        a[rows, ((heads + s) % p) @ weights] += 1.0
    return a


def cayley_spectrum(group, gens: Sequence) -> SpectrumResult:
    """Dense spectrum of Cay(group, gens)."""
    gen_list = list(gens)
    return dense_spectrum(cayley_adjacency(group, gen_list), 2 * len(gen_list))
