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

from .modp import FpVector, char_means, enumerate_v0, first_near_max
from .perm import orbit_matrix

SPECTRUM_MAX_CHARACTERS = 10**6
# `gap --n 3 --p 61 --crosscheck dense` (dimension 3721) takes about 4.5 s
# and 353 MiB peak RSS per process (shared 2-core Xeon, numpy 2.4.6); each
# float64 matrix of that dimension is 106 MiB
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
    come from one inverse DFT of their histogram. The multiset of complex
    averages is checked to be closed under conjugation before real parts are
    taken; the trivial character (the zero representative) contributes the
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
    lam = char_means(orbit_matrix(v)[:, : n - 1], p)
    # negating a representative w conjugates its value, and -w is again a
    # representative: on the (p,)*(n-1) grid, index k pairs with (p - k) % p
    grid = lam.reshape((p,) * (n - 1), order="F")
    negated = np.roll(np.flip(grid), 1, axis=tuple(range(n - 1)))
    if np.max(np.abs(negated - np.conj(grid))) > 1e-9:
        raise ArithmeticError("character multiset is not closed under conjugation")
    eigs = lam.real
    if abs(eigs[0] - 1.0) > 1e-12:
        raise ArithmeticError("trivial character did not evaluate to 1")
    gap = 1.0 - float(eigs[1:].max())
    extremal = np.unravel_index(first_near_max(eigs[1:]) + 1, grid.shape, order="F")
    result = _finish(eigs, extremal_w=np.array([*extremal, 0], dtype=np.int64))
    if abs(result.gap - gap) > 1e-12:
        raise ArithmeticError("gap bookkeeping mismatch between trivial and extreme values")
    return result


def dense_spectrum(adjacency: np.ndarray, degree: int) -> SpectrumResult:
    """Full spectrum of adjacency/degree by LAPACK (`numpy.linalg.eigvalsh`).

    Requires an exactly regular symmetric multigraph matrix. The backward
    error of the symmetric solver is a small multiple of machine epsilon
    times the norm (at most 1 here), well inside the 1e-8 agreement
    tolerance used by the cross-checks.
    """
    a = np.asarray(adjacency, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    if a.shape[0] > DENSE_MAX_DIM:
        raise ValueError(f"dense solver guarded at dimension {DENSE_MAX_DIM}")
    if np.max(np.abs(a - a.T)) > 1e-12:
        raise ValueError("adjacency must be symmetric")
    rows = a.sum(axis=1)
    if np.max(np.abs(rows - degree)) > 1e-9:
        raise ValueError("row sums must all equal the stated degree")
    if degree <= 0:
        raise ValueError("degree must be positive")
    eigs = np.linalg.eigvalsh(a / degree)
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
    if np.max(np.abs(a - a.T)) > 0:
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
