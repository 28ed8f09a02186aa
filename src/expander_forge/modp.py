"""Exact arithmetic mod a prime p: residue vectors, the sum-zero hyperplane,
additive characters e_p(x) = exp(2*pi*i*x/p) and their means over point sets,
and centered-representative norms.

Residues are stored as int64 in [0, p). The modulus is capped below 2^31 so
that products of two residues always fit in int64 without big-integer help.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

PRIME_CAP = 2**31
# Largest modulus whose characters `ep` gathers from a table (2 MiB at most).
# A table at p = 1000003 would cost more to build than a few sweeps save.
EP_TABLE_CAP = 2**17
MEMORY_BUDGET = 1 << 30  # estimated peak bytes past which work is refused up front


@lru_cache(maxsize=256)
def is_prime(p: int) -> bool:
    """Trial-division primality test for desk-scale moduli, cached: every
    sampled vector checks its modulus again (3 ms a call at p = 2^31 - 1)."""
    if p < 2 or p >= PRIME_CAP:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus must be a prime in [2, 2^31), got {p}")


def ep_values(residues: np.ndarray, p: int) -> np.ndarray:
    """exp(2*pi*i*x/p) for each residue x in [0, p). `ep_table` is built by
    this one expression, so a value computed here is bitwise equal to the
    table entry. One complex temporary, updated in place."""
    z = 2j * np.pi * residues
    z /= p
    return np.exp(z, out=z)


@lru_cache(maxsize=None)
def ep_table(p: int) -> np.ndarray:
    """All p powers of exp(2*pi*i/p), indexed by residue. Shared, read-only.

    `ep` gathers from it at or below EP_TABLE_CAP, which keeps transcendental
    calls out of the sweep loops there; above the cap no table is built.
    """
    check_prime(p)
    table = ep_values(np.arange(p), p)
    drift = np.abs(table)
    drift -= 1.0
    if np.max(np.abs(drift, out=drift)) > 1e-12:
        raise ArithmeticError("character table entries drifted off the unit circle")
    table.setflags(write=False)
    return table


def ep(residues: np.ndarray, p: int) -> np.ndarray:
    """exp(2*pi*i*x/p) for each residue x in [0, p): a gather from
    `ep_table(p)` when p <= EP_TABLE_CAP, `ep_values` above it. The values
    are bitwise equal either way."""
    if p <= EP_TABLE_CAP:
        return ep_table(p)[residues]
    return ep_values(residues, p)


def ep_bytes(p: int) -> int:
    """Peak memory of `ep`'s table for modulus p: at or below EP_TABLE_CAP its
    16-byte entries plus, while it is built, one 8-byte temporary per
    residue; nothing above it."""
    return 24 * p if p <= EP_TABLE_CAP else 0


def refuse_past_budget(need: int, what: str) -> None:
    """Raise MemoryError, before the work starts, when its estimated peak
    memory `need` (bytes) exceeds MEMORY_BUDGET; `what` names the work."""
    if need > MEMORY_BUDGET:
        raise MemoryError(f"{what} needs about {need / 2**30:.1f} GiB "
                          f"(limit {MEMORY_BUDGET / 2**30:.0f} GiB)")


def char_means(points: np.ndarray, p: int) -> np.ndarray:
    """Mean of e_p(<x, w>) over the rows x of an (m, d) residue array, for
    every w in F_p^d at once, flattened with the first coordinate of w
    fastest.

    The p^d averages are one d-dimensional inverse DFT of the histogram of
    the rows, so the cost is O(p^d log p^d) whatever m is.
    """
    m, d = points.shape
    place = p ** np.arange(d, dtype=np.int64)
    hist = np.bincount(points @ place, minlength=p**d).reshape((p,) * d, order="F")
    return np.fft.ifftn(hist, norm="forward").ravel(order="F") / m


def first_near_max(values: np.ndarray) -> int:
    """Smallest index whose value is within 1e-12 of the maximum.

    Used for reported witnesses (an attaining u or w): among values that tie
    in exact arithmetic, the choice then does not depend on rounding.
    """
    values = np.asarray(values)
    return int(np.flatnonzero(values >= values.max() - 1e-12)[0])


@dataclass(frozen=True, eq=False)
class FpVector:
    """Immutable vector over F_p, entries reduced to [0, p). Hashable.

    Membership in the sum-zero hyperplane (the natural S_n-invariant
    complement of the constants when p does not divide n) is exposed as
    `is_sum_zero`.
    """

    entries: np.ndarray
    p: int

    def __post_init__(self) -> None:
        check_prime(self.p)
        arr = np.asarray(self.entries, dtype=np.int64) % self.p
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("entries must be a nonempty one-dimensional sequence")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def zero(cls, n: int, p: int) -> "FpVector":
        return cls(np.zeros(n, dtype=np.int64), p)

    @property
    def n(self) -> int:
        return int(self.entries.size)

    @property
    def is_sum_zero(self) -> bool:
        return int(self.entries.sum()) % self.p == 0

    @property
    def is_zero(self) -> bool:
        return not self.entries.any()

    @property
    def is_constant(self) -> bool:
        return bool((self.entries == self.entries[0]).all())

    def neg(self) -> "FpVector":
        return FpVector((-self.entries) % self.p, self.p)

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return iter(int(x) for x in self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FpVector):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.entries, other.entries)

    def __hash__(self) -> int:
        return hash((self.p, self.entries.tobytes()))

    def __repr__(self) -> str:
        return f"FpVector({tuple(int(x) for x in self.entries)}, p={self.p})"


def enumerate_v0(n: int, p: int) -> np.ndarray:
    """All p^(n-1) sum-zero vectors, one per row: row i holds the base-p
    digits of i (first coordinate fastest), then the negation of their sum."""
    count = p ** (n - 1)
    idx = np.arange(count, dtype=np.int64)
    digits = (idx[:, None] // p ** np.arange(n - 1, dtype=np.int64)[None, :]) % p
    last = (-digits.sum(axis=1)) % p
    return np.concatenate([digits, last[:, None]], axis=1)


def unimaginative_vector(n: int, p: int) -> FpVector:
    """(1, -1, 0, ..., 0), the short sum-zero vector behind the slow set."""
    entries = np.zeros(n, dtype=np.int64)
    entries[0], entries[1] = 1, p - 1
    return FpVector(entries, p)


def centered_l1(v: FpVector) -> int:
    """Sum of |x_i| over centered representatives of v's entries.

    Invariant under coordinate permutation; used as the potential function
    behind diameter lower bounds.
    """
    e = v.entries
    centered = np.where(e > v.p // 2, e - v.p, e)
    return int(np.abs(centered).sum())
