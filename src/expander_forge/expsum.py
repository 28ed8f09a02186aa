"""Averages of additive characters over coordinate permutations.

The central quantity is lam(v, w) = (1/n!) * sum over all s in S_n of
e_p(<v, w^s>). Its real parts are the normalized eigenvalues of the Cayley
graph of the sum-zero hyperplane on the orbit of v, so bounding |lam(v, w)|
away from 1 for all nonconstant w certifies a spectral gap.

The certification shortcut: a Cauchy-Schwarz switching argument bounds
|lam(v, w)|^2 by 1/2 + 1/2 * max over u != 0 of |lam_v(u)|^2 where
lam_v(u) = (1/n) * sum_i e_p(u * v_i) is the support-one case. That turns
p - 1 cheap sweeps into a bound covering every one of the p^(n-1)
eigenvalues, with no enumeration of w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator, Optional

import numpy as np

from . import blas
from .modp import FpVector, char_means, check_prime, enumerate_v0, ep, ep_bytes, sample_v0
from .perm import arrangements
from .rng import task_rng

EXACT_MAX_N = 10
SWEEP_SLACK = 1e-9  # float slack under which a switching-sweep margin is a violation

# outputs per row block of the support-one sweep
_BLOCK = 1 << 16
_SWEEP_BYTES = 1 << 30  # estimated memory above which search_vector and tail_experiment refuse
_TAIL_CHUNK = 1024  # trials per vectorized block of tail_experiment


@dataclass(frozen=True)
class SwitchCertificate:
    """Proof that every nonconstant w satisfies |lam(v, w)| <= spectral_bound.

    max_support_one is the measured max over u != 0 of |lam_v(u)|; the bound
    sqrt(1/2 + max_support_one^2 / 2) then covers all w at once. The floor of
    the construction is 1/sqrt(2), reached only as max_support_one -> 0.
    """

    v: FpVector
    max_support_one: float
    spectral_bound: float
    u_argmax: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.max_support_one <= 1.0 + 1e-12:
            raise ValueError(f"max_support_one out of range: {self.max_support_one}")
        expected = math.sqrt(0.5 + 0.5 * self.max_support_one**2)
        if abs(self.spectral_bound - expected) > 1e-12:
            raise ValueError("spectral_bound inconsistent with max_support_one")


@dataclass(frozen=True)
class SearchResult:
    """Outcome of the random search for a certifiable v. A failed search is a
    value, not an error: at small n no v may pass the threshold."""

    found: bool
    certificate: Optional[SwitchCertificate]
    trials: int


@dataclass(frozen=True)
class TailResult:
    """Empirical tail frequency of |lam_v(u)| >= eps against the proven
    4 * exp(-eps^2 * n / 8) bound."""

    empirical_rate: float
    bound: float
    exceed_count: int
    trials: int


def _sweep_shape(k: int, p: int) -> tuple[int, int, int]:
    """Baby-step width b, giant-step row count q and rows per block of the
    sweep over u in 0..p//2, for a vector with k distinct residues."""
    b = math.isqrt(p // 2) + 1
    return b, -(-(p // 2 + 1) // b), max(_BLOCK // b, min(k, 32))


def _sweep_bytes(k: int, p: int) -> int:
    """Estimated peak memory of one sweep over a vector with k distinct
    residues. It covers the k x b baby block while it is built (int64
    residues plus one complex array, 24 bytes an entry), and while the
    blocks run, the kept baby block next to one block's product, moduli, tie
    bookkeeping and giant-step temporaries (under 48 bytes per entry of a
    block's rows), plus the character table `ep` gathers from at small p."""
    b, _, rows = _sweep_shape(k, p)
    return 24 * k * b + 48 * rows * (b + k) + ep_bytes(p)


def _sweep_blocks(v: FpVector) -> Iterator[np.ndarray]:
    """|lam_v(u)| for u in 0..p//2 (entry 0 is always 1), one giant-step row
    block at a time.

    With distinct residues a, counts c_a and u = i*b + j (b = isqrt(p//2)
    + 1), lam_v(u) = (1/n) * sum_a c_a e_p(i*b*a) e_p(j*a): one product of
    a giant-step block (c_a e_p(i*b*a)) by the baby-step block (e_p(j*a)).
    A block has about _BLOCK outputs and at least min(k, 32) rows, k the
    number of distinct residues, so the baby block is not re-read for every
    few rows at large p. Only about 2*sqrt(p/2) character values per
    distinct residue are taken from `ep` (a table gather at small p), and
    what is held is the k x b baby block and one product block: O(sqrt(p) k)
    memory besides that table.
    """
    p = v.p
    m = p // 2 + 1
    residues, counts = np.unique(v.entries, return_counts=True)
    b, q, rows = _sweep_shape(residues.size, p)
    with blas.all_cores(residues.size * (p // 2) > blas.SWEEP_WORK):
        baby = ep(np.arange(b, dtype=np.int64)[:, None] * residues % p, p).T
        for start in range(0, q, rows):
            giant_steps = np.arange(start, min(start + rows, q), dtype=np.int64) * b % p
            giant = counts * ep(giant_steps[:, None] * residues % p, p)
            block = np.abs((giant @ baby).ravel()[: min(giant_steps.size * b, m - start * b)])
            block /= v.n
            yield block


def max_support_one(v: FpVector) -> tuple[float, int]:
    """Maximum of |lam_v(u)| over u != 0, and the smallest u within 1e-12 of
    it. Both are read from u in 1..p//2, which covers every value since
    |lam_v(u)| = |lam_v(p - u)|.

    One pass over the sweep's blocks. Besides the running maximum it keeps
    the running prefix maxima that lie within 1e-12 of it: the smallest u
    within 1e-12 of the final maximum is the first of them left."""
    top = -math.inf
    near: list[tuple[int, float]] = []  # (u, |lam_v(u)|), both increasing
    u = 0  # u of the block's first entry
    for block in _sweep_blocks(v):
        if u == 0:
            block, u = block[1:], 1
        peak = float(block.max())
        if peak >= top - 1e-12:
            top = max(top, peak)
            near = [(w, x) for w, x in near if x >= top - 1e-12]
            near += _prefix_maxima(block, top - 1e-12, near[-1][1] if near else -math.inf, u)
        u += block.size
    return top, near[0][0]


def _prefix_maxima(block: np.ndarray, floor: float, last: float, u: int) -> list[tuple[int, float]]:
    """(u + i, block[i]) for each i with block[i] >= floor that beats `last`
    and every earlier entry of the block. A function of its own so that its
    block-sized temporaries are freed before the next block is computed."""
    at = np.flatnonzero(block >= floor)
    vals = block[at]
    ahead = np.concatenate(([last], vals[:-1]))
    keep = vals > np.maximum.accumulate(ahead, out=ahead)
    return list(zip((at[keep] + u).tolist(), vals[keep].tolist()))


def certify(v: FpVector) -> SwitchCertificate:
    """Switching certificate for a nonzero sum-zero v: a bound on |lam(v, w)|
    valid for every nonconstant w, from the support-one sweep alone."""
    if not v.is_sum_zero:
        raise ValueError("v must lie in the sum-zero hyperplane")
    if v.is_zero:
        raise ValueError("v must be nonzero")
    m, u = max_support_one(v)
    m = min(m, 1.0)
    bound = math.sqrt(0.5 + 0.5 * m * m)
    return SwitchCertificate(v=v, max_support_one=m, spectral_bound=bound, u_argmax=u)


def search_vector(
    n: int,
    p: int,
    threshold: float = 0.5,
    max_trials: int = 100,
    seed: int = 0,
) -> SearchResult:
    """Sample random sum-zero vectors until one certifies below `threshold`.

    Candidate i is always drawn from the stream derived from (seed, i). A
    zero draw counts as a failed trial (its sweep maximum is 1). Raises
    MemoryError up front when the sweep's estimated memory (`_sweep_bytes`)
    exceeds `_SWEEP_BYTES`.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if max_trials < 1:
        raise ValueError(f"need max_trials >= 1, got {max_trials}")
    check_prime(p)
    need = _sweep_bytes(min(n, p), p)  # a vector has at most min(n, p) residues
    if need > _SWEEP_BYTES:
        raise MemoryError(f"the support-one sweep needs about {need / 2**30:.1f} GiB "
                          f"(limit {_SWEEP_BYTES / 2**30:.0f} GiB)")

    best: Optional[SwitchCertificate] = None
    for i in range(max_trials):
        v = sample_v0(n, p, task_rng(seed, i))
        if v.is_zero:
            continue
        cert = certify(v)
        if best is None or cert.max_support_one < best.max_support_one:
            best = cert
        if cert.max_support_one < threshold:
            return SearchResult(found=True, certificate=cert, trials=i + 1)
    return SearchResult(found=False, certificate=best, trials=max_trials)


def tail_bound(n: int, eps: float) -> float:
    """The proven tail bound 4 * exp(-eps^2 * n / 8)."""
    return 4.0 * math.exp(-(eps**2) * n / 8.0)


def _tail_bytes(n: int, p: int, trials: int) -> int:
    """Estimated peak memory of `tail_experiment`: per entry of a block of
    min(trials, _TAIL_CHUNK) vectors its int64 residues and complex
    characters (24 bytes), one more row of 24 bytes per entry for the three
    int64 arrays that drawing a vector holds, the character table `ep`
    gathers from at small p, and a flat 1 MiB for numpy's casting buffer,
    the block's row means and Python objects."""
    return 24 * (min(trials, _TAIL_CHUNK) + 1) * n + ep_bytes(p) + (1 << 20)


def tail_experiment(
    n: int,
    p: int,
    eps: float,
    trials: int,
    u: int,
    seed: int = 0,
) -> TailResult:
    """Frequency of |lam_v(u)| >= eps over random sum-zero v, with the bound.

    Requires eps >= 2/n (the regime where the bound is proven) and u != 0.
    Trial i draws its vector from the (seed, i) stream. Raises MemoryError
    before sampling when the estimated memory (`_tail_bytes`) exceeds
    `_SWEEP_BYTES`.
    """
    check_prime(p)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if eps < 2.0 / n:
        raise ValueError(f"need eps >= 2/n = {2.0 / n}, got {eps}")
    if int(u) % p == 0:
        raise ValueError("u must be nonzero mod p")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    need = _tail_bytes(n, p, trials)
    if need > _SWEEP_BYTES:
        raise MemoryError(f"the tail experiment needs about {need / 2**30:.1f} GiB "
                          f"(limit {_SWEEP_BYTES / 2**30:.0f} GiB)")
    u = int(u) % p
    exceed = 0
    for start in range(0, trials, _TAIL_CHUNK):
        block = range(start, min(start + _TAIL_CHUNK, trials))
        vmat = np.empty((len(block), n), dtype=np.int64)
        for row, i in enumerate(block):
            vmat[row] = sample_v0(n, p, task_rng(seed, i)).entries
        vmat *= u
        vmat %= p
        vals = ep(vmat, p).mean(axis=1)
        exceed += int((np.abs(vals) >= eps).sum())
    return TailResult(
        empirical_rate=exceed / trials,
        bound=tail_bound(n, eps),
        exceed_count=exceed,
        trials=trials,
    )


@dataclass(frozen=True)
class SwitchingSweep:
    """Exhaustive audit of the switching inequality at one (n, p).

    For every sum-zero v and every nonconstant w (one representative per
    rearrangement class, which covers all w since lam is invariant under
    permuting w), records the worst margins of:

      plain:   1/2 + 1/2 * max_u |lam_v(u)|^2          - |lam(v, w)|^2
      sharp:   1/2 + (n |lam_v(u_w)|^2 - 1) / (2(n-1)) - |lam(v, w)|^2

    where u_w is the difference of the first adjacent unequal pair of the
    sorted w. Margins of at least -SWEEP_SLACK mean no violation.
    """

    n: int
    p: int
    vector_count: int
    class_count: int
    pair_count: int
    min_margin_plain: float
    min_margin_sharp: float

    def violations(self) -> int:
        return sum(int(m < -SWEEP_SLACK) for m in (self.min_margin_plain, self.min_margin_sharp))


def switching_sweep(n: int, p: int) -> SwitchingSweep:
    """Run the exhaustive switching audit at (n, p). Cost is one length-p DFT
    per v plus one (n-1)-dimensional DFT per rearrangement class of w.

    Since v_n = -(v_1 + ... + v_{n-1}), <x, v> = sum over i < n of
    (x_i - x_n) v_i, so lam(v, w) for every sum-zero v at once is the
    character mean of the differences x_i - x_n over the rearrangements x
    of w, in the row order of `enumerate_v0`.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > EXACT_MAX_N:
        raise ValueError(f"sweep guarded at n <= {EXACT_MAX_N}, got {n}")
    check_prime(p)
    v0 = enumerate_v0(n, p)
    nv = v0.shape[0]

    counts = np.zeros((nv, p))
    np.add.at(counts, (np.arange(nv)[:, None], v0), 1.0)
    lam_u = np.abs(np.fft.fft(counts, axis=1)) / n
    sup_sq = lam_u[:, 1:].max(axis=1) ** 2

    min_plain = math.inf
    min_sharp = math.inf
    classes = 0
    for sorted_w in combinations_with_replacement(range(p), n):
        if sorted_w[0] == sorted_w[-1]:
            continue
        classes += 1
        rows = arrangements(sorted_w)
        lam = char_means((rows[:, : n - 1] - rows[:, n - 1 :]) % p, p)
        lhs = np.abs(lam) ** 2
        min_plain = min(min_plain, float((0.5 + 0.5 * sup_sq - lhs).min()))
        u_w = next(a - b for a, b in zip(sorted_w, sorted_w[1:]) if a != b) % p
        sharp_rhs = 0.5 + 0.5 * (n * lam_u[:, u_w] ** 2 - 1.0) / (n - 1.0)
        min_sharp = min(min_sharp, float((sharp_rhs - lhs).min()))
    return SwitchingSweep(
        n=n,
        p=p,
        vector_count=nv,
        class_count=classes,
        pair_count=classes * nv,
        min_margin_plain=min_plain,
        min_margin_sharp=min_sharp,
    )
