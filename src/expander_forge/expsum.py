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
from contextlib import closing
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

from . import blas
from .modp import (FpVector, char_means, check_prime, enumerate_v0, ep, ep_bytes,
                   refuse_past_budget)
from .perm import arrangements

if TYPE_CHECKING:
    from .philox import TaskIntegers

EXACT_MAX_N = 10
SWEEP_SLACK = 1e-9  # float slack under which a switching-sweep margin is a violation

# entries of one batch of the search's draws or one block of tail_experiment's
_BLOCK = 1 << 16
_BATCH = 64  # most candidates the search draws at once
_STACK = _BLOCK // 8  # baby-block and product entries of one stack of the search
_TAIL_CHUNK = 1024  # most trials per vectorized block of tail_experiment
# trials x (n + 128) past which tail_experiment refuses: about 78 ns an entry at the
# largest primes (17 ns of it the draw) and under 1 us a trial, so about 24 s at most
# (2-core Xeon)
TAIL_MAX_WORK = 3 * 10**8
# max_trials x ((min(n, p) + 32) (p//2 + 1) + 300 n + 2 * 10^6) past which search_vector
# refuses: 0.1-0.15 ns a unit, from the sweep at large p, the draws and their sort at
# large n (24-33 ns an entry) and per-stack bookkeeping (0.2 ms a trial at most) at small
# p, so about 60 s at most (2-core Xeon)
SEARCH_MAX_WORK = 4 * 10**11


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


def _sweep_shape(p: int) -> tuple[int, int, int]:
    """Baby-step width b, giant-step row count q and rows per block of the
    sweep over u in 0..p//2, the same for every stack at p: 32 rows (all q
    rows when fewer), and one more while that would leave a one-row last
    block. numpy multiplies a single row by BLAS gemv, whose sums may round
    differently from the gemm that computes the same row in a larger block,
    so a vector's outputs are the same bits alone or in a stack."""
    b = math.isqrt(p // 2) + 1
    q = -(-(p // 2 + 1) // b)
    rows = min(32, q)
    while rows < q and q % rows == 1:
        rows += 1
    return b, q, rows


def _stack_size(k: int, p: int) -> int:
    """Vectors per stack of the search, for k distinct residues at p: as many
    as keep the stack's baby blocks and one product block within _STACK
    entries, and at least one."""
    b, _, rows = _sweep_shape(p)
    return max(1, _STACK // (b * (k + rows)))


def _sweep_bytes(k: int, p: int, s: int = 1) -> int:
    """Estimated peak memory of the sweep of a stack of s vectors with k
    distinct residues each, in blocks of `_sweep_shape(p)` rows whatever k
    is. It covers the k x b baby blocks while they are built (int64
    residues plus one complex array, 24 bytes an entry), and while the
    blocks run, the kept baby blocks next to one block's product,
    moduli, tie bookkeeping and giant-step temporaries (under 48 bytes per
    entry of a block's rows), plus the character table `ep` gathers from at
    small p and numpy's 128 KiB buffer for casting int64 residues to
    complex (8192 entries)."""
    b, _, rows = _sweep_shape(p)
    return s * (24 * k * b + 48 * rows * (b + k)) + ep_bytes(p) + (1 << 17)


def _batch_size(n: int, most: int = _BATCH) -> int:
    """Vectors of length n per batch: `most`, and fewer for long vectors, so
    that a batch holds at most about _BLOCK entries; at least one."""
    return max(1, min(most, _BLOCK // n))


def _search_bytes(n: int, p: int) -> int:
    """Estimated peak memory of `search_vector`: 16 bytes per entry of a
    batch of draws (the vectors and their sorted copy), 16 per entry of one
    vector (the kept and the new certificate's copies of their vectors),
    the draws' kept buffers and pass temporaries (`philox.fill_bytes`), and
    the larger of one vector's sweep at k = min(n, p) residues (fewer
    residues take the same blocks and smaller baby blocks, so less) and a
    stack of more than one. Such a stack has s b (k + rows) <= _STACK
    (`_stack_size`) and a block has at most q <= b rows, so it takes at most
    72 bytes an entry besides the table and the casting buffer (a stack of
    0's estimate)."""
    from .philox import fill_bytes

    k, batch = min(n, p), _batch_size(n)
    sweep = max(_sweep_bytes(k, p), 72 * _STACK + _sweep_bytes(k, p, 0))
    return sweep + 16 * n * (batch + 1) + fill_bytes(batch, n - 1, p)


def _sweep_blocks(residues: np.ndarray, counts: np.ndarray, n: int,
                  p: int) -> Iterator[np.ndarray]:
    """|lam_v(u)| for u in 0..p//2 (entry 0 is always 1), one giant-step row
    block at a time, for a stack of vectors of length n: row r of `residues`
    holds the distinct residues of one vector in increasing order and row r
    of `counts` their counts, the same number k of them for every vector.
    Each block is an array with one row per vector.

    With distinct residues a, counts c_a and u = i*b + j (b = isqrt(p//2)
    + 1), lam_v(u) = (1/n) * sum_a c_a e_p(i*b*a) e_p(j*a): one product of
    a giant-step block (c_a e_p(i*b*a)) by the baby-step block (e_p(j*a))
    per vector, one matmul over the stack. The rows per block come from
    `_sweep_shape`. Only about 2*sqrt(p/2) character values per distinct
    residue are taken from `ep` (a table gather at small p), and what is
    held is the stack's k x b baby blocks and one product block: O(sqrt(p) k)
    memory per vector besides that table.
    """
    m = p // 2 + 1
    b, q, rows = _sweep_shape(p)
    with blas.all_cores(residues.shape[1] * (p // 2) > blas.SWEEP_WORK):
        baby = ep(np.arange(b, dtype=np.int64)[:, None] * residues[:, None, :] % p, p)
        for start in range(0, q, rows):
            giant_steps = np.arange(start, min(start + rows, q), dtype=np.int64) * b % p
            giant = counts[:, None, :] * ep(giant_steps[:, None] * residues[:, None, :] % p, p)
            block = np.abs((giant @ baby.transpose(0, 2, 1))
                           .reshape(len(giant), -1)[:, : m - start * b])
            block /= n
            yield block


def _stack_maxima(residues: np.ndarray, counts: np.ndarray, n: int, p: int,
                  ceiling: float) -> list[Optional[tuple[float, int]]]:
    """For each vector of a stack, as `_sweep_blocks` takes it: the maximum
    of |lam_v(u)| over u != 0 and the smallest u within 1e-12 of it. Both are
    read from u in 1..p//2, which covers every value since |lam_v(u)| =
    |lam_v(p - u)|. A vector is dead, and gets None, from the first block
    where some |lam_v(u)| >= ceiling: its maximum is then at least `ceiling`.
    The sweep stops once every vector is dead.

    One pass over the sweep's blocks. Besides each vector's running maximum
    it keeps the running prefix maxima that lie within 1e-12 of it: the
    smallest u within 1e-12 of the final maximum is the first of them left."""
    dead = np.zeros(len(residues), dtype=bool)
    top = np.full(len(residues), -math.inf)
    near: list[list[tuple[int, float]]] = [[] for _ in dead]  # (u, |lam_v(u)|), both increasing
    u = 0  # u of the block's first entry
    with closing(_sweep_blocks(residues, counts, n, p)) as blocks:
        for block in blocks:
            if u == 0:
                block, u = block[:, 1:], 1
            peaks = block.max(axis=1)
            dead |= peaks >= ceiling
            if dead.all():
                break
            for i in np.flatnonzero(~dead & (peaks >= top - 1e-12)):
                top[i] = max(top[i], peaks[i])
                near[i] = [(w, x) for w, x in near[i] if x >= top[i] - 1e-12]
                last = near[i][-1][1] if near[i] else -math.inf
                near[i] += _prefix_maxima(block[i], top[i] - 1e-12, last, u)
            u += block.shape[1]
    return [None if d else (float(t), w[0][0]) for d, t, w in zip(dead, top, near)]


def _prefix_maxima(block: np.ndarray, floor: float, last: float, u: int) -> list[tuple[int, float]]:
    """(u + i, block[i]) for each i with block[i] >= floor that beats `last`
    and every earlier entry of the block. A function of its own so that its
    block-sized temporaries are freed before the next block is computed."""
    at = np.flatnonzero(block >= floor)
    vals = block[at]
    ahead = np.concatenate(([last], vals[:-1]))
    keep = vals > np.maximum.accumulate(ahead, out=ahead)
    return list(zip((at[keep] + u).tolist(), vals[keep].tolist()))


def _draw_v0(draws: TaskIntegers, n: int, lo: int, hi: int) -> np.ndarray:
    """The uniformly random sum-zero vectors of trials lo..hi-1, one per row
    of an (hi - lo, n) int64 array. Trial i's first n-1 entries are i.i.d.
    uniform draws from the stream `task_rng(seed, i)`, drawn for every row
    at once by `draws`, and its last entry is the negation of their sum.
    """
    out = np.empty((hi - lo, n), dtype=np.int64)
    draws.fill(lo, out, n - 1)
    np.negative(out[:, :-1].sum(axis=1), out=out[:, -1])
    out[:, -1] %= draws.p
    return out


def _batch_maxima(rows: np.ndarray, p: int, ceiling: float) -> list[Optional[tuple[float, int]]]:
    """`_stack_maxima` for each row of a batch of drawn vectors, None for a
    zero row. Rows with equally many distinct residues k are swept together,
    in stacks of `_stack_size(k, p)`."""
    m, n = rows.shape
    ordered = np.sort(rows, axis=1)
    first = np.ones((m, n), dtype=bool)  # an entry differs from the one before it
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=first[:, 1:])
    ks = first.sum(axis=1)
    starts = np.flatnonzero(first)  # row by row, each row's distinct residues
    residues = ordered.ravel()[starts]
    counts = np.diff(starts, append=m * n)
    offsets = np.cumsum(ks) - ks
    out: list[Optional[tuple[float, int]]] = [None] * m
    nonzero = ordered[:, -1] != 0
    for k in sorted(set(ks[nonzero].tolist())):
        picked = np.flatnonzero((ks == k) & nonzero)
        size = _stack_size(k, p)
        for lo in range(0, picked.size, size):
            stack = picked[lo : lo + size]
            at = offsets[stack, None] + np.arange(k)
            found = _stack_maxima(residues[at], counts[at], n, p, ceiling)
            for i, res in zip(stack.tolist(), found):
                out[i] = res
    return out


def search_vector(
    n: int,
    p: int,
    threshold: float = 0.5,
    max_trials: int = 100,
    seed: int = 0,
) -> SearchResult:
    """Sample random sum-zero vectors until one certifies below `threshold`.

    The result is that of certifying the candidates one at a time: candidate
    i is drawn from the stream derived from (seed, i), a zero draw counts as
    a failed trial (its sweep maximum is 1), the first candidate with the
    smallest sweep maximum is kept, and the search stops at the first one
    below the threshold.

    Candidates are drawn in batches of 1, 1, 2, 4, ... up to `_batch_size(n)`
    and swept in stacks (`_batch_maxima`). A candidate is dropped at the first
    block where some |lam_v(u)| reaches `best`, the smallest maximum
    certified before its batch. That is exact: its own maximum is then at
    least `best`, so it can neither replace the kept certificate (that needs
    a strictly smaller maximum) nor pass the threshold (which `best` already
    failed). Raises MemoryError up front when the estimated memory
    (`_search_bytes`) is past `modp.MEMORY_BUDGET`, and then ValueError past
    `SEARCH_MAX_WORK`, a bound on the work of max_trials full sweeps.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if max_trials < 1:
        raise ValueError(f"need max_trials >= 1, got {max_trials}")
    check_prime(p)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    refuse_past_budget(_search_bytes(n, p), "the support-one sweep")
    if max_trials * ((min(n, p) + 32) * (p // 2 + 1) + 300 * n + 2 * 10**6) > SEARCH_MAX_WORK:
        raise ValueError("search guarded at max_trials * ((min(n, p) + 32) * (p // 2 + 1) "
                         f"+ 300 * n + 2 * 10^6) <= {SEARCH_MAX_WORK}")

    # the draws' module loads only where vectors are drawn: `verify` imports
    # this module for the switching audit and never draws
    from .philox import TaskIntegers

    best: Optional[SwitchCertificate] = None
    draws = TaskIntegers(seed, p)
    lo = 0
    while lo < max_trials:
        hi = min(max_trials, lo + max(1, min(lo, _batch_size(n))))
        rows = _draw_v0(draws, n, lo, hi)
        ceiling = math.inf if best is None else best.max_support_one
        for i, row, found in zip(range(lo, hi), rows, _batch_maxima(rows, p, ceiling)):
            if found is None:
                continue
            m = min(found[0], 1.0)
            cert = SwitchCertificate(v=FpVector(row, p), max_support_one=m,
                                     spectral_bound=math.sqrt(0.5 + 0.5 * m * m), u_argmax=found[1])
            if best is None or cert.max_support_one < best.max_support_one:
                best = cert
            if cert.max_support_one < threshold:
                return SearchResult(found=True, certificate=cert, trials=i + 1)
        lo = hi
    return SearchResult(found=False, certificate=best, trials=max_trials)


def tail_bound(n: int, eps: float) -> float:
    """The proven tail bound 4 * exp(-eps^2 * n / 8); 0.0 from |eps| = 1e100
    on, where it has underflowed to 0.0 and eps**2 soon overflows a float."""
    return 4.0 * math.exp(-(eps**2) * n / 8.0) if abs(eps) < 1e100 else 0.0


def _tail_bytes(n: int, p: int, trials: int) -> int:
    """Estimated peak memory of `tail_experiment`: per entry of a block of
    min(trials, `_batch_size(n, _TAIL_CHUNK)`) vectors its int64 residues and
    complex characters (24 bytes), the draws' kept buffers and pass
    temporaries (`philox.fill_bytes`), the character table `ep` gathers from at
    small p, and a flat 1 MiB for numpy's casting buffer, the block's row
    means and Python objects."""
    from .philox import fill_bytes

    rows = min(trials, _batch_size(n, _TAIL_CHUNK))
    return 24 * rows * n + fill_bytes(rows, n - 1, p) + ep_bytes(p) + (1 << 20)


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
    before sampling when the estimated memory (`_tail_bytes`) is past
    `modp.MEMORY_BUDGET`, and then ValueError past `TAIL_MAX_WORK`.
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
    refuse_past_budget(_tail_bytes(n, p, trials), "the tail experiment")
    if trials * (n + 128) > TAIL_MAX_WORK:
        raise ValueError(f"tail experiment guarded at trials * (n + 128) <= {TAIL_MAX_WORK}")
    u = int(u) % p
    exceed = 0
    from .philox import TaskIntegers

    chunk = _batch_size(n, _TAIL_CHUNK)
    draws = TaskIntegers(seed, p)
    for start in range(0, trials, chunk):
        vmat = _draw_v0(draws, n, start, min(start + chunk, trials))
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
        return sum(not margin_holds(m) for m in (self.min_margin_plain, self.min_margin_sharp))


def margin_holds(margin: float) -> bool:
    """The pass rule of a switching-sweep margin: at least -SWEEP_SLACK."""
    return margin >= -SWEEP_SLACK


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
