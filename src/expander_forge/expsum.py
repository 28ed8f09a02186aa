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
from typing import Iterator, Optional

import numpy as np

from .modp import FpVector, char_means, check_prime, ep_table, ep_values, first_near_max, sample_v0
from .perm import multiset_permutations
from .rng import task_rng

EXACT_MAX_N = 10

# outputs per row block of the support-one sweep
_BLOCK = 1 << 20


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


def support_one_sweep(v: FpVector) -> np.ndarray:
    """|lam_v(u)| for every u in 0..p//2 (entry 0 is always 1). The rest of
    the range mirrors it, since |lam_v(u)| = |lam_v(p - u)|.

    With distinct residues a, counts c_a and u = i*b + j (b = isqrt(p//2)
    + 1), lam_v(u) = (1/n) * sum_a c_a e_p(i*b*a) e_p(j*a): one product of
    a giant-step block (c_a e_p(i*b*a)) by a baby-step block (e_p(j*a)),
    taken in row blocks of about _BLOCK outputs. Only about 2*sqrt(p/2)
    character values per distinct residue are computed.
    """
    p = v.p
    m = p // 2 + 1
    residues, counts = np.unique(v.entries, return_counts=True)
    b = math.isqrt(p // 2) + 1
    baby = ep_values(np.arange(b, dtype=np.int64)[:, None] * residues % p, p).T
    out = np.empty(m)
    q = -(-m // b)
    rows = max(1, _BLOCK // b)
    for start in range(0, q, rows):
        giant_steps = np.arange(start, min(start + rows, q), dtype=np.int64) * b % p
        giant = counts * ep_values(giant_steps[:, None] * residues % p, p)
        lo = start * b
        hi = min(lo + giant_steps.size * b, m)
        np.abs((giant @ baby).ravel()[: hi - lo], out=out[lo:hi])
    out /= v.n
    return out


def max_support_one(v: FpVector) -> tuple[float, int]:
    """Maximum of |lam_v(u)| over u != 0, and the smallest u within 1e-12 of
    it. Both are read from u in 1..p//2, which covers every value since
    |lam_v(u)| = |lam_v(p - u)|."""
    moduli = support_one_sweep(v)[1:]
    return float(moduli.max()), first_near_max(moduli) + 1


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
    zero draw counts as a failed trial (its sweep maximum is 1).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    if max_trials < 1:
        raise ValueError(f"need max_trials >= 1, got {max_trials}")
    check_prime(p)

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


def tail_experiment(
    n: int,
    p: int,
    eps: float,
    trials: int,
    u: int,
    seed: int = 0,
    chunk: int = 1024,
) -> TailResult:
    """Frequency of |lam_v(u)| >= eps over random sum-zero v, with the bound.

    Requires eps >= 2/n (the regime where the bound is proven) and u != 0.
    Trial i draws its vector from the (seed, i) stream.
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
    u = int(u) % p
    ep = np.asarray(ep_table(p))
    exceed = 0
    for start in range(0, trials, chunk):
        block = [
            sample_v0(n, p, task_rng(seed, i)).entries
            for i in range(start, min(start + chunk, trials))
        ]
        vmat = np.array(block, dtype=np.int64)
        vals = ep[(u * vmat) % p].mean(axis=1)
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
    sorted w. Nonnegative margins (up to float slack) mean no violation.
    """

    n: int
    p: int
    vector_count: int
    class_count: int
    pair_count: int
    min_margin_plain: float
    min_margin_sharp: float

    def violations(self, slack: float = 1e-9) -> int:
        return int(self.min_margin_plain < -slack) + int(self.min_margin_sharp < -slack)


def enumerate_v0(n: int, p: int) -> np.ndarray:
    """All p^(n-1) sum-zero vectors, one per row."""
    count = p ** (n - 1)
    idx = np.arange(count, dtype=np.int64)
    digits = (idx[:, None] // p ** np.arange(n - 1, dtype=np.int64)[None, :]) % p
    last = (-digits.sum(axis=1)) % p
    return np.concatenate([digits, last[:, None]], axis=1)


def _sorted_classes(n: int, p: int) -> Iterator[np.ndarray]:
    from itertools import combinations_with_replacement

    for combo in combinations_with_replacement(range(p), n):
        yield np.array(combo, dtype=np.int64)


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
    pairs = 0
    for sorted_w in _sorted_classes(n, p):
        if sorted_w[0] == sorted_w[-1]:
            continue
        classes += 1
        rows = np.array(list(multiset_permutations(sorted_w)), dtype=np.int64)
        lam = char_means((rows[:, : n - 1] - rows[:, n - 1 :]) % p, p)
        lhs = np.abs(lam) ** 2
        pairs += nv
        min_plain = min(min_plain, float((0.5 + 0.5 * sup_sq - lhs).min()))
        step = int(np.nonzero(np.diff(sorted_w))[0][0])
        u_w = int((sorted_w[step] - sorted_w[step + 1]) % p)
        sharp_rhs = 0.5 + 0.5 * (n * lam_u[:, u_w] ** 2 - 1.0) / (n - 1.0)
        min_sharp = min(min_sharp, float((sharp_rhs - lhs).min()))
    return SwitchingSweep(
        n=n,
        p=p,
        vector_count=nv,
        class_count=classes,
        pair_count=pairs,
        min_margin_plain=min_plain,
        min_margin_sharp=min_sharp,
    )
