"""Second methods for the quantities the package computes one way, kept here
as oracles: cyclic Jacobi rotations for the dense spectrum (LAPACK on the
product path; checked in test_spectral.py), the direct
character sum for `modp.char_means` (an inverse DFT on the product path),
for the support-one sweep (a baby-step/giant-step matrix product), and
for the permutation averages lam(v, w) (exactly, in closed form at support
one, and by Monte Carlo; checked in test_expsum.py), dynamic programming for
`semidirect.max_centered_l1` (a closed form), products of explicit
(vector, permutation) rows for the BFS key tables (checked in
test_semidirect.py), the Kazhdan optimizer one start at a time (the
product path descends from all starts in lockstep; checked in
test_kazhdan.py), and group tables by one multiplication per pair (the
product path fills them from right multiplication by the generators; checked
in test_groups.py and test_spectral.py), next-permutation stepping for
`perm.arrangements` (built level by level on the product path; checked in
test_perm.py), and Lehmer digits for the lexicographic rank (a binary
search of base-n codes on the product path; checked in test_semidirect.py).

It also holds the helpers that only tests use, none of which the package
needs: `support_one_sweep` (the streamed sweep's blocks concatenated),
`sample_v0` (one sum-zero vector from a given stream: the draw that
`expsum._draw_v0` makes for many trials from one Philox, and test data),
`max_support_one` and `certify` (one vector's sweep maximum and switching
certificate), `search_vector_loop` (the certificate search one candidate at
a time, the oracle of the pruned, stacked search), the
element-wise group law `identity` and `mul` with `compose` (the dict BFS
oracle in test_semidirect.py and the pair-loop tables in test_groups.py),
`random_perm`, `orbit`, `dot` and `centered_rep` (test data and the
`max_centered_l1` oracle), `disjoint_union_check` (the full-space spectrum
as p copies of the hyperplane spectrum), and `displacement`, the definition
that the optimizer's witnesses are checked against."""

import math
import os
import subprocess
import sys
import tracemalloc
from collections import deque
from dataclasses import dataclass
from itertools import islice, product
from pathlib import Path
from typing import Callable, Iterator, List, Sequence

import numpy as np
import pytest

from expander_forge import expsum
from expander_forge.expsum import EXACT_MAX_N, SearchResult, SwitchCertificate
from expander_forge.groups import GROUP_ORDER_CAP, FiniteGroup
from expander_forge.kazhdan import RepVector, _regular_action
from expander_forge.modp import (PRIME_CAP, FpVector, char_means, check_prime, enumerate_v0,
                                 ep_table, ep_values, first_near_max)
from expander_forge.perm import Permutation, act, inverse, orbit_matrix, orbit_size
from expander_forge.rng import master_rng, task_rng
from expander_forge.semidirect import GroupElement, max_centered_l1
from expander_forge.spectral import abelian_spectrum, cayley_adjacency

_JACOBI_TOL = 1e-10
_MAX_SWEEPS = 60


def _off_norm(a):
    """Frobenius norm of the off-diagonal part, summed directly (subtracting
    the diagonal mass from the total cancels catastrophically)."""
    masked = a.copy()
    np.fill_diagonal(masked, 0.0)
    return float(np.sqrt(np.sum(masked * masked)))


def jacobi_eigh(a):
    """Eigenvalues (unsorted) and orthonormal eigenvector columns of a
    symmetric matrix, by cyclic Jacobi sweeps until the off-diagonal
    Frobenius norm drops below 1e-10."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    if n < 2:
        return np.diag(a).copy(), v
    for _ in range(_MAX_SWEEPS):
        if _off_norm(a) <= _JACOBI_TOL:
            break
        for q in range(1, n):
            for p in range(q):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = 1.0 / (tau - np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        off = _off_norm(a)
        if off > _JACOBI_TOL:
            raise ArithmeticError(f"Jacobi sweeps did not converge, off-norm {off:.3e}")
    return np.diag(a).copy(), v


def direct_char_means(points, wmat, p):
    """Mean of e_p(<x, w>) over the rows x of points, for each row w of wmat,
    by summing the characters one by one."""
    ep = np.asarray(ep_table(p))
    return ep[(points @ wmat.T) % p].mean(axis=0)


def all_vectors(d, p):
    """All of F_p^d, first coordinate fastest."""
    return np.array([w[::-1] for w in product(range(p), repeat=d)], dtype=np.int64)


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (4, 3), (3, 5), (2, 7)])
def test_char_means_matches_direct_sum(n, p):
    """The three point layouts the package uses, each against the direct sum
    over the full rows it stands for, and an arbitrary point set."""
    rng = master_rng(73)
    for _ in range(4):
        # an arbitrary point set, which (unlike an orbit) pins the coordinate order
        points = rng.integers(0, p, (7, n))
        got = char_means(points, p)
        assert np.max(np.abs(got - direct_char_means(points, all_vectors(n, p), p))) <= 1e-12
        v = sample_v0(n, p, rng)
        if v.is_zero:
            continue
        rows = orbit_matrix(v)
        # hyperplane representatives (w', 0): only the first n-1 coordinates
        reps = np.concatenate([all_vectors(n - 1, p), np.zeros((p ** (n - 1), 1), np.int64)], axis=1)
        got = char_means(rows[:, : n - 1], p)
        assert np.max(np.abs(got - direct_char_means(rows, reps, p))) <= 1e-12
        # every sum-zero vector, through the differences x_i - x_n
        got = char_means((rows[:, : n - 1] - rows[:, n - 1 :]) % p, p)
        assert np.max(np.abs(got - direct_char_means(rows, enumerate_v0(n, p), p))) <= 1e-12
        # all of F_p^n
        got = char_means(rows, p)
        assert np.max(np.abs(got - direct_char_means(rows, all_vectors(n, p), p))) <= 1e-12


def direct_support_one(v, us):
    """|lam_v(u)| = |(1/n) sum_i e_p(u v_i)| for each u in us, summed
    directly over the character table."""
    ep = np.asarray(ep_table(v.p))
    us = np.asarray(us, dtype=np.int64)
    return np.abs(ep[np.outer(us, v.entries) % v.p].mean(axis=1))


def sample_v0(n: int, p: int, rng: np.random.Generator) -> FpVector:
    """Uniformly random sum-zero vector: n-1 i.i.d. uniform entries, last
    entry the negation of their sum."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    check_prime(p)
    head = rng.integers(0, p, size=n - 1, dtype=np.int64)
    last = (-int(head.sum())) % p
    return FpVector(np.concatenate([head, [last]]), p)


def _stack_of_one(v: FpVector):
    """`_sweep_blocks`' arguments for v alone."""
    residues, counts = np.unique(v.entries, return_counts=True)
    return residues[None], counts[None], v.n, v.p


def max_support_one(v: FpVector) -> tuple:
    """Maximum of |lam_v(u)| over u != 0, and the smallest u within 1e-12 of
    it: the search's sweep on a stack of one, whose blocks are one vector's."""
    return expsum._stack_maxima(*_stack_of_one(v), math.inf)[0]


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


def search_vector_loop(n, p, threshold=0.5, max_trials=100, seed=0) -> SearchResult:
    """`expsum.search_vector` one candidate at a time: certify each draw in
    full, keep the first with the smallest sweep maximum, stop at the first
    below the threshold."""
    best = None
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


def support_one_sweep(v: FpVector) -> np.ndarray:
    """|lam_v(u)| for every u in 0..p//2 (entry 0 is always 1). The rest of
    the range mirrors it, since |lam_v(u)| = |lam_v(p - u)|. The blocks that
    `max_support_one` streams, concatenated: O(p) memory, for tests and
    small p."""
    return np.concatenate([block[0] for block in expsum._sweep_blocks(*_stack_of_one(v))])


def _sweep_cases(p, rng):
    yield FpVector.zero(4, p)
    yield FpVector([p - 1] * 5, p)  # one repeated residue
    yield FpVector(rng.integers(0, min(p, 3), 9), p)  # few residues, repeated
    yield FpVector(rng.integers(0, p, 12), p)
    yield sample_v0(40, p, rng)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 61, 1009, 100003])
def test_support_one_sweep_matches_direct_sum(p, monkeypatch):
    """Every entry u = 0..p//2 against the direct sum, in one row block and,
    with the block budget patched small, in many. At p = 100003 an index left
    unreduced mod p already costs more than 1e-12 in the character values."""
    rng = master_rng(p)
    for v in _sweep_cases(p, rng):
        want = direct_support_one(v, range(p // 2 + 1))
        for block in (1 << 20, 1, 7):
            monkeypatch.setattr(expsum, "_BLOCK", block)
            got = support_one_sweep(v)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12, (v, block)


def _unit_of_order(d, p):
    """An element of order exactly d in F_p^*, for d dividing p - 1."""
    for g in range(2, p):
        c = pow(g, (p - 1) // d, p)
        if all(pow(c, d // r, p) != 1 for r in range(2, d + 1) if d % r == 0):
            return c
    raise AssertionError(f"no unit of order {d} mod {p}")


TIE_CASES = [(61, 3), (61, 4), (61, 5), (1009, 7), (1009, 9), (1009, 16)]


@pytest.mark.parametrize("p,d", TIE_CASES)
def test_u_argmax_is_smallest_tie(p, d):
    """v lists the subgroup generated by a unit c of order d, so
    |lam_v(u)| = |lam_v(c u)| and the maximum is attained on whole cosets;
    the reported witness is the smallest tied u over all of 1..p-1."""
    c = _unit_of_order(d, p)
    v = FpVector([pow(c, e, p) for e in range(d)], p)
    cert = certify(v)  # a subgroup of order d > 1 sums to zero
    moduli = direct_support_one(v, range(1, p))
    top = moduli.max()
    tied = {u for u, m in enumerate(moduli, start=1) if m >= top - 1e-12}
    assert all(u * c % p in tied for u in tied) and len(tied) >= d
    assert cert.u_argmax == min(tied)
    assert cert.max_support_one == pytest.approx(top, abs=1e-12)


def _coset_tie_vector(p, d):
    """The subgroup generated by a unit of order d, as a vector."""
    c = _unit_of_order(d, p)
    return FpVector([pow(c, e, p) for e in range(d)], p)


@pytest.mark.parametrize("p", [2, 3, 61, 1009, 100003])
def test_streamed_max_matches_the_whole_sweep(p, monkeypatch):
    """One pass over the row blocks gives the maximum of the concatenated
    sweep over u = 1..p//2 and its smallest 1e-12 tie, for one block and,
    with the block budget patched small, for many (the ties of a coset
    vector then fall in several blocks)."""
    cases = list(_sweep_cases(p, master_rng(p)))
    cases += [_coset_tie_vector(q, d) for q, d in TIE_CASES if q == p]
    for block in (expsum._BLOCK, 1, 7):
        monkeypatch.setattr(expsum, "_BLOCK", block)
        for v in cases:
            moduli = support_one_sweep(v)[1:]
            want = (moduli.max(), first_near_max(moduli) + 1)
            assert max_support_one(v) == want, (v, block)
        if p >= 61 and block < 8:
            # one repeated residue: one giant-step row per block
            assert len(list(expsum._sweep_blocks(*_stack_of_one(cases[1])))) > 1


def test_streamed_witness_across_blocks(monkeypatch):
    """Blocks whose maxima climb by less than 1e-12: the witness is still
    the smallest entry within 1e-12 of the final maximum, as over the
    concatenation."""
    rng = np.random.default_rng(8)
    for _ in range(300):
        size = int(rng.integers(2, 40))
        moduli = 0.5 + rng.integers(0, 6, size) * 3e-13  # ties and near ties
        count = int(rng.integers(0, size - 1))
        cuts = np.sort(rng.choice(np.arange(1, size), count, replace=False))
        blocks = np.split(np.concatenate(([1.0], moduli)), cuts + 1)
        monkeypatch.setattr(expsum, "_sweep_blocks",
                            lambda *args: (block[None] for block in blocks))
        got = max_support_one(FpVector([1, 4], 5))
        assert got == (moduli.max(), first_near_max(moduli) + 1), (moduli, cuts)


@pytest.mark.parametrize("n,p,seed,lo,hi", [(2, 2, 0, 0, 9), (5, 3, 7, 3, 40), (16, 10007, 5, 0, 64),
                                         (64, 1000003, 2**64 - 1, 1000, 1003),
                                         (3, 2147483647, 11, 2**40, 2**40 + 2)])
def test_draws_are_the_task_streams(n, p, seed, lo, hi):
    """Each row of the search's draw from one Philox is the vector that
    `sample_v0` draws from a fresh `task_rng(seed, i)`."""
    rows = expsum._draw_v0(n, p, seed, lo, hi)
    assert rows.shape == (hi - lo, n) and rows.dtype == np.int64
    for row, i in zip(rows, range(lo, hi)):
        assert np.array_equal(row, sample_v0(n, p, task_rng(seed, i)).entries), i


@pytest.mark.parametrize("p", [5, 61, 1009, 10007, 100003])
def test_stacked_blocks_are_those_of_one_vector(p):
    """A stack's sweep, concatenated, equals each vector's own sweep bit for
    bit, k = 1..33 distinct residues. At p = 1009 and 10007 that includes
    every k whose min(k, 32) rows would leave a one-row last block (22 and
    71 giant-step rows), which a stack must not compute by gemv."""
    rng = np.random.default_rng(p)
    for k in range(1, min(p, 34)):
        residues = np.sort(np.stack([rng.choice(p, k, replace=False) for _ in range(4)]))
        counts = rng.integers(1, 4, (4, k))
        n = int(counts.sum(axis=1).max())
        stacked = np.concatenate(list(expsum._sweep_blocks(residues, counts, n, p)), axis=1)
        for row, r, c in zip(stacked, residues, counts):
            alone = np.concatenate(list(expsum._sweep_blocks(r[None], c[None], n, p)), axis=1)
            assert np.array_equal(row, alone[0]), (p, k)


def _record_thresholds(n, p, trials, seed):
    """A threshold under which the search stops at each trial whose sweep
    maximum is a new record low (one between that maximum and the previous
    record), and one under which it never stops."""
    best, out = 1.0 + 1e-9, []
    for i in range(trials):
        v = sample_v0(n, p, task_rng(seed, i))
        m = 1.0 if v.is_zero else certify(v).max_support_one
        if m < best:
            out.append((m + best) / 2)
            best = m
    return [t for t in out if 0.0 < t < 1.0] + [best / 2]


@pytest.mark.parametrize("p", [2, 3, 5, 61, 10007, 100003, 1000003])
def test_search_matches_the_trial_by_trial_loop(p):
    """The pruned, stacked search returns what certifying one candidate at a
    time returns, bit for bit: for each n, seed and threshold that stops the
    loop at each of its record lows (at trial 1, at trials inside a batch of
    1, 1, 2, 4, ...) or never. Small p draws zero vectors and repeated
    residues."""
    trials = {1000003: 5, 100003: 24, 10007: 60}.get(p, 100)
    stopped = set()
    for n in (2, 5, 16, 64):
        for seed in (0, 1, 19):
            for threshold in _record_thresholds(n, p, trials, seed):
                want = search_vector_loop(n, p, threshold, trials, seed)
                assert expsum.search_vector(n, p, threshold, trials, seed) == want, (n, seed)
                stopped.add(want.trials if want.found else 0)
    # batches start at trials 0, 1, 2, 4, 8, ...: a stop at any other trial is inside one
    inside = {i + 1 for i in range(3, trials) if i & (i - 1)}
    assert 1 in stopped and 0 in stopped and stopped & inside, stopped


def test_search_drops_most_candidates_early(monkeypatch):
    """At (16, 10007) the search sweeps its candidates in stacks of more than
    one, and fewer than 10 % of 1000 candidates finish a full sweep."""
    calls = []
    stack_maxima = expsum._stack_maxima

    def spy(residues, counts, n, p, ceiling):
        out = stack_maxima(residues, counts, n, p, ceiling)
        calls.append((len(out), sum(res is not None for res in out)))
        return out

    monkeypatch.setattr(expsum, "_stack_maxima", spy)
    result = expsum.search_vector(16, 10007, 0.2, 1000, seed=5)
    assert not result.found and result.trials == 1000
    assert sum(size for size, _ in calls) == 1000 and max(size for size, _ in calls) > 1
    assert sum(full for _, full in calls) < 100, calls


def test_streamed_max_memory_is_sublinear():
    """One max_support_one at p = 10000019 holds no p/2-entry array: a
    float64 one alone would take 38 MiB."""
    v = sample_v0(64, 10000019, master_rng(17))
    tracemalloc.start()
    try:
        max_support_one(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("k,p,trials", [
    pytest.param(k, p, trials, id=f"{k}-{p}" + (f"-search{trials}" if trials else ""))
    for k, p, trials in [(64, 10000019, 0), (2000, 1000003, 0), (1, 10000019, 0), (64, 10007, 0),
                         (2000, 65537, 0), (1, 131071, 0), (16, 10007, 200),
                         (64, 1000003, 200)]])
def test_sweep_budget_covers_the_traced_peak(k, p, trials):
    """The up-front estimate is at least the traced peak of the sweep it
    admits: k distinct residues at p, the character table's build included
    at p <= EP_TABLE_CAP. With `trials`, the same for a search over vectors
    of length k that runs all its trials, in stacks at p = 10007, against
    the estimate the search refuses on; and every stack size the search may
    take at p for up to k residues is estimated below one vector's sweep."""
    v = FpVector(np.arange(1, k + 1) * 7919, p)
    need = expsum._sweep_bytes(k, p)
    ep_table.cache_clear()
    peak = _traced_peak(max_support_one, v)
    assert peak <= need, (peak, need)
    if trials:
        stacks = [expsum._stack_size(j, p) for j in range(1, k + 1)]
        assert all(expsum._sweep_bytes(j, p, s) <= need for j, s in enumerate(stacks, 1))
        assert (max(stacks) > 1) == (p == 10007), stacks
        need = expsum._search_bytes(k, p)
        ep_table.cache_clear()
        peak = _traced_peak(expsum.search_vector, k, p, 0.01, trials, 5)
        assert peak <= need, (peak, need)


@pytest.mark.parametrize("n,p,trials", [(2000, 101, 1024), (2000, 10007, 1024),
                                        (2000, 1000003, 1024), (10, 131071, 200),
                                        (400000, 1000003, 1)])
def test_tail_budget_covers_the_traced_peak(n, p, trials):
    """The up-front estimate is at least the traced peak of the tail
    experiment it admits, the character table's build included at
    p <= EP_TABLE_CAP (the whole peak at n = 10) and one vector's draw
    beside a one-row block (the whole peak at trials = 1). A warm-up call
    first, so one-time set-up is not counted."""
    expsum.tail_experiment(10, 101, 1.0, 1, 1)
    need = expsum._tail_bytes(n, p, trials)
    ep_table.cache_clear()
    tracemalloc.start()
    try:
        expsum.tail_experiment(n, p, 0.25, trials, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need, (peak, need)


# Runs certify at n = 10 and then at the given n in one process, the
# refusals replaced by recorders of their estimates, and prints the largest
# estimate and the growth of the peak RSS over the n = 10 run. The peak is
# VmHWM: a child's ru_maxrss starts from its parent's RSS at the fork.
_CERTIFY_PEAK = """
import re, sys
from expander_forge import cli, expsum
def peak():
    with open("/proc/self/status") as status:
        return 1024 * int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
needs = []
cli.refuse_past_budget = expsum.refuse_past_budget = lambda need, what: needs.append(need)
n, argv = sys.argv[1], sys.argv[2:]
assert cli.main(["certify", "--n", "10"] + argv) == 0
base = peak()
needs.clear()
assert cli.main(["certify", "--n", n] + argv) == 0
assert len(needs) == 2, needs
print(max(needs), peak() - base)
"""


@pytest.mark.parametrize("p,fmt", [(5, "json"), (1009, "csv")])
def test_certify_budget_covers_the_measured_peak(tmp_path, p, fmt):
    """The larger of certify's two up-front estimates (one trial's draw and
    sweep, and v's rendering in the manifest) is at least the growth of the
    peak RSS of a `certify --n 1000000` run, the manifest write included.
    In a child process, so no earlier test's peak hides it; tracemalloc
    took 24-36 s a case here."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _CERTIFY_PEAK, "1000000", "--p", str(p), "--max-trials", "1",
         "--format", fmt, "--results-dir", str(tmp_path)],
        capture_output=True, text=True, env=env, check=True)
    need, grown = map(int, out.stdout.split()[-2:])
    assert 64 * 2**20 <= grown <= need, (grown, need)


def test_sweep_at_the_largest_prime_is_exact_in_int64():
    """At p = 2^31 - 1, the largest prime under PRIME_CAP, the last
    giant-step rows (u up to p//2, where i*b*a mod p is formed from the
    largest products) match the direct character sum. The whole stream is
    drained, as max_support_one drains it (about 7 s on a 2-core Xeon), and
    only its last block is kept."""
    p = PRIME_CAP - 1
    v = FpVector([p - 1, p - 2, 1, 2, 123456789, p - 123456789, 2**30, p - 2**30], p)
    b, q, rows = expsum._sweep_shape(v.n, p)
    first = (q - 1) // rows * rows
    got = deque(expsum._sweep_blocks(*_stack_of_one(v)), maxlen=1)[0][0]
    us = np.arange(first * b, p // 2 + 1, dtype=np.int64)
    want = np.abs(ep_values(np.outer(us, v.entries) % p, p).mean(axis=1))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12


def max_centered_l1_dp(n, p):
    """Maximum centered-l1 norm over the sum-zero hyperplane, by dynamic
    programming over (coordinates placed, running sum mod p)."""
    weight = np.array([abs(centered_rep(x, p)) for x in range(p)], dtype=np.int64)
    dp = np.full(p, np.iinfo(np.int64).min, dtype=np.int64)
    dp[0] = 0
    for _ in range(n):
        ndp = np.full(p, np.iinfo(np.int64).min, dtype=np.int64)
        for x in range(p):
            ndp = np.maximum(ndp, np.roll(dp, x) + weight[x])
        dp = ndp
    return int(dp[0])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 101])
def test_max_centered_l1_closed_form_matches_dp(p):
    for n in range(2, 9):
        assert max_centered_l1(n, p) == max_centered_l1_dp(n, p), (n, p)


# ----------------------------------------------------------------------
# Permutation averages lam(v, w) = (1/n!) sum_s e_p(<v, w^s>), three ways.
# ----------------------------------------------------------------------

_MODE_EXACT = "exact"
_MODE_CLOSED = "closed-form"
_MODE_MC = "monte-carlo"


@dataclass(frozen=True)
class ExpSumValue:
    """A character average: complex value plus how it was computed."""

    real: float
    imag: float
    mode: str
    sample_count: int = 0

    def __post_init__(self) -> None:
        if self.modulus > 1.0 + 1e-9:
            raise ArithmeticError(
                f"average of unit complex numbers has modulus {self.modulus}"
            )

    @property
    def value(self) -> complex:
        return complex(self.real, self.imag)

    @property
    def modulus(self) -> float:
        return math.hypot(self.real, self.imag)


def _check_pair(v: FpVector, w: FpVector) -> None:
    if v.p != w.p:
        raise ValueError(f"modulus mismatch: {v.p} != {w.p}")
    if v.n != w.n:
        raise ValueError(f"dimension mismatch: {v.n} != {w.n}")


def multiset_permutations(entries: Sequence[int]) -> Iterator[np.ndarray]:
    """Distinct rearrangements of `entries` in lexicographic order.

    Standard next-permutation stepping; duplicates in the input never produce
    a repeated output, so orbits of low-support vectors stay polynomially
    small instead of costing n!.
    """
    a = np.sort(np.asarray(entries, dtype=np.int64))
    n = a.size
    while True:
        yield a.copy()
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[i + 1 :][::-1]


def _mean_over_rearrangements(moving: FpVector, fixed: FpVector) -> complex:
    """Mean of e_p(<x, fixed>) over the distinct rearrangements x of `moving`,
    streamed in batches of 4096 rows."""
    p = moving.p
    ep = np.asarray(ep_table(p))
    total = 0.0 + 0.0j
    count = 0
    rearrangements = multiset_permutations(moving.entries)
    while batch := list(islice(rearrangements, 4096)):
        rows = np.array(batch, dtype=np.int64)
        total += ep[(rows @ fixed.entries) % p].sum()
        count += len(batch)
    return total / count


def exp_sum_exact(v: FpVector, w: FpVector) -> ExpSumValue:
    """Exact average of e_p(<v, w^s>) over all of S_n.

    Iterates distinct rearrangements rather than all n! permutations; since
    the average is symmetric in v and w, the cheaper orbit of the two is the
    one enumerated.
    """
    _check_pair(v, w)
    if v.n > EXACT_MAX_N:
        raise ValueError(f"exact evaluation guarded at n <= {EXACT_MAX_N}, got {v.n}")
    moving, fixed = (v, w) if orbit_size(v) <= orbit_size(w) else (w, v)
    val = _mean_over_rearrangements(moving, fixed)
    return ExpSumValue(float(val.real), float(val.imag), _MODE_EXACT)


def exp_sum_support_one(v: FpVector, u: int) -> ExpSumValue:
    """lam_v(u) = (1/n) * sum_i e_p(u * v_i), the w = (u, 0, ..., 0) case."""
    p = v.p
    ep = np.asarray(ep_table(p))
    idx = (int(u) % p) * v.entries % p
    val = ep[idx].mean()
    return ExpSumValue(float(val.real), float(val.imag), _MODE_CLOSED)


def exp_sum_monte_carlo(
    v: FpVector, w: FpVector, samples: int, rng: np.random.Generator
) -> ExpSumValue:
    """Unbiased estimate of exp_sum_exact from i.i.d. uniform permutations."""
    _check_pair(v, w)
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    p = v.p
    ep = np.asarray(ep_table(p))
    total = 0.0 + 0.0j
    for _ in range(samples):
        s = random_perm(v.n, rng)
        d = int((v.entries * w.entries[s.images] % p).sum() % p)
        total += ep[d]
    val = total / samples
    return ExpSumValue(float(val.real), float(val.imag), _MODE_MC, samples)


# ----------------------------------------------------------------------
# Products of explicit (vector, permutation) rows, and their keys.
# ----------------------------------------------------------------------

def _state_arrays(elements):
    """Vector rows, permutation rows and inverse permutation rows."""
    vec = np.array([e.vec.entries for e in elements], dtype=np.int64)
    perm = np.array([e.perm.images for e in elements], dtype=np.int64)
    inv = np.array([inverse(e.perm).images for e in elements], dtype=np.int64)
    return vec, perm, inv


def expand_products(fvec, fperm, finv, gvec, gperm, ginv, p):
    """All products f g of rows f = (vec, perm) with generators g, row-major
    in (f, g), under (u, s)(w, t) = (u + w^{s^{-1}}, s t); inverse images are
    carried alongside, so nothing is inverted."""
    nf, n = fvec.shape
    size = nf * gvec.shape[0]
    nvec = (fvec[:, None, :] + gvec[:, finv].transpose(1, 0, 2)) % p
    nperm = fperm[:, gperm]
    ninv = ginv[:, finv].transpose(1, 0, 2)
    return nvec.reshape(size, n), nperm.reshape(size, n), ninv.reshape(size, n)


def _lehmer_ranks(perms: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each permutation row, vectorized."""
    k, n = perms.shape
    smaller_after = (perms[:, :, None] > perms[:, None, :]) & (
        np.arange(n)[None, :, None] < np.arange(n)[None, None, :]
    )
    digits = smaller_after.sum(axis=2)
    weights = np.array([math.factorial(n - 1 - i) for i in range(n)], dtype=np.int64)
    return digits @ weights


def _pack_keys(vec, perms, p):
    """Key = (vector packed base p over its first n-1 coordinates) * n! +
    Lehmer rank. Bijective onto [0, p^(n-1) * n!) for sum-zero vectors."""
    n = vec.shape[1]
    weights = p ** np.arange(n - 1, dtype=np.int64)
    vec_index = vec[:, : n - 1] @ weights
    return vec_index * math.factorial(n) + _lehmer_ranks(perms)


# ----------------------------------------------------------------------
# Group tables by one multiplication per pair.
# ----------------------------------------------------------------------

def from_elements(name: str, elements: Sequence, mul_fn: Callable) -> FiniteGroup:
    """Build the table for a complete element list and a multiplication rule."""
    if len(elements) > GROUP_ORDER_CAP:
        raise ValueError(f"group order {len(elements)} exceeds cap {GROUP_ORDER_CAP}")
    index = {el: i for i, el in enumerate(elements)}
    order = len(elements)
    table = np.empty((order, order), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            prod = mul_fn(a, b)
            if prod not in index:
                raise ValueError("element list is not closed under multiplication")
            table[i, j] = index[prod]
    return FiniteGroup(name, elements, table)


# ----------------------------------------------------------------------
# The Kazhdan optimizer, one start after another.
# ----------------------------------------------------------------------

def descend_one(x0, act, trans, iters):
    """Projected subgradient descent from one start: the best worst-generator
    displacement reached and the unit mean-zero vector reaching it. Stops
    once the displacement drops below 1e-15."""
    def project(x):
        x = x - x.mean()
        norm = np.linalg.norm(x)
        if norm < 1e-15:
            x = np.zeros(len(x))
            x[0] = 1.0
            x -= x.mean()
            norm = np.linalg.norm(x)
        return x / norm

    def value(x):
        diffs = x[act] - x[None, :]
        norms = np.sqrt((diffs**2).sum(axis=1))
        j = int(np.argmax(norms))
        return float(norms[j]), j

    x = project(x0)
    best_val, best_x = value(x)[0], x
    for it in range(iters):
        fx, j = value(x)
        if fx < best_val:
            best_val, best_x = fx, x
        if fx < 1e-15:
            break
        d = x[act[j]] - x
        grad = (d[trans[j]] - d) / fx
        x = project(x - (0.1 / math.sqrt(it + 1.0)) * grad)
    fx = value(x)[0]
    if fx < best_val:
        best_val, best_x = fx, x
    return best_val, best_x


def kazhdan_upper_opt_sequential(group: FiniteGroup, gens, restarts=20, iters=500, seed=0):
    """`kazhdan.kazhdan_upper_opt` with its starts run one by one: the
    `restarts` random starts from `task_rng(seed, r)`, then the second
    eigenvector of the normalized adjacency; the first strict minimum wins.
    Returns the value and the (unnormalized) winning vector."""
    gen_indices = group.resolve(list(gens))
    act = _regular_action(group, gen_indices)
    trans = group.table[np.asarray(gen_indices, dtype=np.int64), :]
    starts = [task_rng(seed, r).standard_normal(group.order) for r in range(restarts)]
    _, eigvecs = np.linalg.eigh(cayley_adjacency(group, gen_indices) / (2.0 * len(gen_indices)))
    if group.order >= 2:
        starts.append(eigvecs[:, -2])
    best_val, best_x = math.inf, None
    for x0 in starts:
        val, x = descend_one(x0, act, trans, iters)
        if val < best_val:
            best_val, best_x = val, x
    return best_val, best_x


# ----------------------------------------------------------------------
# Permutations, residues and the group law element by element.
# ----------------------------------------------------------------------

def compose(a: Permutation, b: Permutation) -> Permutation:
    """The permutation i -> a(b(i))."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} != {b.n}")
    return Permutation(a.images[b.images])


def random_perm(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform permutation via Fisher-Yates."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    imgs = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        imgs[i], imgs[j] = imgs[j], imgs[i]
    return Permutation(imgs)


def orbit(v: FpVector) -> List[FpVector]:
    """The set {v^s : s in S_n} as a list of distinct vectors."""
    return [FpVector(row, v.p) for row in orbit_matrix(v)]


def dot(v: FpVector, w: FpVector) -> int:
    """Inner product sum(v_i * w_i) mod p."""
    if v.p != w.p:
        raise ValueError(f"modulus mismatch: {v.p} != {w.p}")
    if v.n != w.n:
        raise ValueError(f"length mismatch: {v.n} != {w.n}")
    return int((v.entries * w.entries % v.p).sum() % v.p)


def centered_rep(x: int, p: int) -> int:
    """Representative of x mod p in the centered range (-p/2, p/2]."""
    x = int(x) % p
    return x - p if x > p // 2 else x


def identity(n: int, p: int) -> GroupElement:
    return GroupElement(FpVector.zero(n, p), Permutation.identity(n))


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """(u, s)(w, t) = (u + w^{s^{-1}}, s t)."""
    if a.n != b.n or a.p != b.p:
        raise ValueError("elements live in different groups")
    shifted = act(b.vec, inverse(a.perm))
    return GroupElement(
        FpVector((a.vec.entries + shifted.entries) % a.p, a.p),
        compose(a.perm, b.perm),
    )


# ----------------------------------------------------------------------
# The full-space spectrum as p copies of the hyperplane spectrum.
# ----------------------------------------------------------------------

UNION_MAX_POINTS = 10**5


def disjoint_union_check(v: FpVector) -> bool:
    """Whether the full-space eigenvalue multiset over all w in F_p^n equals
    p stacked copies of the hyperplane spectrum, eigenvalue by eigenvalue.

    Guarded to p not dividing n, where the all-ones line is a complement of
    the hyperplane and the p-fold component structure is the clean one.
    """
    n, p = v.n, v.p
    if p**n > UNION_MAX_POINTS:
        raise ValueError(f"full-space enumeration guarded at {UNION_MAX_POINTS} points")
    if n % p == 0:
        raise ValueError("guarded to p not dividing n")
    if not v.is_sum_zero or v.is_zero:
        raise ValueError("v must be a nonzero sum-zero vector")
    full = np.sort(char_means(orbit_matrix(v), p).real)
    copies = np.sort(np.tile(abelian_spectrum(v).eigenvalues, p))
    return bool(np.max(np.abs(full - copies)) <= 1e-9)


# ----------------------------------------------------------------------
# Displacement in the regular representation, by its definition.
# ----------------------------------------------------------------------

def displacement(group: FiniteGroup, gens: Sequence, xi) -> float:
    """max over s in gens of ||pi(s) xi - xi|| in the regular representation."""
    gen_indices = group.resolve(list(gens))
    if not gen_indices:
        raise ValueError("generator list is empty")
    coords = xi.coords if isinstance(xi, RepVector) else np.asarray(xi, dtype=np.float64)
    if np.linalg.norm(coords) < 1e-15:
        raise ValueError("displacement of the zero vector is undefined")
    rows = _regular_action(group, gen_indices)
    diffs = coords[rows] - coords[None, :]
    return float(np.sqrt((diffs**2).sum(axis=1)).max())
