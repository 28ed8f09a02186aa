"""Second methods for the quantities the package computes one way, kept here
as oracles: cyclic Jacobi rotations for the dense spectrum (LAPACK on the
product path; checked in test_backend.py and test_spectral.py), the direct
character sum for `modp.char_means` (an inverse DFT on the product path),
for `expsum.support_one_sweep` (a baby-step/giant-step matrix product), and
for the permutation averages lam(v, w) (exactly, in closed form at support
one, and by Monte Carlo; checked in test_expsum.py), dynamic programming for
`semidirect.max_centered_l1` (a closed form), and products of explicit
(vector, permutation) rows for the BFS key tables (checked in
test_semidirect.py)."""

import math
from dataclasses import dataclass
from itertools import islice, product

import numpy as np
import pytest

from expander_forge import expsum
from expander_forge.expsum import EXACT_MAX_N, certify, enumerate_v0, support_one_sweep
from expander_forge.modp import FpVector, centered_rep, char_means, ep_table, sample_v0
from expander_forge.perm import inverse, multiset_permutations, orbit_matrix, orbit_size, random_perm
from expander_forge.rng import master_rng
from expander_forge.semidirect import _lehmer_ranks, max_centered_l1

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


@pytest.mark.parametrize("p,d", [(61, 3), (61, 4), (61, 5), (1009, 7), (1009, 9), (1009, 16)])
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


def _pack_keys(vec, perms, p):
    """Key = (vector packed base p over its first n-1 coordinates) * n! +
    Lehmer rank. Bijective onto [0, p^(n-1) * n!) for sum-zero vectors."""
    n = vec.shape[1]
    weights = p ** np.arange(n - 1, dtype=np.int64)
    vec_index = vec[:, : n - 1] @ weights
    return vec_index * math.factorial(n) + _lehmer_ranks(perms)
