"""Character spectra against the dense route, and the p-fold disjoint-union
identity."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from expander_forge.cli import DEFAULT_ORDER_CAP
from expander_forge.modp import FpVector, char_means, enumerate_v0
from expander_forge.perm import orbit_matrix, orbit_span_rank
from expander_forge.rng import master_rng
from expander_forge.semidirect import bfs_diameter, build_Y, group_order
from expander_forge.spectral import (
    abelian_spectrum,
    cayley_adjacency,
    cayley_spectrum,
    dense_spectrum,
    hyperplane_adjacency,
)
from test_oracles import _traced_peak, disjoint_union_check, from_elements, jacobi_eigh, orbit

AGREEMENT_CASES = [(2, 3), (2, 5), (3, 2), (3, 3)]


def hyperplane_group(n, p):
    return from_elements(
        f"V0_{n}_{p}",
        [FpVector(row, p) for row in enumerate_v0(n, p)],
        lambda a, b: FpVector((a.entries + b.entries) % p, p),
    )


def spanning_vectors(n, p):
    out = []
    for row in enumerate_v0(n, p):
        v = FpVector(row, p)
        if not v.is_zero and orbit_span_rank(v) == n - 1:
            out.append(v)
    return out


def test_abelian_spectrum_hand_case():
    r = abelian_spectrum(FpVector([1, 4], 5))
    want = sorted(
        [1.0, math.cos(2 * math.pi / 5), math.cos(2 * math.pi / 5),
         math.cos(4 * math.pi / 5), math.cos(4 * math.pi / 5)]
    )
    assert np.allclose(r.eigenvalues, want, atol=1e-12)
    assert r.gap == pytest.approx(1 - math.cos(2 * math.pi / 5), abs=1e-12)
    assert r.graph_order == 5
    # w = 1 and w = 4 tie at cos(2 pi / 5); the smaller index is reported
    assert list(r.extremal_w) == [1, 0]


def test_abelian_spectrum_contains_trivial_eigenvalue():
    r = abelian_spectrum(FpVector([1, 2, 0, 4], 7))
    assert r.eigenvalues[-1] == pytest.approx(1.0, abs=1e-12)
    assert r.graph_order == 7**3


def test_abelian_spectrum_rejects_bad_vectors():
    with pytest.raises(ValueError):
        abelian_spectrum(FpVector([1, 1], 5))
    with pytest.raises(ValueError):
        abelian_spectrum(FpVector([0, 0], 5))


def conjugation_defect_direct(lam, p, d):
    """Largest |lam[-w] - conj(lam[w])| over a flat array of p^d values, one
    index at a time: split w into its d base-p digits, first digit least
    significant, negate each and reassemble."""
    worst = 0.0
    for w in range(lam.size):
        rest, neg = w, 0
        for i in range(d):
            rest, k = divmod(rest, p)
            neg += (p - k) % p * p**i
        worst = max(worst, abs(lam[neg] - lam[w].conjugate()))
    return worst


@pytest.mark.parametrize("p,d", [(2, 1), (3, 3), (5, 4), (11, 5), (65537, 1)])
def test_char_means_is_hermitian_on_random_point_sets(p, d):
    """The histogram of a point set is real, so negating w conjugates its
    character mean: lam[-w] = conj(lam[w]) for every w, up to FFT rounding."""
    rng = master_rng(p + d)
    points = rng.integers(0, p, size=(int(rng.integers(1, 300)), d))
    assert conjugation_defect_direct(char_means(points, p), p, d) <= 1e-12


@pytest.mark.parametrize("v,p", [([1, 10, 5, 8, 6, 3], 11), ([1, 999982], 999983)],
                         ids=["6-11", "2-999983"])
def test_char_means_is_hermitian_on_orbits(v, p):
    """The same on the orbits `abelian_spectrum` reads, at 161051 and 999983
    characters."""
    n = len(v)
    lam = char_means(orbit_matrix(FpVector(v, p))[:, : n - 1], p)
    assert conjugation_defect_direct(lam, p, n - 1) <= 1e-12


@pytest.mark.parametrize("i", [1, 11**5 - 1])
def test_conjugation_defect_sees_one_perturbed_character(i):
    """The Hermitian checks above can fail: the character values of an orbit
    pass, and moving one of them by 1e-6, first or last, is seen."""
    n, p = 6, 11
    lam = char_means(orbit_matrix(FpVector([1, 10, 5, 8, 6, 3], p))[:, : n - 1], p)
    assert conjugation_defect_direct(lam, p, n - 1) <= 1e-12
    lam[i] += 1e-6
    assert conjugation_defect_direct(lam, p, n - 1) > 1e-9


@pytest.mark.parametrize("n,p", AGREEMENT_CASES)
def test_character_matches_dense_for_all_spanning_vectors(n, p):
    group = hyperplane_group(n, p)
    for v in spanning_vectors(n, p):
        char = abelian_spectrum(v)
        dense = cayley_spectrum(group, orbit(v))
        assert char.eigenvalues.shape == dense.eigenvalues.shape
        assert np.max(np.abs(char.eigenvalues - dense.eigenvalues)) <= 1e-8


def test_character_matches_dense_at_larger_prime():
    # p = 47 at n = 2: 47 characters against a 47 x 47 dense solve
    group = hyperplane_group(2, 47)
    v = FpVector([1, 46], 47)
    char = abelian_spectrum(v)
    dense = cayley_spectrum(group, orbit(v))
    assert np.max(np.abs(char.eigenvalues - dense.eigenvalues)) <= 1e-8
    assert char.gap == pytest.approx(1 - math.cos(2 * math.pi / 47), abs=1e-12)


@pytest.mark.parametrize("n,p", AGREEMENT_CASES + [(2, 47)])
def test_hyperplane_adjacency_matches_group_table(n, p):
    group = hyperplane_group(n, p)
    for v in spanning_vectors(n, p):
        want = cayley_adjacency(group, orbit(v))
        assert np.array_equal(hyperplane_adjacency(v), want), v


def test_gap_positive_iff_spanning():
    for n, p in [(2, 3), (2, 5), (3, 2), (3, 3)]:
        for row in enumerate_v0(n, p):
            v = FpVector(row, p)
            if v.is_zero:
                continue
            spanning = orbit_span_rank(v) == n - 1
            gap = abelian_spectrum(v).gap
            assert (gap > 1e-9) == spanning


def test_gap_positive_iff_bfs_connected():
    # independent connectivity oracle: the BFS order of the full semidirect
    # group equals |G| exactly when the orbit spans
    for n, p in [(2, 5), (3, 2)]:
        v = FpVector([1, p - 1] + [0] * (n - 2), p)
        assert abelian_spectrum(v).gap > 0
        res = bfs_diameter(build_Y(n, p), DEFAULT_ORDER_CAP)
        assert res.order == group_order(n, p)


def test_dense_spectrum_double_edge():
    adj = np.array([[0.0, 2.0], [2.0, 0.0]])
    r = dense_spectrum(adj, 2)
    assert np.allclose(r.eigenvalues, [-1.0, 1.0], atol=1e-12)
    assert r.gap == pytest.approx(2.0, abs=1e-12)


def test_dense_spectrum_five_cycle_circulant():
    adj = np.zeros((5, 5))
    for i in range(5):
        adj[i, (i + 1) % 5] += 1
        adj[i, (i - 1) % 5] += 1
    r = dense_spectrum(adj, 2)
    want = sorted(math.cos(2 * math.pi * k / 5) for k in range(5))
    assert np.allclose(r.eigenvalues, want, atol=1e-10)


def test_dense_spectrum_guards():
    with pytest.raises(ValueError):
        dense_spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)  # asymmetric
    with pytest.raises(ValueError):
        dense_spectrum(np.array([[0.0, 2.0], [2.0, 1.0]]), 2)  # not regular
    with pytest.raises(ValueError):
        dense_spectrum(np.zeros((2, 3)), 1)


def test_dense_spectrum_identity_generator():
    # S = {identity}: two self-loop orientations, all eigenvalues 1, gap 0
    group = hyperplane_group(2, 3)
    adj = cayley_adjacency(group, [group.identity_index])
    assert np.allclose(adj, 2 * np.eye(3))
    r = dense_spectrum(adj, 2)
    assert np.allclose(r.eigenvalues, 1.0)
    assert r.gap == pytest.approx(0.0, abs=1e-12)


def test_jacobi_against_lapack_oracle():
    """dense_spectrum (LAPACK) against the Jacobi oracle on random 6-regular
    multigraphs (sums of three permutation matrices and their transposes) up
    to dimension 30."""
    rng = master_rng(70)
    for dim in (1, 2, 3, 10, 17, 30):
        adj = np.zeros((dim, dim))
        for _ in range(3):
            perm = rng.permutation(dim)
            adj[np.arange(dim), perm] += 1.0
            adj[perm, np.arange(dim)] += 1.0
        w, vecs = jacobi_eigh(adj / 6)
        assert np.max(np.abs(vecs @ vecs.T - np.eye(dim))) <= 1e-9
        assert np.max(np.abs(vecs @ np.diag(w) @ vecs.T - adj / 6)) <= 1e-8
        got = dense_spectrum(adj, 6).eigenvalues
        assert np.max(np.abs(np.sort(w) - got)) <= 1e-9


def test_cayley_adjacency_row_sums_and_s3_table():
    from expander_forge.groups import permutation_group

    s3 = permutation_group("S3", [(1, 0, 2), (1, 2, 0)])
    gens = [(1, 0, 2), (1, 2, 0)]
    adj = cayley_adjacency(s3, gens)
    assert np.allclose(adj.sum(axis=1), 4.0)
    # oracle: hand-built neighbor counts
    want = np.zeros((6, 6))
    for gi, g in enumerate(s3.elements):
        for s in gens:
            si = s3.index_of(s)
            for hi in (s3.table[gi, si], s3.table[gi, s3.inverse[si]]):
                want[gi, hi] += 1
    assert np.array_equal(adj, want)


def test_cayley_adjacency_rejects_foreign_elements():
    group = hyperplane_group(2, 3)
    with pytest.raises(ValueError):
        cayley_adjacency(group, [FpVector([1, 1], 3)])


def test_disjoint_union_cases():
    assert disjoint_union_check(FpVector([1, 2], 3))
    assert disjoint_union_check(FpVector([1, 1, 0], 2))
    assert disjoint_union_check(FpVector([1, 4], 5))


def test_disjoint_union_guards():
    with pytest.raises(ValueError):
        disjoint_union_check(FpVector([1, 2, 0], 3))  # p divides n
    with pytest.raises(ValueError):
        disjoint_union_check(FpVector([0, 0], 5))


@pytest.mark.parametrize("entries,p", [([1, 10, 5, 8, 6, 3], 11), ([1, 2, 994], 997),
                                       ([1, 100002], 100003)])
def test_character_route_holds_at_most_28_bytes_per_character(entries, p):
    """`abelian_spectrum` peaks at the character buffer (16 bytes a
    character) plus the sorted eigenvalues (8) and block-sized temporaries;
    the route through `ifftn`, a rolled copy of the grid and its difference
    held 64 bytes a character."""
    v = FpVector(entries, p)
    abelian_spectrum(FpVector([1, p - 1], p))  # first-call set-up outside the count
    peak = _traced_peak(abelian_spectrum, v)
    assert peak <= 28 * p ** (v.n - 1), peak / p ** (v.n - 1)


# Builds the dense cross-check's matrix at (3, p) and solves it, after one
# small solve that sets up OpenBLAS, and prints the growth of the peak RSS
# (VmHWM) over that warm-up, in dim x dim float64 matrices.
_DENSE_PEAK = """
import re, sys
from expander_forge import cli, spectral
from expander_forge.modp import FpVector
from expander_forge.perm import orbit_size
def peak():
    with open("/proc/self/status") as status:
        return 1024 * int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
def solve(v):
    return spectral.dense_spectrum(spectral.hyperplane_adjacency(v), 2 * orbit_size(v))
solve(FpVector([1, 2, 0], 3))
p = int(sys.argv[1])
base = peak()
solve(FpVector([1, p - 1, 0], p))
print((peak() - base) / (8 * p**4))
"""


def test_dense_route_holds_two_matrices():
    """The dense cross-check at dimension 961 grows the peak RSS by about
    two dim x dim float64 matrices, the adjacency (scaled in place) and
    LAPACK's working copy: at most 2.2 of them, where a scaled copy or a
    full-size symmetry check makes it 3. In a child process, so no earlier
    test's peak hides it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _DENSE_PEAK, "31"], capture_output=True,
                         text=True, env=env, check=True)
    assert float(out.stdout.split()[-1]) <= 2.2, out.stdout


def test_dense_spectrum_scales_its_matrix_in_place():
    """The route takes its float64 matrix over and leaves adjacency/degree
    in it; the spectrum is bitwise that of a copy scaled beforehand."""
    v = FpVector([1, 3, 2, 0], 5)
    adj = hyperplane_adjacency(v)
    want = np.linalg.eigvalsh(hyperplane_adjacency(v) / 48)
    got = dense_spectrum(adj, 48)
    assert np.array_equal(adj, hyperplane_adjacency(v) / 48)
    assert np.array_equal(got.eigenvalues, np.sort(want))
