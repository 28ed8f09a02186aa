"""Permutations, the coordinate action, and orbit enumeration."""

import math
from collections import Counter
from itertools import permutations as iter_perms, product

import numpy as np
import pytest

from expander_forge.modp import FpVector
from expander_forge.perm import (
    Permutation,
    act,
    arrangements,
    inverse,
    orbit_matrix,
    orbit_size,
    orbit_span_rank,
    standard_generators,
    transposition,
)
from expander_forge.rng import master_rng
from test_oracles import compose, dot, multiset_permutations, orbit, random_perm


def test_bijection_validation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([1, 2, 3])


def test_compose_laws():
    rng = master_rng(1)
    for _ in range(30):
        a = random_perm(5, rng)
        b = random_perm(5, rng)
        assert compose(Permutation.identity(5), b) == b
        assert compose(a, inverse(a)) == Permutation.identity(5)
        assert compose(inverse(a), a) == Permutation.identity(5)


def test_compose_exhaustive_n3():
    # oracle: function composition on all 6 x 6 pairs
    elems = [Permutation(list(img)) for img in iter_perms(range(3))]
    for a in elems:
        for b in elems:
            want = [a(b(i)) for i in range(3)]
            assert list(compose(a, b).images) == want


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(Permutation.identity(2), Permutation.identity(3))


def test_act_examples():
    w = FpVector([5, 7, 9], 11)
    assert act(w, Permutation.identity(3)) == w
    assert list(act(w, transposition(3, 0, 1))) == [7, 5, 9]
    with pytest.raises(ValueError):
        act(FpVector([1, 2], 5), Permutation.identity(3))


def test_act_is_right_action():
    rng = master_rng(2)
    for _ in range(100):
        w = FpVector(rng.integers(0, 7, 5), 7)
        a = random_perm(5, rng)
        b = random_perm(5, rng)
        assert act(act(w, a), b) == act(w, compose(a, b))


def test_act_dot_compatibility():
    rng = master_rng(4)
    for _ in range(100):
        x = FpVector(rng.integers(0, 7, 4), 7)
        w = FpVector(rng.integers(0, 7, 4), 7)
        s = random_perm(4, rng)
        assert dot(x, act(w, s)) == dot(act(x, inverse(s)), w)


def test_orbit_examples():
    assert len(orbit(FpVector([3, 3, 3], 5))) == 1
    assert len(orbit(FpVector([1, -1, 0], 5))) == 6
    assert len(orbit(FpVector([1, 1, 3], 5))) == 3


def test_orbit_matches_brute_force():
    # oracle: apply every one of the n! permutations and collect distinct images
    rng = master_rng(6)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        v = FpVector(rng.integers(0, 5, n), 5)
        brute = {tuple(int(v.entries[s[i]]) for i in range(n)) for s in iter_perms(range(n))}
        got = {tuple(x) for x in orbit(v)}
        assert got == brute
        assert orbit_size(v) == len(brute)


def test_orbit_size_times_multiplicities():
    rng = master_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        v = FpVector(rng.integers(0, 3, n), 3)
        mult_product = 1
        for c in Counter(tuple(v)).values():
            mult_product *= math.factorial(c)
        assert orbit_size(v) * mult_product == math.factorial(n)


def test_orbit_closed_under_action():
    v = FpVector([1, 2, 2, 0], 5)
    rng = master_rng(8)
    members = set(orbit(v))
    for x in list(members)[:5]:
        for _ in range(5):
            assert act(x, random_perm(4, rng)) in members


def test_orbit_guard():
    with pytest.raises(ValueError):
        orbit_matrix(FpVector(list(range(11)), 13))


def test_arrangements_lexicographic_and_distinct():
    rows = [tuple(r) for r in arrangements([2, 0, 2])]
    assert rows == [(0, 2, 2), (2, 0, 2), (2, 2, 0)]


def test_arrangements_of_range_in_lexicographic_order():
    for n in range(1, 8):
        want = np.array(list(iter_perms(range(n))), dtype=np.int64).reshape(-1, n)
        assert np.array_equal(arrangements(range(n)), want)


def test_arrangements_match_next_permutation_oracle():
    """Random multisets with n <= 8, the all-equal and all-distinct ones
    among them: the same rows in the same order as next-permutation
    stepping, as int64."""
    rng = master_rng(12)
    cases = [[3] * 8, list(range(8)), [7], [0, 5]]
    cases += [rng.integers(0, int(rng.integers(1, 9)), int(rng.integers(1, 9))).tolist()
              for _ in range(60)]
    for entries in cases:
        got = arrangements(entries)
        want = np.array(list(multiset_permutations(entries)), dtype=np.int64)
        assert got.dtype == np.int64 and np.array_equal(got, want), entries


def test_standard_generators():
    both = standard_generators(2)
    assert both[0] == both[1] == transposition(2, 0, 1)
    gens = standard_generators(3)
    assert list(gens[0].images) == [1, 0, 2]
    assert list(gens[1].images) == [1, 2, 0]
    with pytest.raises(ValueError):
        standard_generators(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_standard_generators_generate_symmetric_group(n):
    # BFS closure oracle
    gens = {tuple(g.images) for g in standard_generators(n)}
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = tuple(a[g[i]] for i in range(n))
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    assert len(seen) == math.factorial(n)


def test_random_perm_identity_at_n1():
    rng = master_rng(0)
    for _ in range(5):
        assert random_perm(1, rng) == Permutation.identity(1)


def test_random_perm_uniform_chi_square():
    rng = master_rng(43)
    counts = Counter()
    draws = 6000
    for _ in range(draws):
        counts[tuple(random_perm(3, rng).images)] += 1
    assert len(counts) == 6
    expected = draws / 6
    chi2 = sum((obs - expected) ** 2 / expected for obs in counts.values())
    assert chi2 < 21.0  # 5 dof


def test_random_perm_deterministic():
    a = [random_perm(6, master_rng(12)) for _ in range(3)]
    b = [random_perm(6, master_rng(12)) for _ in range(3)]
    assert a == b


def _orbit_matrix_rank(v):
    """Rank over F_p of the full orbit matrix, by Gaussian elimination."""
    p = v.p
    basis = []
    for row in orbit_matrix(v) % p:
        for piv, b in basis:
            if row[piv]:
                row = (row - row[piv] * b) % p
        nz = np.nonzero(row)[0]
        if nz.size:
            piv = int(nz[0])
            basis.append((piv, row * pow(int(row[piv]), -1, p) % p))
    return len(basis)


def test_orbit_span_rank_matches_brute_force():
    """Every vector for n <= 5 and p in {2, 3, 5, 7} against the rank of its
    orbit matrix. Rearranging v leaves its orbit unchanged, so the oracle
    runs once per multiset of entries. The zero, constant, nonconstant
    sum-zero and not sum-zero vectors are all among them, and each (n, p)
    shows all of the ranks 0, 1, n - 1 and n."""
    for p in (2, 3, 5, 7):
        for n in range(1, 6):
            oracle, seen = {}, set()
            for entries in product(range(p), repeat=n):
                key = tuple(sorted(entries))
                if key not in oracle:
                    oracle[key] = _orbit_matrix_rank(FpVector(key, p))
                rank = orbit_span_rank(FpVector(entries, p))
                assert rank == oracle[key], (entries, p)
                seen.add(rank)
            assert seen == {0, 1, n - 1, n}, (n, p, seen)


def test_orbit_span_rank_hyperplane_cases():
    # nonzero sum-zero vector spans the hyperplane when p does not divide n
    assert orbit_span_rank(FpVector([1, 4], 5)) == 1
    assert orbit_span_rank(FpVector([1, 2, 0], 3)) == 2
    # the constant vector inside the hyperplane (p | n) only spans a line
    assert orbit_span_rank(FpVector([1, 1, 1], 3)) == 1
