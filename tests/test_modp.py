"""Mod-p arithmetic, characters, and the sum-zero hyperplane."""

import cmath
from collections import Counter

import numpy as np
import pytest

from expander_forge import modp
from expander_forge.modp import (
    EP_TABLE_CAP,
    FpVector,
    centered_l1,
    ep,
    ep_table,
    ep_values,
    is_prime,
    sample_v0,
)
from expander_forge.rng import master_rng
from test_oracles import centered_rep, dot


def test_is_prime_small_values():
    primes = [2, 3, 5, 7, 11, 13, 101, 2**31 - 1]
    composites = [0, 1, 4, 6, 9, 15, 2**31, 2**31 + 11]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_is_prime_is_cached():
    is_prime.cache_clear()
    assert is_prime(2**31 - 1) and is_prime(2**31 - 1)
    assert is_prime.cache_info().hits == 1


def test_ep_eval_identity_and_sign():
    assert complex(ep_table(5)[0]) == 1 + 0j
    assert abs(complex(ep_table(2)[1]) - (-1 + 0j)) <= 1e-15


def test_ep_eval_fifth_root():
    # independent oracle: cmath directly
    want = cmath.exp(2j * cmath.pi / 5)
    got = complex(ep_table(5)[1])
    assert abs(got - want) <= 1e-15
    assert abs(got.real - 0.309017) <= 1e-6
    assert abs(got.imag - 0.951057) <= 1e-6
    assert abs(got**5 - 1.0) <= 1e-12


def test_character_multiplicativity():
    rng = master_rng(11)
    for p in (2, 3, 5, 101, 257):
        xs = rng.integers(0, p, 50)
        ys = rng.integers(0, p, 50)
        for x, y in zip(xs, ys):
            lhs = complex(ep_table(p)[x % p]) * complex(ep_table(p)[y % p])
            rhs = complex(ep_table(p)[(int(x) + int(y)) % p])
            assert abs(lhs - rhs) <= 1e-12


def test_character_pth_power_full_sweep():
    for p in (2, 3, 5, 7, 11, 13):
        for x in range(p):
            assert abs(complex(ep_table(p)[x % p]) ** p - 1.0) <= 1e-10


def test_ep_table_is_shared_and_readonly():
    t1 = ep_table(7)
    t2 = ep_table(7)
    assert t1 is t2
    with pytest.raises(ValueError):
        t1[0] = 0.0


def test_ep_values_bitwise_equal_to_table():
    rng = np.random.default_rng(3)
    for p in (2, 61, 10007, 1000003):
        idx = rng.integers(0, p, (17, 5))
        assert np.array_equal(ep_values(idx, p), ep_table(p)[idx])


def test_ep_gathers_at_or_below_the_cap_and_computes_above(monkeypatch):
    """`ep` reads the table up to EP_TABLE_CAP and never builds one above
    it; its values equal `ep_values` bitwise on both sides."""
    rng = np.random.default_rng(4)
    cases = [(p, rng.integers(0, p, (9, 4))) for p in (2, 10007, EP_TABLE_CAP - 1)]
    for p, idx in cases:
        assert np.array_equal(ep(idx, p), ep_values(idx, p))

    def no_table(p):
        raise AssertionError(f"character table built at p = {p}")

    monkeypatch.setattr(modp, "ep_table", no_table)
    idx = rng.integers(0, 2**31 - 1, (9, 4))
    assert np.array_equal(ep(idx, 2**31 - 1), ep_values(idx, 2**31 - 1))
    with pytest.raises(AssertionError):
        ep(cases[1][1], 10007)


def test_fpvector_reduces_and_validates():
    v = FpVector([6, -1, 10], 5)
    assert list(v) == [1, 4, 0]
    assert v.n == 3
    with pytest.raises(ValueError):
        FpVector([1, 2], 4)
    with pytest.raises(ValueError):
        FpVector([], 5)
    with pytest.raises(ValueError):
        FpVector([1], 2**31 + 11)


def test_fpvector_hash_and_eq():
    a = FpVector([1, 4], 5)
    b = FpVector([6, -1], 5)
    c = FpVector([1, 4], 7)
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert len({a, b, c}) == 2


def test_dot_examples():
    assert dot(FpVector([1, 4], 5), FpVector([1, 0], 5)) == 1
    assert dot(FpVector([1, 4, 0], 5), FpVector([1, 1, 1], 5)) == 0
    # hand arithmetic: (2*3 + 3*4) mod 5 = 18 mod 5 = 3
    assert dot(FpVector([2, 3], 5), FpVector([3, 4], 5)) == 3


def test_dot_mismatch_errors():
    with pytest.raises(ValueError):
        dot(FpVector([1, 2], 5), FpVector([1, 2, 3], 5))
    with pytest.raises(ValueError):
        dot(FpVector([1, 2], 5), FpVector([1, 2], 7))


def test_sample_v0_always_sum_zero():
    rng = master_rng(5)
    for _ in range(200):
        v = sample_v0(4, 7, rng)
        assert v.is_sum_zero


def test_sample_v0_uniform_chi_square():
    rng = master_rng(42)
    counts = Counter()
    draws = 3000
    for _ in range(draws):
        counts[tuple(sample_v0(2, 3, rng))] += 1
    assert len(counts) == 3
    expected = draws / 3
    chi2 = sum((obs - expected) ** 2 / expected for obs in counts.values())
    assert chi2 < 16.0  # 2 dof, far beyond the 0.999 quantile


def test_sample_v0_deterministic():
    a = sample_v0(6, 11, master_rng(9))
    b = sample_v0(6, 11, master_rng(9))
    assert a == b


def test_sample_v0_rejects_small_n():
    with pytest.raises(ValueError):
        sample_v0(1, 5, master_rng(0))


def test_centered_rep_range():
    for p in (2, 3, 5, 7):
        for x in range(p):
            r = centered_rep(x, p)
            assert -p / 2 < r <= p / 2
            assert (r - x) % p == 0


def test_centered_l1_examples():
    assert centered_l1(FpVector([0, 0, 0], 7)) == 0
    assert centered_l1(FpVector([1, 4], 5)) == 2
    assert centered_l1(FpVector([2, 3], 5)) == 4


def test_centered_l1_permutation_invariant():
    rng = master_rng(3)
    for _ in range(50):
        entries = rng.integers(0, 11, 6)
        shuffled = rng.permutation(entries)
        assert centered_l1(FpVector(entries, 11)) == centered_l1(FpVector(shuffled, 11))
