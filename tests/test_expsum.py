"""Character averages over permutations: exact, closed-form, Monte Carlo,
and the switching certificate machinery."""

import cmath
import math
from itertools import permutations as iter_perms, product as iter_product

import numpy as np
import pytest

from expander_forge import modp
from expander_forge.expsum import (
    SwitchCertificate,
    search_vector,
    switching_sweep,
    tail_bound,
    tail_experiment,
)
from expander_forge.modp import FpVector, enumerate_v0
from expander_forge.perm import act
from expander_forge.rng import master_rng, task_rng
from test_oracles import (ExpSumValue, certify, exp_sum_exact, exp_sum_monte_carlo,
                          exp_sum_support_one, max_support_one, random_perm, sample_v0)


def naive_lambda(v, w, p):
    """Independent oracle: literal average over all n! permutations, plain
    Python integers and cmath."""
    v, w = list(v), list(w)
    n = len(v)
    total = 0j
    for s in iter_perms(range(n)):
        d = sum(v[i] * w[s[i]] for i in range(n)) % p
        total += cmath.exp(2j * cmath.pi * d / p)
    return total / math.factorial(n)


def test_exact_trivial_cases():
    v = FpVector([1, 4, 0], 5)
    assert exp_sum_exact(v, FpVector([0, 0, 0], 5)).value == 1 + 0j
    # constant w against a sum-zero v: every inner product vanishes
    got = exp_sum_exact(v, FpVector([3, 3, 3], 5))
    assert abs(got.value - 1.0) <= 1e-15


def test_exact_two_term_hand_value():
    got = exp_sum_exact(FpVector([1, 4], 5), FpVector([1, 0], 5))
    want = (cmath.exp(2j * cmath.pi / 5) + cmath.exp(8j * cmath.pi / 5)) / 2
    assert abs(got.value - want) <= 1e-14
    assert abs(got.real - math.cos(2 * math.pi / 5)) <= 1e-12
    assert got.mode == "exact" and got.sample_count == 0


def test_exact_matches_naive_oracle():
    rng = master_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        p = int(rng.choice([2, 3, 5]))
        v = FpVector(rng.integers(0, p, n), p)
        w = FpVector(rng.integers(0, p, n), p)
        assert abs(exp_sum_exact(v, w).value - naive_lambda(v, w, p)) <= 1e-12


def test_exact_multi_batch_streaming():
    """Both orbits large at n = 8 (the smaller one is 20160 rearrangements),
    forcing several 4096-row batches through the character kernel; the
    plain-Python oracle still matches."""
    v = FpVector([0, 1, 2, 3, 4, 5, 6, 7], 11)
    w = FpVector([3, 1, 4, 1, 5, 9, 2, 6], 11)
    got = exp_sum_exact(v, w)
    assert abs(got.value - naive_lambda(v, w, 11)) <= 1e-12


def test_exact_guards():
    with pytest.raises(ValueError):
        exp_sum_exact(FpVector([1, 2], 5), FpVector([1, 2, 3], 5))
    with pytest.raises(ValueError):
        exp_sum_exact(FpVector(list(range(11)), 13), FpVector(list(range(11)), 13))


def test_exact_symmetry_under_permuting_w():
    rng = master_rng(22)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        p = int(rng.choice([3, 5]))
        v = FpVector(rng.integers(0, p, n), p)
        w = FpVector(rng.integers(0, p, n), p)
        s = random_perm(n, rng)
        a = exp_sum_exact(v, w).value
        b = exp_sum_exact(v, act(w, s)).value
        assert abs(a - b) <= 1e-12


def test_exact_conjugation():
    rng = master_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        p = int(rng.choice([3, 5]))
        v = FpVector(rng.integers(0, p, n), p)
        w = FpVector(rng.integers(0, p, n), p)
        a = exp_sum_exact(v, w).value
        b = exp_sum_exact(v, w.neg()).value
        assert abs(b - a.conjugate()) <= 1e-12


def test_support_one_values():
    assert exp_sum_support_one(FpVector([1, 4], 5), 0).value == 1 + 0j
    # 2cos(120 degrees) + 1 = 0
    got = exp_sum_support_one(FpVector([1, 2, 0], 3), 1)
    assert abs(got.value) <= 1e-15
    assert got.mode == "closed-form"


def test_support_one_agrees_with_exact_sweep():
    rng = master_rng(24)
    for n in range(2, 7):
        for p in (2, 3, 5):
            for _ in range(20):
                v = FpVector(rng.integers(0, p, n), p)
                for u in range(p):
                    w = FpVector([u] + [0] * (n - 1), p)
                    a = exp_sum_support_one(v, u).value
                    b = exp_sum_exact(v, w).value
                    assert abs(a - b) <= 1e-10


def test_monte_carlo_trivial_and_deterministic():
    v = FpVector([1, 4], 5)
    zero = FpVector([0, 0], 5)
    got = exp_sum_monte_carlo(v, zero, 17, master_rng(1))
    assert got.value == 1 + 0j and got.sample_count == 17 and got.mode == "monte-carlo"
    a = exp_sum_monte_carlo(v, FpVector([1, 0], 5), 100, master_rng(5)).value
    b = exp_sum_monte_carlo(v, FpVector([1, 0], 5), 100, master_rng(5)).value
    assert a == b
    with pytest.raises(ValueError):
        exp_sum_monte_carlo(v, zero, 0, master_rng(1))


def test_monte_carlo_concentration():
    """|estimate - exact| <= 3/sqrt(N) for at least 99% of seeded instances."""
    N = 100
    rng = master_rng(2024)
    hits = 0
    total = 200
    for k in range(total):
        n = int(rng.integers(2, 6))
        p = int(rng.choice([2, 3, 5]))
        v = sample_v0(n, p, rng)
        w = FpVector(rng.integers(0, p, n), p)
        exact = exp_sum_exact(v, w).value
        est = exp_sum_monte_carlo(v, w, N, task_rng(2024, k)).value
        hits += abs(est - exact) <= 3 / math.sqrt(N)
    assert hits / total >= 0.99


def test_monte_carlo_unbiased_across_seeds():
    """Mean over disjoint seed streams matches the exact value within 4 sigma."""
    v = FpVector([1, 4, 3, 2, 0], 5)
    w = FpVector([2, 0, 1, 1, 4], 5)
    exact = exp_sum_exact(v, w).value
    ests = np.array(
        [exp_sum_monte_carlo(v, w, 50, task_rng(7, k)).value for k in range(64)]
    )
    se = ests.std(ddof=1) / math.sqrt(len(ests))
    assert abs(ests.mean() - exact) <= 4 * se


def test_max_support_one_degenerate_and_hand_cases():
    m, u = max_support_one(FpVector([0, 0], 5))
    assert m == pytest.approx(1.0) and u == 1
    m, u = max_support_one(FpVector([1, 4], 5))
    assert m == pytest.approx(abs(math.cos(4 * math.pi / 5)), abs=1e-12)
    assert u == 2
    # every nonzero residue hit exactly once: full character sum vanishes
    m, _ = max_support_one(FpVector([0, 1, 2, 3, 4], 5))
    assert m <= 1e-12


def test_certify_hand_case_and_exhaustive_w():
    v = FpVector([1, 4], 5)
    cert = certify(v)
    expect = math.sqrt(0.5 + 0.5 * math.cos(4 * math.pi / 5) ** 2)
    assert cert.spectral_bound == pytest.approx(expect, abs=1e-12)
    # exhaustive check over all 25 vectors w: nonconstant ones stay below the bound
    worst = 0.0
    for entries in iter_product(range(5), repeat=2):
        if len(set(entries)) == 1:
            continue
        worst = max(worst, abs(naive_lambda(v, entries, 5)))
    assert worst <= cert.spectral_bound + 1e-12
    assert worst == pytest.approx(cert.max_support_one, abs=1e-12)


def test_certify_vacuous_when_sweep_hits_one():
    # constant sum-zero vector exists only when p divides n; its sweep max is 1
    cert = certify(FpVector([1, 1, 1], 3))
    assert cert.max_support_one == pytest.approx(1.0, abs=1e-12)
    assert cert.spectral_bound == pytest.approx(1.0, abs=1e-12)


def test_certify_floor_is_inv_sqrt2():
    cert = certify(FpVector([0, 1, 2, 3, 4], 5))
    assert cert.spectral_bound == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_certify_rejects_bad_inputs():
    with pytest.raises(ValueError):
        certify(FpVector([1, 1], 5))  # not sum-zero
    with pytest.raises(ValueError):
        certify(FpVector([0, 0], 5))  # zero


def test_certificate_invariants():
    with pytest.raises(ValueError):
        SwitchCertificate(FpVector([1, 4], 5), 0.5, 0.9, 1)


def test_expsum_value_modulus_guard():
    with pytest.raises(ArithmeticError):
        ExpSumValue(1.2, 0.0, "exact")


def test_search_vector_success_and_failure():
    hit = search_vector(64, 61, threshold=0.5, max_trials=100, seed=7)
    assert hit.found and hit.trials <= 100
    assert hit.certificate.spectral_bound <= math.sqrt(5 / 8) + 1e-12

    miss = search_vector(2, 5, threshold=0.5, max_trials=40, seed=1)
    assert not miss.found and miss.trials == 40
    # best possible sweep max over the hyperplane at (2, 5)
    assert miss.certificate.max_support_one == pytest.approx(
        abs(math.cos(4 * math.pi / 5)), abs=1e-12
    )


def test_search_vector_candidate_stream():
    """The certificate found after k trials is for the k-th candidate, drawn
    from the (seed, k - 1) stream."""
    for seed in range(3, 8):
        res = search_vector(16, 13, threshold=0.4, max_trials=60, seed=seed)
        assert res.found
        assert res.certificate.v == sample_v0(16, 13, task_rng(seed, res.trials - 1))


def test_u_argmax_in_lower_half():
    """|lam_v(u)| = |lam_v(p - u)|, so the smallest attaining u is at most
    p/2 whichever of the pair rounding favours."""
    for p in (101, 10007):
        for i in range(300):
            v = sample_v0(8, p, task_rng(11, i))
            if not v.is_zero:
                assert certify(v).u_argmax <= p // 2, (p, i)


def test_search_vector_same_with_and_without_the_table(monkeypatch):
    """The sweep's characters gathered from `ep_table` (the default at these
    p) and computed by `ep_values` (cap forced to 0) give equal results."""
    cases = [(p, seed) for p in (2, 3, 101, 10007, 65537) for seed in range(4)]
    gathered = [search_vector(16, p, threshold=0.2, max_trials=30, seed=seed)
                for p, seed in cases]
    monkeypatch.setattr(modp, "EP_TABLE_CAP", 0)
    computed = [search_vector(16, p, threshold=0.2, max_trials=30, seed=seed)
                for p, seed in cases]
    assert gathered == computed


def test_tail_experiment_same_across_the_table_cap(monkeypatch):
    """Two blocks of trials at p = 10007, gathered and computed: equal."""
    args = [(50, 0.25, 1500, 3, 2), (400, 0.1, 1100, 17, 9)]
    gathered = [tail_experiment(n, 10007, eps, trials, u, seed) for n, eps, trials, u, seed in args]
    assert all(res.exceed_count > 0 for res in gathered)
    monkeypatch.setattr(modp, "EP_TABLE_CAP", 0)
    assert gathered == [tail_experiment(n, 10007, eps, trials, u, seed)
                        for n, eps, trials, u, seed in args]


def test_search_vector_validates():
    with pytest.raises(ValueError):
        search_vector(4, 5, threshold=1.5)
    with pytest.raises(ValueError):
        search_vector(4, 5, max_trials=0)


def test_tail_bound_value():
    # direct evaluation of 4 exp(-eps^2 n / 8) at the headline parameters
    assert tail_bound(1000, 0.25) == pytest.approx(4 * math.exp(-7.8125), rel=1e-12)
    assert tail_bound(1000, 0.25) == pytest.approx(0.00161858, abs=1e-8)


def test_tail_experiment_basic():
    res = tail_experiment(200, 11, eps=2.0, trials=50, u=1, seed=5)
    assert res.empirical_rate == 0.0  # modulus never reaches 2
    res2 = tail_experiment(200, 11, eps=2.0, trials=50, u=1, seed=5)
    assert res == res2


def test_tail_experiment_validates():
    with pytest.raises(ValueError):
        tail_experiment(100, 11, eps=0.01, trials=10, u=1)  # eps below 2/n
    with pytest.raises(ValueError):
        tail_experiment(100, 11, eps=0.5, trials=10, u=0)
    with pytest.raises(ValueError):
        tail_experiment(100, 11, eps=0.5, trials=0, u=1)


def test_enumerate_v0():
    rows = enumerate_v0(3, 3)
    assert rows.shape == (9, 3)
    assert (rows.sum(axis=1) % 3 == 0).all()
    assert len({tuple(r) for r in rows}) == 9


def test_switching_sweep_matches_naive_brute_force():
    """Oracle cross-check of the vectorized sweep at a tiny size."""
    for n, p in [(2, 3), (3, 2), (2, 5)]:
        sweep = switching_sweep(n, p)
        worst_plain = math.inf
        worst_sharp = math.inf
        for v_entries in iter_product(range(p), repeat=n):
            if sum(v_entries) % p:
                continue
            sup = max(
                abs(naive_lambda(v_entries, (u,) + (0,) * (n - 1), p)) for u in range(1, p)
            )
            for w_entries in iter_product(range(p), repeat=n):
                if len(set(w_entries)) == 1:
                    continue
                lhs = abs(naive_lambda(v_entries, w_entries, p)) ** 2
                worst_plain = min(worst_plain, 0.5 + 0.5 * sup**2 - lhs)
                sw = sorted(w_entries)
                step = next(i for i in range(n - 1) if sw[i] != sw[i + 1])
                u = (sw[step] - sw[step + 1]) % p
                lam_u = abs(naive_lambda(v_entries, (u,) + (0,) * (n - 1), p))
                worst_sharp = min(
                    worst_sharp, 0.5 + 0.5 * (n * lam_u**2 - 1) / (n - 1) - lhs
                )
        assert sweep.min_margin_plain == pytest.approx(worst_plain, abs=1e-10)
        assert sweep.min_margin_sharp == pytest.approx(worst_sharp, abs=1e-10)
        assert sweep.violations() == 0
