"""Acceptance suite: one test per shipped criterion, each printing a
PASS line with its measured numbers (run pytest -s to see them).

The headline asymptotic regime (a prime exponentially large in n) is not
materializable on a desk, so acceptance is exact small-instance numerics
plus property-level checks, with every tolerance fixed here.
"""

import json
import math
import time

import numpy as np
import pytest

from expander_forge.cli import DEFAULT_ORDER_CAP, main
from expander_forge.expsum import switching_sweep
from expander_forge.groups import load_catalog
from expander_forge.kazhdan import RepVector, kazhdan_interval
from expander_forge.modp import FpVector
from expander_forge.semidirect import bfs_diameter, build_Y
from expander_forge.spectral import abelian_spectrum, cayley_spectrum

from test_oracles import disjoint_union_check, displacement, orbit
from test_spectral import hyperplane_group, spanning_vectors

SQRT_FIVE_EIGHTHS = math.sqrt(5 / 8)


def _announce(index, name, detail):
    print(f"ACCEPTANCE {index} {name}: PASS ({detail})")


def test_criterion_1_switching_exhaustive():
    """Every sum-zero v against every nonconstant w at n <= 5, p in {2,3,5}:
    |lam(v,w)|^2 <= 1/2 + 1/2 max_u |lam_v(u)|^2 within 1e-9."""
    start = time.perf_counter()
    pairs = 0
    worst = math.inf
    for n in range(2, 6):
        for p in (2, 3, 5):
            sweep = switching_sweep(n, p)
            assert sweep.min_margin_plain >= -1e-9, (n, p)
            assert sweep.min_margin_sharp >= -1e-9, (n, p)
            pairs += sweep.pair_count
            worst = min(worst, sweep.min_margin_plain)
    elapsed = time.perf_counter() - start
    assert elapsed < 120
    _announce(1, "switching-exhaustive",
              f"{pairs} (v, w-class) pairs, worst margin {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_character_vs_dense():
    """Sorted character spectrum equals the dense LAPACK spectrum of the
    hyperplane Cayley graph within 1e-8, for all spanning v at the four
    listed sizes."""
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    for n, p in [(2, 3), (2, 5), (3, 2), (3, 3)]:
        group = hyperplane_group(n, p)
        for v in spanning_vectors(n, p):
            char = abelian_spectrum(v)
            dense = cayley_spectrum(group, orbit(v))
            diff = float(np.max(np.abs(char.eigenvalues - dense.eigenvalues)))
            assert diff <= 1e-8, (n, p, list(v))
            worst = max(worst, diff)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    _announce(2, "character-vs-dense",
              f"{checked} spanning vectors, worst eigenvalue diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_disjoint_union():
    """Full-space eigenvalue multiset equals p copies of the hyperplane
    spectrum (tolerance 1e-9 inside the check) on the three tiny cases."""
    cases = [FpVector([1, 2], 3), FpVector([1, 1, 0], 2), FpVector([1, 4], 5)]
    for v in cases:
        assert disjoint_union_check(v)
    _announce(3, "disjoint-union", f"{len(cases)} cases at 1e-9")


def test_criterion_4_certify_pipeline(tmp_path):
    """certify --n 64 --p 61 --threshold 0.5 succeeds within 100 trials for
    at least 99% of 50 master seeds; every emitted bound stays below
    sqrt(5/8) + 1e-12."""
    start = time.perf_counter()
    successes = 0
    bounds = []
    for seed in range(50):
        out = tmp_path / f"c{seed}.json"
        code = main(["certify", "--n", "64", "--p", "61", "--threshold", "0.5",
                     "--seed", str(seed), "--results-dir", str(tmp_path / "r"),
                     "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())["body"]["results"]
        if res["found"] and res["trials"] <= 100:
            successes += 1
            bounds.append(res["certificate"]["spectral_bound"])
    elapsed = time.perf_counter() - start
    assert successes / 50 >= 0.99
    assert max(bounds) <= SQRT_FIVE_EIGHTHS + 1e-12
    assert elapsed < 50  # one second per seed
    _announce(4, "certify-pipeline",
              f"{successes}/50 seeds, max bound {max(bounds):.6f} "
              f"<= {SQRT_FIVE_EIGHTHS:.6f}, {elapsed:.1f}s")


def test_criterion_5_tail_bound(tmp_path):
    """n=1000, p=101, eps=0.25, 10^4 trials: empirical rate below
    4 exp(-eps^2 n / 8)."""
    start = time.perf_counter()
    out = tmp_path / "tail.json"
    code = main(["tail", "--n", "1000", "--p", "101", "--eps", "0.25",
                 "--trials", "10000", "--seed", "0",
                 "--results-dir", str(tmp_path / "r"), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    res = json.loads(out.read_text())["body"]["results"]
    assert res["bound"] == pytest.approx(4 * math.exp(-7.8125), rel=1e-12)
    assert res["empirical_rate"] <= res["bound"]
    assert elapsed < 30
    _announce(5, "tail-bound",
              f"rate {res['empirical_rate']:.2e} <= bound {res['bound']:.6e}, {elapsed:.1f}s")


def test_criterion_6_diameter_growth():
    """n=2 BFS diameters over p in {5, 11, 23, 47}: strictly monotone, at
    least p/4, and exactly 3 at p=5."""
    start = time.perf_counter()
    diameters = []
    for p in (5, 11, 23, 47):
        res = bfs_diameter(build_Y(2, p), DEFAULT_ORDER_CAP)
        assert not res.truncated
        assert res.order == 2 * p <= 10**5
        assert res.diameter >= p / 4
        diameters.append(res.diameter)
    assert diameters[0] == 3
    assert all(a < b for a, b in zip(diameters, diameters[1:]))
    elapsed = time.perf_counter() - start
    _announce(6, "diameter-growth", f"diameters {diameters}, {elapsed:.1f}s")


def test_criterion_7_sandwich_tightness():
    """Order-two group, one generator: gap exactly 2, interval [2, 2], and
    the unique mean-zero direction realizes kappa = 2."""
    c2 = load_catalog()["C2"].build()
    interval = kazhdan_interval(c2, c2.generator_indices)
    assert interval.gap == pytest.approx(2.0, abs=1e-10)
    assert interval.lower == pytest.approx(2.0, abs=1e-9)
    assert interval.upper == pytest.approx(2.0, abs=1e-9)
    xi = RepVector.normalized(np.array([1.0, -1.0]), mean_zero=True)
    exact = displacement(c2, c2.generator_indices, xi)
    assert exact == pytest.approx(2.0, abs=1e-12)
    _announce(7, "sandwich-tightness",
              f"interval [{interval.lower:.12f}, {interval.upper:.12f}], kappa {exact:.12f}")


def test_criterion_8_nonfalsification_suite(tmp_path):
    """verify --all over the shipped catalog: zero falsifications with 10^3
    random vectors per group, the factor-inequality chains included."""
    start = time.perf_counter()
    out = tmp_path / "verify.json"
    code = main(["verify", "--all", "--trials", "1000", "--seed", "0",
                 "--results-dir", str(tmp_path / "r"), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    res = json.loads(out.read_text())["body"]["results"]
    assert res["falsifications"] == 0
    groups = {r["group"] for r in res["reports"]}
    assert {"C2", "C6", "S3", "D5", "S4", "V0xS3_p3"} <= groups
    assert elapsed < 600
    _announce(8, "nonfalsification-suite",
              f"{len(res['reports'])} reports, {len(res['sweeps'])} sweeps, "
              f"0 falsifications, {elapsed:.1f}s")


def test_criterion_9_cli_determinism(tmp_path):
    """Every command, run twice with the same seed, produces byte-identical
    manifest bodies."""
    commands = [
        ["certify", "--n", "64", "--p", "61", "--seed", "11"],
        ["gap", "--n", "2", "--p", "5", "--crosscheck", "dense"],
        ["diam", "--n", "2", "--p-list", "5,11,23"],
        ["tail", "--n", "500", "--p", "101", "--eps", "0.3", "--trials", "200",
         "--seed", "4"],
        ["kazhdan", "--group", "D5", "--opt", "--seed", "6"],
        ["verify", "--all", "--trials", "60", "--max-sweep-n", "3", "--seed", "9"],
    ]
    for argv in commands:
        bodies = []
        for run_index in range(2):
            out = tmp_path / f"{argv[0]}-{run_index}.json"
            code = main(argv + ["--results-dir", str(tmp_path / "r"),
                                "--out", str(out)])
            assert code == 0, argv
            doc = json.loads(out.read_text())
            bodies.append(json.dumps(doc["body"], sort_keys=True))
        assert bodies[0] == bodies[1], argv[0]
    _announce(9, "cli-determinism", f"{len(commands)} commands, identical bodies")


def test_observational_diameter_comparison(tmp_path, capsys):
    """Reported, not asserted: the certified fast set never looks slower
    than the unimaginative set on a small instance."""
    out = tmp_path / "x.json"
    main(["diam", "--n", "3", "--p", "7", "--set", "X", "--seed", "3",
          "--threshold", "0.95", "--results-dir", str(tmp_path / "r"),
          "--out", str(out)])
    x_diam = json.loads(out.read_text())["body"]["results"]["instances"][0]["diameter"]
    y_diam = bfs_diameter(build_Y(3, 7), DEFAULT_ORDER_CAP).diameter
    print(f"OBSERVATION diam(X)={x_diam} vs diam(Y)={y_diam} at n=3, p=7")
