"""Kazhdan intervals, displacement, the optimizer, and the
non-falsification verifications."""

import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from expander_forge import kazhdan, spectral
from expander_forge.cli import main
from expander_forge.groups import (load_catalog, permutation_group, semidirect_group,
                                   semidirect_parts)
from expander_forge.kazhdan import (
    RepVector,
    kazhdan_interval,
    kazhdan_upper_opt,
    verify_almost_invariant_projection,
    verify_basic_bounds,
    verify_inequality_chain,
)
from expander_forge.rng import master_rng
from expander_forge.spectral import cayley_spectrum

from test_oracles import (coset_image, descend_one, displacement, kazhdan_upper_opt_sequential,
                          projection_audit_all_rows, quotient)


@pytest.fixture(scope="module")
def catalog():
    entries = load_catalog()
    return {name: entry.build() for name, entry in entries.items()}


def test_displacement_examples(catalog):
    c2 = catalog["C2"]
    gens = c2.generator_indices
    constant = np.ones(2) / math.sqrt(2)
    assert displacement(c2, gens, constant) == pytest.approx(0.0, abs=1e-15)
    xi = RepVector.normalized(np.array([1.0, -1.0]), mean_zero=True)
    assert displacement(c2, gens, xi) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        displacement(c2, gens, np.zeros(2))
    with pytest.raises(ValueError):
        displacement(c2, [], xi)


def test_displacement_invariant_under_inverses(catalog):
    s4 = catalog["S4"]
    gens = s4.generator_indices
    both = list(gens) + [s4.inverse[g] for g in gens]
    rng = master_rng(61)
    for _ in range(20):
        xi = RepVector.normalized(rng.standard_normal(s4.order))
        a = displacement(s4, gens, xi)
        b = displacement(s4, both, xi)
        assert a == pytest.approx(b, abs=1e-12)


def test_repvector_validation():
    with pytest.raises(ValueError):
        RepVector(np.array([1.0, 1.0]), mean_zero=False)  # not unit
    with pytest.raises(ValueError):
        RepVector(np.array([1.0, 0.0]), mean_zero=True)  # not mean-zero
    with pytest.raises(ValueError):
        RepVector.normalized(np.ones(3), mean_zero=True)  # projects to zero


def test_interval_c2_tight(catalog):
    c2 = catalog["C2"]
    interval = kazhdan_interval(c2, c2.generator_indices)
    assert interval.gap == pytest.approx(2.0, abs=1e-10)
    assert interval.lower == pytest.approx(2.0, abs=1e-9)
    assert interval.upper == pytest.approx(2.0, abs=1e-9)
    # the exact constant: displacement of the unique mean-zero direction
    xi = RepVector.normalized(np.array([1.0, -1.0]), mean_zero=True)
    assert displacement(c2, c2.generator_indices, xi) == pytest.approx(2.0, abs=1e-12)


def test_interval_non_generating(catalog):
    c6 = catalog["C6"]
    # the cube of the 6-cycle generates only a C2: not the whole group
    g = c6.generator_indices[0]
    cube = c6.table[c6.table[g, g], g]
    interval = kazhdan_interval(c6, [cube])
    assert (interval.lower, interval.upper) == (0.0, 0.0)
    assert not interval.generating
    assert kazhdan_interval(c6, []).upper == 0.0


def test_displacement_lower_bound_on_catalog(catalog):
    """Definition-level content of gap <= kappa^2 / 2: every unit mean-zero
    vector displaces by at least sqrt(2 gap)."""
    rng = master_rng(62)
    for name, group in catalog.items():
        gens = group.generator_indices
        gap = cayley_spectrum(group, gens).gap
        floor = math.sqrt(2 * gap) - 1e-9
        for _ in range(300):
            xi = RepVector.normalized(rng.standard_normal(group.order), mean_zero=True)
            assert displacement(group, gens, xi) >= floor, name


def test_optimizer_c2_exact(catalog):
    value, witness = kazhdan_upper_opt(catalog["C2"], catalog["C2"].generator_indices,
                                       restarts=3, iters=50, seed=0)
    assert value == pytest.approx(2.0, abs=1e-9)
    assert witness.mean_zero


def test_optimizer_within_sandwich_window(catalog):
    for name, group in catalog.items():
        gens = group.generator_indices
        interval = kazhdan_interval(group, gens)
        value, witness = kazhdan_upper_opt(group, gens, restarts=8, iters=300, seed=3)
        assert value >= interval.lower - 1e-6, name
        window = math.sqrt(2 * len(gens) * interval.gap)
        assert value <= window + 0.05, name
        # the reported value really is the witness's displacement
        assert displacement(group, gens, witness) == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("seed", [0, 5, 101])
def test_lockstep_optimizer_matches_sequential_oracle(catalog, seed):
    """All starts in one array give the value and witness of the starts run
    one by one, bit for bit."""
    for name, group in catalog.items():
        gens = group.generator_indices
        for restarts in (0, 1, 20):
            value, witness = kazhdan_upper_opt(group, gens, restarts=restarts, seed=seed)
            want, want_x = kazhdan_upper_opt_sequential(group, gens, restarts=restarts, seed=seed)
            assert value == want, (name, restarts)
            want_witness = RepVector.normalized(want_x, mean_zero=True)
            assert np.array_equal(witness.coords, want_witness.coords), (name, restarts)


@pytest.mark.parametrize("rows", [1, 7])
def test_optimizer_row_blocks_change_nothing(catalog, monkeypatch, rows):
    """Blocks of 1 or 7 starts: 21 starts split into 21 or 3 descents, and
    the winner is the one the single block finds."""
    want = {name: kazhdan_upper_opt(group, group.generator_indices, iters=100, seed=5)
            for name, group in catalog.items()}
    sizes = []
    descend = kazhdan._descend

    def recorded(x0, *args):
        sizes.append(len(x0))
        return descend(x0, *args)

    monkeypatch.setattr(kazhdan, "_descend", recorded)
    for name, group in catalog.items():
        gens = group.generator_indices
        monkeypatch.setattr(kazhdan, "_OPT_BLOCK_ENTRIES", rows * len(gens) * group.order)
        sizes.clear()
        value, witness = kazhdan_upper_opt(group, gens, iters=100, seed=5)
        assert sizes == [rows] * (21 // rows), name
        assert value == want[name][0], name
        assert np.array_equal(witness.coords, want[name][1].coords), name


def test_descent_freezes_an_invariant_row(catalog):
    """Under S3's lone transposition s, the indicator of {e, s} minus its
    mean is invariant: displacement 0 at step 0. Its row stops while the
    random rows around it descend exactly as they would alone."""
    s3 = catalog["S3"]
    swap = s3.generator_indices[0]
    assert s3.table[swap, swap] == s3.identity_index
    act = kazhdan._regular_action(s3, [swap])
    trans = s3.table[[swap], :]
    coset = np.zeros(s3.order)
    coset[[s3.identity_index, swap]] = 1.0
    coset -= coset.mean()
    rng = master_rng(17)
    x0 = np.array([rng.standard_normal(s3.order), coset, rng.standard_normal(s3.order),
                   rng.standard_normal(s3.order)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a step on the dead row divides by 0
        best_val, best_x = kazhdan._descend(x0, act, trans, 500)
    assert best_val[1] == 0.0
    assert np.allclose(best_x[1], coset / np.linalg.norm(coset), rtol=0.0, atol=1e-15)
    for r in range(len(x0)):
        want, want_x = descend_one(x0[r], act, trans, 500)
        assert best_val[r] == want, r
        assert np.array_equal(best_x[r], want_x), r
    assert min(best_val[[0, 2, 3]]) > 0.0


@pytest.mark.parametrize("seed,pinned", [(5, "0.7400830610888656"), (101, "0.7403496780367917")])
def test_semidirect_optimizer_value_pinned(tmp_path, seed, pinned):
    """`kazhdan --group V0xS3_p3 --opt` reports the same float as the
    one-start-at-a-time optimizer did."""
    out = tmp_path / "out.json"
    code = main(["kazhdan", "--group", "V0xS3_p3", "--opt", "--seed", str(seed),
                 "--results-dir", str(tmp_path / "results"), "--out", str(out)])
    assert code == 0
    assert repr(json.loads(out.read_text())["body"]["results"]["restricted_upper"]) == pinned


def test_verify_basic_bounds_catalog(catalog):
    for name, group in catalog.items():
        report = verify_basic_bounds(group, group.generator_indices)
        assert report.passed, (name, [c.name for c in report.failures])
        names = [c.name for c in report.checks]
        assert names == ["monotone_in_generators", "full_set_reaches_sqrt2",
                         "power_set_comparison"]


def test_verify_basic_bounds_c2_full_set_detail(catalog):
    report = verify_basic_bounds(catalog["C2"], catalog["C2"].generator_indices)
    full = next(c for c in report.checks if c.name == "full_set_reaches_sqrt2")
    assert full.lhs == pytest.approx(math.sqrt(2), abs=1e-9)


def test_verify_projection_c2_closed_form(catalog):
    """At order two everything is exact: eps = sqrt(2)|a-b|, residual
    |a-b|/sqrt(2), and kappa_lb = 2 make the projection inequality tight."""
    report = verify_almost_invariant_projection(catalog["C2"],
                                                catalog["C2"].generator_indices,
                                                trials=500, seed=9)
    assert report.passed
    proj = next(c for c in report.checks if c.name == "projection_distance")
    assert proj.lhs == pytest.approx(proj.rhs, abs=1e-9)


def test_verify_projection_catalog(catalog):
    for name, group in catalog.items():
        report = verify_almost_invariant_projection(group, group.generator_indices,
                                                    trials=300, seed=8)
        assert report.passed, name


def test_projection_audit_is_the_all_rows_loop(catalog):
    """The audit reads the generators' rows only; its one row is, cell for
    cell, the one the loop over every row of the table gives."""
    for name, group in catalog.items():
        report = verify_almost_invariant_projection(group, group.generator_indices)
        want, _, _ = projection_audit_all_rows(group, group.generator_indices)
        assert report.checks == [want], name


def test_whole_group_displacement_is_at_most_twice_the_residual(catalog):
    """||s x - x|| <= 2 ||x - mean x|| for every row s of the table: s acts
    by a permutation that fixes the constants, so this is the triangle
    inequality, and the audit has no row for it."""
    for group in [*catalog.values(), semidirect_group(3, 7)]:
        _, whole, resid = projection_audit_all_rows(group, group.generator_indices,
                                                    trials=200, seed=11)
        assert np.all(whole <= 2.0 * resid * (1.0 + kazhdan.SLACK) + 1e-12), group.name


@pytest.mark.parametrize("name,trials", [("C2", 100000), ("S4", 20000), ("V0xS3_p3", 2000),
                                         ("semidirect-3-7", 1), ("semidirect-3-7", 2000)])
def test_audit_budget_covers_the_traced_peak(catalog, name, trials):
    """The up-front estimate is at least the traced peak of the audit it
    admits: its per-trial vectors (order 2), its (trials, order) arrays, and
    the dense gap where that phase is the larger (order 294, one trial). A
    warm-up call first, so one-time set-up is not counted."""
    group = catalog.get(name) or semidirect_group(3, 7)
    verify_almost_invariant_projection(group, group.generator_indices, trials=2)
    tracemalloc.start()
    try:
        verify_almost_invariant_projection(group, group.generator_indices, trials=trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    need = kazhdan._audit_bytes(group.order, trials)
    assert peak <= need, (peak, need)


def test_verify_projection_rejects_zero_gap(catalog):
    with pytest.raises(ValueError):
        verify_almost_invariant_projection(catalog["C6"], [catalog["C6"].identity_index])


def test_chain_on_semidirect_catalog_group(catalog):
    group = catalog["V0xS3_p3"]
    n_idx, h_idx, s_gens, t_gens = semidirect_parts(group)
    report = verify_inequality_chain(group, n_idx, h_idx, s_gens, t_gens)
    assert report.passed, [c.name for c in report.failures]
    names = [c.name for c in report.checks]
    assert "semidirect_product_bound" in names
    assert "quotient_lift" in names


def test_chain_on_smallest_semidirect_instance():
    """n = 2, p = 3: a six-element semidirect product whose two standard
    permutation generators coincide (multiset generating set)."""
    from expander_forge.groups import semidirect_group

    group = semidirect_group(2, 3)
    assert group.order == 6
    n_idx, h_idx, s_gens, t_gens = semidirect_parts(group)
    report = verify_inequality_chain(group, n_idx, h_idx, s_gens, t_gens)
    assert report.passed, [c.name for c in report.failures]


def test_chain_on_s3_as_c3_by_c2():
    s3 = permutation_group("S3", [(1, 0, 2), (1, 2, 0)])
    rot = s3.index_of((1, 2, 0))
    swap = s3.index_of((1, 0, 2))
    report = verify_inequality_chain(s3, s3.closure([rot]), s3.closure([swap]),
                                     [rot], [swap])
    assert report.passed
    quot = next(c for c in report.checks if c.name == "quotient_lift")
    # G/N is a two-element group whose certified interval is tight at 2
    assert quot.rhs == pytest.approx(0.5, abs=1e-9)


def test_chain_validation_errors(monkeypatch):
    def unexpected(*args):
        raise AssertionError("eigensolve before the chain's validation")

    monkeypatch.setattr(spectral, "dense_spectrum", unexpected)
    s3 = permutation_group("S3", [(1, 0, 2), (1, 2, 0)])
    rot = s3.index_of((1, 2, 0))
    swap = s3.index_of((1, 0, 2))
    c3 = s3.closure([rot])
    c2 = s3.closure([swap])
    with pytest.raises(ValueError, match="not normal"):
        verify_inequality_chain(s3, c2, c3, [swap], [rot])  # C2 is not normal
    with pytest.raises(ValueError):
        verify_inequality_chain(s3, c3, c3, [rot], [rot])  # orders do not match
    with pytest.raises(ValueError):
        verify_inequality_chain(s3, c3, c2, [swap], [swap])  # S outside N


def _chain_parts(case):
    """(group, N, H, S, T) for `semidirect_group(n, p)`, or for S3 as C3 x| C2
    built as `verify --all` builds it."""
    if case == "S3_as_product":
        group = permutation_group(case, [(1, 2, 0), (1, 0, 2)])
        rot, swap = group.index_of((1, 2, 0)), group.index_of((1, 0, 2))
        return group, group.closure([rot]), group.closure([swap]), [rot], [swap]
    group = semidirect_group(*case)
    return (group, *semidirect_parts(group))


@pytest.mark.parametrize("case", [(2, 3), (2, 5), (3, 3), (3, 5), (4, 3), "S3_as_product"],
                         ids=str)
def test_quotient_interval_is_the_complement_interval(case):
    """The coset oracle's (G/N, TN/N) and (G/N, SN/N) intervals are the
    chain's (H, T) and (H, {e}) bit for bit: G/N is H in the same element
    order."""
    group, n_idx, h_idx, s_gens, t_gens = _chain_parts(case)
    quot = quotient(group, n_idx)
    h_sub = group.subgroup(h_idx)
    assert np.array_equal(quot.table, h_sub.table)
    on_h = [h_sub.index_of(group.elements[t]) for t in t_gens]
    assert kazhdan_interval(quot, coset_image(quot, t_gens)) == kazhdan_interval(h_sub, on_h)
    assert (kazhdan_interval(quot, coset_image(quot, s_gens))
            == kazhdan_interval(h_sub, [h_sub.identity_index]))


def test_no_eigensolve_for_a_non_generating_set(catalog, monkeypatch):
    """A set that generates a proper subgroup gets [0, 0] from `closure`
    alone, and the chain solves only sets that generate: six per chain, each
    with a positive gap."""
    gaps = []
    dense = spectral.dense_spectrum

    def spy(adjacency, degree):
        result = dense(adjacency, degree)
        gaps.append(result.gap)
        return result

    monkeypatch.setattr(spectral, "dense_spectrum", spy)
    c6 = catalog["C6"]
    g = c6.generator_indices[0]
    cube = c6.table[c6.table[g, g], g]
    interval = kazhdan_interval(c6, [cube])
    assert (interval.upper, interval.gap, interval.generating) == (0.0, 0.0, False)
    assert gaps == []
    for case in [(3, 3), "S3_as_product"]:
        gaps.clear()
        assert verify_inequality_chain(*_chain_parts(case)).passed
        assert len(gaps) == 6 and min(gaps) > 1e-12, (case, gaps)


def test_generating_set_with_zero_gap_is_an_internal_error(tmp_path, monkeypatch, capsys):
    """A generating set has a connected Cayley graph: a solved gap of 0 is
    an ArithmeticError, and `kazhdan` exits 4 with one line."""
    monkeypatch.setattr(kazhdan, "cayley_spectrum",
                        lambda group, gens: spectral.SpectrumResult(np.ones(2), 0.0, 2))
    s4 = load_catalog()["S4"].build()
    with pytest.raises(ArithmeticError, match="solved gap 0.000e"):
        kazhdan_interval(s4, s4.generator_indices)
    capsys.readouterr()
    code = main(["kazhdan", "--group", "S4", "--results-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 4 and not list(tmp_path.iterdir())
    assert err == "error: internal invariant violated: generating set of S4 has solved gap 0.000e+00\n"


def test_optimizer_refuses_order_one():
    group = permutation_group("T1", [()])
    with pytest.raises(ValueError, match="order >= 2"):
        kazhdan.kazhdan_upper_opt(group, group.generator_indices)
