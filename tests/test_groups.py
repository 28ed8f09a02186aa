"""Finite groups as tables: construction, subgroups, the quotient oracle,
and the catalog file format."""

import time

import numpy as np
import pytest

from expander_forge.groups import (
    GROUP_ORDER_CAP,
    CatalogEntry,
    FiniteGroup,
    load_catalog,
    parse_catalog,
    parse_cycles,
    permutation_group,
    semidirect_group,
    semidirect_parts,
)
from expander_forge.modp import is_prime
from expander_forge.semidirect import group_order
from test_oracles import coset_image, from_elements, mul, quotient, semidirect_parts_by_labels


def test_permutation_group_s3():
    s3 = permutation_group("S3", [(1, 0, 2), (1, 2, 0)])
    assert s3.order == 6
    assert s3.elements[s3.identity_index] == (0, 1, 2)
    for i in range(6):
        assert s3.table[i, s3.inverse[i]] == s3.identity_index


def test_from_elements_requires_closure():
    with pytest.raises(ValueError):
        from_elements("broken", [(0, 1, 2), (1, 2, 0)], lambda a, b: tuple(a[i] for i in b))


def test_generate_order_cap():
    with pytest.raises(ValueError):
        semidirect_group(4, 11)  # 11^3 * 24 is far beyond the cap


def test_closure_and_subgroup():
    s3 = permutation_group("S3", [(1, 0, 2), (1, 2, 0)])
    rot = s3.index_of((1, 2, 0))
    c3 = s3.closure([rot])
    assert len(c3) == 3
    sub = s3.subgroup(c3)
    assert sub.order == 3
    assert sub.index_of((1, 2, 0)) is not None
    with pytest.raises(ValueError):
        s3.subgroup([rot])  # not closed


def test_quotient_s3_by_c3():
    s3 = permutation_group("S3", [(1, 0, 2), (1, 2, 0)])
    c3 = s3.closure([s3.index_of((1, 2, 0))])
    q = quotient(s3, c3)
    assert q.order == 2
    assert q.order * len(c3) == s3.order
    swap = s3.index_of((1, 0, 2))
    images = coset_image(q, [swap])
    assert len(images) == 1 and images[0] != q.identity_index


def test_quotient_rejects_non_normal():
    s3 = permutation_group("S3", [(1, 0, 2), (1, 2, 0)])
    c2 = s3.closure([s3.index_of((1, 0, 2))])
    with pytest.raises(ValueError):
        quotient(s3, c2)


def test_quotient_independent_of_representatives():
    g = semidirect_group(3, 3)
    n_idx, _, _, _ = semidirect_parts(g)
    q = quotient(g, n_idx)
    coset_of = {member: qi for qi, coset in enumerate(q.elements) for member in coset}
    for qa, coset_a in enumerate(q.elements):
        for qb, coset_b in enumerate(q.elements):
            products = {coset_of[g.table[a, b]] for a in coset_a for b in coset_b}
            assert products == {q.table[qa, qb]}


def test_power_set():
    s3 = permutation_group("S3", [(1, 0, 2), (1, 2, 0)])
    gens = s3.generator_indices
    squared = s3.power_set(gens, 2)
    assert s3.identity_index in squared  # transposition times itself
    assert set(s3.power_set(gens, 1)) == set(gens)


def test_conjugates():
    s3 = permutation_group("S3", [(1, 0, 2), (1, 2, 0)])
    rot = s3.index_of((1, 2, 0))
    conj = s3.conjugates([rot])
    members = {s3.elements[i] for i in conj}
    assert members == {(1, 2, 0), (2, 0, 1)}  # both 3-cycles


def test_semidirect_group_structure():
    g = semidirect_group(3, 3)
    assert g.order == 54
    n_idx, h_idx, s_gens, t_gens = semidirect_parts(g)
    assert len(n_idx) == 9
    assert len(h_idx) == 6
    assert len(s_gens) == 1
    assert len(t_gens) == 2
    assert g.closure(n_idx) == sorted(n_idx)
    assert g.closure(h_idx) == sorted(h_idx)


# every semidirect group with n >= 3 under the order cap (n = 6 is past it
# at p = 2), and n = 2 up to p = 200
PARTS_CASES = [(n, p) for n in range(2, 6) for p in range(2, 201 if n == 2 else GROUP_ORDER_CAP)
               if is_prime(p) and group_order(n, p) <= GROUP_ORDER_CAP]


@pytest.mark.parametrize("n,p", PARTS_CASES)
def test_semidirect_parts_match_the_labels(n, p):
    """N and H by closure in the table are the elements with the identity
    permutation and with the zero vector, and S and T split the generators
    the same way."""
    g = semidirect_group(n, p)
    assert semidirect_parts(g) == semidirect_parts_by_labels(g)


@pytest.mark.parametrize("n,p", [(2, 3), (3, 3), (2, 5), (3, 5)])
def test_semidirect_table_matches_elementwise_products(n, p):
    g = semidirect_group(n, p)
    assert np.array_equal(g.table, from_elements(g.name, g.elements, mul).table)
    # lexicographic element order: vector heads first coordinate slowest,
    # then permutations
    heads = [tuple(e.vec.entries[: n - 1]) + tuple(e.perm.images) for e in g.elements]
    assert heads == sorted(heads)


def _compose(a, b):
    return tuple(a[i] for i in b)


PAIR_LOOP_CASES = {
    **{name: entry for name, entry in load_catalog().items() if entry.kind == "perm"},
    "S3_as_product": CatalogEntry("S3_as_product", "perm", ("(0 1 2)", "(0 1)")),
    "S6": CatalogEntry("S6", "perm", ("(0 1 2 3 4 5)", "(0 1)")),
}


@pytest.mark.parametrize("name", sorted(PAIR_LOOP_CASES))
def test_permutation_group_table_matches_pair_loop(name):
    entry = PAIR_LOOP_CASES[name]
    g = entry.build()
    assert np.array_equal(g.table, from_elements(g.name, g.elements, _compose).table)
    gens = [parse_cycles(spec) for spec in entry.cycle_specs]
    degree = len(g.elements[0])
    assert [g.elements[i] for i in g.generator_indices] == [
        t + tuple(range(len(t), degree)) for t in gens]


def test_order_2880_permutation_group_builds_fast():
    start = time.perf_counter()
    g = CatalogEntry("G2880", "perm", ("(0 1 2 3 4 5)", "(0 1)", "(6 7 8 9)")).build()
    assert time.perf_counter() - start < 2.0
    assert g.order == 2880
    images = np.array(g.elements)
    for gen in g.generator_indices:  # column of x -> x g against a[g[i]] row by row
        assert np.array_equal(images[g.table[:, gen]], images[:, images[gen]])
    a, b, c = np.random.default_rng(2880).integers(0, g.order, (3, 1000))
    assert np.array_equal(g.table[g.table[a, b], c], g.table[a, g.table[b, c]])


def test_resolve_mixed():
    s3 = permutation_group("S3", [(1, 0, 2), (1, 2, 0)])
    assert s3.resolve([0, (1, 0, 2)]) == [0, s3.index_of((1, 0, 2))]
    with pytest.raises(ValueError):
        s3.resolve([99])
    with pytest.raises(ValueError):
        s3.resolve([(9, 9, 9)])


def test_parse_cycles():
    assert parse_cycles("(0 1)") == (1, 0)
    assert parse_cycles("(1 4)(2 3)") == (0, 4, 3, 2, 1)
    assert parse_cycles("(0 1 2)") == (1, 2, 0)
    with pytest.raises(ValueError):
        parse_cycles("0 1")
    with pytest.raises(ValueError):
        parse_cycles("(0 0)")
    with pytest.raises(ValueError, match="point 1 appears in two cycles"):
        parse_cycles("(0 1)(1 2)")


def test_parse_catalog_errors():
    with pytest.raises(ValueError):
        parse_catalog("A perm (0 1)\nA perm (0 1)")
    with pytest.raises(ValueError):
        parse_catalog("A frob (0 1)")
    with pytest.raises(ValueError):
        parse_catalog("A semidirect 3")
    with pytest.raises(ValueError):
        parse_catalog("justoneword")
    # a semidirect line names its line number, before any group is built
    for line, reason in (("Z semidirect -1 5", "N >= 2, got -1"),
                         ("Z semidirect 1 5", "N >= 2, got 1"),
                         ("Z semidirect x 5", "integers N and P"),
                         ("Z semidirect 3 5.0", "integers N and P"),
                         ("Z semidirect 3 5 7", "integers N and P")):
        with pytest.raises(ValueError, match=f"^catalog line 2: semidirect needs {reason}$"):
            parse_catalog("C2 perm (0 1)\n" + line)


def test_shipped_catalog():
    catalog = load_catalog()
    assert set(catalog) == {"C2", "C6", "S3", "D5", "S4", "V0xS3_p3"}
    orders = {name: entry.build().order for name, entry in catalog.items()}
    assert orders == {"C2": 2, "C6": 6, "S3": 6, "D5": 10, "S4": 24, "V0xS3_p3": 54}


def test_catalog_from_file(tmp_path):
    path = tmp_path / "cat.txt"
    path.write_text("# comment\nK4 perm (0 1); (2 3)\n")
    catalog = load_catalog(path.read_text())
    assert list(catalog) == ["K4"]
    assert catalog["K4"].build().order == 4
