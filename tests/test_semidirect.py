"""The semidirect product: group axioms, generating sets, BFS diameters, and
the centered-l1 potential bound."""

import math
import time
import tracemalloc
from itertools import permutations as iter_perms
from itertools import product as iter_product

import numpy as np
import pytest

from expander_forge import semidirect
from expander_forge.cli import DEFAULT_ORDER_CAP
from expander_forge.expsum import search_vector
from expander_forge.modp import FpVector, centered_l1, unimaginative_vector
from expander_forge.perm import Permutation, arrangements, standard_generators
from expander_forge.rng import master_rng
from expander_forge.semidirect import (
    BfsResult,
    GeneratingSet,
    GroupElement,
    bfs_diameter,
    build_X,
    build_Y,
    elem_inverse,
    group_order,
    max_centered_l1,
    potential_lower_bound,
    _digit_blocks,
    _expansion_generators,
    _key_tables,
    _key_scratch,
    _neighbour_keys,
)
from test_oracles import (_lehmer_ranks, _pack_keys, _state_arrays, expand_products, identity, mul,
                          certify, random_perm, sample_v0)


def random_element(n, p, rng):
    return GroupElement(sample_v0(n, p, rng), random_perm(n, rng))


def test_identity_and_inverse_laws():
    rng = master_rng(50)
    e = identity(3, 5)
    for _ in range(50):
        g = random_element(3, 5, rng)
        assert mul(e, g) == g
        assert mul(g, e) == g
        assert mul(g, elem_inverse(g)) == e
        assert mul(elem_inverse(g), g) == e


def test_vector_parts_add_under_trivial_permutations():
    a = GroupElement(FpVector([1, 4], 5), Permutation.identity(2))
    prod = mul(a, a)
    assert prod.vec == FpVector([2, 3], 5)
    assert prod.perm == Permutation.identity(2)


def test_associativity_many_random_triples():
    rng = master_rng(51)
    for _ in range(10000):
        a = random_element(3, 3, rng)
        b = random_element(3, 3, rng)
        c = random_element(3, 3, rng)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(FpVector([1, 1], 5), Permutation.identity(2))
    with pytest.raises(ValueError):
        GroupElement(FpVector([1, 4], 5), Permutation.identity(3))


def test_build_Y_shape():
    y = build_Y(3, 3)
    assert len(y) == 3
    assert y.vectors[0] == FpVector([1, 2, 0], 3)
    assert all(v.is_sum_zero for v in y.vectors)
    with pytest.raises(ValueError):
        build_Y(1, 5)


def test_build_X_from_search_pipeline():
    hit = search_vector(4, 5, threshold=0.8, max_trials=50, seed=2)
    assert hit.found
    x = build_X(4, 5, hit.certificate)
    assert len(x) == len(build_Y(4, 5)) == 3
    res = bfs_diameter(x, DEFAULT_ORDER_CAP)
    assert res.order == group_order(4, 5)


def test_build_X_rejects_non_spanning_vector():
    cert = certify(FpVector([1, 1, 1], 3))  # orbit spans only a line
    with pytest.raises(ValueError):
        build_X(3, 3, cert)


def bfs_oracle(gen):
    """Plain dictionary BFS over GroupElement values."""
    gens = []
    for e in gen.elements:
        gens += [e, elem_inverse(e)]
    start = identity(gen.n, gen.p)
    dist = {start: 0}
    frontier = [start]
    layers = [1]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = mul(g, s)
                if h not in dist:
                    dist[h] = dist[g] + 1
                    nxt.append(h)
        if nxt:
            layers.append(len(nxt))
        frontier = nxt
    return len(layers) - 1, len(dist), tuple(layers)


# case id -> generating set: Y at n <= 3, an X-type set at n = 4 (certified
# vector with a spanning orbit), and hand-built sets with two vectors and
# non-standard permutations, so the key tables see arbitrary (w, t)
ORACLE_SETS = {
    "2-5": lambda: build_Y(2, 5),
    "2-7": lambda: build_Y(2, 7),
    "3-3": lambda: build_Y(3, 3),
    "3-5": lambda: build_Y(3, 5),
    "X-4-5": lambda: build_X(4, 5, certify(FpVector([1, 2, 3, 4], 5))),
    "custom-4-3": lambda: GeneratingSet(
        vectors=(FpVector([1, 1, 1, 0], 3), FpVector([2, 0, 1, 0], 3)),
        perms=(Permutation([0, 2, 3, 1]), Permutation([1, 0, 3, 2])),
        label="custom", n=4, p=3,
    ),
    "custom-3-5": lambda: GeneratingSet(
        vectors=(FpVector([1, 2, 2], 5), FpVector([0, 1, 4], 5)),
        perms=(Permutation([2, 1, 0]), Permutation([1, 2, 0])),
        label="custom", n=3, p=5,
    ),
}


@pytest.mark.parametrize("case", list(ORACLE_SETS))
def test_bfs_matches_oracle(case, monkeypatch):
    gen = ORACLE_SETS[case]()
    got = bfs_diameter(gen, DEFAULT_ORDER_CAP)
    assert (got.diameter, got.order, got.layer_sizes) == bfs_oracle(gen)
    assert not got.truncated
    monkeypatch.setattr(semidirect, "_CHUNK", 3)  # many chunks per layer
    assert bfs_diameter(gen, DEFAULT_ORDER_CAP) == got
    # custom-4-3's permutations generate only A_4, so it reaches a subgroup
    assert (got.order == group_order(gen.n, gen.p)) == (case != "custom-4-3")


def decode_keys(keys, n, p):
    """Elements of `_pack_keys` keys: base-p digits, the last coordinate
    closing the sum, and the permutation of that lexicographic rank."""
    vec_index, rank = np.divmod(keys, math.factorial(n))
    head = vec_index[:, None] // p ** np.arange(n - 1) % p
    vec = np.column_stack([head, -head.sum(axis=1) % p])
    perm = np.array(list(iter_perms(range(n))))[rank]
    return vec, perm, np.argsort(perm, axis=1)


def spanning_x(n, p):
    """An X-type set: a certified vector (1, 2, ..., n-1, -sum) whose orbit
    spans the hyperplane, with the standard pair."""
    head = [i % p for i in range(1, n)]
    return build_X(n, p, certify(FpVector(head + [-sum(head) % p], p)))


STEP_SETS = [
    pytest.param(build, id=f"{label}-{n}-{p}")
    for n, p in [(2, 5), (3, 7), (4, 3), (5, 11), (6, 5)]
    for label, build in [("Y", lambda n=n, p=p: build_Y(n, p)),
                         ("X", lambda n=n, p=p: spanning_x(n, p))]
] + [pytest.param(ORACLE_SETS[case], id=case) for case in ("custom-4-3", "custom-3-5")]


def check_neighbour_keys(gen, seed):
    """Every table-lookup neighbour key equals the packed key of the product
    formed by `expand_products` on the decoded element, for the
    expansion generators and one generator (w, t) with w != 0 and t != 1."""
    n, p = gen.n, gen.p
    total = group_order(n, p)
    rng = np.random.default_rng(seed)
    keys = np.concatenate([[0, total - 1], rng.integers(0, total, 500)])
    gens = _expansion_generators(gen)
    gens.append(mul(gens[0], gens[-1]))  # a vector and a permutation at once
    sizes, tables = _key_tables(gens, n, p)
    scratch = _key_scratch(sizes, keys.size)
    got = np.column_stack([out.copy() for out in  # every yield is the one scratch row
                           _neighbour_keys(keys, sizes, tables, math.factorial(n), scratch)])
    gvec, gperm, ginv = _state_arrays(gens)
    nvec, nperm, _ = expand_products(*decode_keys(keys, n, p), gvec, gperm, ginv, p)
    assert np.array_equal(got, _pack_keys(nvec, nperm, p).reshape(keys.size, len(gens)))


@pytest.mark.parametrize("build", STEP_SETS)
def test_neighbour_keys_match_products(build, monkeypatch):
    gen = build()
    check_neighbour_keys(gen, seed=0)
    # one digit per block: odd digit counts, n = 2 and more than two blocks
    monkeypatch.setattr(semidirect, "_TABLE_LIMIT", 1)
    assert _digit_blocks(gen.n, gen.p) == [1] * (gen.n - 1)
    check_neighbour_keys(gen, seed=1)


def test_digit_blocks_balanced_under_the_limit():
    assert _digit_blocks(2, 5) == [1]
    assert _digit_blocks(4, 3) == [3]
    assert _digit_blocks(5, 11) == [2, 2]  # 120 * 11^4 > 2^20 >= 120 * 11^2
    assert _digit_blocks(6, 5) == [3, 2]
    assert _digit_blocks(2, 1000003) == [1]  # a block holds one digit at least


def test_rank_lookup_matches_lehmer_ranks():
    """rank(s_r t) in the key tables, a binary search of base-n codes, is
    the Lehmer rank of the row s_r t: on all of S_n for n <= 7, and on
    random rows at n = 9, for the standard pair and random t."""
    rng = np.random.default_rng(9)
    for n in (2, 3, 4, 5, 6, 7, 9):
        perms = arrangements(range(n))
        ts = [s.images for s in standard_generators(n)]
        ts += [rng.permutation(n) for _ in range(3)]
        zero = FpVector.zero(n, 2)
        _, tables = _key_tables([GroupElement(zero, Permutation(t)) for t in ts], n, 2)
        rows = np.arange(perms.shape[0]) if n <= 7 else rng.integers(0, perms.shape[0], 4000)
        for t, (shift, rest) in zip(ts, tables):
            assert rest is None
            assert np.array_equal(shift[rows] + rows, _lehmer_ranks(perms[rows][:, t])), (n, t)


@pytest.mark.parametrize("n,p", [(3, 100003), (8, 2), (9, 2)])
def test_key_table_estimate_covers_the_traced_peak(n, p):
    """The refusal estimate is at least the traced peak of the build it
    admits, the permutation build, rank lookup and per-digit temporaries
    included."""
    gens = _expansion_generators(build_Y(n, p))
    need = semidirect._key_table_bytes(gens, n, p)
    tracemalloc.start()
    try:
        _key_tables(gens, n, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need, (peak, need)


def test_bfs_benchmark_size():
    res = bfs_diameter(build_Y(5, 11), DEFAULT_ORDER_CAP)
    assert res == BfsResult(
        diameter=22,
        order=1756920,
        layer_sizes=(1, 5, 18, 62, 204, 616, 1763, 4659, 11242, 24543, 48709, 87998,
                     144698, 215100, 282750, 316016, 283506, 193680, 98138, 33948,
                     8040, 1134, 90),
        truncated=False,
    )


@pytest.mark.parametrize("build", [lambda: build_Y(5, 11), lambda: spanning_x(5, 11)],
                         ids=["Y", "X"])
def test_exact_bfs_memory_at_the_benchmark_size(build):
    """The exact search holds one state byte per element (1.7 MiB at
    (5, 11)), the key tables, the narrow layers' keys and one chunk's
    temporaries: its traced peak stays under 5 MiB. Two order-sized bitmaps
    and every wide layer as int64 keys peaked at 9.7 (Y) and 12.7 MiB (X)."""
    gen = build()
    tracemalloc.start()
    try:
        res = bfs_diameter(gen, DEFAULT_ORDER_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.order == group_order(5, 11) and not res.truncated
    assert peak < 5 * 2**20, peak


@pytest.mark.parametrize("seed", [5, 7, 101])
def test_certify_search_memory_at_the_benchmark_size(seed):
    """certify's search at (64, 1000003) sweeps each candidate in blocks of
    32 giant-step rows of 708 outputs: its traced peak stays under 2 MiB.
    Blocks of about 2^16 outputs (92 rows) peaked at 2.78 MiB, now 1.43."""
    tracemalloc.start()
    try:
        result = search_vector(64, 1000003, 0.2, 3, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.found and result.trials == 3
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("build", STEP_SETS)
def test_bfs_layer_rule_either_way(build, monkeypatch):
    """Keeping a layer's new keys as an array and reading the layer back
    from the state array find the same layers: forcing every layer one way
    or the other leaves the result unchanged. The spy checks that each
    setting of `_NARROW` does force every layer past the identity's."""
    gen = build()
    got = bfs_diameter(gen, DEFAULT_ORDER_CAP)
    assert got.order == sum(got.layer_sizes)
    scanned = []
    chunks = semidirect._frontier_chunks

    def spy(frontier, state, label):
        scanned.append(frontier is None)
        return chunks(frontier, state, label)

    monkeypatch.setattr(semidirect, "_frontier_chunks", spy)
    for narrow, scan in ((0, False), (1 << 62, True)):  # every layer kept; every layer scanned
        monkeypatch.setattr(semidirect, "_NARROW", narrow)
        scanned.clear()
        assert bfs_diameter(gen, DEFAULT_ORDER_CAP) == got
        assert scanned == [False] + [scan] * got.diameter


def test_bfs_narrow_layers_cost_their_frontier():
    """At n = 2 the diameter is about p/2, so a layer holds about four keys;
    reading every layer back from the order-sized state array took 6.5 s on
    a shared 2-core Xeon, against 1.6 s with each layer kept as keys."""
    start = time.perf_counter()
    res = bfs_diameter(build_Y(2, 160001), DEFAULT_ORDER_CAP)
    assert time.perf_counter() - start < 8.0
    assert (res.diameter, res.order, res.truncated) == (80001, 320002, False)


def test_bfs_dihedral_values():
    res = bfs_diameter(build_Y(2, 5), DEFAULT_ORDER_CAP)
    assert res.diameter == 3
    assert res.order == 10


def test_bfs_linear_growth_in_p():
    diams = []
    for p in (5, 11, 23, 47):
        res = bfs_diameter(build_Y(2, p), DEFAULT_ORDER_CAP)
        assert res.order == 2 * p
        assert p // 4 <= res.diameter <= p // 2 + 2
        diams.append(res.diameter)
    assert diams == sorted(diams)
    assert len(set(diams)) == len(diams)


def test_bfs_unchanged_by_adding_explicit_inverses():
    from expander_forge.perm import inverse
    from expander_forge.semidirect import GeneratingSet

    y = build_Y(3, 5)
    doubled = GeneratingSet(
        vectors=y.vectors + tuple(v.neg() for v in y.vectors),
        perms=y.perms + tuple(inverse(t) for t in y.perms),
        label="custom",
        n=y.n,
        p=y.p,
    )
    a = bfs_diameter(y, DEFAULT_ORDER_CAP)
    b = bfs_diameter(doubled, DEFAULT_ORDER_CAP)
    assert a.diameter == b.diameter
    assert a.layer_sizes == b.layer_sizes


@pytest.mark.parametrize("case", ["3-5", "X-4-5", "custom-4-3"])
def test_bfs_refuses_a_group_past_the_cap(case, monkeypatch):
    """A cap one below the group order is refused by MemoryError before any
    key table is built, also for custom-4-3, which reaches only 324 of its
    648 elements; a cap at the group order gives the exact search."""
    gen = ORACLE_SETS[case]()
    order = group_order(gen.n, gen.p)
    exact = bfs_diameter(gen, order_cap=order)
    assert exact == bfs_diameter(gen, DEFAULT_ORDER_CAP) and not exact.truncated

    def unexpected(*args):
        raise AssertionError("key tables built for a refused group")

    monkeypatch.setattr(semidirect, "_key_tables", unexpected)
    for cap in (0, 1, order - 1):
        with pytest.raises(MemoryError, match=f"= {order} is past --order-cap {cap}$"):
            bfs_diameter(gen, order_cap=cap)


def test_pack_keys_bijective():
    from itertools import permutations as iter_perms

    n, p = 3, 3
    elements = [
        GroupElement(FpVector(row, p), Permutation(list(img)))
        for row in [(a, b, (-a - b) % p) for a in range(p) for b in range(p)]
        for img in iter_perms(range(n))
    ]
    vec, perm, _ = _state_arrays(elements)
    keys = _pack_keys(vec, perm, p)
    assert len(set(keys.tolist())) == group_order(n, p)
    assert keys.min() >= 0 and keys.max() < group_order(n, p)


def test_l1_lower_bound_values_and_oracle():
    assert potential_lower_bound(build_Y(2, 5)) == 2
    # exhaustive oracle over the hyperplane
    for n, p in [(2, 5), (3, 7), (3, 3), (4, 3)]:
        best = 0
        for tail in iter_product(range(p), repeat=n - 1):
            v = FpVector(list(tail) + [(-sum(tail)) % p], p)
            best = max(best, centered_l1(v))
        assert max_centered_l1(n, p) == best
        assert potential_lower_bound(build_Y(n, p)) == best // 2


@pytest.mark.parametrize("n,p", [(2, 5), (2, 11), (3, 3), (3, 5), (3, 7)])
def test_l1_bound_below_bfs_diameter(n, p):
    gen = build_Y(n, p)
    assert potential_lower_bound(gen) <= bfs_diameter(gen, DEFAULT_ORDER_CAP).diameter


def test_l1_bound_grows_linearly_in_p():
    values = [potential_lower_bound(build_Y(2, p)) for p in (5, 11, 23, 47)]
    assert values == [2, 5, 11, 23]  # (p - 1) // 2 at n = 2


def test_unimaginative_vector():
    v = unimaginative_vector(4, 7)
    assert list(v) == [1, 6, 0, 0]
    assert v.is_sum_zero
