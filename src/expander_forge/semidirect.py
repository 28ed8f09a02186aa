"""The semidirect product G of the sum-zero hyperplane by S_n, its standard
generating sets, its right-multiplication table as arrays, single-source BFS
diameters, and the centered-l1 potential lower bound on the diameter.

Multiplication convention, fixed once and pinned by the associativity
property tests: (u, s)(w, t) = (u + w^{s^{-1}}, s t), with w^s the coordinate
action from `perm`. Every graph-level output (connectivity, diameter,
spectra) is invariant under this choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .modp import (FpVector, centered_l1, check_prime, enumerate_v0, refuse_past_budget,
                   unimaginative_vector)
from .perm import Permutation, act, arrangements, inverse, orbit_span_rank, standard_generators

_CHUNK = 1 << 16  # frontier keys per BFS step
_NARROW = 64  # an exact layer of under order / _NARROW keys stays a key array


@dataclass(frozen=True, eq=False)
class GroupElement:
    """Pair (vec, perm) with vec in the sum-zero hyperplane."""

    vec: FpVector
    perm: Permutation

    def __post_init__(self) -> None:
        if self.vec.n != self.perm.n:
            raise ValueError("vector and permutation dimensions differ")
        if not self.vec.is_sum_zero:
            raise ValueError("vector part must be sum-zero")

    @property
    def n(self) -> int:
        return self.vec.n

    @property
    def p(self) -> int:
        return self.vec.p

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.vec == other.vec and self.perm == other.perm

    def __hash__(self) -> int:
        return hash((self.vec, self.perm))

    def __repr__(self) -> str:
        return f"GroupElement({self.vec!r}, {self.perm!r})"


def elem_inverse(a: GroupElement) -> GroupElement:
    """(u, s)^{-1} = (-(u^s), s^{-1})."""
    return GroupElement(act(a.vec, a.perm).neg(), inverse(a.perm))


@dataclass(frozen=True)
class GeneratingSet:
    """Generators of the semidirect product: vector elements (paired with the
    identity permutation) plus permutation elements (paired with the zero
    vector). Treated as a multiset; at n = 2 the two standard permutation
    generators coincide and are kept twice."""

    vectors: tuple
    perms: tuple
    label: str
    n: int
    p: int

    @property
    def elements(self) -> List[GroupElement]:
        id_perm = Permutation.identity(self.n)
        zero = FpVector.zero(self.n, self.p)
        out = [GroupElement(v, id_perm) for v in self.vectors]
        out += [GroupElement(zero, t) for t in self.perms]
        return out

    def __len__(self) -> int:
        return len(self.vectors) + len(self.perms)


def group_order(n: int, p: int) -> int:
    return p ** (n - 1) * math.factorial(n)


def build_Y(n: int, p: int) -> GeneratingSet:
    """The slow generating set: {(1,-1,0,...)} plus the standard pair."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    check_prime(p)
    return GeneratingSet(
        vectors=(unimaginative_vector(n, p),),
        perms=tuple(standard_generators(n)),
        label="Y",
        n=n,
        p=p,
    )


def build_X(n: int, p: int, cert) -> GeneratingSet:
    """The fast generating set: a certified vector plus the standard pair of
    S_n. The certificate's vector must have a spanning orbit."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    check_prime(p)
    v = cert.v
    if v.n != n or v.p != p:
        raise ValueError("certificate dimensions do not match (n, p)")
    if orbit_span_rank(v) != n - 1:
        raise ValueError("certified vector's orbit does not span the hyperplane")
    return GeneratingSet(vectors=(v,), perms=tuple(standard_generators(n)), label="X",
                         n=n, p=p)


@dataclass(frozen=True)
class BfsResult:
    """Single-source BFS summary. Cayley graphs are vertex-transitive, so the
    eccentricity of the identity equals the diameter; layer_sizes is the
    per-distance census of elements. `truncated` is always False: the search
    is exact, and a group past the order cap is refused before it starts. The
    field stays because `diam` rows and the benchmark harness read it."""

    diameter: int
    order: int
    layer_sizes: tuple
    truncated: bool = False


def _expansion_generators(gen: GeneratingSet):
    """Generators and their inverses, deduplicated: the BFS metric is
    unchanged by multiplicities or by adding explicit inverses."""
    seen = {}
    for e in gen.elements:
        seen[e] = None
        seen[elem_inverse(e)] = None
    return list(seen)


def right_table(n: int, p: int):
    """Vector rows, permutation rows and right table of the whole group, in
    lexicographic order (first coordinate slowest): element a n! + r is
    (row a, s_r), s_r of lexicographic rank r; right[e, j] is e g_j for g_j the j-th
    generator of `build_Y(n, p)`, from the key tables on all keys, relabelled
    (a key holds the first coordinate least significant, an index most)."""
    rows = enumerate_v0(n, p)
    rows = rows[np.lexsort(rows.T[::-1])]
    perms = arrangements(range(n))
    nfact, size = perms.shape[0], rows.shape[0]
    keys = (rows[:, : n - 1] @ p ** np.arange(n - 1) * nfact)[:, None] + np.arange(nfact)
    element = np.empty(size * nfact, dtype=np.int64)
    element[keys.ravel()] = np.arange(size * nfact)
    sizes, tables = _key_tables(build_Y(n, p).elements, n, p)
    scratch = _key_scratch(sizes, keys.size)
    right = np.stack([element[out] for out in
                      _neighbour_keys(keys.ravel(), sizes, tables, nfact, scratch)], axis=1)
    return np.repeat(rows, nfact, axis=0), np.tile(perms, (size, 1)), right


_TABLE_LIMIT = 1 << 20  # entries per block table of the key BFS


def _digit_blocks(n: int, p: int) -> List[int]:
    """Split the n-1 base-p digits of a key's vector part into the fewest
    balanced blocks whose tables (n! p^digits entries each) stay within
    `_TABLE_LIMIT`, with one digit per block at the least."""
    digits, nfact = n - 1, math.factorial(n)
    count = 1
    while count < digits and nfact * p ** -(-digits // count) > _TABLE_LIMIT:
        count += 1
    q, r = divmod(digits, count)
    return [q + 1] * r + [q] * (count - r)


def _key_tables(gens: Sequence[GroupElement], n: int, p: int):
    """Block sizes P_j = p^(digits of block j) and, per generator g = (w, t),
    the tables that map a key k = vec_index n! + r to the key of
    (u, s_r) g = (u + w^{s_r^{-1}}, s_r t). The key of (u, s_r) packs u base p
    over its first n-1 coordinates, vec_index = sum_i u_i p^i, next to the
    lexicographic rank r of s_r; it is a bijection onto [0, p^(n-1) n!).
    Lexicographic rows have increasing base-n codes: rank(s_r t) is a search.

    The key splits into low = k mod (P_0 n!), which holds the first digit
    block and r, and the higher blocks blk_j. For w = 0 the entry is
    (D, None) with D[r] = rank(s_r t) - r, and the neighbour is k + D[r].
    Otherwise it is (A, (B_1, ...)): A[low] is the first block's digits plus
    those of w^{s_r^{-1}}, mod p digit by digit, times n!, plus rank(s_r t);
    B_j[r P_j + blk_j] is block j's new digits at their place value, times
    n!; the neighbour is A[low] + sum_j B_j[r P_j + blk_j]."""
    nfact = math.factorial(n)
    perms = arrangements(range(n))
    place = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = perms @ place
    invs = np.argsort(perms, axis=1)
    blocks = _digit_blocks(n, p)
    sizes = [p**b for b in blocks]
    tables = []
    for g in gens:
        # the code of s_r t, perms[r, t] @ place, without gathering perms[:, t]
        ranks = np.searchsorted(codes, perms @ place[np.argsort(g.perm.images)])
        w = g.vec.entries
        if not w.any():
            tables.append((ranks - np.arange(nfact), None))
            continue
        offsets = w[invs]
        # A is laid out blk_0 n! + r (column-major), the B_j as r P_j + blk_j
        parts = [_block_digits(offsets, sum(blocks[:j]), b, p, "F" if j == 0 else "C")
                 for j, b in enumerate(blocks)]
        parts[0] += ranks[:, None]
        tables.append((parts[0].ravel(order="F"), tuple(t.ravel() for t in parts[1:])))
    return sizes, tables


def _block_digits(offsets, first: int, count: int, p: int, order: str) -> np.ndarray:
    """n! x p^count table: entry (r, x) holds the digits first..first+count-1
    of u + w^{s_r^{-1}}, for u with those digits x, at their place value
    times n!. One n! x p^count temporary, updated in place per digit."""
    nfact = offsets.shape[0]
    grid = np.arange(p**count, dtype=np.int64)
    new = np.zeros((nfact, grid.size), dtype=np.int64, order=order)
    tmp = np.empty_like(new)
    for i in range(first, first + count):
        np.add(grid // p ** (i - first) % p, offsets[:, i, None], out=tmp)
        tmp %= p
        tmp *= p**i * nfact
        new += tmp
    return new


def _key_table_bytes(gens, n: int, p: int) -> int:
    """Estimated peak memory of `_key_tables`. Per permutation of S_n it
    counts the permutation and inverse arrays and a vector generator's
    offsets (24n bytes), the code array and one generator's rank-lookup
    temporaries (24), a rank table per generator (8), the P_j int64 table
    entries per digit block and vector generator, and one temporary of the
    largest block; that block's digit arrays add 24 P_j, and small arrays
    and Python objects a flat 1 MiB. The build of the permutation rows
    peaks earlier, below that sum (int64 rows and two byte levels: 10n)."""
    sizes = [p**b for b in _digit_blocks(n, p)]
    vectors = sum(1 for g in gens if g.vec.entries.any())
    entries = sum(sizes) * vectors + max(sizes) + len(gens)
    return math.factorial(n) * (24 * n + 24 + 8 * entries) + 24 * max(sizes) + (1 << 20)


def _check_key_budget(gens, n: int, p: int, total: int, order_cap: int) -> None:
    """Refuse, by MemoryError and before any table is built, a group whose
    keys do not fit int64, whose key tables (`_key_table_bytes`) and one state
    byte per element would take more than `modp.MEMORY_BUDGET`, or whose order
    is past `order_cap`."""
    if total >= 1 << 63:
        raise MemoryError(f"group order p^(n-1) n! = 2^{math.log2(total):.1f} "
                          "does not fit int64 keys (limit 2^63)")
    refuse_past_budget(_key_table_bytes(gens, n, p) + total,
                       "the exact BFS (key tables, one state byte per element)")
    if total > order_cap:
        raise MemoryError(f"group order p^(n-1) n! = {total} is past --order-cap {order_cap}")


def bfs_diameter(gen: GeneratingSet, order_cap: int) -> BfsResult:
    """Diameter of the undirected Cayley graph of the semidirect product on
    `gen` (generators and inverses), by BFS from the identity on int64 keys:
    a frontier step is table lookups (`_key_tables`), in chunks of `_CHUNK`
    keys into buffers kept from chunk to chunk (`_key_scratch`, grown to the
    largest chunk), so temporaries stay bounded and the heap is not trimmed
    and refaulted every chunk, and one byte per element holds the
    search state (`_state_layers`). The result is exact. Raises MemoryError
    up front, before any table is built, for groups `_check_key_budget`
    refuses, among them every group of order past `order_cap`.
    """
    n, p = gen.n, gen.p
    total = group_order(n, p)
    gens = _expansion_generators(gen)
    _check_key_budget(gens, n, p, total, order_cap)
    sizes, tables = _key_tables(gens, n, p)
    nfact = math.factorial(n)
    scratch = _key_scratch(sizes, 0)

    def step(keys):
        nonlocal scratch
        if scratch.shape[1] < keys.size:  # grows with the chunks, at most to _CHUNK keys
            scratch = _key_scratch(sizes, keys.size)
        return _neighbour_keys(keys, sizes, tables, nfact, scratch)

    layers = _state_layers(step, total)
    return BfsResult(len(layers) - 1, sum(layers), tuple(layers))


def _state_layers(step, total):
    """Layer sizes of the BFS from key 0 over the keys [0, total), on one
    byte per key: 0 unseen, 1 done, and 2 and 3 for the current and the
    next layer in turn. `step(keys)` yields each generator's neighbour keys,
    which are read once; their state bytes are read into buffers allocated
    once per search.

    Per frontier chunk and generator, the unseen neighbours take the next
    label and are counted; the chunk is then marked done. The count needs no
    de-duplication: f -> f g is a bijection, and a key marked by an earlier
    generator or chunk no longer reads 0. A layer of under total / `_NARROW`
    keys is kept as the next frontier, unsorted; a wider one is read back
    from the state (`_frontier_chunks`). The order is the sum of the layers,
    since a generating set may generate a subgroup only."""
    state = np.zeros(total, dtype=np.uint8)
    state[0] = label = 2
    frontier = np.zeros(1, dtype=np.int64)
    layers = [1]
    seen, unseen = np.empty(_CHUNK, dtype=np.uint8), np.empty(_CHUNK, dtype=bool)
    while True:
        mark, size, parts = 5 - label, 0, []
        for keys in _frontier_chunks(frontier, state, label):
            for out in step(keys):
                # compress and take: mask indexing is several times slower;
                # "clip" lets take write to `out=` unbuffered (keys are in range)
                read = state.take(out, out=seen[: out.size], mode="clip")
                out = out.compress(np.equal(read, 0, out=unseen[: out.size]))
                state[out] = mark
                size += out.size
                if parts is not None:
                    parts.append(out)
                    if size * _NARROW >= total:
                        parts = None
            state[keys] = 1
        if size == 0:
            return layers
        layers.append(size)
        frontier = None if parts is None else np.concatenate(parts)
        label = mark


def _frontier_chunks(frontier, state, label):
    """The current layer in chunks of at most `_CHUNK` keys: slices of its
    key array, or, when `frontier` is None, the keys labelled `label` in
    each `_CHUNK`-long slab of the state array."""
    if frontier is not None:
        for lo in range(0, frontier.size, _CHUNK):
            yield frontier[lo : lo + _CHUNK]
        return
    for lo in range(0, state.size, _CHUNK):
        keys = np.flatnonzero(state[lo : lo + _CHUNK] == label)
        if keys.size:
            keys += lo
            yield keys


def _key_scratch(sizes, keys: int) -> np.ndarray:
    """Buffers for `_neighbour_keys` on up to `keys` keys: one int64 row per
    digit block and three more."""
    return np.empty((len(sizes) + 3, keys), dtype=np.int64)


def _neighbour_keys(keys, sizes, tables, nfact, scratch):
    """Per generator g, in `tables` order: the keys of f g for the keys f,
    from table lookups alone (`_key_tables`), decoded and gathered into the
    rows of `scratch` (`_key_scratch`) so that nothing is allocated. Every
    yield is the same buffer, so each must be used before the next is
    asked for."""
    rank, low, high, spare, *index = (row[: keys.size] for row in scratch)
    # remainders as x - (x // d) d: numpy's integer `//` by a scalar is a
    # few times faster than its `%`
    np.floor_divide(keys, nfact, out=high)
    np.subtract(keys, np.multiply(high, nfact, out=rank), out=rank)
    high //= sizes[0]
    np.subtract(keys, np.multiply(high, sizes[0] * nfact, out=low), out=low)
    for size, blk in zip(sizes[1:], index):
        np.floor_divide(high, size, out=spare)
        np.subtract(high, np.multiply(spare, size, out=blk), out=blk)
        blk += np.multiply(rank, size, out=high)
        high, spare = spare, high
    out = high  # high and spare are free from here on
    # "clip" lets take write to `out=` unbuffered; every index is in range
    for first, rest in tables:
        if rest is None:
            first.take(rank, out=out, mode="clip")
            out += keys
            yield out
            continue
        first.take(low, out=out, mode="clip")
        for table, i in zip(rest, index):
            out += table.take(i, out=spare, mode="clip")
        yield out


def max_centered_l1(n: int, p: int) -> int:
    """Maximum centered-l1 norm over the sum-zero hyperplane, in closed form.

    Centered values lie in [-lo, hi], hi = p // 2, lo = (p - 1) // 2. If k
    coordinates are nonnegative with sum P <= k hi and n - k nonpositive with
    sum -N, N <= (n - k) lo, then P - N = jp with |j| <= n and the norm is
    P + N = 2P - jp; the best P is min(k hi, (n - k) lo + jp) if >= max(0, jp).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    check_prime(p)
    hi, lo = p // 2, (p - 1) // 2
    best = 0
    for k in range(n + 1):
        for j in range(-n, n + 1):
            top = min(k * hi, (n - k) * lo + j * p)
            if top >= max(0, j * p):
                best = max(best, 2 * top - j * p)
    return best


def potential_lower_bound(gen: GeneratingSet) -> int:
    """Certified lower bound on the diameter of Cay(G, gen): a vector
    generator (w, 1) or its inverse adds +-w^{s^-1} to the vector part and so
    moves its centered-l1 potential by at most centered_l1(w), and permutation
    generators leave it alone, so reaching the potential maximizer takes at
    least its potential over the largest such step."""
    step = max(centered_l1(w) for w in gen.vectors)
    return max_centered_l1(gen.n, gen.p) // step
