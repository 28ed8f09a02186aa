"""The semidirect product G of the sum-zero hyperplane by S_n, its standard
generating sets, its multiplication table as arrays, single-source BFS
diameters, and the centered-l1 potential lower bound on the diameter.

Multiplication convention, fixed once and pinned by the associativity
property tests: (u, s)(w, t) = (u + w^{s^{-1}}, s t), with w^s the coordinate
action from `perm`. Every graph-level output (connectivity, diameter,
spectra) is invariant under this choice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .expsum import enumerate_v0
from .modp import FpVector, centered_l1, check_prime
from .perm import Permutation, act, compose, inverse, orbit_span_rank, standard_generators

DEFAULT_ORDER_CAP = 5_000_000
_CHUNK = 1 << 16  # frontier keys per BFS step


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


def identity(n: int, p: int) -> GroupElement:
    return GroupElement(FpVector.zero(n, p), Permutation.identity(n))


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """(u, s)(w, t) = (u + w^{s^{-1}}, s t)."""
    if a.n != b.n or a.p != b.p:
        raise ValueError("elements live in different groups")
    shifted = act(b.vec, inverse(a.perm))
    return GroupElement(
        FpVector((a.vec.entries + shifted.entries) % a.p, a.p),
        compose(a.perm, b.perm),
    )


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


def unimaginative_vector(n: int, p: int) -> FpVector:
    """(1, -1, 0, ..., 0), the short sum-zero vector behind the slow set."""
    entries = np.zeros(n, dtype=np.int64)
    entries[0], entries[1] = 1, p - 1
    return FpVector(entries, p)


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


def build_X(
    n: int,
    p: int,
    cert,
    perms: Optional[Sequence[Permutation]] = None,
) -> GeneratingSet:
    """The fast generating set: a certified vector plus a generating set of
    S_n (the standard pair by default at desk scale). The certificate's
    vector must have a spanning orbit."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    check_prime(p)
    v = cert.v
    if v.n != n or v.p != p:
        raise ValueError("certificate dimensions do not match (n, p)")
    if orbit_span_rank(v) != n - 1:
        raise ValueError("certified vector's orbit does not span the hyperplane")
    if perms is None:
        perms = standard_generators(n)
    return GeneratingSet(vectors=(v,), perms=tuple(perms), label="X", n=n, p=p)


@dataclass(frozen=True)
class BfsResult:
    """Single-source BFS summary. Cayley graphs are vertex-transitive, so the
    eccentricity of the identity equals the diameter; layer_sizes is the
    per-distance census of elements."""

    diameter: int
    order: int
    layer_sizes: tuple
    truncated: bool


def _expansion_generators(gen: GeneratingSet):
    """Generators and their inverses, deduplicated: the BFS metric is
    unchanged by multiplicities or by adding explicit inverses."""
    seen = {}
    for e in gen.elements:
        seen[e] = None
        seen[elem_inverse(e)] = None
    return list(seen)


def _lehmer_ranks(perms: np.ndarray) -> np.ndarray:
    """Lexicographic rank of each permutation row, vectorized."""
    k, n = perms.shape
    smaller_after = (perms[:, :, None] > perms[:, None, :]) & (
        np.arange(n)[None, :, None] < np.arange(n)[None, None, :]
    )
    digits = smaller_after.sum(axis=2)
    weights = np.array([math.factorial(n - 1 - i) for i in range(n)], dtype=np.int64)
    return digits @ weights


def _lex_permutations(n: int) -> np.ndarray:
    """S_n in lexicographic order, one image row each: row r has Lehmer rank r."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def element_table(n: int, p: int):
    """Vector rows, permutation rows and multiplication table of the whole
    group, elements in lexicographic order (vector first, first coordinate
    slowest): element a n! + r is (row a, s_r), s_r of Lehmer rank r. The
    product (u, s)(w, t) = (u + w^{s^{-1}}, s t) is located through three
    tables: the rank of s t in the n! x n! composition table, the row of
    w^{s^{-1}} in a p^(n-1) x n! table, and the row of a sum of rows in the
    p^(n-1) x p^(n-1) addition table."""
    rows = enumerate_v0(n, p)
    rows = rows[np.lexsort(rows.T[::-1])]
    perms = _lex_permutations(n)
    nfact, size = perms.shape[0], rows.shape[0]
    vec = np.repeat(rows, nfact, axis=0)
    perm = np.tile(perms, (size, 1))
    place = p ** np.arange(n - 2, -1, -1, dtype=np.int64)  # row index, base p
    head = rows[:, : n - 1]
    addition = (head[:, None, :] + head[None, :, :]) % p @ place
    shifted = rows[:, np.argsort(perms, axis=1)][:, :, : n - 1] @ place
    composition = _lehmer_ranks(perms[:, perms].reshape(-1, n)).reshape(nfact, nfact)
    # table[(a, b), (c, d)] = addition[a, shifted[c, b]] n! + composition[b, d]
    table = np.repeat(addition[:, shifted.T] * nfact, nfact, axis=2)
    table += np.tile(composition, size)
    return vec, perm, table.reshape(size * nfact, size * nfact)


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
    Lehmer rank r of s_r; it is a bijection onto [0, p^(n-1) n!).

    The key splits into low = k mod (P_0 n!), which holds the first digit
    block and r, and the higher blocks blk_j. For w = 0 the entry is
    (D, None) with D[r] = rank(s_r t) - r, and the neighbour is k + D[r].
    Otherwise it is (A, (B_1, ...)): A[low] is the first block's digits plus
    those of w^{s_r^{-1}}, mod p digit by digit, times n!, plus rank(s_r t);
    B_j[r P_j + blk_j] is block j's new digits at their place value, times
    n!; the neighbour is A[low] + sum_j B_j[r P_j + blk_j]."""
    nfact = math.factorial(n)
    perms = _lex_permutations(n)
    invs = np.argsort(perms, axis=1)
    blocks = _digit_blocks(n, p)
    sizes = [p**b for b in blocks]
    tables = []
    for g in gens:
        ranks = _lehmer_ranks(perms[:, g.perm.images])
        w = g.vec.entries
        if not w.any():
            tables.append((ranks - np.arange(nfact), None))
            continue
        offsets = w[invs]
        parts, first = [], 0
        for b, size in zip(blocks, sizes):
            grid = np.arange(size, dtype=np.int64)
            new = np.zeros((nfact, size), dtype=np.int64)
            for i in range(first, first + b):
                digit = grid // p ** (i - first) % p
                new += (digit + offsets[:, i, None]) % p * (p**i * nfact)
            parts.append(new)
            first += b
        parts[0] += ranks[:, None]
        tables.append((parts[0].T.ravel(), tuple(t.ravel() for t in parts[1:])))
    return sizes, tables


_KEY_TABLE_BYTES = 1 << 30  # estimated key-table memory above which the BFS refuses


def _check_key_budget(gens, n: int, p: int, total: int) -> None:
    """Refuse, by MemoryError and before any table is built, a group whose
    keys do not fit int64 or whose key tables would take more than
    `_KEY_TABLE_BYTES`. The estimate counts the n!-row permutation array, the
    n! x n x n comparison temporaries of `_lehmer_ranks`, and n! P_j int64
    entries per digit block j and vector generator."""
    if total >= 1 << 63:
        raise MemoryError(f"group order p^(n-1) n! = 2^{math.log2(total):.1f} "
                          "does not fit int64 keys (limit 2^63)")
    vectors = sum(1 for g in gens if g.vec.entries.any())
    entries = sum(p**b for b in _digit_blocks(n, p)) * vectors
    need = math.factorial(n) * (8 * n + 2 * n * n + 8 * entries)
    if need > _KEY_TABLE_BYTES:
        raise MemoryError(f"key tables need about {need / 2**30:.1f} GiB "
                          f"(limit {_KEY_TABLE_BYTES / 2**30:.0f} GiB)")


def bfs_diameter(gen: GeneratingSet, order_cap: int = DEFAULT_ORDER_CAP) -> BfsResult:
    """Diameter of the undirected Cayley graph of the semidirect product on
    `gen` (generators and inverses), by BFS from the identity on int64 keys:
    a frontier step is table lookups (`_key_tables`), in chunks of `_CHUNK`
    keys so temporaries stay bounded.

    When the group order fits under `order_cap`, two order-sized bitmaps hold
    the visited set and the next layer, and the result is exact. Otherwise
    only the last two layers are kept, as sorted key arrays, and the search
    stops before the layer that would take it past the cap; the completed
    layers are reported as a truncated result, a diameter lower bound.
    Raises MemoryError up front for groups `_check_key_budget` refuses.
    """
    if order_cap < 1:
        raise ValueError(f"order_cap must be at least 1, got {order_cap}")
    n, p = gen.n, gen.p
    total = group_order(n, p)
    gens = _expansion_generators(gen)
    _check_key_budget(gens, n, p, total)
    sizes, tables = _key_tables(gens, n, p)
    nfact = math.factorial(n)
    bitmaps = None  # (visited, reached) when the whole group fits under the cap
    if total <= order_cap:
        visited = np.zeros(total, dtype=bool)
        visited[0] = True
        bitmaps = visited, np.zeros(total, dtype=bool)
    # the identity's key; it also stands in for the empty layer before it
    previous = frontier = np.zeros(1, dtype=np.int64)
    layers, count = [1], 1
    while True:
        chunks = (_neighbour_keys(frontier[lo : lo + _CHUNK], sizes, tables, nfact)
                  for lo in range(0, frontier.size, _CHUNK))
        if bitmaps is None:
            new = _sorted_layer(chunks, frontier, previous)
            previous = frontier
        else:
            new = _bitmap_layer(chunks, *bitmaps)
        if new.size == 0 or count + new.size > order_cap:
            break
        layers.append(int(new.size))
        count += new.size
        frontier = new
    return BfsResult(len(layers) - 1, count, tuple(layers), truncated=new.size > 0)


def _bitmap_layer(chunks, visited, reached):
    """The next layer's keys, sorted: the neighbour keys in `chunks` marked in
    `reached`, less the `visited` set, which then takes them in."""
    for outs in chunks:
        for out in outs:
            reached[out] = True
    np.greater(reached, visited, out=reached)
    new = np.flatnonzero(reached)
    visited[new] = True
    reached[new] = False
    return new


def _sorted_layer(chunks, frontier, previous):
    """The next layer's keys, sorted, from the last two layers alone. The
    expansion generators are closed under inverses, so every neighbour of
    layer d lies in layer d - 1, d or d + 1: the new keys are the neighbour
    keys in `chunks` outside `frontier` (layer d) and `previous` (d - 1).
    Each chunk is reduced on its own, and only several chunks are merged."""
    parts = []
    for outs in chunks:
        keys = _sorted_unique(np.concatenate(list(outs)))
        parts.append(keys[_absent(keys, frontier) & _absent(keys, previous)])
    return parts[0] if len(parts) == 1 else _sorted_unique(np.concatenate(parts))


def _sorted_unique(keys):
    """The distinct keys, sorted: a sort and an adjacent compare, which on
    int64 keys is many times faster than np.unique."""
    keys = np.sort(keys)
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _absent(keys, table):
    """Mask of the keys not in the sorted, nonempty key array `table`."""
    at = np.searchsorted(table, keys)
    np.minimum(at, table.size - 1, out=at)
    return table[at] != keys


def _neighbour_keys(keys, sizes, tables, nfact):
    """Per generator g, in `tables` order: the keys of f g for the keys f,
    from table lookups alone (`_key_tables`)."""
    # remainders as x - (x // d) d: numpy's integer `//` by a scalar is a
    # few times faster than its `%`
    high = keys // nfact
    rank = keys - high * nfact
    high //= sizes[0]
    low = keys - high * (sizes[0] * nfact)
    index = []
    for size in sizes[1:]:
        blk, high = high, high // size
        blk -= high * size
        blk += rank * size
        index.append(blk)
    for first, rest in tables:
        if rest is None:
            yield keys + first[rank]
            continue
        out = first[low]
        for table, i in zip(rest, index):
            out += table[i]
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


def l1_lower_bound(n: int, p: int) -> int:
    """`potential_lower_bound` for the slow generating set, whose step
    (1, -1, 0, ...) has centered-l1 norm 2."""
    return potential_lower_bound(build_Y(n, p))
