"""The semidirect product G of the sum-zero hyperplane by S_n, its standard
generating sets, single-source BFS diameters, and the centered-l1 potential
lower bound on the diameter.

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

from . import backend
from .modp import FpVector, centered_rep, check_prime
from .perm import Permutation, act, compose, inverse, orbit_span_rank, standard_generators

DEFAULT_ORDER_CAP = 5_000_000
_CHUNK = 1 << 16  # frontier keys expanded per step of the exact BFS


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


def _state_arrays(elements: Sequence[GroupElement]):
    vec = np.array([e.vec.entries for e in elements], dtype=np.int64)
    perm = np.array([e.perm.images for e in elements], dtype=np.int64)
    inv = np.array([inverse(e.perm).images for e in elements], dtype=np.int64)
    return vec, perm, inv


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


def _pack_keys(vec: np.ndarray, perms: np.ndarray, p: int) -> np.ndarray:
    """Key = (vector packed base p over its first n-1 coordinates) * n! +
    Lehmer rank. Bijective onto [0, p^(n-1) * n!) for sum-zero vectors."""
    n = vec.shape[1]
    weights = p ** np.arange(n - 1, dtype=np.int64)
    vec_index = vec[:, : n - 1] @ weights
    return vec_index * math.factorial(n) + _lehmer_ranks(perms)


def bfs_diameter(gen: GeneratingSet, order_cap: int = DEFAULT_ORDER_CAP) -> BfsResult:
    """Exact diameter of the undirected Cayley graph of the semidirect
    product on `gen` (generators and inverses).

    When the full group order fits under `order_cap`, each element is one
    packed key and a frontier step is table lookups on keys (`_bfs_keys`).
    Otherwise BFS explores until the cap is exceeded and reports the last
    completed layer as a truncated result, usable as a diameter lower bound.
    """
    if order_cap < 1:
        raise ValueError(f"order_cap must be at least 1, got {order_cap}")
    n, p = gen.n, gen.p
    total = group_order(n, p)
    gens = _expansion_generators(gen)
    if total <= order_cap:
        return _bfs_keys(gens, n, p, total)
    start = identity(n, p)
    gvec, gperm, ginv = _state_arrays(gens)
    return _bfs_truncated(start, gvec, gperm, ginv, p, order_cap)


def _key_tables(gens: Sequence[GroupElement], n: int, p: int):
    """Per generator g = (w, t): the rank table R[r] = rank(s_r t) and the
    offset table O[r] = (w^{s_r^{-1}})[:n-1] (None when w = 0), where s_r is
    the permutation of Lehmer rank r. Then (u, s_r) g has vector part
    u + O[r] and permutation rank R[r]."""
    # lexicographic order, so row r is the permutation of Lehmer rank r
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    invs = np.argsort(perms, axis=1)
    tables = []
    for g in gens:
        ranks = _lehmer_ranks(perms[:, g.perm.images])
        w = g.vec.entries
        offsets = np.ascontiguousarray(w[invs][:, : n - 1]) if w.any() else None
        tables.append((ranks, offsets))
    return tables


def _bfs_keys(gens, n, p, total) -> BfsResult:
    """BFS on keys (`_pack_keys`): the frontier is a sorted int64 key array,
    and two `total`-sized bitmaps hold the visited set and the next layer.
    The frontier is expanded in chunks, so temporaries stay bounded."""
    nfact = math.factorial(n)
    tables = _key_tables(gens, n, p)
    svec, sperm, _ = _state_arrays([identity(n, p)])
    frontier = _pack_keys(svec, sperm, p)
    visited = np.zeros(total, dtype=bool)
    reached = np.zeros(total, dtype=bool)
    visited[frontier] = True
    layers = [1]
    while True:
        for lo in range(0, frontier.size, _CHUNK):
            _mark_neighbours(frontier[lo : lo + _CHUNK], tables, n, p, nfact, reached)
        np.greater(reached, visited, out=reached)
        frontier = np.flatnonzero(reached)
        if frontier.size == 0:
            break
        visited[frontier] = True
        reached[frontier] = False
        layers.append(int(frontier.size))
    return BfsResult(
        diameter=len(layers) - 1,
        order=int(sum(layers)),
        layer_sizes=tuple(layers),
        truncated=False,
    )


def _mark_neighbours(keys, tables, n, p, nfact, reached) -> None:
    """Set reached[key of f g] for every frontier key f and table of g."""
    vec_index, rank = np.divmod(keys, nfact)
    base = vec_index * nfact
    digits = np.empty((keys.size, n - 1), dtype=np.int64)
    for i in range(n - 1):
        np.divmod(vec_index, p, out=(vec_index, digits[:, i]))
    weights = p ** np.arange(n - 1, dtype=np.int64)
    for ranks, offsets in tables:
        if offsets is None:
            out = base + ranks[rank]
        else:
            shifted = offsets[rank]
            shifted += digits
            shifted %= p
            out = shifted @ weights
            out *= nfact
            out += ranks[rank]
        reached[out] = True


def _bfs_truncated(start, gvec, gperm, ginv, p, order_cap) -> BfsResult:
    fvec, fperm, finv = _state_arrays([start])
    seen = {fvec.tobytes() + fperm.tobytes()}
    layers = [1]
    count = 1
    while True:
        nvec, nperm, ninv = backend.expand_products(fvec, fperm, finv, gvec, gperm, ginv, p)
        rows = []
        for i in range(nvec.shape[0]):
            key = nvec[i].tobytes() + nperm[i].tobytes()
            if key not in seen:
                seen.add(key)
                rows.append(i)
        if not rows:
            return BfsResult(len(layers) - 1, count, tuple(layers), truncated=False)
        count += len(rows)
        if count > order_cap:
            return BfsResult(len(layers) - 1, count - len(rows), tuple(layers), truncated=True)
        layers.append(len(rows))
        idx = np.array(rows)
        fvec, fperm, finv = nvec[idx], nperm[idx], ninv[idx]


def max_centered_l1(n: int, p: int) -> int:
    """Maximum centered-l1 norm over the sum-zero hyperplane, by dynamic
    programming over (coordinates, running sum mod p)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    check_prime(p)
    weight = np.array([abs(centered_rep(x, p)) for x in range(p)], dtype=np.int64)
    dp = np.full(p, np.iinfo(np.int64).min, dtype=np.int64)
    dp[0] = 0
    for _ in range(n):
        ndp = np.full(p, np.iinfo(np.int64).min, dtype=np.int64)
        for x in range(p):
            ndp = np.maximum(ndp, np.roll(dp, x) + weight[x])
        dp = ndp
    return int(dp[0])


def l1_lower_bound(n: int, p: int) -> int:
    """Certified lower bound on the diameter for the slow generating set.

    One application of the (1, -1, 0, ...) generator or its inverse changes
    the centered-l1 potential of the vector part by at most 2, and the
    permutation generators leave it unchanged; reaching the potential
    maximizer therefore needs at least half its potential in steps.
    """
    return max_centered_l1(n, p) // 2
