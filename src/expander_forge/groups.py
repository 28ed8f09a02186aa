"""Small finite groups as dense multiplication tables, plus the shipped
group catalog.

Groups are kept tiny (order <= 4000) so spectra and regular-representation
vectors stay dense. Elements are arbitrary hashable labels; all algorithms
work on indices into the element list. Every table is built one way: from
the order x |gens| table of right multiplication by the generators, column by
column along a BFS spanning tree (`_table_from_right`). Permutation groups
get that table while they are closed under their generators; the semidirect
product gets it from the BFS key tables (`semidirect.right_table`).

Catalog file format (one entry per line, '#' starts a comment):

    NAME perm CYCLES[; CYCLES ...]    generators in 0-based cycle notation,
                                      e.g.  S3 perm (0 1); (0 1 2)
    NAME semidirect N P               sum-zero vectors mod the prime P acted
                                      on by S_N, generated by (1,-1,0,...)
                                      together with the standard pair of S_N
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Optional, Sequence

import numpy as np

from .modp import FpVector, check_prime
from .perm import Permutation
from .semidirect import GroupElement, group_order, right_table

GROUP_ORDER_CAP = 4000
_BLOCK = 128  # side of the square blocks a table is transposed in


class FiniteGroup:
    """A finite group given by an element list and a dense index table."""

    def __init__(self, name: str, elements: Sequence, table: np.ndarray):
        self.name = name
        self.elements = list(elements)
        order = len(self.elements)
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (order, order):
            raise ValueError("table shape does not match element count")
        self.table = table
        self._index = {el: i for i, el in enumerate(self.elements)}
        if len(self._index) != order:
            raise ValueError("duplicate elements")

        idx = np.arange(order)
        ident = np.flatnonzero((table == idx).all(axis=1) & (table == idx[:, None]).all(axis=0))
        if len(ident) != 1:
            raise ValueError("table has no unique identity")
        self.identity_index = int(ident[0])
        hits = table == self.identity_index
        if not hits.any(axis=1).all():
            raise ValueError("table has non-invertible elements")
        self.inverse = hits.argmax(axis=1)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index_of(self, element) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise ValueError(f"element not in group {self.name}: {element!r}") from None

    def resolve(self, items: Sequence) -> List[int]:
        """Indices for a mixed sequence of indices and element labels."""
        out = []
        for item in items:
            if isinstance(item, (int, np.integer)):
                i = int(item)
                if not 0 <= i < self.order:
                    raise ValueError(f"index {i} out of range for {self.name}")
                out.append(i)
            else:
                out.append(self.index_of(item))
        return out

    def conjugates(self, gens: Sequence[int], by: Optional[Sequence[int]] = None) -> List[int]:
        """Sorted set {h^-1 s h : s in gens, h in by} (by defaults to all)."""
        by = np.arange(self.order) if by is None else np.asarray(by, dtype=np.int64)
        conj = self.table[self.table[self.inverse[by][:, None], list(gens)], by[:, None]]
        return sorted(set(conj.ravel().tolist()))

    def power_set(self, gens: Sequence[int], m: int) -> List[int]:
        """Sorted set of all products of exactly m generators."""
        if m < 1:
            raise ValueError("m must be positive")
        current = sorted(set(gens))
        for _ in range(m - 1):
            current = sorted(set(self.table[np.ix_(current, gens)].ravel().tolist()))
        return current

    def closure(self, gens: Sequence[int]) -> List[int]:
        """Sorted subgroup generated by gens (with inverses)."""
        seed = sorted({*gens, *self.inverse[list(gens)].tolist(), self.identity_index})
        members = np.zeros(self.order, dtype=bool)
        frontier = np.array(seed)
        while frontier.size:
            members[frontier] = True
            hits = np.bincount(self.table[np.ix_(frontier, seed)].ravel(), minlength=self.order)
            frontier = np.flatnonzero((hits > 0) & ~members)
        return np.flatnonzero(members).tolist()

    def subgroup(self, indices: Sequence[int], name: Optional[str] = None) -> "FiniteGroup":
        """The subgroup on the given (closed) index set, as its own group."""
        indices = sorted(set(indices))
        pos = np.full(self.order, -1, dtype=np.int64)
        pos[indices] = np.arange(len(indices))
        table = pos[self.table[np.ix_(indices, indices)]]
        if (table < 0).any():
            raise ValueError("index set is not closed under multiplication")
        return FiniteGroup(name or f"{self.name}-sub", [self.elements[g] for g in indices], table)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"


def _table_from_right(right: np.ndarray) -> np.ndarray:
    """The multiplication table of a group from its order x |gens| table of
    right multiplication by the generators, index 0 the identity: along a BFS
    tree, e_j = e_parent g, so column j is x e_j = right[column(parent), g].
    Columns are filled as rows, then the square is transposed in place by
    blocks, sparing a second order^2 array and a strided whole-array copy."""
    order = right.shape[0]
    by_gen = np.ascontiguousarray(right.T)
    cols = np.empty((order, order), dtype=np.int64)
    cols[0] = np.arange(order)
    reached = [True] + [False] * (order - 1)
    tree = [0]
    for i in tree:  # grows while it is walked, in BFS order
        for g, j in enumerate(right[i].tolist()):
            if not reached[j]:
                reached[j] = True
                np.take(by_gen[g], cols[i], out=cols[j], mode="clip")  # "raise" buffers out
                tree.append(j)
    if len(tree) < order:
        raise ValueError("generators do not reach every element")
    for i in range(0, order, _BLOCK):
        for j in range(i, order, _BLOCK):
            upper, lower = cols[i : i + _BLOCK, j : j + _BLOCK], cols[j : j + _BLOCK, i : i + _BLOCK]
            upper[...], lower[...] = lower.T.copy(), upper.T.copy()
    return cols


def permutation_group(name: str, gens: Sequence[tuple]) -> FiniteGroup:
    """Group generated by permutations given as image tuples, elements in
    BFS discovery order from the identity; a∘g is the tuple a[g[i]]."""
    degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValueError("generators have mixed degrees")
    elements = [tuple(range(degree))]
    index = {elements[0]: 0}
    right = []
    for a in elements:  # grows while it is walked
        if len(elements) > GROUP_ORDER_CAP:
            raise ValueError(f"closure exceeds order cap {GROUP_ORDER_CAP}")
        for g in gens:
            b = tuple(map(a.__getitem__, g))
            if b not in index:
                index[b] = len(elements)
                elements.append(b)
            right.append(index[b])
    group = FiniteGroup(name, elements, _table_from_right(np.reshape(right, (-1, len(gens)))))
    group.generator_indices = right[: len(gens)]
    return group


def semidirect_group(n: int, p: int, name: Optional[str] = None) -> FiniteGroup:
    """The full semidirect product of the sum-zero vectors mod p by S_n, in
    the element order of `semidirect.right_table`, tabulated from its right
    multiplication by the generators (1,-1,0,..) and the standard pair."""
    check_prime(p)
    if group_order(n, p) > GROUP_ORDER_CAP:
        raise ValueError(f"group order {group_order(n, p)} exceeds cap {GROUP_ORDER_CAP}")
    vec, perm, right = right_table(n, p)
    elements = [GroupElement(FpVector(u, p), Permutation(s)) for u, s in zip(vec, perm)]
    group = FiniteGroup(name or f"V0xS{n}_p{p}", elements, _table_from_right(right))
    group.generator_indices = right[0].tolist()
    return group


def semidirect_parts(group: FiniteGroup):
    """For a group built by `semidirect_group`: index sets of the vector part
    N, the permutation part H, and the generator split (vector generators,
    permutation generators), read from the table. `build_Y` lists the vector
    generator first; the orbit of (1,-1,0,..) spans N, and the standard pair
    generates H (at n = 2 T holds the transposition twice)."""
    gens = group.generator_indices
    s_gens, t_gens = gens[:1], gens[1:]
    return group.closure(group.conjugates(s_gens)), group.closure(t_gens), s_gens, t_gens


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str) -> tuple:
    """One permutation from 0-based cycle notation, e.g. '(0 1)(2 3)'."""
    cycles = []
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty permutation")
    leftover = _CYCLE_RE.sub("", stripped).strip()
    if leftover:
        raise ValueError(f"unparsable cycle notation: {text!r}")
    seen = set()
    for body in _CYCLE_RE.findall(stripped):
        points = [int(tok) for tok in body.replace(",", " ").split()]
        if len(points) != len(set(points)) or any(x < 0 for x in points):
            raise ValueError(f"invalid cycle: ({body})")
        repeated = seen.intersection(points)
        if repeated:
            raise ValueError(f"point {min(repeated)} appears in two cycles: {text!r}")
        seen.update(points)
        cycles.append(points)
    degree = max((max(c) for c in cycles if c), default=-1) + 1
    images = list(range(degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            images[a] = b
    return tuple(images)


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog line: a named group plus its generating set."""

    name: str
    kind: str
    cycle_specs: tuple = ()
    n: int = 0
    p: int = 0

    def build(self) -> FiniteGroup:
        """The group; order 1 is refused, having no gap to bound."""
        if self.kind == "perm":
            parsed = [parse_cycles(spec) for spec in self.cycle_specs]
            degree = max(len(g) for g in parsed)
            gens = [g + tuple(range(len(g), degree)) for g in parsed]
            group = permutation_group(self.name, gens)
        elif self.kind == "semidirect":
            group = semidirect_group(self.n, self.p, name=self.name)
        else:
            raise ValueError(f"unknown catalog kind {self.kind!r}")
        if group.order < 2:
            raise ValueError(f"group {self.name} has order {group.order}; need order >= 2")
        return group


def parse_catalog(text: str) -> List[CatalogEntry]:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            name, kind, payload = line.split(None, 2)
        except ValueError:
            raise ValueError(f"catalog line {lineno}: expected 'NAME KIND PAYLOAD'") from None
        if kind == "perm":
            specs = tuple(s.strip() for s in payload.split(";") if s.strip())
            if not specs:
                raise ValueError(f"catalog line {lineno}: no generators")
            entries.append(CatalogEntry(name=name, kind="perm", cycle_specs=specs))
        elif kind == "semidirect":
            try:
                n, p = map(int, payload.split())
            except ValueError:
                raise ValueError(f"catalog line {lineno}: semidirect needs integers N and P") from None
            if n < 2:
                raise ValueError(f"catalog line {lineno}: semidirect needs N >= 2, got {n}")
            entries.append(CatalogEntry(name=name, kind="semidirect", n=n, p=p))
        else:
            raise ValueError(f"catalog line {lineno}: unknown kind {kind!r}")
    names = [e.name for e in entries]
    if len(names) != len(set(names)):
        raise ValueError("duplicate catalog names")
    return entries


def load_catalog(text: Optional[str] = None) -> Dict[str, CatalogEntry]:
    """Entries of the shipped catalog, or of the given catalog text."""
    if text is None:
        text = resources.files("expander_forge").joinpath("catalog.txt").read_text(encoding="utf-8")
    return {entry.name: entry for entry in parse_catalog(text)}
