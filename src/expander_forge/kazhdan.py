"""Kazhdan-constant machinery on small finite groups.

The Kazhdan constant kappa(G, S) is an infimum over all unitary
representations without invariant vectors, which is not directly computable.
Everything here therefore works with two sound surrogates:

  * certified intervals [sqrt(2 gap), sqrt(2 |S| gap)] from the exact
    spectral gap of Cay(G, S), the classical sandwich between gap and kappa;
  * explicit-vector upper bounds from minimizing the worst generator
    displacement over unit mean-zero vectors of the regular representation
    (any vector found is a certificate, however rough the optimizer).

Inequalities between Kazhdan constants are then checked at the interval
level as non-falsification: a proven "LHS >= c * RHS" can only be
contradicted if upper(LHS) < c * lower(RHS), and such a contradiction fails
the suite loudly. Interval looseness can never create a false alarm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import blas
from .groups import FiniteGroup
from .modp import refuse_past_budget
from .rng import master_rng, task_rng
from .spectral import cayley_adjacency, cayley_spectrum

OPT_ORDER_CAP = 2000
# (restarts + 1) x iters x (|S| x order + 16) past which the optimizer refuses: 10-20 ns
# a unit, 16 units a row and step for the per-row bookkeeping that dominates at small
# orders, so about 40 s at most (2-core Xeon)
OPT_MAX_WORK = 2 * 10**9
# float64 entries in one row block of the optimizer's difference array (8 MiB)
_OPT_BLOCK_ENTRIES = 2**20
SEMIDIRECT_CHAIN_CONSTANT = math.sqrt(2.0) / 48.0
SLACK = 1e-9


@dataclass(frozen=True)
class RepVector:
    """Vector in the regular representation, flagged if it lives in the
    mean-zero subspace (which has no invariant vectors)."""

    coords: np.ndarray
    mean_zero: bool

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=np.float64)
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)
        if abs(np.linalg.norm(coords) - 1.0) > 1e-12:
            raise ValueError("coords must be unit norm")
        if self.mean_zero and abs(coords.sum()) > 1e-10:
            raise ValueError("mean-zero flag set but coordinates do not sum to zero")

    @classmethod
    def normalized(cls, coords: np.ndarray, mean_zero: bool = False) -> "RepVector":
        coords = np.asarray(coords, dtype=np.float64).copy()
        if mean_zero:
            coords -= coords.mean()
        norm = np.linalg.norm(coords)
        if norm < 1e-15:
            raise ValueError("cannot normalize a (near-)zero vector")
        return cls(coords / norm, mean_zero)


@dataclass(frozen=True)
class KazhdanInterval:
    """Certified enclosure of kappa(G, S). `generating` is False for a set
    that generates a proper subgroup, whose interval is [0, 0] with gap 0."""

    lower: float
    upper: float
    source: str
    gap: float
    generating: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper <= 2.0 + 1e-12:
            raise ValueError(f"invalid interval [{self.lower}, {self.upper}]")


@dataclass
class CheckResult:
    name: str
    passed: bool
    lhs: Optional[float] = None
    rhs: Optional[float] = None
    detail: str = ""


@dataclass
class VerificationReport:
    group: str
    title: str
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> List[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _regular_action(group: FiniteGroup, indices: Sequence[int]) -> np.ndarray:
    """Row j is the index map g -> s_j^-1 g, so x[row] applies the left
    regular representation of s_j to x."""
    return group.table[group.inverse[np.asarray(indices, dtype=np.int64)], :]


def kazhdan_interval(group: FiniteGroup, gens: Sequence) -> KazhdanInterval:
    """Sandwich interval from the exact spectral gap of Cay(group, gens).

    gap <= kappa^2/2 gives the lower end, kappa^2/(2|S|) <= gap the upper;
    the upper end is clamped at the universal bound 2. A set that `closure`
    shows not to generate gets [0, 0] without an eigensolve; a generating
    set whose solved gap is <= 1e-12 raises ArithmeticError.
    """
    gen_list = group.resolve(list(gens))
    if not gen_list or len(group.closure(gen_list)) < group.order:
        return KazhdanInterval(0.0, 0.0, "sandwich", gap=0.0, generating=False)
    gap = cayley_spectrum(group, gen_list).gap
    if gap <= 1e-12:
        raise ArithmeticError(f"generating set of {group.name} has solved gap {gap:.3e}")
    lower = math.sqrt(2.0 * gap)
    upper = min(2.0, math.sqrt(2.0 * len(gen_list) * gap))
    return KazhdanInterval(min(lower, upper), upper, "sandwich", gap=gap)


def _worst_displacement(x: np.ndarray, act: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of x: the largest generator displacement ||x[act[j]] - x||,
    the first j attaining it and the difference x[act[j]] - x, from one
    (rows, |S|, order) difference array."""
    diffs = x[:, act] - x[:, None, :]
    norms = np.sqrt(np.square(diffs).sum(axis=2))
    j = norms.argmax(axis=1)
    rows = np.arange(len(x))
    return norms[rows, j], j, diffs[rows, j]


def _project_rows(x: np.ndarray) -> np.ndarray:
    """Each row minus its mean, scaled to unit norm. A row that projects to
    (near) zero is replaced by the projected first basis vector. The row
    norm is `vecdot`, which is bitwise equal to `np.linalg.norm` of the row."""
    x = x - x.mean(axis=1, keepdims=True)
    norm = np.sqrt(np.vecdot(x, x))
    flat = norm < 1e-15
    if flat.any():
        e0 = np.zeros(x.shape[1])
        e0[0] = 1.0
        e0 -= e0.mean()
        x[flat] = e0
        norm[flat] = np.linalg.norm(e0)
    return x / norm[:, None]


def _descend(x0: np.ndarray, act: np.ndarray, trans: np.ndarray, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Projected subgradient descent from every row of x0 in lockstep: the
    best displacement each row reached and the vector reaching it.

    A row whose displacement drops below 1e-15 is invariant under every
    generator; it leaves the live set and its best value stays frozen."""
    x = _project_rows(x0)
    fx, j, d = _worst_displacement(x, act)
    best_val, best_x = fx.copy(), x.copy()
    rows = np.arange(len(x))
    for it in range(iters):
        live = fx >= 1e-15
        if not live.all():
            rows, x, fx, j, d = rows[live], x[live], fx[live], j[live], d[live]
            if not rows.size:
                break
        grad = (d[np.arange(len(d))[:, None], trans[j]] - d) / fx[:, None]
        x = _project_rows(x - (0.1 / math.sqrt(it + 1.0)) * grad)
        fx, j, d = _worst_displacement(x, act)
        better = fx < best_val[rows]
        best_val[rows[better]] = fx[better]
        best_x[rows[better]] = x[better]
    return best_val, best_x


def kazhdan_upper_opt(
    group: FiniteGroup,
    gens: Sequence,
    restarts: int = 20,
    iters: int = 500,
    seed: int = 0,
) -> tuple[float, RepVector]:
    """Upper bound on the mean-zero regular-representation displacement
    infimum, by projected subgradient descent on the unit sphere.

    Any returned value is a certified upper bound (it is the displacement of
    an explicit vector); optimizer quality only affects tightness. Besides
    the random restarts, one start is the second eigenvector of the
    normalized adjacency, which already achieves sqrt(2 |S| gap). All starts
    descend together, in row blocks that keep the (rows, |S|, order)
    difference array under _OPT_BLOCK_ENTRIES; the first strict minimum wins.
    Raises ValueError, before any eigensolve, past `OPT_MAX_WORK`.
    """
    if restarts < 0:
        raise ValueError(f"need restarts >= 0, got {restarts}")
    if group.order < 2:
        raise ValueError(f"need group order >= 2, got {group.order}: no unit mean-zero vector")
    if group.order > OPT_ORDER_CAP:
        raise ValueError(f"optimizer guarded at order {OPT_ORDER_CAP}")
    gen_indices = group.resolve(list(gens))
    if not gen_indices:
        raise ValueError("generator list is empty")
    if (restarts + 1) * iters * (len(gen_indices) * group.order + 16) > OPT_MAX_WORK:
        raise ValueError("optimizer guarded at (restarts + 1) * iters * (|S| * order + 16) "
                         f"<= {OPT_MAX_WORK}")
    act = _regular_action(group, gen_indices)
    trans = group.table[np.asarray(gen_indices, dtype=np.int64), :]
    # eigenvector of the second-largest eigenvalue (eigh sorts ascending)
    adjacency = cayley_adjacency(group, gen_indices)
    adjacency /= 2.0 * len(gen_indices)
    with blas.all_cores(group.order > blas.DENSE_DIM):
        _, eigvecs = np.linalg.eigh(adjacency)

    def start(r: int) -> np.ndarray:
        if r < restarts:
            return task_rng(seed, r).standard_normal(group.order)
        return eigvecs[:, -2]

    starts = restarts + 1
    block = max(1, _OPT_BLOCK_ENTRIES // (len(gen_indices) * group.order))
    best_val, best_x = math.inf, None
    for lo in range(0, starts, block):
        vals, xs = _descend(np.array([start(r) for r in range(lo, min(lo + block, starts))]),
                            act, trans, iters)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_x = float(vals[i]), xs[i]
    return best_val, RepVector.normalized(best_x, mean_zero=True)


def verify_basic_bounds(group: FiniteGroup, gens: Sequence) -> VerificationReport:
    """Interval-level checks of the elementary Kazhdan-constant facts:
    monotonicity in the generating set and the 1/2 loss under the product
    set S^2. Two facts need no row. The universal upper bound 2:
    `kazhdan_interval` clamps at it and `KazhdanInterval` refuses past it.
    The sqrt(2) lower bound for S = G: Cay(G, G) is 2J on every group table
    (J the all-ones matrix), so its gap is 1 up to eigensolver rounding."""
    gen_indices = group.resolve(list(gens))
    report = VerificationReport(group=group.name, title="basic-bounds")
    base = kazhdan_interval(group, gen_indices)

    squared = group.power_set(gen_indices, 2)
    big = kazhdan_interval(group, sorted(set(gen_indices) | set(squared)))
    report.checks.append(
        CheckResult(
            "monotone_in_generators",
            passed=base.lower <= big.upper + SLACK,
            lhs=base.lower,
            rhs=big.upper,
            detail="lower(S) <= upper(T) for S within T = S plus pairwise products",
        )
    )

    powered = kazhdan_interval(group, squared)
    report.checks.append(
        CheckResult(
            "power_set_comparison",
            passed=base.upper >= powered.lower / 2 - SLACK,
            lhs=base.upper,
            rhs=powered.lower / 2,
            detail="upper(S) >= lower(S^2) / 2",
        )
    )
    return report


def _audit_bytes(order: int, trials: int) -> int:
    """Estimated peak memory of `verify_almost_invariant_projection` plus a
    flat 1 MiB: the dense gap's two order^2 float64 matrices, or the audit's
    24 bytes per trial and element and 64 per trial, whichever is larger."""
    return max(16 * order * order, trials * (24 * order + 64)) + (1 << 20)


def verify_almost_invariant_projection(
    group: FiniteGroup,
    gens: Sequence,
    trials: int = 1000,
    seed: int = 0,
) -> VerificationReport:
    """Random-vector audit in the full regular representation: a vector whose
    generator displacement is eps sits within eps/kappa of the constants.

    kappa is replaced by its certified lower bound sqrt(2 gap), which only
    loosens the claim, so a violation would be a genuine falsification. The
    generators' rows of `_regular_action` give every displacement the claim
    reads; MemoryError up front past `_audit_bytes`.
    """
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    refuse_past_budget(_audit_bytes(group.order, trials), "the projection audit")
    gen_indices = group.resolve(list(gens))
    interval = kazhdan_interval(group, gen_indices)
    if not interval.generating:
        raise ValueError(f"generators do not generate {group.name}")
    kappa_lb = interval.lower

    rng = master_rng(seed)
    xis = rng.standard_normal((trials, group.order))
    xis /= np.linalg.norm(xis, axis=1, keepdims=True)

    resid_norm = np.linalg.norm(xis - xis.mean(axis=1, keepdims=True), axis=1)

    eps = np.zeros(trials)
    for row in _regular_action(group, gen_indices):
        eps = np.maximum(eps, np.linalg.norm(xis[:, row] - xis, axis=1))

    proj_margin = eps / kappa_lb * (1.0 + SLACK) + 1e-12 - resid_norm

    report = VerificationReport(group=group.name, title="almost-invariant-projection")
    report.checks.append(
        CheckResult(
            "projection_distance",
            passed=bool(proj_margin.min() >= 0.0),
            lhs=float(resid_norm.max()),
            rhs=float((eps / kappa_lb).max()),
            detail=f"{trials} random unit vectors, worst margin {proj_margin.min():.3e}",
        )
    )
    return report


def verify_inequality_chain(
    group: FiniteGroup,
    normal_indices: Sequence[int],
    complement_indices: Sequence[int],
    vector_gens: Sequence[int],
    perm_gens: Sequence[int],
) -> VerificationReport:
    """Non-falsification of the factor inequalities for G = N x| H with
    S inside N and T inside H.

      semidirect:  kappa(G, S u T) >= (sqrt2/48) kappa(N, S^H) kappa(H, T)
      subgroup:    kappa(G, R) >= 1/2 kappa(G, R u H) kappa(H, R n H)
      quotient:    kappa(G, T u N) >= 1/4 kappa(G/N, TN/N)

    Their vectors-only instantiations need no rows: S n H lies in N n H = {e},
    so each right-hand side carries kappa(H, {e}) = 0. G/N is read on H
    through the isomorphism h -> hN, which maps T onto TN/N.
    """
    n_set = sorted(set(normal_indices))
    h_set = sorted(set(complement_indices))
    s_gens = list(vector_gens)
    t_gens = list(perm_gens)

    if group.closure(n_set) != n_set:
        raise ValueError("normal part is not a subgroup")
    if group.conjugates(n_set) != n_set:  # some g^-1 N g leaves N
        raise ValueError("normal part is not normal")
    if group.closure(h_set) != h_set:
        raise ValueError("complement part is not a subgroup")
    if len(n_set) * len(h_set) != group.order:
        raise ValueError("orders do not multiply to the group order")
    if set(n_set) & set(h_set) != {group.identity_index}:
        raise ValueError("parts intersect beyond the identity")
    if any(g not in n_set for g in s_gens):
        raise ValueError("vector generators must lie in the normal part")
    if any(g not in h_set for g in t_gens):
        raise ValueError("permutation generators must lie in the complement part")

    # a subgroup keeps its members in sorted order: g sits at searchsorted(set, g)
    n_sub = group.subgroup(n_set, name=f"{group.name}-N")
    h_sub = group.subgroup(h_set, name=f"{group.name}-H")

    r_gens = sorted(set(s_gens) | set(t_gens))
    conj = group.conjugates(s_gens, by=h_set)
    report = VerificationReport(group=group.name, title="inequality-chain")

    def nonfalsified(name: str, lhs: KazhdanInterval, constant: float,
                     factors: List[KazhdanInterval], detail: str) -> None:
        rhs = math.prod((f.lower for f in factors), start=constant)
        report.checks.append(CheckResult(name, passed=lhs.upper >= rhs - SLACK, lhs=lhs.upper,
                                         rhs=rhs, detail=detail))

    i_g_r = kazhdan_interval(group, r_gens)
    i_n_conj = kazhdan_interval(n_sub, np.searchsorted(n_set, conj))
    i_h_t = kazhdan_interval(h_sub, np.searchsorted(h_set, t_gens))
    nonfalsified("semidirect_product_bound", i_g_r, SEMIDIRECT_CHAIN_CONSTANT, [i_n_conj, i_h_t],
                 "kappa(G, R) against (sqrt2/48) * kappa(N, S^H) * kappa(H, T)")

    i_g_r_h = kazhdan_interval(group, sorted(set(r_gens) | set(h_set)))
    r_cap_h = sorted(set(r_gens) & set(h_set))
    i_h_rh = kazhdan_interval(h_sub, np.searchsorted(h_set, r_cap_h))
    nonfalsified("subgroup_factorization", i_g_r, 0.5, [i_g_r_h, i_h_rh],
                 "kappa(G, R) against 1/2 * kappa(G, R u H) * kappa(H, R n H)")

    i_g_t_n = kazhdan_interval(group, sorted(set(t_gens) | set(n_set)))
    nonfalsified("quotient_lift", i_g_t_n, 0.25, [i_h_t],
                 "kappa(G, T u N) against 1/4 * kappa(G/N, TN/N)")
    return report
