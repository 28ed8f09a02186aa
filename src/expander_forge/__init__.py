"""Numerical toolkit for Cayley graph expansion on the semidirect product of
the sum-zero hyperplane mod p by S_n: exponential-sum certificates, character
and dense spectra, BFS diameters, and Kazhdan-constant intervals."""

from .backend import ACTIVE_BACKEND
from .expsum import (
    SearchResult,
    SwitchCertificate,
    TailResult,
    certify,
    max_support_one,
    search_vector,
    switching_sweep,
    tail_experiment,
)
from .modp import FpVector, centered_l1, dot, ep_eval, is_prime, sample_v0
from .perm import Permutation, act, compose, inverse, orbit, random_perm, standard_generators
from .semidirect import (
    BfsResult,
    GeneratingSet,
    GroupElement,
    bfs_diameter,
    build_X,
    build_Y,
    l1_lower_bound,
    mul,
)
from .spectral import SpectrumResult, abelian_spectrum, cayley_adjacency, dense_spectrum, disjoint_union_check
from .kazhdan import KazhdanInterval, RepVector, displacement, kazhdan_interval, kazhdan_upper_opt

__version__ = "0.1.0"

__all__ = [
    "ACTIVE_BACKEND",
    "BfsResult",
    "FpVector",
    "GeneratingSet",
    "GroupElement",
    "KazhdanInterval",
    "Permutation",
    "RepVector",
    "SearchResult",
    "SpectrumResult",
    "SwitchCertificate",
    "TailResult",
    "abelian_spectrum",
    "act",
    "bfs_diameter",
    "build_X",
    "build_Y",
    "cayley_adjacency",
    "centered_l1",
    "certify",
    "compose",
    "dense_spectrum",
    "displacement",
    "disjoint_union_check",
    "dot",
    "ep_eval",
    "inverse",
    "is_prime",
    "kazhdan_interval",
    "kazhdan_upper_opt",
    "l1_lower_bound",
    "max_support_one",
    "mul",
    "orbit",
    "random_perm",
    "sample_v0",
    "search_vector",
    "standard_generators",
    "switching_sweep",
    "tail_experiment",
]
