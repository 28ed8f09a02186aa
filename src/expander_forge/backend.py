"""The BFS frontier-expansion kernel, with a numba fast path and a
pure-numpy fallback.

Selection is by the environment variable EXPANDER_FORGE_BACKEND:

    auto   (default) use numba when importable, else numpy
    numba  require numba, fail loudly if missing
    numpy  force the pure-numpy implementation

Both implementations are importable directly (`expand_products_numpy` /
`expand_products_numba`) so the agreement tests can compare them in one
process; `expand_products` is the selected alias used by the rest of the
package. The two produce identical integer arrays in identical row order.
"""

from __future__ import annotations

import os

import numpy as np

_REQUESTED = os.environ.get("EXPANDER_FORGE_BACKEND", "auto").lower()
if _REQUESTED not in ("auto", "numba", "numpy"):
    raise RuntimeError(
        f"EXPANDER_FORGE_BACKEND must be auto, numba or numpy, got {_REQUESTED!r}"
    )

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:
    njit = None
    HAVE_NUMBA = False

if _REQUESTED == "numba" and not HAVE_NUMBA:
    raise RuntimeError("EXPANDER_FORGE_BACKEND=numba but numba is not importable")

ACTIVE_BACKEND = "numpy" if (_REQUESTED == "numpy" or not HAVE_NUMBA) else "numba"


# ----------------------------------------------------------------------
# Semidirect-product frontier expansion for BFS: all products f * g of
# frontier elements f = (vec, perm) with generators g, carrying inverse
# permutation images alongside so no inversions happen in the loop.
# Product convention: (u, s)(w, t) = (u + w^{s^{-1}}, s t).
# ----------------------------------------------------------------------

def expand_products_numpy(
    fvec: np.ndarray,
    fperm: np.ndarray,
    finv: np.ndarray,
    gvec: np.ndarray,
    gperm: np.ndarray,
    ginv: np.ndarray,
    p: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    nf, n = fvec.shape
    m = gvec.shape[0]
    shifted = gvec[:, finv].transpose(1, 0, 2)
    nvec = (fvec[:, None, :] + shifted) % p
    nperm = fperm[:, gperm]
    ninv = ginv[:, finv].transpose(1, 0, 2)
    size = nf * m
    return (
        np.ascontiguousarray(nvec.reshape(size, n)),
        np.ascontiguousarray(nperm.reshape(size, n)),
        np.ascontiguousarray(ninv.reshape(size, n)),
    )


if HAVE_NUMBA:

    @njit(cache=True)
    def expand_products_numba(fvec, fperm, finv, gvec, gperm, ginv, p):  # pragma: no cover
        nf, n = fvec.shape
        m = gvec.shape[0]
        nvec = np.empty((nf * m, n), dtype=np.int64)
        nperm = np.empty((nf * m, n), dtype=np.int64)
        ninv = np.empty((nf * m, n), dtype=np.int64)
        k = 0
        for f in range(nf):
            for g in range(m):
                for i in range(n):
                    nvec[k, i] = (fvec[f, i] + gvec[g, finv[f, i]]) % p
                    nperm[k, i] = fperm[f, gperm[g, i]]
                    ninv[k, i] = ginv[g, finv[f, i]]
                k += 1
        return nvec, nperm, ninv


expand_products = expand_products_numba if ACTIVE_BACKEND == "numba" else expand_products_numpy
