"""The semidirect-product expansion kernel, in numpy: the frontier step of
the truncated diameter search (`semidirect._bfs_truncated`). The exact
search (`semidirect._bfs_keys`) and the catalog group table
(`semidirect.element_table`) work on table lookups and do not call it.
"""

from __future__ import annotations

import numpy as np

ACTIVE_BACKEND = "numpy"


# ----------------------------------------------------------------------
# Semidirect-product frontier expansion for BFS: all products f * g of
# frontier elements f = (vec, perm) with generators g, carrying inverse
# permutation images alongside so no inversions happen in the loop.
# Product convention: (u, s)(w, t) = (u + w^{s^{-1}}, s t).
# ----------------------------------------------------------------------

def expand_products(
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
