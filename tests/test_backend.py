"""The backend stamp, and the numpy Jacobi oracle against LAPACK."""

import numpy as np

from expander_forge import backend
from expander_forge.rng import master_rng
from test_oracles import jacobi_eigh


def test_active_backend_is_valid():
    assert backend.ACTIVE_BACKEND == "numpy"


def test_jacobi_numpy_against_lapack():
    rng = master_rng(70)
    for dim in (1, 2, 3, 10, 30):
        m = rng.standard_normal((dim, dim))
        m = (m + m.T) / 2
        w, v = jacobi_eigh(m)
        assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(m))) <= 1e-9
        assert np.max(np.abs(v @ v.T - np.eye(dim))) <= 1e-9
