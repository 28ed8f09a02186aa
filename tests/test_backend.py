"""Agreement between the numba and pure-numpy frontier-expansion kernels,
backend selection, and the numpy Jacobi oracle against LAPACK."""

import os
import subprocess
import sys

import numpy as np
import pytest

from expander_forge import backend
from expander_forge.rng import master_rng
from test_oracles import jacobi_eigh

needs_numba = pytest.mark.skipif(not backend.HAVE_NUMBA, reason="numba not installed")

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _subprocess_env(**overrides):
    env = dict(os.environ, **overrides)
    src = os.path.join(_REPO, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_active_backend_is_valid():
    assert backend.ACTIVE_BACKEND in ("numba", "numpy")
    if backend.HAVE_NUMBA and os.environ.get("EXPANDER_FORGE_BACKEND", "auto") == "auto":
        assert backend.ACTIVE_BACKEND == "numba"


def test_env_flag_forces_numpy():
    out = subprocess.run(
        [sys.executable, "-c",
         "from expander_forge import backend; print(backend.ACTIVE_BACKEND)"],
        capture_output=True, text=True, env=_subprocess_env(EXPANDER_FORGE_BACKEND="numpy"),
        cwd=_REPO,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numpy"


def test_env_flag_rejects_garbage():
    out = subprocess.run(
        [sys.executable, "-c", "import expander_forge.backend"],
        capture_output=True, text=True, env=_subprocess_env(EXPANDER_FORGE_BACKEND="cuda"),
        cwd=_REPO,
    )
    assert out.returncode != 0


def test_jacobi_numpy_against_lapack():
    rng = master_rng(70)
    for dim in (1, 2, 3, 10, 30):
        m = rng.standard_normal((dim, dim))
        m = (m + m.T) / 2
        w, v = jacobi_eigh(m)
        assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(m))) <= 1e-9
        assert np.max(np.abs(v @ v.T - np.eye(dim))) <= 1e-9


@needs_numba
def test_expand_kernels_agree():
    rng = master_rng(74)
    n, p = 4, 7
    perms = np.array([rng.permutation(n) for _ in range(9)])
    invs = np.empty_like(perms)
    for i, row in enumerate(perms):
        invs[i][row] = np.arange(n)
    fvec = rng.integers(0, p, (6, n))
    gvec = rng.integers(0, p, (3, n))
    args = (fvec, perms[:6], invs[:6], gvec, perms[6:], invs[6:], p)
    for x, y in zip(backend.expand_products_numba(*args),
                    backend.expand_products_numpy(*args)):
        assert np.array_equal(x, y)
