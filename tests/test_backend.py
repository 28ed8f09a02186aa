"""The backend stamp, and the numpy Jacobi oracle against LAPACK."""

import os
import subprocess
import sys

import numpy as np

from expander_forge import backend
from expander_forge.rng import master_rng
from test_oracles import jacobi_eigh

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _subprocess_env(**overrides):
    env = dict(os.environ, **overrides)
    src = os.path.join(_REPO, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_active_backend_is_valid():
    assert backend.ACTIVE_BACKEND == "numpy"


def test_env_flag_forces_numpy():
    out = subprocess.run(
        [sys.executable, "-c",
         "from expander_forge import backend; print(backend.ACTIVE_BACKEND)"],
        capture_output=True, text=True, env=_subprocess_env(EXPANDER_FORGE_BACKEND="numpy"),
        cwd=_REPO,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numpy"


def test_jacobi_numpy_against_lapack():
    rng = master_rng(70)
    for dim in (1, 2, 3, 10, 30):
        m = rng.standard_normal((dim, dim))
        m = (m + m.T) / 2
        w, v = jacobi_eigh(m)
        assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(m))) <= 1e-9
        assert np.max(np.abs(v @ v.T - np.eye(dim))) <= 1e-9
