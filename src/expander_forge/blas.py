"""OpenBLAS threads: one for the CLI, all cores for the calls that gain.

numpy's OpenBLAS starts a thread per core, and an idle worker spins for about
0.13 s of CPU after each call it served. `pin`, run by the CLI before numpy
loads, starts it at one thread; `all_cores` raises it to the core count around
calls past a crossover. Library users, a count set in OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS, and an OpenBLAS without a runtime thread
setter are left as they are."""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

# Crossovers, each at or below the largest size where one thread and two give
# bitwise-equal results, so no result depends on the pin. eigvalsh and eigh:
# equal up to dimension 144, not at 145.
DENSE_DIM = 144
# Sweep work, distinct residues times p // 2: equal at every size measured.
# Two threads save up to 25 % at 64 residues from about 1e7 up (little at 16);
# 2^25 keeps 64 residues at p = 1000003 on one thread.
SWEEP_WORK = 1 << 25

_NAMES = ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_")
_openblas: Optional[Path] = None  # numpy's bundled scipy-openblas, found by `pin`
_pinned = False
wide_calls = 0  # entries of all_cores that raised the thread count


def pin() -> None:
    """Find numpy's OpenBLAS by its file name, without importing numpy, and start
    it at one thread unless numpy is loaded already or a thread count is set."""
    global _openblas, _pinned
    spec = importlib.util.find_spec("numpy")
    libs = Path(spec.origin).parent.parent / "numpy.libs" if spec and spec.origin else None
    _openblas = next(libs.glob("libscipy_openblas64_-*.so"), None) if libs else None
    user = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ)
    if _openblas and not user and "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        _pinned = True


@functools.cache
def _thread_api() -> Optional[tuple]:
    """OpenBLAS's thread setter and getter, or None if it lacks either."""
    lib = ctypes.CDLL(str(_openblas))  # numpy has loaded it: its handle, no new threads
    api = tuple(getattr(lib, name, None) for name in _NAMES)
    return api if all(api) else None


def threads() -> Optional[int]:
    """OpenBLAS's thread count, or None without numpy's OpenBLAS or its getter."""
    return _thread_api()[1]() if _openblas and _thread_api() else None


@contextmanager
def all_cores(when: bool) -> Iterator[None]:
    """Run the block at one OpenBLAS thread per available core when `when`
    holds and `pin` took effect; restore the count found on exit."""
    global wide_calls
    if not (when and _pinned and _thread_api()):
        yield
        return
    set_threads, before = _thread_api()[0], threads()
    set_threads(len(os.sched_getaffinity(0)))
    wide_calls += 1
    try:
        yield
    finally:
        set_threads(before)
