"""OpenBLAS threads: one for the CLI, all cores for the calls that gain.

numpy's OpenBLAS starts a thread per core, and an idle worker spins for about
0.13 s of CPU after each call it served. `pin`, run by the CLI before numpy
loads, starts it at one thread; `all_cores` raises it to the core count around
calls past a crossover. Library users, a count set in OPENBLAS_NUM_THREADS,
GOTO_NUM_THREADS or OMP_NUM_THREADS, and an OpenBLAS without a runtime thread
setter are left as they are."""

from __future__ import annotations

import ctypes
import importlib.util
import os
import struct
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

_NAMES = (b"scipy_openblas_set_num_threads64_", b"scipy_openblas_get_num_threads64_")
_openblas: Optional[Path] = None  # numpy's OpenBLAS, when it exports both _NAMES
_pinned = False
wide_calls = 0  # entries of all_cores that raised the thread count


def _exports(path: Path) -> bool:
    """Whether an ELF64 little-endian library names both _NAMES in its dynamic
    string table, read from the file: loading it would start its threads."""
    try:
        with open(path, "rb") as f:
            head = f.read(64)
            if head[:6] != b"\x7fELF\x02\x01":
                return False
            f.seek(struct.unpack_from("<Q", head, 0x28)[0])
            size, count = struct.unpack_from("<HH", head, 0x3A)
            table = f.read(size * count)
            sections = [struct.unpack_from("<IIQQQQI", table, i * size) for i in range(count)]
            # the dynamic symbol table (type 11) links to its string table
            strtab = next(sections[s[6]] for s in sections if s[1] == 11)
            f.seek(strtab[4])
            strings = f.read(strtab[5])
    except (OSError, ValueError, struct.error, IndexError, StopIteration):  # unreadable, malformed
        return False
    return all(b"\0" + name + b"\0" in strings for name in _NAMES)


def pin() -> None:
    """Find numpy's OpenBLAS without importing numpy, and start it at one
    thread unless numpy is loaded already or a thread count is set."""
    global _openblas, _pinned
    spec = importlib.util.find_spec("numpy")
    libs = Path(spec.origin).parent.parent / "numpy.libs" if spec and spec.origin else None
    _openblas = next((lib for lib in libs.glob("libscipy_openblas64_-*.so")
                      if _exports(lib)), None) if libs else None
    user = {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ)
    if _openblas and not user and "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
        _pinned = True


def _call(name: bytes, *args: int) -> int:
    function = getattr(ctypes.CDLL(str(_openblas)), name.decode())
    function.argtypes = [ctypes.c_int] * len(args)  # set takes an int, get returns one
    return function(*args)


def threads() -> Optional[int]:
    """OpenBLAS's thread count, or None when `pin` found no OpenBLAS."""
    return _call(_NAMES[1]) if _openblas else None


@contextmanager
def all_cores(when: bool) -> Iterator[None]:
    """Run the block at one OpenBLAS thread per available core when `when`
    holds and `pin` took effect; restore the count found on exit."""
    global wide_calls
    if not (when and _pinned):
        yield
        return
    before = _call(_NAMES[1])
    _call(_NAMES[0], len(os.sched_getaffinity(0)))
    wide_calls += 1
    try:
        yield
    finally:
        _call(_NAMES[0], before)
