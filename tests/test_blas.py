"""OpenBLAS threads: the CLI starts numpy's OpenBLAS at one thread, widens it
only past the crossovers, leaves a user's own setting and library users
alone, and changes no result. Every case runs in a fresh interpreter, since
OpenBLAS reads its thread count once, when numpy first loads it."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from expander_forge import blas
from expander_forge.cli import main

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# records OPENBLAS_NUM_THREADS when numpy is first imported (at its first
# submodule: a bare find_spec("numpy"), as `blas.pin` makes, imports
# nothing), runs the code in argv[1], then prints what numpy saw, the thread
# variables, OpenBLAS's thread count outside and inside `all_cores`, and the
# widenings
_PROBE = """
import json, os, sys
seen = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name.startswith("numpy.") and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))

sys.meta_path.insert(0, Watch())
try:
    exec(sys.argv.pop(1))
finally:
    from expander_forge import blas
    outside = blas.threads()
    with blas.all_cores(True):
        inside = blas.threads()
    print(json.dumps({"seen": seen, "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                      "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
                      "threads": [outside, inside], "wide_calls": blas.wide_calls}))
"""

_RUN_GAP = ("import runpy; sys.argv = ['expander_forge', 'gap', '--n', '3', '--p', '5',"
            " '--results-dir', sys.argv.pop(1)]\n"
            "try:\n    runpy.run_module('expander_forge', run_name='__main__')\n"
            "except SystemExit as exc:\n    assert exc.code == 0\n")


def _env(**overrides):
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env.update(overrides)
    env["PYTHONPATH"] = os.path.join(_REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _probe(code, *args, **env):
    out = subprocess.run([sys.executable, "-c", _PROBE, code, *args], capture_output=True,
                         text=True, env=_env(**env), cwd=_REPO, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


needs_openblas = pytest.mark.skipif(blas._openblas is None,
                                    reason="numpy's OpenBLAS exports no thread setter")
cores = len(os.sched_getaffinity(0))


@needs_openblas
@pytest.mark.parametrize("code", [_RUN_GAP, "import expander_forge.cli"],
                         ids=["python -m expander_forge gap", "import expander_forge.cli"])
def test_cli_starts_openblas_at_one_thread(tmp_path, code):
    args = (str(tmp_path),) if code == _RUN_GAP else ()
    assert _probe(code, *args) == {"seen": ["1"], "OPENBLAS_NUM_THREADS": "1",
                                   "OMP_NUM_THREADS": None, "threads": [1, cores],
                                   "wide_calls": 1}


@needs_openblas
@pytest.mark.parametrize("var", ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"])
def test_a_users_thread_count_wins(tmp_path, var):
    got = _probe(_RUN_GAP, str(tmp_path), **{var: "2"})
    assert got["seen"] == ["2" if var == "OPENBLAS_NUM_THREADS" else None]
    assert got[var] == "2"
    assert got["threads"] == [2, 2] and got["wide_calls"] == 0


def test_library_users_are_not_pinned():
    assert _probe("import expander_forge.spectral") == {
        "seen": [None], "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None,
        "threads": [None, None], "wide_calls": 0}


@needs_openblas
def test_no_core_spins_idle(tmp_path):
    """One CLI process spends no more CPU than wall time: no idle BLAS
    worker spins beside the main thread."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "expander_forge", "gap", "--n", "3", "--p",
                             "5", "--results-dir", str(tmp_path)],
                            stdout=subprocess.DEVNULL, env=_env(), cwd=_REPO)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert usage.ru_utime + usage.ru_stime <= wall + 0.05, (usage, wall)


# the dense solves at every dimension up to the crossover and the sweep on
# both sides of its crossover, at one thread, at every core and as the
# product path runs them; prints the mismatches, the thread counts used and
# a digest of the wide results
_BITS = """
import hashlib, json, math
import expander_forge.cli
import numpy as np
from expander_forge import blas, expsum
from expander_forge.modp import FpVector, is_prime

def dense(d):
    a = np.random.default_rng(d).standard_normal((d, d))
    return [np.linalg.eigvalsh(a + a.T), *np.linalg.eigh(a + a.T)]

def sweep(p):
    v = FpVector(list(range(1, 64)) + [-2016], p)  # 64 distinct residues
    residues, counts = np.unique(v.entries, return_counts=True)
    blocks = expsum._sweep_blocks(residues[None], counts[None], v.n, p)
    return [np.concatenate([block[0] for block in blocks])]

work = blas.SWEEP_WORK
below = next(p for p in range(2 * work // 64 + 1, 0, -1) if is_prime(p) and 64 * (p // 2) <= work)
above = next(p for p in range(below + 1, 2 * below) if is_prime(p))
cases = [(dense, d) for d in range(1, blas.DENSE_DIM + 1)] + [(sweep, below), (sweep, above)]
digest, bad, counts = hashlib.sha256(), [], set()
for fn, size in cases:
    blas.SWEEP_WORK = math.inf  # the sweep, too, at one thread
    counts.add(blas.threads())
    one = fn(size)
    with blas.all_cores(True):
        counts.add(blas.threads())
        wide = fn(size)
    blas.SWEEP_WORK = work
    path = fn(size) if fn is sweep else one
    if not all(map(np.array_equal, one + one, wide + path)):
        bad.append([fn.__name__, size])
    for x in wide:
        digest.update(x.tobytes())
print(json.dumps({"bad": bad, "counts": sorted(counts), "above": 64 * (above // 2) > work,
                  "digest": digest.hexdigest()}))
"""


def _bits(code, *args, **env):
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=_env(**env), cwd=_REPO, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


@needs_openblas
def test_pin_is_bitwise_neutral():
    """At one thread and at every core, the symmetric eigensolvers give equal
    bits at every dimension up to DENSE_DIM, and so does the support-one
    sweep at the primes just below and just above its crossover; the wide
    results equal those of a process that starts at OpenBLAS's default
    count (numpy loaded first, so nothing is pinned)."""
    pinned = _bits(_BITS)
    assert pinned["bad"] == [] and pinned["above"]
    assert pinned["counts"] == sorted({1, cores})
    default = _bits("import numpy\n" + _BITS)
    assert default["counts"] == [cores]
    assert default["digest"] == pinned["digest"]


# a CLI process whose OpenBLAS, found by its name, lacks the two thread
# functions when argv[1] is "stub" (the cached lookup finds neither); prints
# threads(), the count OpenBLAS really runs at outside and inside all_cores,
# the widenings and a digest of the dense spectrum of dimension 169, the
# widened call of `gap --n 3 --p 13 --crosscheck dense`
_MISSING = """
import hashlib, json, sys
import expander_forge.cli
from expander_forge import blas, spectral
from expander_forge.modp import FpVector
from expander_forge.perm import orbit_size

get_threads = blas._thread_api()[1]
if sys.argv[1] == "stub":
    blas._thread_api = lambda: None
v = FpVector([0, 1, 12], 13)
eigs = spectral.dense_spectrum(spectral.hyperplane_adjacency(v), 2 * orbit_size(v)).eigenvalues
outside = get_threads()
with blas.all_cores(True):
    inside = get_threads()
print(json.dumps({"threads": blas.threads(), "counts": [outside, inside],
                  "wide_calls": blas.wide_calls, "dim": eigs.size,
                  "digest": hashlib.sha256(eigs.tobytes()).hexdigest()}))
"""


@needs_openblas
def test_missing_thread_functions_leave_openblas_alone():
    """Without the setter and getter, `threads()` is None, `all_cores` keeps
    the pinned thread and counts no widening, and a dense solve past
    DENSE_DIM gives the bits of a process the user starts at one thread."""
    stub = _bits(_MISSING, "stub")
    assert stub["threads"] is None and stub["counts"] == [1, 1] and stub["wide_calls"] == 0
    assert stub["dim"] == 169 > blas.DENSE_DIM
    user = _bits(_MISSING, "keep", OPENBLAS_NUM_THREADS="1")
    assert user["threads"] == 1 and user["counts"] == [1, 1] and user["wide_calls"] == 0
    assert stub["digest"] == user["digest"]


def test_header_records_the_environment(tmp_path):
    out = tmp_path / "gap.json"
    assert main(["gap", "--n", "3", "--p", "5", "--results-dir", str(tmp_path),
                 "--out", str(out)]) == 0
    env = json.loads(out.read_text())["header"]["env"]
    assert env == {"numpy": np.__version__, "blas_threads": blas.threads(),
                   "blas_wide_calls": 0}


@needs_openblas
def test_header_counts_the_widened_calls(tmp_path):
    """A pinned process records one thread at start and one widening for a
    dense solve past DENSE_DIM (dimension 169); the body is the unpinned one."""
    argv = ["gap", "--n", "3", "--p", "13", "--crosscheck", "dense",
            "--results-dir", str(tmp_path / "r")]
    out = tmp_path / "pinned.json"
    run = subprocess.run([sys.executable, "-m", "expander_forge", *argv, "--out", str(out)],
                         capture_output=True, text=True, env=_env(), cwd=_REPO, timeout=120)
    assert run.returncode == 0, run.stderr
    doc = json.loads(out.read_text())
    assert doc["header"]["env"]["blas_threads"] == 1
    assert doc["header"]["env"]["blas_wide_calls"] == 1
    here = tmp_path / "here.json"
    assert main(argv + ["--out", str(here)]) == 0
    assert json.loads(here.read_text())["body"] == doc["body"]
