"""Each CLI command loads only the package modules it runs, and the package
root loads nothing. Every case runs in a fresh interpreter, since the test
process has every module loaded already."""

import os
import subprocess
import sys

import pytest

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# runs one command, then prints the loaded package modules as its last line
_PROBE = """
import sys
from expander_forge import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("expander_forge.")))
"""


def _run(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=env, cwd=_REPO, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1].split()


def _loaded(tmp_path, *argv):
    code, *modules = _run(_PROBE, *argv, "--results-dir", str(tmp_path))
    assert code == "0"
    return set(modules)


def test_package_root_loads_no_numpy():
    assert _run("import sys, expander_forge; print('numpy' in sys.modules)") == ["False"]


def test_gap_loads_only_the_character_route(tmp_path):
    assert _loaded(tmp_path, "gap", "--n", "4", "--p", "5") == {
        "blas", "cli", "manifest", "modp", "perm", "spectral"}


@pytest.mark.parametrize("argv,runs,absent", [
    (["certify", "--n", "8", "--p", "13"], "expsum",
     {"semidirect", "spectral", "groups", "kazhdan"}),
    (["diam", "--n", "3", "--p", "5"], "semidirect",
     {"expsum", "rng", "philox", "spectral", "groups", "kazhdan"}),
    (["verify", "--group", "C2"], "kazhdan", {"philox"}),
])
def test_command_skips_modules_it_does_not_run(tmp_path, argv, runs, absent):
    loaded = _loaded(tmp_path, *argv)
    assert runs in loaded and not loaded & absent, loaded


# runs one command, then prints its exit code and whether numpy.random and
# OpenSSL's hashlib backend were loaded
_RANDOM_PROBE = """
import sys
from expander_forge import cli
code = cli.main(sys.argv[1:])
print(code, "numpy.random" in sys.modules, "_hashlib" in sys.modules)
"""


@pytest.mark.parametrize("argv", [
    ["gap", "--n", "4", "--p", "5"],
    ["gap", "--n", "3", "--p", "5", "--crosscheck", "dense", "--format", "csv"],
    ["diam", "--n", "3", "--p", "5"],
    ["diam", "--n", "3", "--p-list", "5,7", "--set", "Y"],
], ids=["gap", "gap-dense-csv", "diam-Y", "diam-Y-sweep"])
def test_spectrum_and_y_diameter_never_load_openssl(tmp_path, argv):
    """Manifests are hashed with CPython's built-in SHA-256, so a command
    whose modules do not import numpy.random (which loads hashlib itself)
    never maps OpenSSL's libcrypto, about 3.6 MiB of RSS."""
    assert _run(_RANDOM_PROBE, *argv, "--results-dir", str(tmp_path)) == ["0", "False", "False"]


@pytest.mark.parametrize("argv", [
    ["certify", "--n", "16", "--p", "101", "--max-trials", "20"],
    ["tail", "--n", "16", "--p", "101", "--eps", "0.5", "--trials", "100"],
    ["diam", "--n", "4", "--p", "5", "--set", "X"],
], ids=["certify", "tail", "diam-X"])
def test_uniform_draws_never_load_numpy_random(tmp_path, argv):
    """The search's and tail's uniform draws are the Philox stream in numpy
    arithmetic (`philox.TaskIntegers`), so certify, tail and diam with X never
    import numpy.random, nor through it hashlib and OpenSSL's libcrypto."""
    assert _run(_RANDOM_PROBE, *argv, "--results-dir", str(tmp_path)) == ["0", "False", "False"]


@pytest.mark.parametrize("argv", [
    ["kazhdan", "--group", "C2", "--opt"],
    ["verify", "--group", "C2"],
], ids=["kazhdan", "verify"])
def test_normal_draws_still_load_numpy_random(tmp_path, argv):
    """`kazhdan` and `verify` draw normals from numpy.random's Philox
    (`rng.task_rng`, `rng.master_rng`), so they are the commands that load
    it."""
    assert _run(_RANDOM_PROBE, *argv, "--results-dir", str(tmp_path))[:2] == ["0", "True"]
