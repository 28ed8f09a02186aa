"""Span recorder for the expander-forge benchmark, run as one child process
per CLI command.

    python3 perfbench/tracer.py OUT.json TRACE -- ARGV...

The child imports the package (the caller puts the checkout's src/ on
PYTHONPATH), and when TRACE is 1 wraps the layer-boundary functions in
TARGETS with span recorders. It then calls cli.main(ARGV) in-process and
writes {"rc", "wall_s", "spans", "counts", "peaks"} to OUT.json. With TRACE 0
nothing is wrapped, so the difference between the two walls is the tracing
overhead.

A wrapped function is patched in every package module that binds it, since a
module that imports a name (cli.write_manifest, kazhdan.cayley_spectrum,
backend.jacobi_eigh next to jacobi_eigh_numpy) looks it up in its own
namespace. Targets that no longer exist are skipped, so the tracer keeps
working after kernels are deleted; their metrics then read 0.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from functools import wraps

PACKAGE = "expander_forge"


class Recorder:
    """Spans as [name, start, end, parent index] in call order, plus counts
    (totals) and peaks (maxima) read at the wrapped boundaries. Calls nest
    strictly, since every traced command runs on one thread."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = {}
        self.peaks: dict = {}
        self._stack: list = []

    def add(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, n) -> None:
        self.peaks[key] = max(self.peaks.get(key, 0), n)

    def wrap(self, name: str, fn, counter=None):
        signature = inspect.signature(fn) if counter is not None else None

        @wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self, result, signature.bind(*args, **kwargs).arguments)
            return result

        return traced


# ----------------------------------------------------------------------
# counts, read from arguments and return values at the boundary
# ----------------------------------------------------------------------

def _sweep(rec, out, a):
    rec.add("expsum.sweep_elems", a["v"].p)


def _search(rec, out, a):
    rec.add("expsum.trials", out.trials)


def _characters(rec, out, a):
    from expander_forge.perm import orbit_size

    rows = a["wmat"].shape[0]
    rec.add("spectral.characters", rows)
    # one n-term dot product per (orbit row, character) pair: computed
    rec.add("spectral.char_dot_ops", orbit_size(a["v"]) * rows * a["v"].n)


def _dense(rec, out, a):
    rec.peak("spectral.dense_dim_max", len(a["adjacency"]))


def _bfs(rec, out, a):
    rec.add("semidirect.elements", out.order)
    rec.add("semidirect.new_elements", out.order - 1)
    rec.add("semidirect.layers", len(out.layer_sizes))
    rec.peak("semidirect.peak_frontier", max(out.layer_sizes))


def _expand(rec, out, a):
    rec.add("semidirect.products", a["fvec"].shape[0] * a["gvec"].shape[0])
    # frontier state in and products out of one step: computed from sizes
    arrays = (a["fvec"], a["fperm"], a["finv"], *out)
    rec.peak("semidirect.frontier_bytes", sum(x.nbytes for x in arrays))


def _checks(rec, out, a):
    rec.add("kazhdan.checks", len(out.checks))


def _pairs(rec, out, a):
    rec.add("expsum.switching_pairs", out.pair_count)


def _manifest(rec, out, a):
    rec.add("manifest.bytes", out.stat().st_size)


# (module, attribute, counter); the span is named "module.attribute", except
# that a method is named after the module and the method alone.
TARGETS = [
    ("cli", "main", None),
    ("manifest", "write_manifest", _manifest),
    ("expsum", "search_vector", _search),
    ("expsum", "certify", None),
    ("expsum", "support_one_sweep", _sweep),
    ("expsum", "switching_sweep", _pairs),
    ("backend", "support_one_moduli", None),
    ("backend", "orbit_char_means", None),
    ("backend", "jacobi_eigh", None),
    ("backend", "expand_products", _expand),
    ("spectral", "abelian_spectrum", None),
    ("spectral", "character_values", _characters),
    ("spectral", "cayley_spectrum", None),
    ("spectral", "cayley_adjacency", None),
    ("spectral", "dense_spectrum", _dense),
    ("groups", "from_elements", None),
    ("groups", "CatalogEntry.build", None),
    ("semidirect", "bfs_diameter", _bfs),
    ("kazhdan", "kazhdan_interval", None),
    ("kazhdan", "kazhdan_upper_opt", None),
    ("kazhdan", "verify_basic_bounds", _checks),
    ("kazhdan", "verify_almost_invariant_projection", _checks),
    ("kazhdan", "verify_inequality_chain", _checks),
]


def install(rec: Recorder) -> None:
    """Wrap every target that exists, wherever the package binds it."""
    for mod_name, _, _ in TARGETS:
        importlib.import_module(f"{PACKAGE}.{mod_name}")
    modules = [m for name, m in sys.modules.items()
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    for mod_name, attr, counter in TARGETS:
        module = sys.modules[f"{PACKAGE}.{mod_name}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name, None)
            if owner is None or method not in vars(owner):
                continue
            setattr(owner, method, rec.wrap(f"{mod_name}.{method}", vars(owner)[method], counter))
            continue
        original = getattr(module, attr, None)
        if original is None:
            continue
        wrapped = rec.wrap(f"{mod_name}.{attr}", original, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main(argv) -> int:
    if len(argv) < 3 or argv[1] not in ("0", "1") or argv[2] != "--":
        print("usage: tracer.py OUT.json 0|1 -- ARGV...", file=sys.stderr)
        return 1
    out_path, traced, cli_argv = argv[0], argv[1] == "1", argv[3:]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    rec = Recorder()
    if traced:
        install(rec)
    start = time.perf_counter()
    rc = cli.main(cli_argv)
    wall = time.perf_counter() - start
    with open(out_path, "w") as fh:
        json.dump({"rc": rc, "wall_s": wall, "spans": rec.spans, "counts": rec.counts,
                   "peaks": rec.peaks}, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
