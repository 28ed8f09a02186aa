"""Command-line harness: seeded, reproducible experiment drivers around the
library, with JSON manifests, optional CSV tables, and flat-file result
persistence.

Subcommands

    certify   random search for a vector whose switching certificate beats a
              threshold
    gap       character spectrum and gap of the hyperplane Cayley graph, with
              an optional dense-eigensolver cross-check
    diam      BFS diameters of the semidirect product for one or more primes,
              with the centered-l1 lower bound
    tail      empirical tail frequency of the support-one sum against its
              proven bound
    kazhdan   certified Kazhdan interval (and optional explicit-vector upper
              bound) for a catalog group
    verify    the non-falsification suite: switching sweeps plus the catalog
              group checks

Exit codes: 0 success, 1 usage or configuration error, 2 mathematical
falsification, 3 resource cap hit or out of memory, 4 internal invariant
violated (a numerical self-check failed: a bug or a rounding breach, not a
falsification), 5 stdout closed by its reader before the run's output was
written (the run still finishes and writes its manifest; a run that would
exit 2 or 3 keeps that code). A config file (--config, JSON) supplies
defaults; explicit flags win.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence

from . import blas

blas.pin()  # OpenBLAS reads its thread count once, when numpy first loads it

import numpy as np

from .manifest import ResultManifest, sha256, write_atomic, write_manifest
from .modp import FpVector, check_prime, refuse_past_budget, unimaginative_vector
from .perm import orbit_size, orbit_span_rank

if TYPE_CHECKING:
    from .groups import CatalogEntry
    from .kazhdan import VerificationReport

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FALSIFIED = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 5

SWEEP_PRIMES = (2, 3, 5)
DEFAULT_ORDER_CAP = 5_000_000  # diam: past this group order, diam refuses
# certify: bytes per entry of v at the peak of its rendering in the manifest
# (at n = 10^6 the render alone grows the peak RSS by 85 per entry at p = 5,
# by 144 at p = 2^31 - 1 with --format csv; kept above both)
_V_RENDER_BYTES = 208


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D401 - argparse hook
        raise ValueError(message)


def finite(text: str) -> float:
    """A float flag's value, refused unless finite: JSON has no nan or inf."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    sub.add_argument("--out", default=None, help="also write the manifest (or CSV) here")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--results-dir", default=None, help="override the results directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="expander-forge", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("certify", help="search for a certifiable vector")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--threshold", type=finite, default=0.5)
    p.add_argument("--max-trials", type=int, default=100)
    _add_common(p)

    p = subs.add_parser("gap", help="character spectrum of the hyperplane graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--v", default=None, help="comma-separated entries, default (1,-1,0,...)")
    p.add_argument("--crosscheck", choices=("none", "dense"), default="none")
    _add_common(p)

    p = subs.add_parser("diam", help="BFS diameter of the semidirect product")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--p-list", default=None, help="comma-separated primes for a sweep")
    p.add_argument("--set", dest="genset", choices=("Y", "X"), default="Y")
    p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
    p.add_argument("--threshold", type=finite, default=0.5, help="X-set certificate threshold")
    p.add_argument("--max-trials", type=int, default=100, help="X-set search trials")
    _add_common(p)

    p = subs.add_parser("tail", help="tail frequency of the support-one sum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--eps", type=finite, required=True)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--u", type=int, default=1)
    _add_common(p)

    p = subs.add_parser("kazhdan", help="certified Kazhdan interval for a catalog group")
    p.add_argument("--group", required=True)
    p.add_argument("--gens", default=None,
                   help="comma-separated indices into the entry's generator list")
    p.add_argument("--catalog", default=None)
    p.add_argument("--opt", action="store_true", help="also run the explicit-vector optimizer")
    p.add_argument("--restarts", type=int, default=20)
    _add_common(p)

    p = subs.add_parser("verify", help="non-falsification suite")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--group", default=None)
    p.add_argument("--trials", type=int, default=1000, help="random vectors per group")
    p.add_argument("--max-sweep-n", type=int, default=4,
                   help="switching sweeps run for 2 <= n <= this (0 disables)")
    p.add_argument("--catalog", default=None)
    _add_common(p)

    return parser


def _inject_config(argv: List[str]) -> List[str]:
    """Fold a --config JSON file into argv as leading flags; explicit flags,
    coming later, win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise ValueError("--config requires a path")
    path = argv[i + 1]
    argv = argv[:i] + argv[i + 2 :]
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    if not isinstance(cfg.get("command", ""), str):
        raise ValueError(f"cannot read config file {path}: \"command\" must be a string")
    command = argv[0] if argv and not argv[0].startswith("-") else cfg.get("command")
    if command is None:
        raise ValueError("no command given on the command line or in the config file")
    rest = argv[1:] if argv and not argv[0].startswith("-") else argv
    injected: List[str] = []
    for key in sorted(cfg):
        if key == "command":
            continue
        flag = "--" + key.replace("_", "-")
        value = cfg[key]
        if isinstance(value, bool):
            if value:
                injected.append(flag)
        else:
            injected += [flag, str(value)]
    return [command] + injected + rest


def _parse_ints(text: str, what: str) -> List[int]:
    """Comma-separated integers; `what` names the input in the error."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse {what} {text!r}") from None


def _parse_primes(args) -> List[int]:
    if args.p is not None and args.p_list is not None:
        raise ValueError("give --p or --p-list, not both")
    if args.p_list:
        return _parse_ints(args.p_list, "--p-list")
    if args.p is None:
        raise ValueError("give --p or --p-list")
    return [args.p]


# ----------------------------------------------------------------------
# command implementations
# ----------------------------------------------------------------------

def _cmd_certify(args, manifest: ResultManifest) -> int:
    from . import expsum

    refuse_past_budget(_V_RENDER_BYTES * args.n, "writing v into the manifest")
    result = expsum.search_vector(args.n, args.p, threshold=args.threshold,
                                  max_trials=args.max_trials, seed=args.seed)
    cert = result.certificate
    manifest.results = {
        "found": result.found,
        "trials": result.trials,
        # union bound on one trial failing the sweep threshold; vacuous at
        # desk scale, informative once n dwarfs log p
        "per_trial_failure_bound": args.p * expsum.tail_bound(args.n, args.threshold),
        "certificate": None
        if cert is None
        else {
            "v": cert.v,
            "max_support_one": cert.max_support_one,
            "u_argmax": cert.u_argmax,
            "spectral_bound": cert.spectral_bound,
        },
    }
    manifest.record(
        "spectral_bound",
        "expsum.search_vector",
        {"n": args.n, "p": args.p, "threshold": args.threshold,
         "max_trials": args.max_trials, "seed": args.seed},
    )
    if result.found:
        print(f"certify n={args.n} p={args.p}: success in {result.trials} trial(s), "
              f"bound {cert.spectral_bound:.6f}")
    else:
        best = "none" if cert is None else f"{cert.max_support_one:.6f}"
        print(f"certify n={args.n} p={args.p}: no certificate below {args.threshold} "
              f"in {result.trials} trials (best sweep max {best})")
    return EXIT_OK


def _sorted_histogram(values: np.ndarray):
    """`np.histogram(values, bins=40, range=(-1.0, 1.0))` for ascending
    values: the same counts and edges, bin i holding edges[i] <= x <
    edges[i + 1] and the last bin closed, from one binary search of the
    edges instead of per-value index temporaries."""
    edges = np.linspace(-1.0, 1.0, 41)
    cuts = np.searchsorted(values, edges)
    cuts[-1] = np.searchsorted(values, edges[-1], side="right")
    return np.diff(cuts), edges


def _cmd_gap(args, manifest: ResultManifest) -> int:
    from . import spectral

    if args.n < 2:
        raise ValueError(f"need n >= 2, got {args.n}")
    check_prime(args.p)
    if args.n % args.p == 0:
        raise ValueError(
            f"p = {args.p} divides n = {args.n}: the all-ones vector is sum-zero there "
            "and the coset bookkeeping degenerates; this command refuses the case"
        )
    v = (FpVector(_parse_ints(args.v, "vector"), args.p) if args.v
         else unimaginative_vector(args.n, args.p))
    if v.n != args.n:
        raise ValueError(f"vector has {v.n} entries, expected n = {args.n}")
    if not v.is_sum_zero:
        raise ValueError("v must be sum-zero")
    if v.is_zero or v.is_constant:
        raise ValueError("v must be nonconstant (a constant vector generates nothing)")
    result = spectral.abelian_spectrum(v)
    # snapped to a 1e-12 grid, eigenvalues that are equal in exact arithmetic
    # land in one bin whatever their rounding; rounding keeps them sorted
    counts, edges = _sorted_histogram(np.round(result.eigenvalues, 12))

    manifest.results = {
        "gap": result.gap,
        "second_largest": result.second_largest,
        "character_count": result.graph_order,
        "extremal_w": result.extremal_w,
        "spanning": orbit_span_rank(v) == args.n - 1,
        "v": v,
        "histogram": {"bin_edges": edges, "counts": counts},
    }
    manifest.record(
        "gap", "spectral.abelian_spectrum", {"n": args.n, "p": args.p, "v": v},
    )
    if args.crosscheck == "dense":
        dense = spectral.dense_spectrum(spectral.hyperplane_adjacency(v), 2 * orbit_size(v))
        diff = float(np.max(np.abs(dense.eigenvalues - result.eigenvalues)))
        manifest.results["crosscheck"] = {"method": "dense", "max_abs_diff": diff,
                                          "agree": diff <= 1e-8}
        manifest.record("crosscheck.max_abs_diff", "spectral.dense_spectrum",
                        {"n": args.n, "p": args.p, "v": v})
    print(f"gap n={args.n} p={args.p} v={list(v)}: gap={result.gap:.6f} "
          f"({result.graph_order} eigenvalues)")
    return EXIT_OK


def _cmd_diam(args, manifest: ResultManifest) -> int:
    from . import semidirect

    if args.order_cap < 1:
        raise ValueError(f"--order-cap must be at least 1, got {args.order_cap}")
    primes = _parse_primes(args)
    rows = []
    for p in primes:
        if args.genset == "Y":
            gen = semidirect.build_Y(args.n, p)
            search = None
        else:
            from . import expsum

            search = expsum.search_vector(args.n, p, threshold=args.threshold,
                                          max_trials=args.max_trials, seed=args.seed)
            if not search.found:
                raise ValueError(
                    f"no certificate below {args.threshold} for p={p}; cannot build the X set"
                )
            gen = semidirect.build_X(args.n, p, search.certificate)
        res = semidirect.bfs_diameter(gen, order_cap=args.order_cap)
        order = semidirect.group_order(args.n, p)
        row = {
            "p": p,
            "group_order": order,
            "diameter": res.diameter,
            "order_reached": res.order,
            "l1_lower_bound": semidirect.potential_lower_bound(gen),
            "log2_group_order": math.log2(order),
            "polylog_ref": math.log2(order) ** 2,
            "layer_sizes": res.layer_sizes,
            "truncated": res.truncated,
            "set": gen.label,
        }
        if search is not None:
            row["certificate_bound"] = search.certificate.spectral_bound
        rows.append(row)
        print(f"diam n={args.n} p={p} set={gen.label}: diameter={res.diameter} "
              f"order={res.order}/{order} l1_bound={row['l1_lower_bound']}")
    manifest.results = {"instances": rows}
    manifest.record("diameter", "semidirect.bfs_diameter",
                    {"n": args.n, "primes": primes, "set": args.genset,
                     "order_cap": args.order_cap})
    return EXIT_OK


def _cmd_tail(args, manifest: ResultManifest) -> int:
    from . import expsum

    result = expsum.tail_experiment(args.n, args.p, args.eps, args.trials,
                                    args.u, seed=args.seed)
    within = result.empirical_rate <= result.bound
    manifest.results = {
        "empirical_rate": result.empirical_rate,
        "bound": result.bound,
        "exceed_count": result.exceed_count,
        "trials": result.trials,
        "within_bound": within,
    }
    manifest.record("empirical_rate", "expsum.tail_experiment",
                    {"n": args.n, "p": args.p, "eps": args.eps, "u": args.u,
                     "trials": args.trials, "seed": args.seed})
    print(f"tail n={args.n} p={args.p} eps={args.eps}: rate={result.empirical_rate:.6g} "
          f"bound={result.bound:.6g} ({result.exceed_count}/{result.trials})")
    return EXIT_OK if within else EXIT_FALSIFIED


def _load_catalog(args, manifest: ResultManifest) -> Dict[str, CatalogEntry]:
    """The shipped catalog, or the --catalog file read once. A file's sha256
    goes into the config, so that two catalogs defining one name differently
    key two index entries."""
    from .groups import load_catalog

    if args.catalog is None:
        return load_catalog()
    try:
        data = Path(args.catalog).read_bytes()
        text = data.decode("utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read catalog {args.catalog}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read catalog {args.catalog}: not UTF-8 text ({exc.reason} "
                         f"at byte {exc.start})") from None
    manifest.config["catalog_sha256"] = sha256(data).hexdigest()
    return load_catalog(text)


def _catalog_entry(args, manifest: ResultManifest) -> CatalogEntry:
    catalog = _load_catalog(args, manifest)
    if args.group not in catalog:
        raise ValueError(f"unknown group {args.group!r}; catalog has {sorted(catalog)}")
    return catalog[args.group]


def _cmd_kazhdan(args, manifest: ResultManifest) -> int:
    from . import kazhdan

    entry = _catalog_entry(args, manifest)
    group = entry.build()
    gens = group.generator_indices
    if args.gens is not None:
        picks = _parse_ints(args.gens, "--gens")
        if any(not 0 <= i < len(gens) for i in picks):
            raise ValueError(f"--gens indices must be in 0..{len(gens) - 1}")
        gens = [gens[i] for i in picks]
    # the optimizer first: it refuses bad arguments before any eigensolve
    upper = (kazhdan.kazhdan_upper_opt(group, gens, restarts=args.restarts, seed=args.seed)[0]
             if args.opt else None)
    interval = kazhdan.kazhdan_interval(group, gens)
    manifest.results = {
        "group": group.name,
        "order": group.order,
        "generator_count": len(gens),
        "gap": interval.gap,
        "generating": interval.generating,
        "interval": {"lower": interval.lower, "upper": interval.upper,
                     "source": interval.source},
    }
    manifest.record("interval", "kazhdan.kazhdan_interval",
                    {"group": group.name, "generators": len(gens)})
    if args.opt:
        manifest.results["restricted_upper"] = upper
        manifest.record("restricted_upper", "kazhdan.kazhdan_upper_opt",
                        {"group": group.name, "restarts": args.restarts,
                         "seed": args.seed})
    print(f"kazhdan {group.name} (order {group.order}): gap={interval.gap:.6f} "
          f"interval=[{interval.lower:.6f}, {interval.upper:.6f}]")
    return EXIT_OK


def _symmetric3_chain() -> VerificationReport:
    """The 6-element sanity case: S3 as a semidirect product of its rotation
    subgroup by a reflection."""
    from . import kazhdan
    from .groups import permutation_group

    group = permutation_group("S3_as_product", [(1, 2, 0), (1, 0, 2)])
    rot, swap = group.generator_indices
    return kazhdan.verify_inequality_chain(
        group, group.closure([rot]), group.closure([swap]), [rot], [swap]
    )


def _cmd_verify(args, manifest: ResultManifest) -> int:
    from . import expsum, kazhdan
    from .groups import semidirect_parts

    if args.all and args.max_sweep_n > expsum.EXACT_MAX_N:
        raise ValueError(f"--max-sweep-n must be at most {expsum.EXACT_MAX_N}, "
                         f"got {args.max_sweep_n}")
    entries = (list(_load_catalog(args, manifest).values()) if args.all
               else [_catalog_entry(args, manifest)])

    # the group suites first: an audit they refuse is refused before the sweeps
    reports: List[VerificationReport] = []
    for entry in entries:
        group = entry.build()
        gens = group.generator_indices
        reports.append(kazhdan.verify_basic_bounds(group, gens))
        reports.append(kazhdan.verify_almost_invariant_projection(
            group, gens, trials=args.trials, seed=args.seed))
        if entry.kind == "semidirect":
            n_idx, h_idx, s_gens, t_gens = semidirect_parts(group)
            reports.append(kazhdan.verify_inequality_chain(group, n_idx, h_idx,
                                                           s_gens, t_gens))
    if args.all:
        reports.append(_symmetric3_chain())

    for report in reports:
        status = "ok" if report.passed else "FALSIFIED"
        print(f"verify {report.group} {report.title}: "
              f"{len(report.checks)} checks [{status}]")

    sweeps = []
    if args.all and args.max_sweep_n >= 2:
        for n in range(2, args.max_sweep_n + 1):
            for p in SWEEP_PRIMES:
                sweep = expsum.switching_sweep(n, p)
                sweeps.append(sweep)
                status = "ok" if sweep.violations() == 0 else "FALSIFIED"
                print(f"verify switching n={n} p={p}: margin_plain={sweep.min_margin_plain:.3e} "
                      f"margin_sharp={sweep.min_margin_sharp:.3e} [{status}]")

    falsifications = sum(len(r.failures) for r in reports)
    falsifications += sum(s.violations() for s in sweeps)
    manifest.results = {
        "sweeps": sweeps,
        "reports": reports,
        "falsifications": falsifications,
    }
    manifest.record("falsifications", "kazhdan.verify_*",
                    {"groups": [e.name for e in entries], "trials": args.trials,
                     "max_sweep_n": args.max_sweep_n, "seed": args.seed})
    print(f"verify: {falsifications} falsification(s)")
    return EXIT_FALSIFIED if falsifications else EXIT_OK


# ----------------------------------------------------------------------
# CSV rendering (column sets are pinned by golden tests)
# ----------------------------------------------------------------------

CSV_COLUMNS = {
    "certify": ["n", "p", "threshold", "max_trials", "seed", "found", "trials",
                "max_support_one", "u_argmax", "spectral_bound", "v"],
    "gap": ["n", "p", "v", "gap", "second_largest", "extremal_w",
            "character_count", "crosscheck_max_abs_diff"],
    "diam": ["p", "group_order", "diameter", "l1_lower_bound",
             "log2_group_order", "polylog_ref", "truncated"],
    "tail": ["n", "p", "eps", "u", "trials", "exceed_count", "empirical_rate",
             "bound", "within_bound", "seed"],
    "kazhdan": ["group", "order", "generator_count", "gap", "lower", "upper",
                "restricted_upper"],
    "verify": ["group", "suite", "check", "passed", "lhs", "rhs"],
}


def _vec_cell(value: Any) -> str:
    if isinstance(value, dict):
        value = value["entries"]
    return " ".join(str(int(x)) for x in value)


def render_csv(command: str, body: Dict[str, Any]) -> str:
    """RFC-4180 table for a manifest body. `diam` has a row per instance and
    `verify` one per sweep kind and per check. Any other table is one row
    whose cells are the body fields their columns name: from `results`, with
    the fields of its certificate or interval lifted to the top and
    crosscheck_max_abs_diff read from its crosscheck, or else from `config`.
    Vectors are space-separated entries and a missing field is empty."""
    results = body["results"]
    columns = CSV_COLUMNS[command]
    if command == "diam":
        rows = results["instances"]
    elif command == "verify":
        from .expsum import margin_holds

        rows = [{"group": f"sweep_n{sweep['n']}_p{sweep['p']}", "suite": "switching",
                 "check": kind, "passed": margin_holds(sweep[f"min_margin_{kind}"]),
                 "lhs": sweep[f"min_margin_{kind}"], "rhs": 0.0}
                for sweep in results["sweeps"] for kind in ("plain", "sharp")]
        rows += [{"group": report["group"], "suite": report["title"], "check": check["name"],
                  "passed": check["passed"], "lhs": check["lhs"], "rhs": check["rhs"]}
                 for report in results["reports"] for check in report["checks"]]
    else:
        fields = {**body["config"], **results, **(results.get("certificate") or {}),
                  **results.get("interval", {}),
                  "crosscheck_max_abs_diff": results.get("crosscheck", {}).get("max_abs_diff")}
        cells = [fields.get(column) for column in columns]
        rows = [{column: _vec_cell(cell) if isinstance(cell, (list, dict)) else cell
                 for column, cell in zip(columns, cells)}]

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

_HANDLERS = {"certify": _cmd_certify, "gap": _cmd_gap, "diam": _cmd_diam,
             "tail": _cmd_tail, "kazhdan": _cmd_kazhdan, "verify": _cmd_verify}


class _Stdout:
    """Stands in for sys.stdout during a run: text goes to `stream` until its
    reader closes the pipe, and nowhere after that, so that the run still
    finishes and writes its manifest. `broken` records the closed pipe."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.broken = False

    def write(self, text: str) -> int:
        if not self.broken:
            try:
                self.stream.write(text)
                self.stream.flush()
            except BrokenPipeError:
                self.broken = True
                # what the stream still buffers then goes nowhere at exit,
                # instead of raising again when the interpreter flushes it
                os.dup2(os.open(os.devnull, os.O_WRONLY), self.stream.fileno())
        return len(text)

    def flush(self) -> None:
        self.write("")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    stdout = _Stdout(sys.stdout)
    with contextlib.redirect_stdout(stdout):
        try:
            argv = _inject_config(argv)
            args = build_parser().parse_args(argv)
            manifest = ResultManifest(
                command=args.command,
                config={k: v for k, v in vars(args).items()
                        if k not in ("out", "results_dir", "catalog")},
                results={},
            )
            manifest.timestamp = datetime.now(timezone.utc).isoformat()
            threads, wide_calls = blas.threads(), blas.wide_calls
            start = time.perf_counter()
            code = _HANDLERS[args.command](args, manifest)
            manifest.duration_s = time.perf_counter() - start
            manifest.env = {"numpy": np.__version__, "blas_threads": threads,
                            "blas_wide_calls": blas.wide_calls - wide_calls}
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        except MemoryError as exc:
            print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
            return EXIT_CAP
        except ArithmeticError as exc:
            print(f"error: internal invariant violated: {str(exc) or type(exc).__name__}",
                  file=sys.stderr)
            return EXIT_INTERNAL

        body = manifest.body()
        try:
            table = render_csv(args.command, body) if args.format == "csv" else None
            if table is not None:
                sys.stdout.write(table)
            path = write_manifest(manifest, body, args.results_dir)
            if args.out:
                Path(args.out).parent.mkdir(parents=True, exist_ok=True)
                write_atomic(Path(args.out), path.read_text() if table is None else table)
            if table is None:
                print(f"manifest: {path}")
        except (OSError, ValueError) as exc:  # unwritable path, unreadable index.json
            print(f"error: cannot write results: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if stdout.broken:
        print(f"error: stdout closed before the output was written; results are in {path}",
              file=sys.stderr)
        return EXIT_PIPE if code == EXIT_OK else code
    return code


if __name__ == "__main__":
    raise SystemExit(main())
