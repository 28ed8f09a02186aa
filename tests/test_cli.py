"""CLI behavior: exit codes, manifest persistence, CSV schemas, config
files, and reproducibility."""

import csv
import hashlib
import io
import json
import math
import random
import re
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import expander_forge
from expander_forge import cli, expsum, kazhdan, manifest, modp, semidirect
from expander_forge.cli import CSV_COLUMNS, main, render_csv
from expander_forge.manifest import RESULTS_ENV


def run(tmp_path, *argv, out_name=None):
    """Invoke the CLI in-process, returning (exit code, manifest document)."""
    out = tmp_path / (out_name or "out.json")
    code = main(list(argv) + ["--results-dir", str(tmp_path / "results"),
                              "--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


def test_certify_success_manifest(tmp_path):
    code, doc = run(tmp_path, "certify", "--n", "64", "--p", "61",
                    "--threshold", "0.5", "--seed", "7")
    assert code == 0
    body = doc["body"]
    assert body["command"] == "certify"
    assert body["config"]["seed"] == 7
    assert body["results"]["found"] is True
    assert body["results"]["certificate"]["spectral_bound"] <= math.sqrt(5 / 8) + 1e-12
    assert body["provenance"][0]["operation"] == "expsum.search_vector"


def test_certify_failure_is_exit_zero(tmp_path):
    code, doc = run(tmp_path, "certify", "--n", "2", "--p", "5", "--seed", "1")
    assert code == 0
    res = doc["body"]["results"]
    assert res["found"] is False
    assert res["certificate"]["max_support_one"] == pytest.approx(
        abs(math.cos(4 * math.pi / 5)), abs=1e-12
    )


def test_gap_manifest_and_crosscheck(tmp_path):
    code, doc = run(tmp_path, "gap", "--n", "3", "--p", "3", "--crosscheck", "dense")
    assert code == 1  # p divides n is refused by this command
    code, doc = run(tmp_path, "gap", "--n", "2", "--p", "5", "--v", "1,4",
                    "--crosscheck", "dense")
    assert code == 0
    res = doc["body"]["results"]
    assert res["gap"] == pytest.approx(1 - math.cos(2 * math.pi / 5), abs=1e-9)
    assert res["crosscheck"]["agree"] is True
    assert res["crosscheck"]["max_abs_diff"] <= 1e-8
    assert len(res["histogram"]["counts"]) == 40


def test_gap_rejects_bad_vector(tmp_path):
    code, _ = run(tmp_path, "gap", "--n", "2", "--p", "5", "--v", "1,1")
    assert code == 1
    code, _ = run(tmp_path, "gap", "--n", "2", "--p", "5", "--v", "0,0")
    assert code == 1


def test_diam_sweep_and_cap(tmp_path, capsys):
    code, doc = run(tmp_path, "diam", "--n", "2", "--p-list", "5,11")
    assert code == 0
    rows = doc["body"]["results"]["instances"]
    assert [r["diameter"] for r in rows] == [3, 6]
    assert all(r["l1_lower_bound"] <= r["diameter"] for r in rows)
    assert not any(r["truncated"] for r in rows)

    code, doc = run(tmp_path, "diam", "--n", "2", "--p", "11", "--order-cap", "10",
                    out_name="capped.json")
    assert code == 3 and doc is None
    err = capsys.readouterr().err
    assert err == "error: group order p^(n-1) n! = 22 is past --order-cap 10\n"


def test_diam_x_rows_bound_the_x_diameter(tmp_path):
    # the Y step (1, -1, 0, ...) gives max centered-l1 // 2 = 30 here, which
    # is no bound for X (diameter 15): X's vector moves the potential further
    code, doc = run(tmp_path, "diam", "--n", "4", "--p", "31", "--set", "X",
                    "--threshold", "0.99", "--max-trials", "200")
    assert code == 0
    row = doc["body"]["results"]["instances"][0]
    assert 1 <= row["l1_lower_bound"] <= row["diameter"]


def test_diam_x_set(tmp_path):
    code, doc = run(tmp_path, "diam", "--n", "3", "--p", "7", "--set", "X",
                    "--threshold", "0.9", "--seed", "5")
    assert code == 0
    row = doc["body"]["results"]["instances"][0]
    assert row["set"] == "X"
    assert row["order_reached"] == 7**2 * 6
    assert "certificate_bound" in row


def test_tail_within_bound(tmp_path):
    code, doc = run(tmp_path, "tail", "--n", "200", "--p", "11", "--eps", "0.3",
                    "--trials", "500", "--seed", "2")
    assert code == 0
    res = doc["body"]["results"]
    assert res["within_bound"] is True
    assert res["bound"] == pytest.approx(4 * math.exp(-0.09 * 200 / 8), rel=1e-12)


def test_tail_usage_error(tmp_path):
    code, _ = run(tmp_path, "tail", "--n", "200", "--p", "11", "--eps", "0.001",
                  "--trials", "10")
    assert code == 1


def test_kazhdan_c2(tmp_path):
    code, doc = run(tmp_path, "kazhdan", "--group", "C2", "--opt")
    assert code == 0
    res = doc["body"]["results"]
    assert res["interval"]["lower"] == pytest.approx(2.0, abs=1e-9)
    assert res["interval"]["upper"] == pytest.approx(2.0, abs=1e-9)
    assert res["restricted_upper"] == pytest.approx(2.0, abs=1e-9)


def test_kazhdan_unknown_group(tmp_path):
    code, _ = run(tmp_path, "kazhdan", "--group", "M24")
    assert code == 1


def test_verify_single_group(tmp_path):
    code, doc = run(tmp_path, "verify", "--group", "S3", "--trials", "50")
    assert code == 0
    res = doc["body"]["results"]
    assert res["falsifications"] == 0
    assert {r["title"] for r in res["reports"]} == {
        "basic-bounds", "almost-invariant-projection"
    }


def test_verify_all_small(tmp_path):
    code, doc = run(tmp_path, "verify", "--all", "--trials", "30",
                    "--max-sweep-n", "3")
    assert code == 0
    res = doc["body"]["results"]
    assert res["falsifications"] == 0
    assert len(res["sweeps"]) == 6  # n in {2, 3} x p in {2, 3, 5}
    titles = {(r["group"], r["title"]) for r in res["reports"]}
    assert ("V0xS3_p3", "inequality-chain") in titles
    assert ("S3_as_product", "inequality-chain") in titles


def test_verify_exit_two_on_falsification(tmp_path, monkeypatch):
    broken = kazhdan.VerificationReport(group="C2", title="basic-bounds")
    broken.checks.append(kazhdan.CheckResult("forced", passed=False))
    monkeypatch.setattr(kazhdan, "verify_basic_bounds",
                        lambda *a, **k: broken)
    code, doc = run(tmp_path, "verify", "--group", "C2", "--trials", "10")
    assert code == 2
    assert doc["body"]["results"]["falsifications"] == 1


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["certify", "--n", "4"]) == 1  # missing --p
    assert main(["nonsense"]) == 1
    assert main(["diam", "--n", "2"]) == 1  # neither --p nor --p-list
    config = tmp_path / "p.json"
    config.write_text('{"p": 5}')
    for argv in (["diam", "--n", "2", "--p", "5", "--p-list", "7"],  # both
                 ["diam", "--config", str(config), "--n", "2", "--p-list", "7"]):
        capsys.readouterr()
        assert main(argv + ["--results-dir", str(tmp_path / "r")]) == 1, argv
        assert capsys.readouterr().err == "error: give --p or --p-list, not both\n"
    assert not (tmp_path / "r").exists()
    for argv in (["gap", "--n", "5", "--p", "0"], ["gap", "--n", "-1", "--p", "3"],
                 ["verify", "--group", "C2", "--trials", "0"],
                 ["kazhdan", "--group", "S3", "--opt", "--restarts", "-3"]):
        capsys.readouterr()
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ("prime" in err or ">= " in err), (argv, err)
    for cap in ("0", "-5"):  # a usage error, not a group past the cap
        capsys.readouterr()
        assert main(["diam", "--n", "3", "--p", "5", "--order-cap", cap]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --order-cap") and err.count("\n") == 1


@pytest.mark.parametrize("line", ["T1 perm ()", "C1 perm (0)"])
def test_order_one_groups_exit_one(tmp_path, capsys, line):
    """An order-1 group has no mean-zero vector: one error line, exit 1, and
    no numpy warning, for the suite and for the optimizer alike."""
    catalog = tmp_path / "cat.txt"
    catalog.write_text(line + "\n")
    name = line.split()[0]
    for argv in (["verify", "--group", name], ["kazhdan", "--group", name, "--opt"]):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--catalog", str(catalog), "--results-dir", str(tmp_path / "r")])
        err = capsys.readouterr().err
        assert code == 1, (argv, err)
        assert err.startswith("error: ") and err.count("\n") == 1 and "order 1" in err, err


@pytest.mark.parametrize("command", [["kazhdan", "--group", "G"], ["verify", "--group", "G"]])
@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_unreadable_catalog_exits_one(tmp_path, capsys, command, case):
    """A catalog path that does not exist, names a directory or holds bytes
    that are not UTF-8: one error line, exit 1, before any group is built."""
    catalog = {"missing": tmp_path / "absent.txt", "directory": tmp_path,
               "not-utf8": tmp_path / "latin1.txt"}[case]
    if case == "not-utf8":
        catalog.write_bytes("G perm (0 1) # \u00e9\n".encode("latin-1"))
    code = main(command + ["--catalog", str(catalog), "--results-dir", str(tmp_path / "r")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"error: cannot read catalog {catalog}: ") and err.count("\n") == 1, err


def test_catalog_digest_keys_the_index(tmp_path):
    """Two catalogs that define G differently key two index entries, and
    each body names its catalog's sha256; without --catalog the config has
    no such field."""
    results = tmp_path / "r"
    orders = []
    for name, line in (("A", "G perm (0 1)"), ("B", "G perm (0 1 2)")):
        catalog = tmp_path / name
        catalog.write_text(line + "\n")
        out = tmp_path / f"{name}.json"
        argv = ["kazhdan", "--group", "G", "--catalog", str(catalog)]
        assert main(argv + ["--results-dir", str(results), "--out", str(out)]) == 0
        body = json.loads(out.read_text())["body"]
        assert body["config"]["catalog_sha256"] == hashlib.sha256(catalog.read_bytes()).hexdigest()
        orders.append(body["results"]["order"])
    assert orders == [2, 3]
    index = json.loads((results / "index.json").read_text())
    assert sorted(entry["result"] for entry in index.values()) == sorted(
        path.name for path in results.glob("kazhdan-*.json"))
    assert len(index) == 2
    code, doc = run(tmp_path, "kazhdan", "--group", "C2")
    assert code == 0 and "catalog_sha256" not in doc["body"]["config"]


def test_memory_error_exits_three_without_traceback(tmp_path, monkeypatch, capsys):
    def exhausted(args, manifest):
        raise MemoryError("Unable to allocate 16.0 GiB")

    monkeypatch.setitem(cli._HANDLERS, "diam", exhausted)
    code, doc = run(tmp_path, "diam", "--n", "3", "--p", "5")
    assert code == 3
    assert doc is None
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate 16.0 GiB\n"

    def bare(args, manifest):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "diam", bare)
    assert run(tmp_path, "diam", "--n", "3", "--p", "5") == (3, None)
    assert capsys.readouterr().err == "error: out of memory\n"


_BFS_STATE = "the exact BFS (key tables, one state byte per element) needs about "


@pytest.mark.parametrize("n,p,cap,refusal", [
    pytest.param("5", "1000003", "3000000000", "group order p^(n-1) n! = 2^86.6 does not fit "
                 "int64 keys (limit 2^63)", id="5-1000003-limit 2^63"),
    pytest.param("11", "2", "3000000000", _BFS_STATE + "56.5 GiB (limit 1 GiB)",
                 id="11-2-limit 1 GiB"),
    pytest.param("9", "3", "3000000000", _BFS_STATE + "2.5 GiB (limit 1 GiB)",
                 id="9-3-state-bytes"),
    pytest.param("6", "7", str(cli.DEFAULT_ORDER_CAP), "group order p^(n-1) n! = 12101040 "
                 "is past --order-cap 5000000", id="6-7-past-the-default-cap"),
    pytest.param("8", "7", "2000000000", _BFS_STATE + "31.0 GiB (limit 1 GiB)",
                 id="8-7-state-bytes"),
])
def test_diam_refuses_unkeyable_groups_up_front(tmp_path, monkeypatch, capsys, n, p, cap,
                                                refusal):
    """Keys past int64, or key tables and one state byte per element past
    1 GiB (order 2.4e9 at n = 9, p = 3; 3.3e10 at n = 8, p = 7), or a group
    order past the cap (1.2e7 at n = 6, p = 7): exit 3 with one line naming
    the limit, before any table is built."""
    def unexpected(*args):
        raise AssertionError("key tables built for a refused group")

    monkeypatch.setattr(semidirect, "_key_tables", unexpected)
    start = time.perf_counter()
    code, doc = run(tmp_path, "diam", "--n", n, "--p", p, "--order-cap", cap)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and doc is None
    assert capsys.readouterr().err == f"error: {refusal}\n"


SWEEP_REFUSAL = "error: the support-one sweep needs about "


@pytest.mark.parametrize("argv,refusal", [
    (("certify", "--n", "5000", "--p", "2147483647", "--max-trials", "1"), SWEEP_REFUSAL),
    (("diam", "--set", "X", "--n", "5000", "--p", "2147483647", "--max-trials", "1"),
     SWEEP_REFUSAL),
    (("certify", "--n", "100000000", "--p", "5", "--max-trials", "1"),
     "error: writing v into the manifest needs about 19.4 GiB"),
    (("diam", "--set", "X", "--n", "100000000", "--p", "5", "--max-trials", "1"),
     SWEEP_REFUSAL + "2.2 GiB"),
], ids=["argv0", "argv1", "certify-long-v", "diam-X-long-v"])
def test_oversized_sweep_refused_up_front(tmp_path, monkeypatch, capsys, argv, refusal):
    """A sweep estimated past 1 GiB (5000 residues at p = 2^31 - 1), or a
    vector of 10^8 entries (its draw, and for certify its rendering in the
    manifest): exit 3 with one line naming the figure, before any candidate
    is drawn."""
    def unexpected(*args):
        raise AssertionError("candidate drawn for a refused sweep")

    monkeypatch.setattr(expsum, "_draw_v0", unexpected)
    start = time.perf_counter()
    code, doc = run(tmp_path, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3 and doc is None
    err = capsys.readouterr().err
    assert err.startswith(refusal)
    assert err.count("\n") == 1 and "limit 1 GiB" in err and "Traceback" not in err, err


def test_oversized_tail_refused_up_front(tmp_path, monkeypatch, capsys):
    """A tail block estimated past 1 GiB (one trial of 3 * 10^7 entries):
    exit 3 with one line naming the figure, before any vector is drawn."""
    def unexpected(*args):
        raise AssertionError("vector drawn for a refused tail experiment")

    monkeypatch.setattr(expsum, "_draw_v0", unexpected)
    start = time.perf_counter()
    code, doc = run(tmp_path, "tail", "--n", "30000000", "--p", "101", "--eps", "0.25",
                    "--trials", "100000")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and doc is None
    err = capsys.readouterr().err
    assert err == "error: the tail experiment needs about 1.3 GiB (limit 1 GiB)\n"


def test_oversized_audit_refused_up_front(tmp_path, monkeypatch, capsys):
    """A projection audit estimated past 1 GiB (2 * 10^8 trials over the 24
    elements of S4, or over C2, the first group under --all), or one of no
    trials: one line naming the figure, before any vector is drawn and,
    under --all, before any switching sweep."""
    def unexpected(*args):
        raise AssertionError("vectors drawn for a refused audit")

    monkeypatch.setattr(kazhdan, "master_rng", unexpected)
    for argv, code_want, refusal in [
        (["--group", "S4", "--trials", "200000000"], 3,
         "the projection audit needs about 119.2 GiB (limit 1 GiB)"),
        (["--all", "--max-sweep-n", "3", "--trials", "200000000"], 3,
         "the projection audit needs about 20.9 GiB (limit 1 GiB)"),
        (["--all", "--max-sweep-n", "3", "--trials", "0"], 1, "need trials >= 1, got 0"),
    ]:
        start = time.perf_counter()
        code, doc = run(tmp_path, "verify", *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == code_want and doc is None, argv
        out, err = capsys.readouterr()
        assert "verify switching" not in out, argv
        assert err == f"error: {refusal}\n"


def test_certify_past_the_table_cap_builds_no_table(tmp_path, monkeypatch):
    """At p = 1000003 the sweep computes its characters: a table there would
    cost more to build than the three sweeps save."""
    def no_table(p):
        raise AssertionError(f"character table built at p = {p}")

    monkeypatch.setattr(modp, "ep_table", no_table)
    code, doc = run(tmp_path, "certify", "--n", "64", "--p", "1000003", "--threshold", "0.2",
                    "--max-trials", "3")
    assert code == 0 and doc["body"]["results"]["trials"] == 3


def test_verify_sweep_past_the_guard_refused_up_front(tmp_path, monkeypatch, capsys):
    """--max-sweep-n past EXACT_MAX_N: exit 1 with one line, before any
    sweep runs (the sweeps for n up to 10 alone take many seconds)."""
    def unexpected(*args):
        raise AssertionError("sweep run for a refused --max-sweep-n")

    monkeypatch.setattr(expsum, "switching_sweep", unexpected)
    start = time.perf_counter()
    code, doc = run(tmp_path, "verify", "--all", "--max-sweep-n", "11")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and doc is None
    assert capsys.readouterr().err == "error: --max-sweep-n must be at most 10, got 11\n"


@pytest.mark.parametrize("argv,cap,refusal", [
    (["--group", "V0xS3_p3", "--opt", "--restarts", "-1"], None, "need restarts >= 0, got -1"),
    (["--group", "S3", "--opt"], 5, "optimizer guarded at order 5"),
], ids=["restarts", "order-cap"])
def test_kazhdan_opt_refused_before_the_interval(tmp_path, monkeypatch, capsys, argv, cap,
                                                 refusal):
    """An --opt the optimizer refuses (a negative --restarts, a group past
    OPT_ORDER_CAP): exit 1 with one line, before the interval's eigensolve."""
    def unexpected(*args):
        raise AssertionError("interval solved for a refused --opt")

    monkeypatch.setattr(kazhdan, "kazhdan_interval", unexpected)
    if cap is not None:
        monkeypatch.setattr(kazhdan, "OPT_ORDER_CAP", cap)
    code, doc = run(tmp_path, "kazhdan", *argv)
    assert code == 1 and doc is None
    assert capsys.readouterr().err == f"error: {refusal}\n"


def test_unwritable_results_dir_exits_one_without_traceback(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["certify", "--n", "8", "--p", "11", "--results-dir", str(blocker / "sub")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write results: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv,unbuffered", [
    (["gap", "--n", "4", "--p", "7"], "1"),
    (["gap", "--n", "4", "--p", "7", "--format", "csv"], ""),
    (["diam", "--n", "3", "--p", "5"], "1"),
], ids=["gap-json", "gap-csv-buffered", "diam-exact"])
def test_closed_stdout_exits_five_with_the_manifest_written(tmp_path, argv, unbuffered):
    """A child whose stdout pipe is closed before it prints: one line on
    stderr and no traceback, its manifest written and equal to an in-process
    run's, and exit 5. Python's stdout is unbuffered in one case and
    block-buffered in another, so the broken pipe shows at a print or at a
    flush."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               PYTHONUNBUFFERED=unbuffered)
    results = tmp_path / "child"
    proc = subprocess.Popen([sys.executable, "-m", "expander_forge", *argv,
                             "--results-dir", str(results)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == cli.EXIT_PIPE == 5, err
    (written,) = [p for p in results.iterdir() if p.name != "index.json"]
    assert err == f"error: stdout closed before the output was written; results are in {written}\n"
    here = tmp_path / "here"
    main(argv + ["--results-dir", str(here)])
    assert (json.loads(written.read_text())["body"]
            == json.loads((here / written.name).read_text())["body"])


class _ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    `fileno` is a file of the test's own, which the guard points at
    /dev/null."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_closed_stdout_keeps_the_run_s_own_code(tmp_path, monkeypatch, capsys):
    """A run that would exit 2 keeps that code when its stdout is closed,
    and still writes its manifest. A refused run (exit 3) stops before it
    prints, so a stand-in handler prints and then reports a falsification."""
    def falsified(args, manifest):
        print("falsified")
        manifest.results = {"falsified": True}
        return cli.EXIT_FALSIFIED

    monkeypatch.setitem(cli._HANDLERS, "gap", falsified)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(fd))
        code = main(["gap", "--n", "3", "--p", "5", "--results-dir", str(tmp_path / "r")])
    finally:
        os.close(fd)
    assert code == cli.EXIT_FALSIFIED == 2
    (written,) = [p for p in (tmp_path / "r").iterdir() if p.name != "index.json"]
    assert json.loads(written.read_text())["body"]["results"] == {"falsified": True}
    err = capsys.readouterr().err
    assert err == f"error: stdout closed before the output was written; results are in {written}\n"


@pytest.mark.parametrize("text", ["{\n", "[]", '"x"'], ids=["truncated", "array", "string"])
def test_corrupt_index_exits_one_without_traceback(tmp_path, capsys, text):
    results = tmp_path / "results"
    results.mkdir()
    (results / "index.json").write_text(text)
    code = main(["certify", "--n", "8", "--p", "11", "--results-dir", str(results)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write results: ") and err.count("\n") == 1, err


def test_arithmetic_error_exits_four_without_traceback(tmp_path, monkeypatch, capsys):
    def breached(args, manifest):
        raise ArithmeticError("character table entries drifted off the unit circle")

    monkeypatch.setitem(cli._HANDLERS, "gap", breached)
    code, doc = run(tmp_path, "gap", "--n", "3", "--p", "5")
    assert code == cli.EXIT_INTERNAL == 4
    assert doc is None
    err = capsys.readouterr().err
    assert err == ("error: internal invariant violated: "
                   "character table entries drifted off the unit circle\n")


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "command": "certify", "n": 2, "p": 5, "seed": 1, "max_trials": 7,
    }))
    out = tmp_path / "a.json"
    code = main(["--config", str(cfg), "--results-dir", str(tmp_path / "r"),
                 "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())["body"]
    assert body["config"]["n"] == 2 and body["config"]["max_trials"] == 7

    out2 = tmp_path / "b.json"
    code = main(["certify", "--config", str(cfg), "--max-trials", "9",
                 "--results-dir", str(tmp_path / "r"), "--out", str(out2)])
    assert code == 0
    body2 = json.loads(out2.read_text())["body"]
    assert body2["config"]["max_trials"] == 9  # explicit flag beat the file


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "not-json",
                                  "command-not-str"])
def test_unreadable_config_exits_one(tmp_path, capsys, case):
    cfg = {"missing": tmp_path / "absent.json", "directory": tmp_path,
           "not-utf8": tmp_path / "latin1.json", "not-json": tmp_path / "bad.json",
           "command-not-str": tmp_path / "command.json"}[case]
    if case == "not-utf8":
        cfg.write_bytes('{"n": 2, "note": "é"}'.encode("latin-1"))
    elif case == "not-json":
        cfg.write_text("{n: 2")
    elif case == "command-not-str":
        cfg.write_text('{"command": 5}')
    argv = ["--config", str(cfg)]
    assert main(argv if case == "command-not-str" else ["certify"] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {cfg}: ") and err.count("\n") == 1, err


def test_manifest_persistence_and_index(tmp_path):
    results = tmp_path / "results"
    code = main(["certify", "--n", "8", "--p", "11", "--seed", "3",
                 "--results-dir", str(results)])
    assert code == 0
    files = sorted(p.name for p in results.glob("certify-*.json"))
    assert len(files) == 1
    index = json.loads((results / "index.json").read_text())
    assert len(index) == 1
    assert list(index.values())[0]["result"] == files[0]
    # rerunning the same config reuses the same content hash
    main(["certify", "--n", "8", "--p", "11", "--seed", "3",
          "--results-dir", str(results)])
    assert sorted(p.name for p in results.glob("certify-*.json")) == files


def test_index_keeps_entries_and_leaves_no_temp_files(tmp_path):
    results = tmp_path / "results"
    for seed in ("3", "4"):
        assert main(["certify", "--n", "8", "--p", "11", "--seed", seed,
                     "--results-dir", str(results), "--out", str(tmp_path / "out.json")]) == 0
    index = json.loads((results / "index.json").read_text())
    assert len(index) == 2
    names = {p.name for p in results.iterdir()}
    assert names == {"index.json"} | {entry["result"] for entry in index.values()}
    assert [p.name for p in tmp_path.iterdir() if p.is_file()] == ["out.json"]


# criterion 9's commands (tests/test_acceptance.py)
CRITERION_9 = [
    ["certify", "--n", "64", "--p", "61", "--seed", "11"],
    ["gap", "--n", "2", "--p", "5", "--crosscheck", "dense"],
    ["diam", "--n", "2", "--p-list", "5,11,23"],
    ["tail", "--n", "500", "--p", "101", "--eps", "0.3", "--trials", "200", "--seed", "4"],
    ["kazhdan", "--group", "D5", "--opt", "--seed", "6"],
    ["verify", "--all", "--trials", "60", "--max-sweep-n", "3", "--seed", "9"],
]


def _sha256(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True, indent=2).encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", CRITERION_9, ids=[argv[0] for argv in CRITERION_9])
def test_rendered_files_are_canonical(tmp_path, capsys, argv, fmt):
    """Each results file is its document rendered with sorted keys and a
    two-space indent, named by the digest of its body so rendered, and keyed
    in the index by the digest of its config; `--out` mirrors the results
    file in JSON mode and holds the printed table in CSV mode."""
    results, out = tmp_path / "results", tmp_path / "out"
    assert main(argv + ["--format", fmt, "--results-dir", str(results),
                        "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    (path,) = results.glob(f"{argv[0]}-*.json")
    text = path.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert path.name == f"{argv[0]}-{_sha256(doc['body'])[:16]}.json"
    index = json.loads((results / "index.json").read_text())
    assert index == {_sha256(doc["body"]["config"]): {"command": argv[0],
                                                       "result": path.name}}
    if fmt == "json":
        assert out.read_bytes() == path.read_bytes()
        assert stdout.endswith(f"manifest: {path}\n")
    else:
        table = out.read_bytes().decode()
        assert table == render_csv(argv[0], doc["body"]) and stdout.endswith(table)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_body_built_and_rendered_once(tmp_path, monkeypatch, fmt):
    """One run builds its manifest body once, and json.dumps sees that body
    once: the document around it is not rendered again."""
    bodies, rendered = [], []
    build, dumps = manifest.ResultManifest.body, json.dumps

    def counted_body(self):
        bodies.append(build(self))
        return bodies[-1]

    def counted_dumps(obj, *args, **kwargs):
        rendered.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(manifest.ResultManifest, "body", counted_body)
    monkeypatch.setattr(json, "dumps", counted_dumps)
    assert main(["certify", "--n", "16", "--p", "13", "--seed", "5", "--format", fmt,
                 "--results-dir", str(tmp_path / "r"), "--out", str(tmp_path / "o")]) == 0
    (body,) = bodies
    assert sum(obj is body for obj in rendered) == 1
    assert not any(v is body for obj in rendered if isinstance(obj, dict) for v in obj.values())


def _builtin_tree(value):
    """True when value is a bool, int, float or a nest of lists of them."""
    if isinstance(value, list):
        return all(_builtin_tree(x) for x in value)
    return type(value) in (bool, int, float)


@pytest.mark.parametrize("value", [
    np.int64(-3), np.float64(0.1), np.bool_(True),
    *(np.array(data, dtype=dtype)
      for data in (7, [1, 2, 3], [[1, 0], [0, 1]]) for dtype in (np.int64, np.float64, bool)),
], ids=lambda v: f"{type(v).__name__}-{v.dtype}-{np.ndim(v)}d")
def test_jsonable_returns_builtins(value):
    converted = manifest.jsonable(value)
    assert _builtin_tree(converted)
    assert np.array_equal(np.asarray(converted), value)
    assert np.asarray(converted).dtype.kind == np.asarray(value).dtype.kind


def test_manifest_version_is_the_package_version(tmp_path):
    """One version string: pyproject.toml's, the package's and the one each
    manifest body records."""
    pyproject = (Path(expander_forge.__file__).parents[2] / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, flags=re.M)
    assert version == expander_forge.__version__
    _, doc = run(tmp_path, "kazhdan", "--group", "C2")
    assert doc["body"]["artifact"]["version"] == version


def test_results_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(RESULTS_ENV, str(tmp_path / "envdir"))
    code = main(["certify", "--n", "8", "--p", "11", "--seed", "3"])
    assert code == 0
    assert list((tmp_path / "envdir").glob("certify-*.json"))


def test_manifest_bodies_reproducible(tmp_path):
    for argv in (
        ["certify", "--n", "16", "--p", "13", "--seed", "5"],
        ["gap", "--n", "2", "--p", "5"],
        ["diam", "--n", "2", "--p", "7"],
        ["tail", "--n", "100", "--p", "11", "--eps", "0.4", "--trials", "50"],
        ["kazhdan", "--group", "S3"],
        ["verify", "--group", "C2", "--trials", "20"],
    ):
        _, doc1 = run(tmp_path, *argv, out_name="first.json")
        _, doc2 = run(tmp_path, *argv, out_name="second.json")
        b1 = json.dumps(doc1["body"], sort_keys=True)
        b2 = json.dumps(doc2["body"], sort_keys=True)
        assert b1 == b2, argv[0]


def test_csv_headers_pinned(tmp_path):
    assert CSV_COLUMNS["diam"] == ["p", "group_order", "diameter",
                                   "l1_lower_bound", "log2_group_order",
                                   "polylog_ref", "truncated"]
    assert CSV_COLUMNS["certify"][:5] == ["n", "p", "threshold", "max_trials", "seed"]
    assert set(CSV_COLUMNS) == {"certify", "gap", "diam", "tail", "kazhdan", "verify"}


# each table's rows as the CLI rendered them when they were pinned: ints,
# bools and vector cells (space-separated entries, as str) compare exactly,
# floats to 1e-12 relative, and "" is an empty cell
CSV_GOLDEN = {
    "certify": [[8, 11, 0.5, 100, 3, True, 3, 0.42875370826424125, 4, 0.769360040017136,
                 "0 3 10 5 4 0 3 8"]],
    "gap": [[2, 5, "1 4", 0.6909830056250525, 0.30901699437494745, "1 0", 5, ""]],
    "diam": [[5, 10, 3, 2, 3.321928094887362, 11.03520626760198, False],
             [11, 22, 6, 5, 4.459431618637297, 19.886530361302064, False]],
    "tail": [[100, 11, 0.4, 1, 20, 0, 0.0, 0.5413411329464505, True, 0]],
    "kazhdan": [["C6", 6, 1, 0.5, 1.0, 1.0, ""]],
    "verify": [
        ["C2", "basic-bounds", "monotone_in_generators", True, 2.0, 2.0],
        ["C2", "basic-bounds", "full_set_reaches_sqrt2", True,
         1.4142135623730951, 1.4142135623730951],
        ["C2", "basic-bounds", "power_set_comparison", True, 2.0, 0.0],
        ["C2", "almost-invariant-projection", "projection_distance", True,
         0.7675069852333827, 0.7675069852333826]],
}


def _cell_matches(cell, want):
    if isinstance(want, float):
        return float(cell) == pytest.approx(want, rel=1e-12)
    return cell == str(want)


@pytest.mark.parametrize("argv,command", [
    (["certify", "--n", "8", "--p", "11", "--seed", "3"], "certify"),
    (["gap", "--n", "2", "--p", "5"], "gap"),
    (["diam", "--n", "2", "--p-list", "5,11"], "diam"),
    (["tail", "--n", "100", "--p", "11", "--eps", "0.4", "--trials", "20"], "tail"),
    (["kazhdan", "--group", "C6"], "kazhdan"),
    (["verify", "--group", "C2", "--trials", "10"], "verify"),
])
def test_csv_rendering_golden(tmp_path, argv, command):
    """Every cell of each command's table against its pinned rows; RFC 4180,
    so CRLF line endings."""
    _assert_csv_rows(tmp_path, argv, command, CSV_GOLDEN[command])


def _assert_csv_rows(tmp_path, argv, command, golden):
    _, doc = run(tmp_path, *argv)
    table = render_csv(command, doc["body"])
    assert table.endswith("\r\n")
    rows = list(csv.DictReader(io.StringIO(table, newline="")))
    assert len(rows) == len(golden)
    for row, want in zip(rows, golden):
        assert list(row) == CSV_COLUMNS[command] and len(want) == len(row)
        for (column, cell), value in zip(row.items(), want):
            assert _cell_matches(cell, value), (command, column, cell, value)


@pytest.mark.parametrize("argv,row", [
    (["--n", "3", "--p", "1000003", "--max-trials", "16"],
     [3, 1000003, 0.01, 16, 5, False, 16, "0.9999963070257659", 475344, "0.9999981535145878",
      "415142 847750 737114"]),
    (["--n", "8", "--p", "100003", "--max-trials", "64"],
     [8, 100003, 0.01, 64, 5, False, 64, "0.9229763900216361", 48769, "0.9622591689709616",
      "58743 32461 46784 647 61749 55540 66443 77645"]),
], ids=["3-1000003", "8-100003"])
def test_certify_csv_golden_at_few_residues(tmp_path, argv, row):
    """Every cell of two searches over vectors with few distinct residues at
    large p, where the sweep's blocks are 32 giant-step rows of 708 and 224
    outputs. The sweep maximum and the bound are pinned as the exact strings
    rendered, so a change of the blocks that moves a rounding shows."""
    argv = ["certify", *argv, "--threshold", "0.01", "--seed", "5"]
    _assert_csv_rows(tmp_path, argv, "certify", [row])


def test_verify_csv_golden_on_a_semidirect_group(tmp_path):
    """Every cell of `verify` on V0 x| S3 at p = 3 (order 54), the one
    shipped group with all three suites: the basic bounds, the projection
    audit and the three inequality-chain rows."""
    v, b, a, c = "V0xS3_p3", "basic-bounds", "almost-invariant-projection", "inequality-chain"
    _assert_csv_rows(tmp_path, ["verify", "--group", v, "--trials", "10"], "verify", [
        [v, b, "monotone_in_generators", True, 0.6501151673437346, 2.0],
        [v, b, "full_set_reaches_sqrt2", True, 1.414213562373095, 1.4142135623730951],
        [v, b, "power_set_comparison", True, 1.1260325006104914, 0.4507814684144974],
        [v, a, "projection_distance", True, 0.99993212143453, 2.435484444528575],
        [v, c, "semidirect_product_bound", True, 1.1260325006104914, 0.05103103630798288],
        [v, c, "subgroup_factorization", True, 1.1260325006104914, 0.3123435311879937],
        [v, c, "quotient_lift", True, 1.7320508075688723, 0.3061862178478973]])


def test_csv_sweep_rows_share_the_sweep_pass_rule():
    """A sweep's `passed` cells and its violation count come from one rule:
    a margin of -SWEEP_SLACK passes and one below it fails."""
    slack = expsum.SWEEP_SLACK
    sweep = expsum.SwitchingSweep(n=2, p=3, vector_count=3, class_count=1, pair_count=3,
                                  min_margin_plain=-2 * slack, min_margin_sharp=-slack)
    body = {"config": {}, "results": {"sweeps": [manifest.jsonable(sweep)], "reports": []}}
    rows = csv.DictReader(io.StringIO(render_csv("verify", body), newline=""))
    assert [(r["group"], r["suite"], r["check"], r["passed"], float(r["lhs"]), r["rhs"])
            for r in rows] == [("sweep_n2_p3", "switching", "plain", "False", -2 * slack, "0.0"),
                               ("sweep_n2_p3", "switching", "sharp", "True", -slack, "0.0")]
    assert sweep.violations() == 1


def test_csv_format_writes_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    code = main(["diam", "--n", "2", "--p-list", "5,11", "--format", "csv",
                 "--results-dir", str(tmp_path / "r"), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.splitlines()[0] == ",".join(CSV_COLUMNS["diam"])
    assert capsys.readouterr().out.startswith("diam n=2")


class _OverBudget(BaseException):
    """Raised by the alarm when a fuzz case overruns its budget; a
    BaseException, so no handler in the CLI can swallow it."""


# semidirect entries at n = 2, where T holds the transposition twice, and at
# n = 3, and one permutation group: `verify --group` and `kazhdan` on groups
# outside the shipped catalog
FUZZ_CATALOG = """\
Z23 semidirect 2 3
Z25 semidirect 2 5
Z33 semidirect 3 3
Z35 semidirect 3 5
A4 perm (0 1 2); (1 2 3)
"""


def _fuzz_argv(rng, catalog):
    """One random small invocation: n <= 6, p <= 13, mostly valid, with
    invalid n, p and flag values mixed in. Work-scaling flags stay small: diam
    gets an --order-cap of at most 20000, except at n = 2 with p = 10007,
    20011 or 40009 under the default cap (an exact BFS of about p/2 narrow layers),
    and the dense cross-check is drawn only for n <= 4 (dimension 2197 at
    most). certify also draws p = 1000003 or 10000019, with one trial, and
    tail p = 2147483647. kazhdan and verify --group draw their group from the
    shipped catalog or from the file `catalog` holding FUZZ_CATALOG."""
    command = rng.choice(["certify", "gap", "diam", "tail", "kazhdan", "verify"])
    n = str(rng.randint(2, 6) if rng.random() < 0.8 else rng.randint(-1, 1))
    p = str(rng.choice([2, 3, 5, 7, 11, 13]) if rng.random() < 0.75 else rng.randint(-1, 13))
    groups = ["C2", "C6", "S3", "D5", "S4", "V0xS3_p3", "M24"]

    def group():
        if rng.random() < 0.5:
            return ["--group", rng.choice(groups)]
        return ["--group", rng.choice(["Z23", "Z25", "Z33", "Z35", "A4"]), "--catalog", catalog]

    if command == "certify":
        threshold = rng.choice(["0.3", "0.6", "0.9", "1.5"])
        trials = rng.choice(["0", "1", "20", "200"])
        if rng.random() < 0.5:  # one sweep of p/2 = 5*10^5 or 5*10^6 outputs
            p, threshold, trials = rng.choice(["1000003", "10000019"]), "0.3", "1"
        argv = ["--n", n, "--p", p, "--threshold", threshold, "--max-trials", trials]
    elif command == "gap":
        argv = ["--n", n, "--p", p]
        if rng.random() < 0.4:
            argv += ["--v", ",".join(str(rng.randint(-3, 13)) for _ in range(rng.randint(1, 6)))]
        if int(n) <= 4 and rng.random() < 0.4:
            argv += ["--crosscheck", "dense"]
    elif command == "diam":
        if rng.random() < 0.4:
            argv = ["--n", "2", "--p", rng.choice(["10007", "20011", "40009"])]
        else:
            primes = ",".join(str(rng.choice([2, 3, 5, 7, 9, 11, 13]))
                              for _ in range(rng.randint(1, 3)))
            argv = ["--n", n] + (["--p-list", primes] if rng.random() < 0.3 else ["--p", p])
            argv += ["--order-cap", rng.choice(["0", "1", "50", "20000", "20000"])]
        argv += ["--set", rng.choice(["X", "Y"]), "--threshold", rng.choice(["0.5", "0.95"]),
                 "--max-trials", rng.choice(["1", "20"])]
    elif command == "tail":
        if rng.random() < 0.2:  # past the character-table cap: no p-sized array
            p = "2147483647"
        argv = ["--n", n, "--p", p, "--eps", rng.choice(["0.001", "0.5", "1.0", "2"]),
                "--trials", rng.choice(["0", "1", "200"]), "--u", str(rng.randint(-2, 13))]
    elif command == "kazhdan":
        argv = group()
        if rng.random() < 0.3:
            argv += ["--gens", rng.choice(["0", "0,1", "7", "x"])]
        if rng.random() < 0.5:
            argv += ["--opt", "--restarts", rng.choice(["0", "2"])]
    else:
        argv = (["--all", "--max-sweep-n", rng.choice(["0", "2", "3"])] if rng.random() < 0.3
                else group())
        argv += ["--trials", rng.choice(["0", "10", "50"])]
    argv += ["--seed", str(rng.randint(0, 99))]
    if rng.random() < 0.3:
        argv += ["--format", "csv"]
    return [command] + argv


def test_cli_fuzz_exit_codes_and_no_traceback(tmp_path, capsys):
    """40 seeded random small invocations and the pinned ones, in-process:
    each exits with a documented code, prints no traceback and finishes
    inside its budget."""
    budget, total = 2.0, 0.0

    def overrun(signum, frame):
        raise _OverBudget()

    rng = random.Random(20261018)
    # pinned, with their exit codes: a modulus past PRIME_CAP is a usage
    # error, not an overflow; a tail at the largest prime builds no p-sized
    # table; an exact BFS to diameter 20005, one narrow layer at a time,
    # finishes; a non-finite float flag is a usage error, and an eps whose
    # square overflows a float has the bound 0; a refused --opt is a usage error;
    # the largest dense cross-check drawn, dimension 2197, fits the budget; a tail
    # past the work guard is a usage error
    pinned = [(["certify", "--n", "8", "--p", "3000000019", "--max-trials", "1"], 1),
              (["tail", "--n", "10", "--p", "2147483647", "--eps", "1.0", "--trials", "200"], 0),
              (["diam", "--n", "2", "--p", "40009"], 0),
              (["tail", "--n", "100", "--p", "11", "--eps", "nan"], 1),
              (["tail", "--n", "100", "--p", "11", "--eps", "1e200"], 0),
              (["diam", "--n", "3", "--p", "5", "--threshold", "nan"], 1),
              (["certify", "--n", "8", "--p", "11", "--threshold", "inf"], 1),
              (["kazhdan", "--group", "V0xS3_p3", "--opt", "--restarts", "-1"], 1),
              (["gap", "--n", "4", "--p", "13", "--crosscheck", "dense"], 0),
              (["tail", "--n", "100000", "--p", "101", "--eps", "0.25", "--trials", "100000"], 1)]
    catalog = tmp_path / "fuzz.txt"
    catalog.write_text(FUZZ_CATALOG)
    cases = [argv for argv, _ in pinned] + [_fuzz_argv(rng, str(catalog)) for _ in range(40)]
    previous = signal.signal(signal.SIGALRM, overrun)
    try:
        for i, argv in enumerate(cases):
            argv = argv + ["--results-dir", str(tmp_path / "r"),
                           "--out", str(tmp_path / f"out{i}")]
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                code = main(argv)
            except _OverBudget:
                pytest.fail(f"over the {budget} s budget: {argv}")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            total += time.perf_counter() - start
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3, 4), (argv, code, err)
            assert "Traceback" not in err, (argv, err)
            if i < len(pinned):  # one line of error exactly when the exit is not 0
                want = pinned[i][1]
                assert code == want and err.count("\n") == (want != 0), (argv, err)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert total < 10.0
