"""CLI behavior: exit codes, manifest persistence, CSV schemas, config
files, and reproducibility."""

import json
import math
import random
import signal
import time

import pytest

from expander_forge import cli, kazhdan, semidirect
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


def test_diam_sweep_and_cap(tmp_path):
    code, doc = run(tmp_path, "diam", "--n", "2", "--p-list", "5,11")
    assert code == 0
    rows = doc["body"]["results"]["instances"]
    assert [r["diameter"] for r in rows] == [3, 6]
    assert all(r["l1_lower_bound"] <= r["diameter"] for r in rows)

    code, doc = run(tmp_path, "diam", "--n", "2", "--p", "11", "--order-cap", "10")
    assert code == 3
    assert doc["body"]["results"]["instances"][0]["truncated"] is True


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
    monkeypatch.setattr(cli.kazhdan, "verify_basic_bounds",
                        lambda *a, **k: broken)
    code, doc = run(tmp_path, "verify", "--group", "C2", "--trials", "10")
    assert code == 2
    assert doc["body"]["results"]["falsifications"] == 1


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["certify", "--n", "4"]) == 1  # missing --p
    assert main(["nonsense"]) == 1
    assert main(["diam", "--n", "2"]) == 1  # neither --p nor --p-list
    for argv in (["gap", "--n", "5", "--p", "0"], ["gap", "--n", "-1", "--p", "3"],
                 ["verify", "--group", "C2", "--trials", "0"]):
        capsys.readouterr()
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ("prime" in err or ">= " in err), (argv, err)
    for cap in ("0", "-5"):  # a cap below 1 would report order 1 as truncated
        capsys.readouterr()
        assert main(["diam", "--n", "3", "--p", "5", "--order-cap", cap]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --order-cap") and err.count("\n") == 1


def test_memory_error_exits_three_without_traceback(tmp_path, monkeypatch, capsys):
    def exhausted(args, manifest):
        raise MemoryError("Unable to allocate 16.0 GiB")

    monkeypatch.setitem(cli._HANDLERS, "diam", (exhausted, cli._HANDLERS["diam"][1]))
    code, doc = run(tmp_path, "diam", "--n", "3", "--p", "5")
    assert code == 3
    assert doc is None
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 16.0 GiB\n"


@pytest.mark.parametrize("n,p,limit", [("5", "1000003", "limit 2^63"),
                                         ("11", "2", "limit 1 GiB")])
def test_diam_refuses_unkeyable_groups_up_front(tmp_path, monkeypatch, capsys, n, p, limit):
    """Keys past int64, or key tables past 1 GiB: exit 3 with one line
    naming the limit, before any table is built."""
    def unexpected(*args):
        raise AssertionError("key tables built for a refused group")

    monkeypatch.setattr(semidirect, "_key_tables", unexpected)
    start = time.perf_counter()
    code, doc = run(tmp_path, "diam", "--n", n, "--p", p, "--order-cap", "1000")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and doc is None
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1, err
    assert limit in err and "Traceback" not in err


def test_unwritable_results_dir_exits_one_without_traceback(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["certify", "--n", "8", "--p", "11", "--results-dir", str(blocker / "sub")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write results: ") and err.count("\n") == 1, err


def test_corrupt_index_exits_one_without_traceback(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    (results / "index.json").write_text("{\n")
    code = main(["certify", "--n", "8", "--p", "11", "--results-dir", str(results)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write results: ") and err.count("\n") == 1, err


def test_arithmetic_error_exits_four_without_traceback(tmp_path, monkeypatch, capsys):
    def breached(args, manifest):
        raise ArithmeticError("character table entries drifted off the unit circle")

    monkeypatch.setitem(cli._HANDLERS, "gap", (breached, cli._HANDLERS["gap"][1]))
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


@pytest.mark.parametrize("argv,command", [
    (["certify", "--n", "8", "--p", "11", "--seed", "3"], "certify"),
    (["gap", "--n", "2", "--p", "5"], "gap"),
    (["diam", "--n", "2", "--p-list", "5,11"], "diam"),
    (["tail", "--n", "100", "--p", "11", "--eps", "0.4", "--trials", "20"], "tail"),
    (["kazhdan", "--group", "C6"], "kazhdan"),
    (["verify", "--group", "C2", "--trials", "10"], "verify"),
])
def test_csv_rendering_golden(tmp_path, argv, command):
    _, doc = run(tmp_path, *argv)
    table = render_csv(command, doc["body"])
    lines = table.split("\r\n")
    assert lines[0] == ",".join(CSV_COLUMNS[command])
    assert len(lines) >= 3  # header, at least one row, trailing newline
    # RFC 4180: CRLF line endings
    assert table.endswith("\r\n")


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


def _fuzz_argv(rng):
    """One random small invocation: n <= 6, p <= 13, mostly valid, with
    invalid n, p and flag values mixed in. Work-scaling flags stay small: diam always gets
    an --order-cap of at most 20000, and the dense cross-check is drawn only
    for n <= 3."""
    command = rng.choice(["certify", "gap", "diam", "tail", "kazhdan", "verify"])
    n = str(rng.randint(2, 6) if rng.random() < 0.8 else rng.randint(-1, 1))
    p = str(rng.choice([2, 3, 5, 7, 11, 13]) if rng.random() < 0.75 else rng.randint(-1, 13))
    groups = ["C2", "C6", "S3", "D5", "S4", "V0xS3_p3", "M24"]
    if command == "certify":
        argv = ["--n", n, "--p", p, "--threshold", rng.choice(["0.3", "0.6", "0.9", "1.5"]),
                "--max-trials", rng.choice(["0", "1", "20", "200"])]
    elif command == "gap":
        argv = ["--n", n, "--p", p]
        if rng.random() < 0.4:
            argv += ["--v", ",".join(str(rng.randint(-3, 13)) for _ in range(rng.randint(1, 6)))]
        if int(n) <= 3 and rng.random() < 0.4:
            argv += ["--crosscheck", "dense"]
    elif command == "diam":
        primes = ",".join(str(rng.choice([2, 3, 5, 7, 9, 11, 13])) for _ in range(rng.randint(1, 3)))
        argv = ["--n", n] + (["--p-list", primes] if rng.random() < 0.3 else ["--p", p])
        argv += ["--set", rng.choice(["X", "Y"]), "--threshold", rng.choice(["0.5", "0.95"]),
                 "--max-trials", rng.choice(["1", "20"]),
                 "--order-cap", rng.choice(["0", "1", "50", "20000", "20000"])]
    elif command == "tail":
        argv = ["--n", n, "--p", p, "--eps", rng.choice(["0.001", "0.5", "1.0", "2"]),
                "--trials", rng.choice(["0", "1", "200"]), "--u", str(rng.randint(-2, 13))]
    elif command == "kazhdan":
        argv = ["--group", rng.choice(groups)]
        if rng.random() < 0.3:
            argv += ["--gens", rng.choice(["0", "0,1", "7", "x"])]
        if rng.random() < 0.5:
            argv += ["--opt", "--restarts", rng.choice(["0", "2"])]
    else:
        argv = (["--all", "--max-sweep-n", rng.choice(["0", "2", "3"])] if rng.random() < 0.3
                else ["--group", rng.choice(groups)])
        argv += ["--trials", rng.choice(["0", "10", "50"])]
    argv += ["--seed", str(rng.randint(0, 99))]
    if rng.random() < 0.3:
        argv += ["--format", "csv"]
    return [command] + argv


def test_cli_fuzz_exit_codes_and_no_traceback(tmp_path, capsys):
    """40 seeded random small invocations, in-process: each exits with a
    documented code, prints no traceback and finishes inside its budget."""
    budget, total = 2.0, 0.0

    def overrun(signum, frame):
        raise _OverBudget()

    rng = random.Random(20261018)
    previous = signal.signal(signal.SIGALRM, overrun)
    try:
        for i in range(40):
            argv = _fuzz_argv(rng) + ["--results-dir", str(tmp_path / "r"),
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
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert total < 10.0
