"""CLI behavior: exit codes, manifest persistence, CSV schemas, config
files, and reproducibility."""

import json
import math

import pytest

from expander_forge import cli, kazhdan
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
