"""Smoke test of the benchmark harness at reduced sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with small command sizes
and checks that:
  - no command fails and the report's last line has the result's keys;
  - every end-to-end metric in BENCHMARK.json is measured on every workload,
    and every per-layer metric on at least one, each reported with its unit;
  - every recorded span lies inside its parent's interval, and the certify
    spans nest as search_vector > certify > support_one_sweep >
    backend.support_one_moduli.
Exits 0 when all hold; takes about half a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

CERTIFY_CHAIN = ["expsum.search_vector", "expsum.certify", "expsum.support_one_sweep",
                 "backend.support_one_moduli"]


def check_report(lines: list, declared: list, problems: list, where: str) -> None:
    report = json.loads(lines[-1])
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(report)}")
    if not report["correct"] or report["failed"] or report["attempted"] < 1:
        problems.append(f"{where}: {report['failed']} of {report['attempted']} failed")
    for m in declared:
        got = report["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append(f"{where}: metric {m['name']} reported as {got}")
    if not any(line.startswith("# failed_frac") for line in lines):
        problems.append(f"{where}: no failed_frac line")


def check_spans(traces: list, problems: list, where: str) -> int:
    nested = 0
    for trace in traces:
        spans = trace["spans"]
        if run.nesting_errors(spans):
            problems.append(f"{where}: spans outside their parent")
        nested += sum(1 for span in spans if span[3] >= 0)
        for i, span in enumerate(spans):
            if span[0] != CERTIFY_CHAIN[-1]:
                continue
            chain = [span[0]]
            while spans[i][3] >= 0 and len(chain) < len(CERTIFY_CHAIN):
                i = spans[i][3]
                chain.append(spans[i][0])
            if chain[::-1] != CERTIFY_CHAIN:
                problems.append(f"{where}: sweep kernel nests as {chain[::-1]}")
                break
    return nested


def main() -> int:
    spec = run.load_spec()
    problems: list = []
    measured_layers: set = set()
    for workload in run.WORKLOADS:
        for trace in (False, True):
            where = f"{workload} trace={int(trace)}"
            result = run.run_workload(workload, seed=0, seconds=0.0, trace=trace, small=True)
            declared = spec["per_layer" if trace else "end_to_end"]
            check_report(run.render(where, {}, result, declared), declared, problems, where)
            if trace:
                measured_layers |= set(result.metrics)
                if check_spans(result.traces, problems, where) == 0:
                    problems.append(f"{where}: no nested spans recorded")
            else:
                missing = {m["name"] for m in declared} - set(result.metrics)
                if missing:
                    problems.append(f"{where}: not measured: {sorted(missing)}")
            print(f"{where}: {result.attempted} attempted, {len(result.failures)} failed",
                  flush=True)
    never = {m["name"] for m in spec["per_layer"]} - measured_layers
    if never:
        problems.append(f"per-layer metrics measured on no workload: {sorted(never)}")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
