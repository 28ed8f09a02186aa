"""Benchmark of the expander-forge CLI: four workloads, end-to-end metrics
from untraced runs, per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; the package is imported from the
checkout's src/, nothing is installed. Each workload is a short session of
CLI commands whose seeded inputs are derived from --seed. Sessions repeat
until --seconds is used up (at least two untraced sessions, so every
manifest body is checked against a repeat; at least one traced session).
Every command runs as its own child process, one at a time, with a fresh
--results-dir and a timeout.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json (medians
over sessions): wall_s and cpu_s summed over a session's commands,
peak_rss_mb the largest child, setup_s the median start-up of a child that
only imports the package. failed_frac is printed in the summary and carried
by the "attempted" and "failed" fields.

--trace 1 runs each command twice in-process under perfbench/tracer.py, once
plain and once with span recorders around the layer boundaries, and reports
the per-layer metrics named in BENCHMARK.json plus trace.overhead_s.

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
TRACER = HERE / "tracer.py"
SCRATCH = ROOT / ".perfbench_tmp"

WORKLOADS = ("certify", "spectrum", "diameter", "verify")
CHILD_TIMEOUT_S = 120.0
# hard stop for starting children, so a run ends well inside 180 s
RUN_DEADLINE_S = 150.0
SETUP_REPS = 7
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


# ----------------------------------------------------------------------
# workloads: commands with seeded inputs and output checks
# ----------------------------------------------------------------------

@dataclass
class Command:
    label: str
    argv: List[str]
    # takes the manifest's "results" and returns a failure reason or None
    check: Callable[[dict], Optional[str]]
    # p^(n-1) for a gap run: the characters its spectrum needs
    useful_characters: int = 0


def _certify_check(max_trials: int):
    def check(res):
        if res["found"] is not False:
            return "found a certificate below the 0.2 threshold"
        if res["trials"] != max_trials:
            return f"trials {res['trials']} != max_trials {max_trials}"
        return None
    return check


def _gap_check(n: int, p: int, crosscheck: bool):
    def check(res):
        if res["character_count"] != p ** (n - 1):
            return f"character_count {res['character_count']} != p^(n-1) = {p ** (n - 1)}"
        if crosscheck:
            cross = res.get("crosscheck") or {}
            if cross.get("agree") is not True or not cross["max_abs_diff"] <= 1e-8:
                return f"dense cross-check disagrees: {cross}"
        return None
    return check


def _diam_check(y_diameter: int, genset: str):
    def check(res):
        inst = res["instances"][0]
        if inst["truncated"] or inst["order_reached"] != inst["group_order"]:
            return f"BFS reached {inst['order_reached']} of {inst['group_order']}"
        if inst["diameter"] < inst["l1_lower_bound"]:
            return f"diameter {inst['diameter']} below the l1 bound {inst['l1_lower_bound']}"
        if genset == "Y" and inst["diameter"] != y_diameter:
            return f"Y diameter {inst['diameter']} != recorded {y_diameter}"
        # the paper's contrast: the certified set X is strictly faster than Y
        if genset == "X" and not inst["diameter"] < y_diameter:
            return f"X diameter {inst['diameter']} not below Y's {y_diameter}"
        return None
    return check


def _verify_check(res):
    if res["falsifications"] != 0:
        return f"{res['falsifications']} falsification(s)"
    return None


def _kazhdan_check(res):
    lower, upper = res["interval"]["lower"], res["interval"]["upper"]
    if not lower <= upper:
        return f"empty interval [{lower}, {upper}]"
    # an explicit vector's displacement bounds the constant from above
    if not lower <= res["restricted_upper"] + 1e-9:
        return f"explicit upper {res['restricted_upper']} below certified lower {lower}"
    return None


def _seeded_distinct_sum_zero(rng: random.Random, n: int, p: int) -> List[int]:
    while True:
        v = rng.sample(range(p), n)
        if sum(v) % p == 0:
            return v


def workload_commands(workload: str, seed: int, small: bool = False) -> List[Command]:
    """The session for one workload. Every seeded input comes from
    (workload, seed); `small` shrinks the sizes for the harness self-test."""
    rng = random.Random(f"{workload}:{seed}")

    def cmd_seed() -> List[str]:
        return ["--seed", str(rng.randrange(2**31))]

    if workload == "certify":
        # both searches exhaust their budget: fixed work for every seed
        cmds = []
        for n, p, trials in ((16, 101, 20), (64, 1009, 2)) if small else \
                ((16, 10007, 1000), (64, 1000003, 3)):
            argv = ["certify", "--n", str(n), "--p", str(p), "--threshold", "0.2",
                    "--max-trials", str(trials)] + cmd_seed()
            cmds.append(Command(f"certify_n{n}_p{p}", argv, _certify_check(trials)))
        return cmds
    if workload == "spectrum":
        n, p = (4, 5) if small else (6, 11)
        v = _seeded_distinct_sum_zero(rng, n, p)
        n2, p2 = (3, 5) if small else (3, 11)
        return [
            Command(f"gap_n{n}_p{p}",
                    ["gap", "--n", str(n), "--p", str(p), "--v", ",".join(map(str, v))]
                    + cmd_seed(), _gap_check(n, p, False), p ** (n - 1)),
            Command(f"gap_n{n2}_p{p2}_dense",
                    ["gap", "--n", str(n2), "--p", str(p2), "--crosscheck", "dense"]
                    + cmd_seed(), _gap_check(n2, p2, True), p2 ** (n2 - 1)),
        ]
    if workload == "diameter":
        # Y's diameter is a fixed property of (n, p); X's depends on the seed
        n, p, y_diameter = (4, 5, 10) if small else (5, 11, 22)
        base = ["diam", "--n", str(n), "--p", str(p)]
        return [
            Command(f"diam_n{n}_p{p}_Y", base + cmd_seed(), _diam_check(y_diameter, "Y")),
            Command(f"diam_n{n}_p{p}_X", base + ["--set", "X"] + cmd_seed(),
                    _diam_check(y_diameter, "X")),
        ]
    if workload == "verify":
        if small:
            verify = ["verify", "--all", "--trials", "20", "--max-sweep-n", "2"]
            kaz = ["kazhdan", "--group", "S3", "--opt", "--restarts", "2"]
        else:
            verify = ["verify", "--all"]
            kaz = ["kazhdan", "--group", "V0xS3_p3", "--opt"]
        return [
            Command("verify", verify + cmd_seed(), _verify_check),
            Command("kazhdan_opt", kaz + cmd_seed(), _kazhdan_check),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------

@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: Optional[str] = None


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.pop("EXPANDER_FORGE_RESULTS", None)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def spawn(argv: List[str], workdir: Path, timeout: float) -> Child:
    """Run one child to completion in `workdir`; wall time from spawn to
    reap, CPU and peak RSS from its rusage. A timeout kills it and counts as
    a failure."""
    fired = threading.Event()
    with open(workdir / "stdout", "wb") as out, open(workdir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=workdir, env=_child_env())

        def expire() -> None:
            fired.set()
            proc.kill()

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    child = Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if fired.is_set():
        child.error = f"timed out after {timeout:.0f} s"
    elif proc.returncode != 0:
        lines = (workdir / "stderr").read_text(errors="replace").strip().splitlines()
        child.error = f"exit {proc.returncode}: {lines[-1] if lines else ''}"
    return child


class Runner:
    """Runs children under one scratch directory inside the checkout and
    enforces the run deadline."""

    def __init__(self) -> None:
        SCRATCH.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(dir=SCRATCH))
        self.started = time.perf_counter()
        self.count = 0

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def workdir(self) -> Path:
        self.count += 1
        path = self.dir / str(self.count)
        path.mkdir()
        return path

    def run(self, argv: List[str], workdir: Path) -> Child:
        if self.remaining() <= 1.0:
            return Child(0.0, 0.0, 0.0, "not started: run deadline reached")
        return spawn(argv, workdir, min(CHILD_TIMEOUT_S, self.remaining()))


def read_body(cmd: Command, workdir: Path) -> tuple:
    """(canonical body text, failure reason) of the command's manifest."""
    found = list((workdir / "results").glob(f"{cmd.argv[0]}-*.json"))
    if len(found) != 1:
        return None, f"expected one {cmd.argv[0]} manifest, found {len(found)}"
    try:
        body = json.loads(found[0].read_text())["body"]
        reason = cmd.check(body["results"])
    except json.JSONDecodeError as exc:
        return None, f"manifest is not JSON: {exc}"
    except (KeyError, IndexError, TypeError) as exc:
        return None, f"manifest lacks an expected field: {exc!r}"
    return json.dumps(body, sort_keys=True), reason


def nesting_errors(spans: list) -> int:
    """Spans that end before they start or leave their parent's interval."""
    bad = 0
    for _, start, end, parent in spans:
        if end < start:
            bad += 1
        elif parent >= 0 and not (spans[parent][1] <= start and end <= spans[parent][2]):
            bad += 1
    return bad


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

@dataclass
class Result:
    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    sessions: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    per_command: Dict[str, List[Child]] = field(default_factory=lambda: defaultdict(list))
    traces: List[dict] = field(default_factory=list)


class Checker:
    """Checks one command outcome, including that its manifest body is
    byte-identical to the first body seen for the same command."""

    def __init__(self, result: Result) -> None:
        self.result = result
        self.bodies: Dict[str, str] = {}

    def settle(self, cmd: Command, child: Child, workdir: Path, kind: str) -> bool:
        self.result.attempted += 1
        reason = child.error
        if reason is None:
            text, reason = read_body(cmd, workdir)
            if reason is None and self.bodies.setdefault(cmd.label, text) != text:
                reason = "manifest body differs from an earlier run with the same seed"
        if reason is not None:
            self.result.failures.append(f"{cmd.label} ({kind}): {reason}")
        return reason is None


def _keep_going(done: int, minimum: int, seconds: float, started: float,
                runner: Runner) -> bool:
    if runner.remaining() <= 1.0:
        return False
    if done < minimum:
        return True
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / done <= seconds


def _cli(cmd: Command, workdir: Path) -> List[str]:
    return cmd.argv + ["--results-dir", str(workdir / "results")]


def measure_untraced(cmds: List[Command], seconds: float, runner: Runner) -> Result:
    result = Result()
    setup = []
    for _ in range(SETUP_REPS):
        child = runner.run([sys.executable, "-c", "import expander_forge"], runner.workdir())
        result.attempted += 1
        if child.error is not None:
            result.failures.append(f"setup: {child.error}")
        setup.append(child.wall_s)
    checker = Checker(result)
    walls, cpus, rss = [], [], []
    started = time.perf_counter()
    while _keep_going(len(walls), 2, seconds, started, runner):
        wall = cpu = peak = 0.0
        for cmd in cmds:
            workdir = runner.workdir()
            child = runner.run([sys.executable, "-m", "expander_forge"] + _cli(cmd, workdir),
                               workdir)
            checker.settle(cmd, child, workdir, "cli")
            result.per_command[cmd.label].append(child)
            wall, cpu, peak = wall + child.wall_s, cpu + child.cpu_s, max(peak, child.rss_mb)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
    result.metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }
    result.sessions = len(walls)
    result.samples = {"setup_s": len(setup)}
    return result


def layer_metrics(traces: List[dict], untraced_wall: float, useful: int) -> Dict[str, float]:
    """Per-layer metrics of one traced session: span totals, self times and
    call counts by span name, the boundary counts (summed, or the maximum for
    peaks), and derived ratios."""
    out: Dict[str, float] = defaultdict(float)
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _) in enumerate(spans):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_time[i]
            out[f"{name}.calls"] += 1
        for key, n in trace["counts"].items():
            out[key] += n
        for key, n in trace["peaks"].items():
            out[key] = max(out[key], n)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["expsum.sweep_elems_per_s"] = ratio(out["expsum.sweep_elems"],
                                            out["expsum.support_one_sweep.s"])
    out["spectral.characters_useful_ratio"] = ratio(useful, out["spectral.characters"])
    out["semidirect.fresh_ratio"] = ratio(out["semidirect.new_elements"],
                                          out["semidirect.products"])
    out["trace.overhead_s"] = sum(t["wall_s"] for t in traces) - untraced_wall
    return out


def measure_traced(cmds: List[Command], seconds: float, runner: Runner) -> Result:
    result = Result()
    checker = Checker(result)
    sessions: List[Dict[str, float]] = []
    useful = sum(cmd.useful_characters for cmd in cmds)
    started = time.perf_counter()
    while _keep_going(len(sessions), 1, seconds, started, runner):
        traces, untraced_wall = [], 0.0
        for cmd in cmds:
            for traced in ("0", "1"):
                workdir = runner.workdir()
                out = workdir / "trace.json"
                child = runner.run([sys.executable, str(TRACER), str(out), traced, "--"]
                                   + _cli(cmd, workdir), workdir)
                trace = None
                if child.error is None:
                    trace = json.loads(out.read_text())
                    bad = nesting_errors(trace["spans"])
                    if bad:
                        child.error = f"{bad} span(s) outside their parent"
                if not checker.settle(cmd, child, workdir, f"in-process trace={traced}"):
                    continue
                if traced == "0":
                    untraced_wall += trace["wall_s"]
                else:
                    traces.append(trace)
                    result.traces.append(trace)
        sessions.append(layer_metrics(traces, untraced_wall, useful))
    names = set().union(*sessions)
    result.metrics = {k: statistics.median(s.get(k, 0.0) for s in sessions) for k in names}
    result.sessions = len(sessions)
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> Result:
    cmds = workload_commands(workload, seed, small)
    runner = Runner()
    try:
        if trace:
            return measure_traced(cmds, seconds, runner)
        return measure_untraced(cmds, seconds, runner)
    finally:
        runner.close()


# ----------------------------------------------------------------------
# environment stamp and report
# ----------------------------------------------------------------------

_PROBE = """
import importlib.util, json, numpy
from expander_forge import backend
print(json.dumps({"numpy": numpy.__version__, "active_backend": backend.ACTIVE_BACKEND,
                  "numba_importable": importlib.util.find_spec("numba") is not None}))
"""


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "EXPANDER_FORGE_BACKEND": os.environ.get("EXPANDER_FORGE_BACKEND"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        pass
    probe = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                           env=_child_env(), cwd=ROOT, timeout=60)
    if probe.returncode == 0:
        env.update(json.loads(probe.stdout))
    else:
        env["probe_error"] = probe.stderr.strip().splitlines()[-1:]
    return env


def steal_seconds() -> Optional[float]:
    """Machine-wide CPU time stolen by the hypervisor so far, if reported."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _terminate(signum, frame):
    # unwind through spawn(), which kills and reaps the running child
    raise SystemExit(128 + signum)


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def render(title: str, env: dict, result: Result, declared: List[dict]) -> List[str]:
    """The report: commented summary lines, then the result as one JSON line."""
    failed = len(result.failures)
    lines = [f"# expander-forge benchmark: {title}", "# env " + json.dumps(env, sort_keys=True)]
    for cmd, children in result.per_command.items():
        lines.append(f"# command {cmd}: n={len(children)} "
                     f"wall_s={statistics.median(c.wall_s for c in children):.4f} "
                     f"cpu_s={statistics.median(c.cpu_s for c in children):.4f} "
                     f"rss_mb={max(c.rss_mb for c in children):.1f}")
    lines += [f"# FAILED {failure}" for failure in result.failures]
    lines.append(f"# {'metric':<45} {'value':>16} {'unit':<8} n")
    for m in declared:
        n = result.samples.get(m["name"], result.sessions)
        lines.append(f"# {m['name']:<45} {result.metrics.get(m['name'], 0.0):>16.6g} "
                     f"{m['unit']:<8} {n}")
    lines.append(f"# {'failed_frac':<45} {failed / max(1, result.attempted):>16.6g} "
                 f"{'ratio':<8} {result.attempted}")
    metrics = {m["name"]: {"value": result.metrics.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    lines.append(json.dumps({"correct": failed == 0, "attempted": result.attempted,
                             "failed": failed, "metrics": metrics}))
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "expander_forge" / "cli.py").is_file():
        print(f"error: no expander_forge package under {SRC}; run inside a checkout",
              file=sys.stderr)
        return 2

    declared = load_spec()["per_layer" if args.trace else "end_to_end"]
    signal.signal(signal.SIGTERM, _terminate)
    load_start, steal_start = os.getloadavg(), steal_seconds()
    env = environment()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    env["loadavg_start"], env["loadavg_end"] = load_start, os.getloadavg()
    if steal_start is not None:
        env["steal_s"] = steal_seconds() - steal_start
    title = (f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
             f"trace={args.trace}")
    print("\n".join(render(title, env, result, declared)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
