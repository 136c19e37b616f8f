"""End-to-end and per-layer benchmark of the graphtheta CLI.

Usage:
    python3 perfbench/run.py --workload {census,materialize,universe}
                             --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --selftest

Run from a checkout of the repository.  Set-up copies the checkout into
.bench_build/, builds it there with the repository's own setup.py, checks
that the package imports (recording graphtheta.treegen.BACKEND) and
writes the seeded inputs; it is repeated SETUP_REPS times and setup_s is
the median.  The workload's commands then run as subprocesses, one after
another, in rounds until S seconds have passed (at least MIN_ROUNDS
rounds), after one untimed warm-up round.  Every command's output is
checked against goldens (workloads.py).  Before each command a speed probe
runs on the CPU the command will use, and time metrics are scaled by it
(ref_wall).

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones (END_TO_END).  With --trace 1, traced
rounds (each command under tracer.py) alternate with untraced ones and
the metrics are the per-layer ones (PER_LAYER); times are medians over
traced rounds and call counts must repeat exactly between them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (
    SIZES, UNIVERSE_ORDER, WORKLOADS, CheckError, Command, Outcome,
    random_universe, workload_commands,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACER = HERE / "tracer.py"
SETUP_REPS = 5
MIN_ROUNDS = 5
COMMAND_TIMEOUT_S = 60
COPY_IGNORE = (".git", ".bench_build", HERE.name, "__pycache__", "*.egg-info",
               "build", ".hypothesis", ".pytest_cache")

END_TO_END = {
    # build + import + input generation at reference CPU speed, median of
    # SETUP_REPS
    "setup_s": "s",
    "wall_s": "s",  # one round of the workload at reference CPU speed (ref_wall)
    "graphs_per_s": "1/s",  # graphs (trees too) a round handles, per wall_s
    "peak_rss_mb": "MB",  # largest command's peak RSS, median over rounds
    "ok_ratio": "ratio",  # commands that exited 0 and passed their check
}
# "<module>.<fn>_calls" counts calls, "<module>.<fn>_s" is self time (time
# in the call minus traced calls made inside it), summed over processes.
PER_LAYER = {
    "treegen.trees": "count", "treegen.stream_s": "s",
    "treegen.abc_abs_sums_calls": "count", "treegen.abc_abs_sums_s": "s",
    "treegen.sequence_to_graph_calls": "count", "treegen.sequence_to_graph_s": "s",
    "indices.sign_of_gap_calls": "count", "indices.sign_of_gap_s": "s",
    "indices.extended_precision_calls": "count", "indices.extended_precision_s": "s",
    "indices.index_report_calls": "count", "indices.index_report_s": "s",
    "graphs.from_edge_list_calls": "count", "graphs.from_edge_list_s": "s",
    "graph6.encode_calls": "count", "graph6.encode_s": "s",
    "graph6.encode_useful_ratio": "ratio",
    "graph6.decode_calls": "count", "graph6.decode_s": "s",
    "canon.canonical_key_calls": "count", "canon.canonical_key_s": "s",
    "smallgraphs.universe_build_s": "s", "smallgraphs.dedup_ratio": "ratio",
    "smallgraphs.load_universe_s": "s",
    "linegraph.line_graph_calls": "count", "linegraph.line_graph_s": "s",
    "survey.self_s": "s", "survey.speedup_2w": "ratio", "survey.fanout_overhead_s": "s",
    "cli.startup_s": "s", "cli.scan_s": "s", "cli.near_ties_s": "s", "cli.enum_s": "s",
    "cli.index_s": "s", "cli.verify_s": "s",
    "trace.overhead_ratio": "ratio",
}
CALL_LAYERS = ("treegen.abc_abs_sums", "treegen.sequence_to_graph", "indices.sign_of_gap",
               "indices.extended_precision", "indices.index_report",
               "graphs.from_edge_list", "graph6.encode", "graph6.decode",
               "canon.canonical_key", "linegraph.line_graph")


@dataclass
class Result:
    """One command run."""

    cmd: Command
    wall: float
    probe: float  # speed_probe() on the command's CPUs just before it
    rss_mb: float
    outcome: Outcome | None  # None if the command failed
    spans: list[dict] = field(default_factory=list)


@dataclass
class Env:
    lib: Path
    tmp: Path
    backend: str


def _child_env(lib: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(lib)
    env["PYTHONHASHSEED"] = "0"
    return env


# --- set-up -----------------------------------------------------------

def build(dest: Path) -> Path:
    """Copy the checkout to ``dest`` and build it there with setup.py."""
    if not (ROOT / "setup.py").is_file():
        raise SystemExit(f"perfbench: no setup.py in {ROOT}; nothing to build")
    source = dest / "source"
    shutil.copytree(ROOT, source, ignore=shutil.ignore_patterns(*COPY_IGNORE))
    lib = dest / "lib"
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", str(dest / "build"),
         "--build-lib", str(lib)],
        cwd=source, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: build failed:\n{proc.stderr[-2000:]}")
    return lib


def setup_once(dest: Path, size: str, seed: int) -> Env:
    lib = build(dest)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import graphtheta.cli, graphtheta.treegen as t; print(t.BACKEND)"],
        env=_child_env(lib), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: built package does not import:\n{proc.stderr[-2000:]}")
    tmp = dest / "io"
    tmp.mkdir()
    graphs = random_universe(seed, UNIVERSE_ORDER, SIZES[size]["universe"])
    (tmp / "universe.g6").write_text("".join(g + "\n" for g in graphs), encoding="ascii")
    return Env(lib, tmp, proc.stdout.strip())


def setup(work: Path, size: str, seed: int, reps: int) -> tuple[Env, list[tuple]]:
    """Set up ``reps`` times; returns the last set-up and every (seconds,
    speed probe) pair, the probe taken on the CPU the set-up runs on."""
    times = []
    for i in range(reps):
        probe = speed_probe(CPUS[:1])
        t0 = time.perf_counter()
        env = setup_once(work / f"setup-{i}", size, seed)
        times.append((time.perf_counter() - t0, probe))
    return env, times


def header(backend: str) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    lines = Counter()
    for path in (ROOT / "src").rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            lines[path.suffix] += len(path.read_bytes().splitlines())
    return {"commit": commit, "backend": backend, "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": sum(lines.values()),
            "src_py_lines": lines[".py"]}


# --- running commands -------------------------------------------------

CPUS = sorted(os.sched_getaffinity(0))
# speed_probe() on an idle CPU of the reference host (2 vCPUs, Python 3.11)
REF_PROBE_S = 0.007


def _probe_loop() -> float:
    """A fixed pure-Python loop.  It keeps nothing in memory, so this
    process stays smaller than any command: a child's peak RSS counts the
    memory of the process that spawned it, before the exec."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def speed_probe(cpus: list[int]) -> float:
    """Best of 3 probe loops on each of ``cpus``; the slowest CPU's time.

    Leaves this process pinned to ``cpus``, which the next command inherits.
    """
    worst = 0.0
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        worst = max(worst, min(_probe_loop() for _ in range(3)))
    os.sched_setaffinity(0, cpus)
    return worst


def run_command(cmd: Command, env: Env, index: int, traced: bool) -> Result:
    spans_path = env.tmp / f"spans-{index}.jsonl"
    for old in env.tmp.glob(f"{spans_path.name}*"):
        old.unlink()
    prefix = [str(TRACER), str(spans_path)] if traced else ["-m", "graphtheta.cli"]
    out_path = env.tmp / f"stdout-{index}.txt"
    err_path = env.tmp / f"stderr-{index}.txt"
    # single-process commands run on the first CPU, like their probe
    probe = speed_probe(CPUS if "--workers" in cmd.args else CPUS[:1])
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *prefix, *cmd.args], stdout=out, stderr=err,
                                cwd=env.tmp, env=_child_env(env.lib), start_new_session=True)
        # kill the whole process group (pool workers too) if the command hangs
        timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = Result(cmd, wall, probe, usage.ru_maxrss / 1024, None)
    try:
        if proc.returncode != 0:
            raise CheckError(f"exit code {proc.returncode}")
        result.outcome = cmd.check(out_path.read_text(encoding="ascii"))
        if traced:
            for path in sorted(env.tmp.glob(f"{spans_path.name}*")):
                result.spans += [json.loads(ln) for ln in path.read_text().splitlines()]
    except (CheckError, ValueError, KeyError, OSError) as exc:
        stderr_tail = err_path.read_text(errors="replace")[-1000:]
        print(f"FAIL {cmd.label}: {exc}\n{stderr_tail}", file=sys.stderr)
    return result


def run_round(cmds: list[Command], env: Env, traced: bool) -> list[Result]:
    return [run_command(c, env, i, traced) for i, c in enumerate(cmds)]


def ref_wall(rounds: list[list[Result]]) -> float:
    """Seconds one round takes at reference CPU speed.

    The host's CPUs change speed by up to ~1.4x, for seconds at a time, as
    co-tenants come and go.  So each command's wall time is divided by a
    speed probe run on the same CPU just before it.  Contention only ever
    slows a command, and the probe cannot see a change of speed during the
    command, so the ratio's lower quartile over the rounds is taken rather
    than its median.  Over 10 seeds that gave a spread (IQR / median) of
    7-8%, against 6-11% for the median and 11-18% for the raw median round.
    The sum over commands is scaled to REF_PROBE_S.
    """
    return REF_PROBE_S * sum(
        statistics.quantiles([r.wall / r.probe for r in runs], n=4)[0]
        for runs in zip(*rounds))


def end_to_end(timed: list[list[Result]], setup_times: list[tuple]) -> dict[str, float]:
    wall = ref_wall(timed)
    return {
        "setup_s": REF_PROBE_S * statistics.median(t / probe for t, probe in setup_times),
        "wall_s": wall,
        "graphs_per_s": sum(r.outcome.graphs for r in timed[0]) / wall,
        "peak_rss_mb": statistics.median([max(r.rss_mb for r in rs) for rs in timed]),
    }


def raw_detail(timed: list[list[Result]], setup_times: list[tuple]) -> dict[str, float]:
    """Unscaled figures, printed beside the result for reference."""
    return {"median_setup_s": statistics.median(t for t, _ in setup_times),
            "median_round_s": statistics.median([sum(r.wall for r in rs) for rs in timed]),
            "best_round_s": sum(min(r.wall for r in runs) for runs in zip(*timed)),
            "median_probe_s": statistics.median([r.probe for rs in timed for r in rs]),
            "rounds": len(timed)}


# --- per-layer metrics ------------------------------------------------

def call_counts(results: list[Result]) -> dict[tuple, int]:
    """Every (span, caller) call count and distinct count of one round,
    summed over processes; these must repeat exactly between rounds."""
    counts: Counter = Counter()
    for r in results:
        for s in r.spans:
            key = (r.cmd.label, s["name"], s.get("caller", ""), "distinct" in s)
            counts[key] += s.get("distinct", s.get("calls", 0))
    return dict(counts)


def layer_times(results: list[Result]) -> dict[str, float]:
    """Per-layer values of one traced round."""
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    distinct: Counter = Counter()
    cli: Counter = Counter()
    startup = fanout = 0.0
    for r in results:
        for s in r.spans:
            if "distinct" in s:
                distinct[s["name"]] += s["distinct"]
                continue
            calls[s["name"]] += s["calls"]
            total[s["name"]] += s["total_s"]
            self_s[s["name"]] += s["self_s"]
        main = [s for s in r.spans if s["role"] == "main"]
        in_main = sum(s["total_s"] for s in main if s["name"] == "cli.main")
        startup += r.wall - in_main
        cli[r.cmd.subcommand.replace("-", "_")] += in_main
        per_worker: Counter = Counter()
        for s in r.spans:
            if s["role"] == "worker" and s["name"] == "survey.partition":
                per_worker[s["pid"]] += s["total_s"]
        if per_worker:
            # the parent waits for the slowest worker; the rest of its
            # census time is pool start-up, pickling and the merge
            slowest = max(per_worker.values())
            overhead = sum(s["total_s"] for s in main
                           if s["name"] == "survey.classify_trees") - slowest
            fanout += overhead
            self_s["survey.classify_trees"] += overhead - sum(
                s["self_s"] for s in main if s["name"] == "survey.classify_trees")
    m = {"treegen.trees": calls["treegen.stream"], "treegen.stream_s": self_s["treegen.stream"]}
    for layer in CALL_LAYERS:
        m[f"{layer}_calls"] = calls[layer]
        m[f"{layer}_s"] = self_s[layer]
    emitted = sum(r.outcome.emitted for r in results)
    encodes = calls["graph6.encode"]
    keys = calls["canon.canonical_key"]
    m |= {
        "graph6.encode_useful_ratio": emitted / encodes if encodes else 0.0,
        "smallgraphs.universe_build_s": total["smallgraphs.internal_universe"],
        "smallgraphs.dedup_ratio": distinct["canon.canonical_key"] / keys if keys else 0.0,
        "smallgraphs.load_universe_s": total["smallgraphs.load_universe"],
        "survey.self_s": sum(v for k, v in self_s.items() if k.startswith("survey.")),
        "survey.fanout_overhead_s": fanout,
        "cli.startup_s": startup,
        **{f"cli.{sub}_s": cli[sub] for sub in ("scan", "near_ties", "enum", "index", "verify")},
    }
    return m


def per_layer(untraced: list[list[Result]], traced: list[list[Result]]) -> dict[str, float]:
    rounds = [layer_times(rs) for rs in traced]
    m = {k: statistics.median([r[k] for r in rounds]) for k in rounds[0]}

    cmds = [r.cmd for r in untraced[0]]
    two = next((i for i, c in enumerate(cmds) if "--workers" in c.args), None)
    m["survey.speedup_2w"] = 0.0
    if two is not None:
        one = next(i for i, c in enumerate(cmds) if c.args[:2] == cmds[two].args[:2])
        # raw walls: the two commands run seconds apart, on different CPUs
        m["survey.speedup_2w"] = (statistics.median(rs[one].wall for rs in untraced)
                                  / statistics.median(rs[two].wall for rs in untraced))
    m["trace.overhead_ratio"] = ref_wall(traced) / ref_wall(untraced)
    return m


# --- measuring --------------------------------------------------------

def measure(name: str, env: Env, seed: int, size: str, seconds: float, trace: bool,
            min_rounds: int):
    """Warm-up round, then rounds until ``seconds`` have passed.

    Returns (all rounds, untraced timed rounds, traced rounds)."""
    cmds = workload_commands(name, size, seed, env.tmp)
    rounds = [run_round(cmds, env, traced=False)]
    untraced: list[list[Result]] = []
    traced: list[list[Result]] = []
    t0 = time.perf_counter()

    def done() -> bool:
        if time.perf_counter() - t0 < seconds:
            return False
        if trace:
            return len(traced) >= 2 and len(traced) == len(untraced)
        return len(untraced) >= min_rounds

    while not done():
        want_traced = trace and len(traced) < len(untraced)
        rs = run_round(cmds, env, traced=want_traced)
        print(f"round {len(rounds)} traced={int(want_traced)}: "
              + " ".join(f"{r.wall:.4f}/{r.probe * 1000:.3f}" for r in rs), file=sys.stderr)
        rounds.append(rs)
        (traced if want_traced else untraced).append(rs)
    return rounds, untraced, traced


def report(name: str, env: Env, seed: int, size: str, seconds: float, trace: bool,
           setup_times: list[tuple], min_rounds: int = MIN_ROUNDS) -> dict:
    rounds, untraced, traced = measure(name, env, seed, size, seconds, trace, min_rounds)
    attempted = sum(len(rs) for rs in rounds)
    failed = sum(r.outcome is None for rs in rounds for r in rs)
    correct = failed == 0
    if trace:
        counts = [call_counts(rs) for rs in traced]
        if correct and any(c != counts[0] for c in counts):
            print("FAIL call counts differ between traced rounds", file=sys.stderr)
            correct = False
        values = per_layer(untraced, traced) if correct else {k: 0.0 for k in PER_LAYER}
        units = PER_LAYER
    else:
        values = {k: 0.0 for k in END_TO_END}
        if correct:
            values = end_to_end(untraced, setup_times)
            print(json.dumps({"detail": raw_detail(untraced, setup_times)}), flush=True)
        values["ok_ratio"] = (attempted - failed) / attempted
        units = END_TO_END
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def selftest(work: Path) -> int:
    """Every workload at tiny sizes: one untraced and two traced rounds,
    output checks, repeatable call counts and complete metric names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    ok = declared == END_TO_END | PER_LAYER
    if not ok:
        print("selftest: metric names or units differ from BENCHMARK.json", file=sys.stderr)
    env, setup_times = setup(work, "tiny", seed=7, reps=1)
    for name in WORKLOADS:
        for trace in (False, True):
            t0 = time.perf_counter()
            res = report(name, env, 7, "tiny", 0, trace, setup_times, min_rounds=2)
            ok &= res["correct"] and res["failed"] == 0
            print(f"selftest {name} trace={int(trace)}: correct={res['correct']} "
                  f"commands={res['attempted']} {time.perf_counter() - t0:.1f}s")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run every workload at tiny sizes and check it")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="perfbench-", dir=ROOT / ".bench_build"))
    try:
        if args.selftest:
            return selftest(work)
        env, setup_times = setup(work, "full", args.seed, SETUP_REPS)
        print(json.dumps({"header": header(env.backend) | {
            "workload": args.workload, "seed": args.seed, "trace": args.trace}}), flush=True)
        res = report(args.workload, env, args.seed, "full", args.seconds, bool(args.trace),
                     setup_times)
        print(json.dumps(res))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
