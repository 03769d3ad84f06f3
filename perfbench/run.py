"""Benchmark of the ipgap gap pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

Workloads (see bench_workloads.py for why each exists): k4, ladder,
random, fan.  Each has a fixed op set: k4 one op, the k4 report; ladder
one op, a pass over the six other ladder reports; fan one op, an
`ipgap fan` call; random one ipgap.gap call per instance of a seeded
batch.  Closed loop: one caller, one op at a time.  A repetition runs the
whole op set in a fresh interpreter, so no op can be served from a cache
an earlier op of the run filled; within a repetition no lattice repeats
except inside the fan call.  IPGAP_THREADS is removed from the workers'
environment, so the oracle runs in-process.

On shared machines the speed of a core drifts by up to half, over
seconds and over minutes.  Two things keep the numbers steady: each op
is rescaled by a calibration loop timed every 50 ms while it runs (see
CAL_REF_S), and each op runs in every repetition and the median of its
rescaled times is kept.

Set-up (timed five times, median reported as setup_s): writing the
seeded input files, plus a fresh interpreter's `import ipgap` and, for
fan, the genericity check of the seed costs.

--trace 0 repeats the op set until S seconds have passed, then reports:
  setup_s      median set-up time
  peak_rss_mb  median over the timed worker processes of their peak RSS;
               random splits its batch over three workers per repetition,
               so one instance of rare size cannot set the figure
  op_ms_p50    median over the op set of each op's median rescaled time;
               for k4, ladder and fan simply that op's median
Lines above the result give the repetition count, each report's raw
median time, and for random the tail of the op times with its sample
count and the oracle cross-check, which one more worker runs on the
batch after the timed repetitions.
--trace 1 runs a fixed op set three times in fresh interpreters: once
untraced, twice traced (see bench_trace.py), checks that all three give
the same answers and the two traced runs the same counts, and reports the
per-layer metrics of the first traced run plus the tracing overhead.  The
spans and the full report go to perfbench/out/<workload>-<seed>/.

Every answer is checked outside the timed sections; a wrong answer counts
as failed.  The last line of stdout is the result JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402

SETUP_REPS = 5
TRACE_RANDOM = 150
TIME_LIMIT = 170.0
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms_p50": "ms"}
# Reference time of the workers' calibration loop, about its median on a
# 2-vCPU cloud VM under Python 3.11; op times are reported at that speed.
CAL_REF_S = 0.0004


class Run:
    """Workers of one benchmark run and the checks made on their output."""

    def __init__(self, workload: str, seed: int, work: Path, tiny: bool):
        self.workload, self.seed, self.work, self.tiny = workload, seed, work, tiny
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rss: list[float] = []
        self.fan_reports: list[dict] = []

    def worker(self, mode: str, *extra: str) -> dict:
        fd, name = tempfile.mkstemp(dir=self.work, suffix=".json")
        os.close(fd)
        out = Path(name)
        env = {k: v for k, v in os.environ.items() if k != "IPGAP_THREADS"}
        cmd = [sys.executable, str(HERE / "bench_worker.py"), mode,
               str(self.work / "plan.json"), str(out), *extra]
        left = TIME_LIMIT - (time.perf_counter() - self.start)
        try:
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                                  timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            raise SystemExit(f"worker {mode} {' '.join(extra)} ran past the time limit")
        if proc.returncode != 0:
            raise SystemExit(f"worker {mode} {' '.join(extra)} failed:\n{proc.stderr[-2000:]}")
        result = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        if result.get("leftover_wrappers"):
            self.problems.append(f"wrappers left installed: {result['leftover_wrappers']}")
        return result

    def setup(self, reps: int) -> tuple[dict, float]:
        """Write inputs and probe the import SETUP_REPS times; median time."""
        times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            plan = bw.write_inputs(self.workload, self.seed, self.work, reps, self.tiny)
            written = time.perf_counter() - t0
            probe = self.worker("probe")
            times.append(written + probe["import_s"] + probe["check_s"])
        if probe["not_generic"]:
            self.problems.append(f"seed costs not generic: {probe['not_generic']}")
        return plan, statistics.median(times)

    # ----------------------------------------------------------- the gate

    def count(self, mismatches: list[str]) -> None:
        self.attempted += 1
        if mismatches:
            self.failed += 1
            self.problems.extend(mismatches[:3])

    def gate(self, plan: dict, result: dict) -> None:
        """Check every answer of one worker against its pin."""
        for op in result["ops"]:
            if self.workload == "random":
                self.count(bw.random_mismatches(op))
            elif "error" in op:
                self.count([f"{op['name']}: {op['error']}"])
            elif self.workload == "fan":
                self.fan_reports.append(op["report"])
                self.count(bw.fan_count_mismatches(op["report"], plan["budget"]))
            else:
                pin = {i.name: i.pin for i in (bw.K4, *bw.LADDER)}[op["name"]]
                self.count([f"{op['name']}: {m}" for m in bw.report_mismatches(op["report"], pin)])

    def gate_fan_pieces(self) -> None:
        if not self.fan_reports:
            return
        sys.path.insert(0, str(ROOT / "src"))
        import ipgap

        checked, bad = bw.fan_piece_mismatches(ipgap, self.fan_reports)
        self.attempted += checked
        self.failed += len(bad)
        self.problems.extend(bad[:3])

    def same_answers(self, results: list[dict], what: str) -> None:
        first = answers(results[0])
        if any(answers(r) != first for r in results[1:]):
            self.problems.append(f"{what} give different answers")


def answers(result: dict) -> list:
    """What a worker computed, without timings or cross-checks."""
    keys = ("name", "exit", "report", "status", "gap", "schrijver_bound", "error")
    return [{k: op[k] for k in keys if k in op} for op in result["ops"]]


def op_times(workload: str, result: dict) -> list[float]:
    """Op times of one repetition at the reference core speed.

    Each op's time, net of the speed samples taken inside it, is scaled
    by CAL_REF_S over the mean sample time around it.  A ladder op is the
    pass over its six reports.
    """
    times = [op["net_seconds"] * CAL_REF_S / op["cal_seconds"] for op in result["ops"]]
    return [sum(times)] if workload == "ladder" else times


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond."""
    s = sorted(samples)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def measure(run: Run, plan: dict, seconds: float) -> tuple[dict, list[str], dict]:
    reps: list[dict] = []
    t0 = time.perf_counter()
    limit = len(plan["seeds"]) if run.workload == "fan" else None
    while not reps or (time.perf_counter() - t0 < seconds and len(reps) != limit):
        if run.workload == "random":
            parts = [run.worker("run", "--part", str(p)) for p in range(plan["parts"])]
        else:
            parts = [run.worker("run", "--rep", str(len(reps)))]
        run.rss += [p["peak_rss_mb"] for p in parts]
        reps.append({"ops": [op for p in parts for op in p["ops"]]})
    if run.workload == "random":
        checked = run.worker("run", "--check")
        run.gate(plan, checked)
        run.same_answers([checked, *reps], "timed repetitions and the cross-checked run")
    else:
        for rep in reps:
            run.gate(plan, rep)
    run.gate_fan_pieces()
    typical = [statistics.median(ops) for ops in zip(*(op_times(run.workload, r) for r in reps))]
    metrics = {
        "peak_rss_mb": statistics.median(run.rss),
        "op_ms_p50": statistics.median(typical) * 1e3,
    }
    value, pct = tail(typical)
    lines = [
        f"{len(reps)} repetitions of {len(typical)} ops; rescaled op time p50 "
        f"{metrics['op_ms_p50']:.3f} ms, p{pct:.2f} {value * 1e3:.3f} ms over {len(typical)} ops"
    ]
    report = {
        "metrics": metrics,
        "reps_call_seconds": [[op["seconds"] for op in r["ops"]] for r in reps],
        "reps_net_seconds": [[op["net_seconds"] for op in r["ops"]] for r in reps],
        "reps_cal_seconds": [[op["cal_seconds"] for op in r["ops"]] for r in reps],
        "op_seconds": typical,
    }
    if run.workload == "random":
        statuses = [op["status"] for op in checked["ops"]]
        checks = [op.get("check") for op in checked["ops"]]
        oracle_s = sum(op.get("oracle_seconds", 0.0) for op in checked["ops"])
        lines.append(
            f"batch: {statuses.count('solved')} solved, {statuses.count('rejected')} rejected "
            f"as unbounded; {checks.count('oracle')} cross-checked by the oracle in {oracle_s:.3f} s, "
            f"{checks.count('infinite_fiber')} with infinite fibers, "
            f"{checks.count('fiber_too_large')} with a fiber over the oracle's cap, "
            f"{checks.count('box_too_large')} with a box over {bw.BOX_CAP} points"
        )
        report["oracle_s"] = oracle_s
    else:
        calls = zip(*(r["ops"] for r in reps))
        lines.append("median raw call seconds: " + ", ".join(
            f"{c[0]['name']} {statistics.median(x['seconds'] for x in c):.4f}" for c in calls))
    return metrics, lines, report


def measure_traced(run: Run, plan: dict) -> tuple[dict, list[str], dict]:
    if run.workload == "random":
        fixed = ("--count", str(10 if run.tiny else TRACE_RANDOM), "--check")
    else:
        fixed = ("--rep", "0")
    plain = run.worker("run", *fixed)
    traced = [run.worker("run", *fixed, "--trace") for _ in range(2)]
    for result in (plain, *traced):
        run.gate(plan, result)
    run.gate_fan_pieces()
    run.same_answers([plain, *traced], "traced and untraced runs")
    first, second = (t["layers"] for t in traced)
    drift = [k for k in first if bench_trace.is_count(k) and first[k] != second[k]]
    if drift:
        run.problems.append(f"counts drift between two traced runs: {drift}")
    metrics = dict(first)
    metrics["trace.overhead_s"] = traced[0]["wall_s"] - plain["wall_s"]
    report = {
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": [t["wall_s"] for t in traced],
        "overhead_s": metrics["trace.overhead_s"],
        "coverage": metrics["trace.coverage"],
        "count_drift": drift,
        "layers": metrics,
        "spans": traced[0]["spans"],
    }
    lines = [
        f"traced wall {traced[0]['wall_s']:.4f} s, untraced {plain['wall_s']:.4f} s, "
        f"overhead {metrics['trace.overhead_s']:.4f} s, span coverage {metrics['trace.coverage']:.4f}"
    ]
    return metrics, lines, report


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "commit": git_commit(ROOT)}


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def layer_unit(name: str) -> str:
    if name.endswith("_s") or ".self_s." in name:
        return "s"
    if name.endswith("_ratio") or name == "trace.coverage":
        return "ratio"
    return "count"


def bench(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object plus report details."""
    work = HERE / "out" / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(workload, seed, work, tiny)
    # a fan repetition takes seconds; write seed costs for every one that can start
    plan, setup_s = run.setup(int(seconds // 2) + 3)
    if trace:
        metrics, lines, report = measure_traced(run, plan)
        units = {n: layer_unit(n) for n in bench_trace.metric_names()}
    else:
        metrics, lines, report = measure(run, plan, seconds)
        metrics["setup_s"] = setup_s
        units = END_TO_END
    report.update(
        environment=environment(), workload=workload, seed=seed, seconds=seconds,
        problems=run.problems, attempted=run.attempted, failed=run.failed,
    )
    (work / ("trace.json" if trace else "report.json")).write_text(json.dumps(report), encoding="utf-8")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    return {"result": result, "lines": lines, "problems": run.problems, "work": str(work)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Benchmark of the ipgap gap pipeline.")
    p.add_argument("--workload", required=True, choices=bw.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "ipgap" / "__init__.py").is_file():
        print(f"error: no ipgap sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    out = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment()
    print(f"# env: python {env['python']}, nproc {env['nproc']}, commit {env['commit']}")
    for line in out["lines"]:
        print("# " + line)
    for problem in out["problems"]:
        print("# problem: " + problem)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
