"""One fresh interpreter of the ipgap benchmark: a probe or a batch of ops.

    python3 bench_worker.py probe PLAN OUT
    python3 bench_worker.py run PLAN OUT [--rep K | --part K | --count N] [--check] [--trace]

`probe` times `import ipgap` and, for the fan workload, checks that every
seed cost of the plan is generic.  `run` executes one repetition of the
plan's op set (fan: with the seed costs of repetition K; random: the
batch, its K-th part or its first N instances, cross-checked by the
oracle with --check), optionally under the tracer, and writes per-op
timings, the answers and the peak RSS to OUT as JSON.  Correctness is
judged by the caller, outside the timed sections.

Untraced, unchecked runs also sample the core's speed while they work
(see Speedometer); traced and checking runs do not, so their wall time
is the ops' own.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_ipgap():
    """Import ipgap from the checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import ipgap
    import ipgap.cli
    import ipgap.oracle

    if Path(ipgap.__file__).resolve().parent != SRC / "ipgap":
        raise SystemExit(f"ipgap imported from {ipgap.__file__}, not from {SRC}")
    return ipgap


def calibration_loop() -> None:
    """A fixed slice of pure-Python work like ipgap's own: tuples, dict
    lookups and Fractions, about a third of a millisecond on an idle core."""
    seen: dict = {}
    acc = Fraction(0)
    for i in range(150):
        v = (i % 7, i % 11, i % 13, i % 5)
        seen[v] = seen.get(v, 0) + 1
        if min(a - b for a, b in zip(v, (3, 5, 6, 2))) >= -2:
            acc += Fraction(i % 9 + 1, i % 4 + 1)


class Speedometer:
    """Times calibration_loop every PERIOD seconds from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so the samples
    interleave with the ops and show how fast the core ran during each
    one, even inside a single 15-second op.
    """

    PERIOD = 0.05
    WINDOW = 0.1

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        calibration_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._tick(None, None)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick(None, None)

    def annotate(self, op: dict) -> None:
        """Add the op's time net of samples taken inside it, and the mean
        sample time around it."""
        start, end = op["start"], op["start"] + op["seconds"]
        inside = sum(d for t, d in self.samples if start <= t <= end)
        near = [d for t, d in self.samples if start - self.WINDOW <= t <= end + self.WINDOW]
        op["net_seconds"] = op["seconds"] - inside
        op["cal_seconds"] = sum(near) / len(near) if near else None


def cli_report(ipgap, argv) -> dict:
    """Time one `ipgap ...` call; parse its JSON report afterwards.

    '#' lines are advisory and may go to stdout or stderr; both streams
    are captured and those lines dropped.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ipgap.cli.main(argv)
    rec = {"start": t0, "seconds": time.perf_counter() - t0, "exit": code, "report": None}
    body = "\n".join(l for l in out.getvalue().splitlines() if not l.lstrip().startswith("#"))
    if code == 0:
        try:
            rec["report"] = json.loads(body)
        except ValueError as e:
            rec["error"] = f"unreadable JSON report: {e}"
    else:
        rec["error"] = err.getvalue().strip()[-500:]
    return rec


def run_cli_ops(ipgap, plan, rep: int) -> list[dict]:
    """The CLI calls of one repetition of k4, ladder or fan."""
    if plan["workload"] == "fan":
        calls = [("fan", ["fan", plan["matrix"], "--seeds", plan["seeds"][rep],
                          "--budget", str(plan["budget"]), "--format", "json"])]
    else:
        calls = [(i["name"], ["gap", i["file"], "--format", "json"]) for i in plan["instances"]]
    return [dict(cli_report(ipgap, argv), name=name) for name, argv in calls]


def run_random(ipgap, plan, part, count, check: bool) -> list[dict]:
    """ipgap.gap on each instance of the batch, or of its part-th slice, or
    of its first `count` instances.

    The op time is the ipgap.gap call.  With check, each answer is then
    cross-checked by the brute-force oracle over its witness box, when
    that box holds at most box_cap points and no fiber's candidate box
    more than fiber_cap; the cross-check is timed apart.
    """
    from bench_workloads import box_points
    from ipgap.errors import FiberCapExceeded, InfiniteFiber, IpgapError, UnboundedProgram

    batch = json.loads(Path(plan["batch"]).read_text(encoding="utf-8"))[:count]
    if part is not None:
        n, parts = len(batch), plan["parts"]
        batch = batch[part * n // parts:(part + 1) * n // parts]
    ops = []
    for item in batch:
        a = ipgap.IntMatrix(item["a"])
        c = tuple(Fraction(x) for x in item["c"])
        rec = {"status": "solved"}
        t0 = time.perf_counter()
        try:
            rep = ipgap.gap(a, c)
        except UnboundedProgram:
            rec["status"] = "rejected"
        except IpgapError as e:
            rec["status"] = "error"
            rec["error"] = f"{type(e).__name__}: {e}"
        rec["start"], rec["seconds"] = t0, time.perf_counter() - t0
        ops.append(rec)
        if rec["status"] != "solved":
            continue
        rec["gap"] = str(rep.gap)
        rec["schrijver_bound"] = None if rep.schrijver_bound is None else str(rep.schrijver_bound)
        if not check:
            continue
        box = rep.witness_z
        if box_points(box) > plan["box_cap"]:
            rec["check"] = "box_too_large"
            continue
        t0 = time.perf_counter()
        try:
            value, _ = ipgap.oracle.brute_gap_box(a, c, box, plan["fiber_cap"])
            rec["check"], rec["oracle"] = "oracle", str(value)
        except InfiniteFiber:
            rec["check"] = "infinite_fiber"
        except FiberCapExceeded:
            rec["check"] = "fiber_too_large"
        except IpgapError as e:
            rec["check"] = f"{type(e).__name__}: {e}"
        rec["oracle_seconds"] = time.perf_counter() - t0
    return ops


def probe(plan) -> dict:
    t0 = time.perf_counter()
    ipgap = import_ipgap()
    out = {"import_s": time.perf_counter() - t0, "check_s": 0.0, "not_generic": []}
    if plan["workload"] == "fan":
        # seed costs must be generic for `ipgap fan` to accept them
        t0 = time.perf_counter()
        from ipgap.toric import TermOrder, buchberger, is_generic, lattice_ideal_generators

        a = ipgap.cli.load_instance(plan["matrix"]).matrix
        gens = lattice_ideal_generators(ipgap.kernel_lattice(a))
        for cost in {tuple(c) for costs in plan["costs"] for c in costs}:
            if not is_generic(buchberger(gens, TermOrder(cost, "grevlex"))):
                out["not_generic"].append(cost)
        out["check_s"] = time.perf_counter() - t0
    return out


def run(plan, args) -> dict:
    ipgap = import_ipgap()
    import bench_trace

    speed = None if args.trace or args.check else Speedometer()
    tracer = bench_trace.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        with speed or contextlib.nullcontext():
            if plan["workload"] == "random":
                ops = run_random(ipgap, plan, args.part, args.count, args.check)
            else:
                ops = run_cli_ops(ipgap, plan, args.rep)
    finally:
        wall = time.perf_counter() - t0
        if tracer:
            tracer.remove()
    if speed:
        for op in ops:
            speed.annotate(op)
    out = {
        "ops": ops,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "leftover_wrappers": bench_trace.leftover_wrappers(),
    }
    if tracer:
        spans = tracer.spans
        roots = sum(s[2] - s[1] for s in spans if s[3] < 0)
        out["layers"] = bench_trace.layer_metrics(spans, tracer.sizes, tracer.cones_seen)
        out["layers"]["trace.coverage"] = roots / wall if wall > 0 else 0.0
        out["spans"] = spans
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("probe", "run"))
    p.add_argument("plan")
    p.add_argument("out")
    p.add_argument("--rep", type=int, default=0)
    p.add_argument("--part", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--check", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    if args.mode == "probe":
        result = probe(plan)
    else:
        result = run(plan, args)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
