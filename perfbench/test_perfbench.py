"""Quick tests of the benchmark itself: python3 -m pytest perfbench -q

Each workload runs at a tiny size; the traced runs must emit every
per-layer metric, their spans must nest, and the gate must catch a wrong
pin.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run as bench_run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def nesting_errors(spans) -> list[str]:
    """Spans that end before they start or stick out of their parent."""
    bad = []
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None or end < start:
            bad.append(f"span {i} {name} has no valid end")
        elif parent >= 0:
            p = spans[parent]
            if not (p[1] <= start and end <= p[2]) or parent >= i:
                bad.append(f"span {i} {name} is not inside its parent {parent} {p[0]}")
    for i, t in enumerate(bench_trace.self_times(spans)):
        if t < -1e-9:
            bad.append(f"span {i} {spans[i][0]} has negative self time {t}")
    return bad


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_tiny_traced_run(workload):
    out = bench_run.bench(workload, 5, 1, trace=True, tiny=True)
    result = out["result"]
    assert result["correct"], out["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    trace = json.loads((Path(out["work"]) / "trace.json").read_text())
    assert not trace["count_drift"]
    assert nesting_errors(trace["spans"]) == []
    roots = [s for s in trace["spans"] if s[3] < 0]
    assert roots and all(s[0] in ("cli.main", "gapcore.gap", "oracle.brute_gap_box") for s in roots)


@pytest.mark.parametrize("workload", bw.WORKLOADS)
def test_tiny_untraced_run(workload):
    result = bench_run.bench(workload, 6, 1, trace=False, tiny=True)["result"]
    assert result["correct"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())


def test_gate_catches_a_wrong_pin(monkeypatch):
    coin = bw.LADDER[0]
    wrong = bw.Instance(coin.name, coin.text, {**coin.pin, "gap": "5"})
    monkeypatch.setattr(bw, "LADDER", (wrong, *bw.LADDER[1:]))
    monkeypatch.setitem(bw.TINY, "ladder", (wrong,))
    result = bench_run.bench("ladder", 7, 1, trace=False, tiny=True)["result"]
    assert not result["correct"]
    assert result["failed"] >= 1


def test_gate_catches_a_wrong_oracle_answer():
    rec = {"status": "solved", "gap": "3", "schrijver_bound": "10", "check": "oracle", "oracle": "2"}
    assert bw.random_mismatches(rec)
    assert bw.random_mismatches({**rec, "oracle": "3"}) == []
    assert bw.random_mismatches({**rec, "oracle": "3", "schrijver_bound": "2"})


def test_spans_that_stick_out_are_reported():
    spans = [["a", 0.0, 1.0, -1], ["b", 0.5, 1.5, 0]]
    assert nesting_errors(spans)


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(HERE.parent / "src"))
    import ipgap
    from ipgap import gapcore, toric

    before = (toric.buchberger, gapcore.buchberger, ipgap.GapInstance.__dict__["from_matrix"])
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert gapcore.buchberger is not before[1]
        assert bench_trace.leftover_wrappers()
        ipgap.gap(ipgap.IntMatrix([[1, 1, 1, 1], [1, 5, 10, 25]]), (0, 1, 0, 1))
    finally:
        tracer.remove()
    assert bench_trace.leftover_wrappers() == []
    assert (toric.buchberger, gapcore.buchberger, ipgap.GapInstance.__dict__["from_matrix"]) == before
    names = {s[0] for s in tracer.spans}
    assert {"gapcore.gap", "toric.buchberger", "lp.solve", "gapcore.schrijver_bound"} <= names


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
