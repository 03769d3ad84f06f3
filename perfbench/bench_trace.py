"""Per-layer tracing of ipgap from outside the package.

The tracer wraps public functions of ipgap in every module namespace that
binds them (a caller that did `from .toric import buchberger` holds its
own reference, so patching toric alone would miss it), records one span
per call, and puts every original back on removal.  ipgap's source is not
touched.  A span is [name, start, end, parent index]; self time is span
time minus the time of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

MARK = "__perfbench_traced__"

# (span name, module, attribute path, size counter or None).  A size
# counter adds len() of the result, or of the named result attribute.
TARGETS = (
    ("exactmath.kernel_lattice", "ipgap.exactmath", "kernel_lattice", None),
    ("exactmath.IntMatrix.det", "ipgap.exactmath", "IntMatrix.det", None),
    ("toric.lattice_ideal_generators", "ipgap.toric", "lattice_ideal_generators",
     ("toric.saturated_generators", None)),
    ("toric.buchberger", "ipgap.toric", "buchberger", ("toric.groebner_elements", "elements")),
    ("toric.non_optimal_ideal", "ipgap.toric", "non_optimal_ideal", ("toric.ideal_generators", "gens")),
    ("toric.ip_optimum", "ipgap.toric", "ip_optimum", None),
    ("monomial.irreducible_decomposition", "ipgap.monomial", "irreducible_decomposition",
     ("monomial.components", None)),
    ("lp.solve", "ipgap.lp", "solve", None),
    ("lp.lp_value", "ipgap.lp", "lp_value", None),
    ("gapcore.GapInstance.from_matrix", "ipgap.gapcore", "GapInstance.from_matrix", None),
    ("gapcore.GapInstance.from_lattice", "ipgap.gapcore", "GapInstance.from_lattice", None),
    ("gapcore.gap", "ipgap.gapcore", "gap", None),
    ("gapcore.gap_report", "ipgap.gapcore", "gap_report", None),
    ("gapcore.gap_value", "ipgap.gapcore", "gap_value", None),
    ("gapcore.gap_witness", "ipgap.gapcore", "gap_witness", None),
    ("gapcore.schrijver_bound", "ipgap.gapcore", "schrijver_bound", None),
    ("models.entry_instance", "ipgap.models", "entry_instance", None),
    ("fan.explore_cones", "ipgap.fan", "explore_cones", ("fan.cones", None)),
    ("fan.Cone.interior_point", "ipgap.fan", "Cone.interior_point", None),
    ("fan.gap_fan_subdivide", "ipgap.fan", "gap_fan_subdivide", ("fan.pieces", None)),
    ("oracle.brute_gap_box", "ipgap.oracle", "brute_gap_box", None),
    ("oracle.brute_ip", "ipgap.oracle", "brute_ip", None),
    ("oracle.enumerate_fiber", "ipgap.oracle", "enumerate_fiber", ("oracle.fiber_points", None)),
    ("cli.main", "ipgap.cli", "main", None),
)

SIZES = tuple(t[3][0] for t in TARGETS if t[3])

# Callers of lp.solve; a solve under any other span counts as "other".
LP_PARENTS = (
    "toric.buchberger",
    "toric.lattice_ideal_generators",
    "gapcore.gap_value",
    "gapcore.gap_witness",
    "fan.Cone.interior_point",
    "fan.gap_fan_subdivide",
    "oracle.enumerate_fiber",
    "lp.lp_value",
)

RATIOS = ("fan.new_cone_ratio", "fan.interior_point_dup_ratio")
TRACE_METRICS = ("trace.overhead_s", "trace.coverage")


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly across runs of the same code."""
    return name.endswith(".calls") or name in SIZES or name in RATIOS


def metric_names() -> list[str]:
    """Every per-layer metric a traced run emits, in a fixed order."""
    names = []
    for name, *_ in TARGETS:
        names += [f"{name}.calls", f"{name}.self_s"]
    names += list(SIZES) + list(RATIOS)
    names += [f"lp.solve.self_s.by_parent.{p}" for p in LP_PARENTS + ("other",)]
    return names + list(TRACE_METRICS)


def _ipgap_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "ipgap" or n.startswith("ipgap.")]


class Tracer:
    """Installs span-recording wrappers; remove() restores the originals."""

    def __init__(self):
        self.spans: list[list] = []
        self.sizes: Counter = Counter()
        self.cones_seen: set = set()
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []

    def _wrap(self, name, func, size):
        spans, stack, sizes = self.spans, self._stack, self.sizes
        interior = name == "fan.Cone.interior_point"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if size is not None:
                counter, attr = size
                sizes[counter] += len(result if attr is None else getattr(result, attr))
            if interior:
                self.cones_seen.add(args[0].inequalities)
            return result

        setattr(traced, MARK, True)
        return traced

    def install(self) -> None:
        homes = [importlib.import_module(t[1]) for t in TARGETS]
        modules = _ipgap_modules()
        for (name, _, path, size), home in zip(TARGETS, homes):
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, size))
                else:
                    wrapped = self._wrap(name, raw, size)
                self._bindings.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            original = getattr(home, path)
            wrapped = self._wrap(name, original, size)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()


def leftover_wrappers() -> list[str]:
    """Names in ipgap's modules and classes still bound to a wrapper."""
    found = []
    for mod in _ipgap_modules():
        for attr, value in vars(mod).items():
            if getattr(value, MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for cattr, raw in vars(value).items():
                    inner = raw.__func__ if isinstance(raw, classmethod) else raw
                    if getattr(inner, MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found


def self_times(spans) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, sizes, cones_seen) -> dict[str, float]:
    """Per-layer counts and self times from one traced op set."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for name, *_ in TARGETS:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for s, t in zip(spans, own):
        out[f"{s[0]}.calls"] += 1
        out[f"{s[0]}.self_s"] += t
    for key in SIZES:
        out[key] = sizes.get(key, 0)
    explore_runs = 0
    for s in spans:
        if s[0] == "toric.buchberger":
            p = s[3]
            while p >= 0 and spans[p][0] != "fan.explore_cones":
                p = spans[p][3]
            explore_runs += p >= 0
    out["fan.new_cone_ratio"] = sizes.get("fan.cones", 0) / explore_runs if explore_runs else 0.0
    calls = out["fan.Cone.interior_point.calls"]
    out["fan.interior_point_dup_ratio"] = calls / len(cones_seen) if cones_seen else 0.0
    for p in LP_PARENTS + ("other",):
        out[f"lp.solve.self_s.by_parent.{p}"] = 0.0
    for s, t in zip(spans, own):
        if s[0] == "lp.solve":
            parent = spans[s[3]][0] if s[3] >= 0 else "other"
            key = parent if parent in LP_PARENTS else "other"
            out[f"lp.solve.self_s.by_parent.{key}"] += t
    return out

