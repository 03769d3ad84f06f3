"""Inputs, pins and the correctness gate of the ipgap benchmark.

Each workload is a fixed set of ops, run in a fresh interpreter per
repetition, so no op can be served from a cache that an earlier op of
the same run filled; only fan, whose single op reuses one lattice, can
profit from reusing it.

k4      `ipgap gap k4.txt --format json` on the 2x2x2x2 table with all six
        2-margins.  Saturation dominates; the Schrijver bound's 4368
        minors and the 139 auxiliary LPs come next.
ladder  one pass of `ipgap gap --format json` over the rest of the fixed
        instance ladder: coin, lattice_family r = 5, 8, 12,
        transportation 3x4 and 2x3x3 with all 2-margins.  The only
        workload on the lifted (finite-index lattice) saturation branch.
random  a seeded batch of fresh small (A, c): ipgap.gap on each, then a
        brute-force cross-check over its witness box when the box holds
        at most 250 points.  Every lattice is new.
fan     `ipgap fan` on the knapsack row 3 5 7 11 from three generic seed
        costs: one lattice under many costs.  Interior-point LPs of the
        cones dominate.

Nothing here imports ipgap at module level: the orchestrator generates
inputs without it, and only the fan gate needs the library.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from pathlib import Path

WORKLOADS = ("k4", "ladder", "random", "fan")

# ------------------------------------------------------------- instances


@dataclass(frozen=True)
class Instance:
    name: str
    text: str
    pin: dict


def _lattice_text(r: int) -> str:
    # lattice_family(r): columns (r,r,r), (r-1,r+1,r-1), (0,0,r-2); the
    # weight rows make the deg-lex smallest fiber point optimal
    rows = ((r, r - 1, 0), (r, r + 1, 0), (r, r - 1, r - 2))
    body = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    return f"lattice:\n{body}cost: 1 1 1\ncost: 1 0 0\ncost: 0 1 0\ntiebreak: lex\n"


def _model_text(dims, faces) -> str:
    lines = ["model:", "dims: " + " ".join(map(str, dims))]
    lines += ["face: " + " ".join(map(str, f)) for f in faces]
    return "\n".join(lines + ["sense: max", ""])


COIN_TEXT = "matrix:\n1 1 1 1\n1 5 10 25\ncost: 0 1 0 1\nnames: p n d q\n"

# Pins: coin, lattice_family and k4 values are the ones the acceptance
# tests hold; transportation 3x4 and 2x3x3 are the seed commit's output.
K4 = Instance(
    "k4",
    _model_text((2, 2, 2, 2), itertools.combinations((1, 2, 3, 4), 2)),
    {
        "gap": "5/3",
        "minimal_generators": 61,
        "components": 139,
        "winner_support": list(range(1, 16)),
        "winner_bound": [0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1],
    },
)

LADDER = (
    Instance(
        "coin",
        COIN_TEXT,
        {
            "gap": "76/15",
            "components": 3,
            "winner_support": [0, 1],
            "winner_bound": [4, 2, 0, 0],
            "witness_z": [4, 2, 0, 4],
        },
    ),
    *(
        Instance(f"lattice_r{r}", _lattice_text(r), {"gap": str(2 * r - 1), "components": 2 * r - 5})
        for r in (5, 8, 12)
    ),
    Instance(
        "transport_3x4",
        _model_text((3, 4), ((1,), (2,))),
        {
            "gap": "0",
            "components": 10,
            "minimal_generators": 18,
            "groebner_size": 18,
            "winner_support": [1, 2, 3, 5, 6, 7],
            "schrijver_bound": "12",
        },
    ),
    Instance(
        "table_2x3x3",
        _model_text((2, 3, 3), ((1, 2), (1, 3), (2, 3))),
        {
            "gap": "0",
            "components": 81,
            "minimal_generators": 15,
            "groebner_size": 15,
            "winner_support": [1, 2, 4, 5],
            "schrijver_bound": "18",
        },
    ),
)

# Small stand-ins with the same code paths, for the benchmark's own tests.
TINY = {"k4": (LADDER[4],), "ladder": LADDER[:2]}


def report_mismatches(report: dict | None, pin: dict) -> list[str]:
    """Fields of a `gap --format json` report that differ from the pin."""
    if report is None:
        return ["no report"]
    comps = report.get("components", [])
    winner = report.get("winner")
    win = comps[winner - 1] if winner else {}
    derived = {
        "components": len(comps),
        "winner_support": win.get("support"),
        "winner_bound": win.get("bound"),
    }
    bad = []
    for key, want in pin.items():
        got = derived[key] if key in derived else report.get(key)
        if got != want:
            bad.append(f"{key}: got {got!r}, pinned {want!r}")
    return bad


# ---------------------------------------------------------------- random

RANDOM_BATCH = 600
RANDOM_PARTS = 3
# The oracle's cost grows with the distinct right-hand sides in the box
# and with each fiber's candidate box; past these caps one instance can
# take seconds to cross-check, and the instance counts as unchecked.
BOX_CAP = 250
FIBER_CAP = 100_000
_CLASSES = tuple(itertools.product((1, 2), (2, 3, 4)))


def random_batch(seed: int, count: int = RANDOM_BATCH) -> list[dict]:
    """Seeded batch from the oracle-sweep family.

    d in {1, 2}, n in {2..4}, entries in [-6, 6], costs p/q with q in
    {1, 2}.  The six (d, n) shapes come in shuffled blocks of six, so each
    stretch of the batch holds them in equal shares and runs on
    different seeds do comparable work.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        block = list(_CLASSES)
        rng.shuffle(block)
        for d, n in block:
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(d)]
            cost = [str(Fraction(rng.randint(-6, 6), rng.randint(1, 2))) for _ in range(n)]
            out.append({"a": rows, "c": cost})
    return out[:count]


def box_points(box) -> int:
    return prod(x + 1 for x in box)


def random_mismatches(rec: dict) -> list[str]:
    """Gate for one random instance record written by the worker."""
    status = rec["status"]
    if status == "rejected":
        return []
    if status != "solved":
        return [f"ipgap.gap raised {rec.get('error')}"]
    gap = Fraction(rec["gap"])
    bad = []
    if rec["schrijver_bound"] is None or gap > Fraction(rec["schrijver_bound"]):
        bad.append(f"gap {gap} above the Schrijver bound {rec['schrijver_bound']}")
    check = rec["check"]
    if check == "oracle" and Fraction(rec["oracle"]) != gap:
        bad.append(f"gap {gap} but the oracle finds {rec['oracle']} on the witness box")
    elif check not in ("oracle", "box_too_large", "infinite_fiber", "fiber_too_large"):
        bad.append(f"oracle cross-check raised {check}")
    return bad


# ------------------------------------------------------------------- fan

FAN_MATRIX = ((3, 5, 7, 11),)
FAN_BUDGET = 20
# Three Groebner cones of the knapsack row, {c : h.c > 0 for h in rows},
# the three widest of the seed commit's 36-cone walk at budget 100.  The
# walk depends only on the cones the seeds land in, so seeds drawn at
# random inside these cones give the same fan, the same work and the same
# counts on every workload seed.
FAN_CONES = (
    ((-1, 0, 2, -1), (-1, 2, -1, 0), (2, 1, 0, -1), (3, -1, 1, -1), (4, -1, -1, 0)),
    ((-1, 0, 2, -1), (-1, 5, 0, -2), (0, 3, 1, -2), (1, -2, 1, 0),
     (1, 3, -1, -1), (2, -2, -1, 1), (2, 1, 0, -1), (4, -1, -1, 0)),
    ((-4, 1, 1, 0), (-1, 0, 2, -1), (-1, 2, -1, 0), (2, 1, 0, -1), (3, -1, 1, -1), (6, 0, -1, -1)),
)
# (cones discovered, gap pieces in total) per budget, from the seed commit.
FAN_PINS = {20: (13, 23), 2: (3, 6)}


def fan_seed_costs(rng: random.Random) -> list[tuple[int, ...]]:
    """One integer cost in 1..60 strictly inside each of FAN_CONES."""
    out = []
    for rows in FAN_CONES:
        while True:
            c = tuple(rng.randint(1, 60) for _ in range(4))
            if all(sum(h * x for h, x in zip(row, c)) > 0 for row in rows):
                out.append(c)
                break
    return out


def fan_count_mismatches(report: dict | None, budget: int) -> list[str]:
    if report is None:
        return ["no report"]
    got = (len(report["cones"]), report["pieces_total"])
    if got != FAN_PINS[budget]:
        return [f"(cones, pieces) {got}, pinned {FAN_PINS[budget]}"]
    return []


def fan_piece_mismatches(ipgap, reports) -> tuple[int, list[str]]:
    """ipgap.gap at each piece's interior cost must equal its linear form.

    Distinct pieces across all reports are checked once each; returns the
    number checked and the mismatches.
    """
    from ipgap.fan import Cone

    a = ipgap.IntMatrix([list(r) for r in FAN_MATRIX])
    seen = set()
    bad = []
    for report in reports:
        for cone in report["cones"]:
            for piece in cone["pieces"]:
                key = (
                    tuple(map(tuple, piece["inequalities"])),
                    tuple(piece["linear_form"]),
                )
                if key in seen:
                    continue
                seen.add(key)
                cost = Cone(a.ncols, key[0]).interior_point()
                if cost is None:
                    bad.append(f"piece {key[0]} has no interior point")
                    continue
                form = [Fraction(x) for x in key[1]]
                want = sum((f * c for f, c in zip(form, cost)), Fraction(0))
                got = ipgap.gap(a, cost).gap
                if got != want:
                    bad.append(f"piece {key[0]}: gap {got} at {cost}, linear form gives {want}")
    return len(seen), bad


# ------------------------------------------------------------ input files


def write_inputs(workload: str, seed: int, root: Path, reps: int, tiny: bool) -> dict:
    """Write the workload's input files under root; return the plan.

    The plan is the JSON the workers read: the instance files, the random
    batch file, the fan seed files and budget.  Same seed, same files.
    """
    root.mkdir(parents=True, exist_ok=True)

    def put(name: str, text: str) -> str:
        path = root / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    plan: dict = {"workload": workload}
    if workload in ("k4", "ladder"):
        insts = TINY[workload] if tiny else ((K4,) if workload == "k4" else LADDER)
        plan["instances"] = [
            {"name": i.name, "file": put(f"{i.name}.txt", i.text)} for i in insts
        ]
    elif workload == "random":
        batch = random_batch(seed, 12 if tiny else RANDOM_BATCH)
        plan["batch"] = put("batch.json", json.dumps(batch))
        plan["box_cap"] = BOX_CAP
        plan["fiber_cap"] = FIBER_CAP
        plan["parts"] = RANDOM_PARTS
    elif workload == "fan":
        rows = "".join(" ".join(map(str, r)) + "\n" for r in FAN_MATRIX)
        plan["matrix"] = put("knapsack.txt", "matrix:\n" + rows)
        plan["budget"] = 2 if tiny else FAN_BUDGET
        rng = random.Random(seed)
        plan["costs"] = [fan_seed_costs(rng) for _ in range(reps)]
        plan["seeds"] = [
            put(f"seeds{k}.txt", "".join(" ".join(map(str, c)) + "\n" for c in costs))
            for k, costs in enumerate(plan["costs"])
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (root / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    return plan
