import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd
from operator import mul
from pathlib import Path

import pytest

from _reference import is_squarefree_generated, maximal_minors
from _reference import schrijver_bound as reference_schrijver_bound
from ipgap import exactmath, gapcore, lp
from ipgap.cli import load_instance
from ipgap.errors import (
    BadParameter,
    IpgapError,
    MinorCapExceeded,
    NonTerminatingOrder,
    UnboundedAux,
    UnboundedProgram,
    WitnessMismatch,
)
from ipgap.exactmath import IntMatrix, _dots, _echelon, _scaled, _span_basis, kernel_lattice
from ipgap.fan import explore_cones
from ipgap.gapcore import (
    GapInstance,
    GapReport,
    LatticeIdeal,
    gap,
    gap_lattice,
    gap_report,
    gap_value,
    gap_witness,
    schrijver_bound,
)
from ipgap.models import (
    MarginalModel,
    entry_instance,
    k4_model,
    margin_matrix,
    simplicial_model_representatives,
    transportation_model,
)
from ipgap.monomial import IrreducibleComponent
from ipgap.toric import TermOrder

DEMOS = Path(__file__).resolve().parent.parent / "demos"

COIN_A = IntMatrix([[1, 1, 1, 1], [1, 5, 10, 25]])
COIN_COST = (0, 1, 0, 1)


def test_coin_report():
    r = gap(COIN_A, COIN_COST)
    assert r.gap == Fraction(76, 15)
    assert r.winner.support == (0, 1)
    assert r.winner.bound == (4, 2, 0, 0)
    assert r.attaining == (r.winner,)
    values = {e.component.support: e.value for e in r.per_component}
    assert values == {(0, 1): Fraction(76, 15), (1, 2, 3): 5, (1, 3): 4}
    assert r.witness_z == (4, 2, 0, 4)
    assert r.schrijver_bound == 192


def test_coin_winning_aux_optimum():
    r = gap(COIN_A, COIN_COST)
    entry = next(e for e in r.per_component if e.component == r.winner)
    assert entry.aux_optimum == (0, 0, Fraction(136, 15), Fraction(-46, 15))


def test_coin_witness_attains_gap_independently():
    # redo both sides of the program at the witness without the gap
    # machinery: exhaustive integer search and a direct relaxation solve
    r = gap(COIN_A, COIN_COST)
    z = r.witness_z
    b = COIN_A.mul_vector(z)
    assert b == (10, 114)
    best = None
    for q in range(5):
        for d in range(12):
            for n in range(27):
                p = b[0] - n - d - q
                if p < 0 or p + 5 * n + 10 * d + 25 * q != b[1]:
                    continue
                cost = n + q
                best = cost if best is None else min(best, cost)
    relax = lp.lp_value(COIN_A, b, COIN_COST)
    assert best == 6
    assert relax.value == Fraction(14, 15)
    assert best - relax.value == r.gap


def test_toy_single_row():
    r = gap(IntMatrix([[1, 5]]), (1, 0))
    assert r.gap == 4
    assert r.witness_z == (4, 0)
    assert r.schrijver_bound == 10
    assert len(r.per_component) == 1


def test_single_row_gap_past_machine_words():
    k = 2**30 + 3
    assert gap_report(GapInstance.from_matrix([[1, k]], (1, 0))).gap == k - 1


def test_doubled_line_lattice_gap():
    r = gap_lattice(IntMatrix([[2]]), (1,))
    assert r.gap == 1
    assert r.witness_z == (1,)
    assert r.schrijver_bound is None


def test_trivial_instance():
    r = gap(IntMatrix.identity(3), (1, 2, 3))
    assert r.gap == 0
    assert r.winner is None
    assert r.per_component == ()
    assert r.attaining == ()
    assert r.witness_z == (0, 0, 0)
    assert r.witness_optimum == (0, 0, 0)
    assert r.witness_ip == 0
    assert r.witness_lp == 0


def test_finite_index_ordered_cost_gap():
    basis = IntMatrix([[4, 3, 0], [4, 5, 0], [4, 3, 2]])
    r = gap_lattice(basis, TermOrder.degree_lexicographic(3))
    assert r.gap == 7
    # two components tie; the canonical first one wins
    assert {(c.support, c.bound) for c in r.attaining} == {
        ((0, 1, 2), (0, 7, 0)),
        ((0, 1, 2), (1, 6, 0)),
    }
    assert r.winner.bound == (0, 7, 0)
    assert r.witness_z == (0, 7, 0)


def test_gap_report_matches_gap():
    inst = GapInstance.from_matrix(COIN_A, COIN_COST)
    assert gap_report(inst) == gap(COIN_A, COIN_COST)


def test_schrijver_bound_values():
    assert schrijver_bound(COIN_A, COIN_COST) == 192
    assert schrijver_bound(IntMatrix([[1, 5]]), (1, 0)) == 10
    assert schrijver_bound(COIN_A, (0, 0, 0, 0)) == 0
    assert schrijver_bound(COIN_A, COIN_COST) >= gap(COIN_A, COIN_COST).gap


def _bound_case(rng, kind):
    """One seeded (A, c) of the given kind for the Schrijver cross-check."""
    d, n = rng.randint(1, 5), rng.randint(1, 8)
    rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(d)]
    if kind == "dependent" and d > 1:
        k = rng.choice((-2, -1, 1, 2))
        rows[rng.randrange(d)] = [k * x + y for x, y in zip(rows[0], rows[-1])]
    elif kind == "scaled":
        rows = [[3 * x for x in row] for row in rows]
    elif kind == "zero-one":
        rows = [[rng.randint(0, 1) for _ in range(n)] for _ in range(d)]
    elif kind == "zero row":
        rows[rng.randrange(d)] = [0] * n
    elif kind == "square":
        rows = [[rng.randint(-6, 6) for _ in range(d)] for _ in range(d)]
    elif kind == "zero matrix":
        rows = [[0] * n for _ in range(d)]
    cost = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in rows[0]]
    if kind == "zero cost":
        cost = [0] * len(cost)
    return IntMatrix(rows), cost


BOUND_KINDS = (
    "generic", "dependent", "scaled", "zero-one", "zero row", "square",
    "zero matrix", "zero cost",
)
BOUND_CASES = [
    _bound_case(random.Random(seed), BOUND_KINDS[seed % len(BOUND_KINDS)])
    for seed in range(400)
]


def test_schrijver_bound_matches_every_minor_reference():
    for a, c in BOUND_CASES:
        assert schrijver_bound(a, c) == reference_schrijver_bound(a, c), (a.rows, c)


def test_schrijver_bound_cross_check_coverage():
    # the fast bound enumerates the kernel side when k = n - r < r and
    # rescales by g = |det A_P| / |det B_(P^c)|, the gcd of the maximal
    # minors; the cases must reach both sides, g > 1 there, k = 0 and r = 0
    seen = set()
    for a, c in BOUND_CASES:
        minors = maximal_minors(a)
        r = a.rank()
        k = a.ncols - r
        seen.add("rank 0" if r == 0 else "kernel side" if k < r else "row side")
        if r and k == 0:
            seen.add("square")
        if k < r and reduce(gcd, minors) > 1:
            seen.add("g > 1")
        if 0 < r < a.nrows:
            seen.add("dependent rows")
        if not any(c):
            seen.add("zero cost")
    assert seen == {
        "rank 0", "row side", "kernel side", "square", "g > 1",
        "dependent rows", "zero cost",
    }


PARALLEL_KINDS = ("repeated", "negated", "scaled", "zero")


def _parallel_column(rng, col, kind):
    """A column parallel to col: equal, negated, k col with |k| in {2, 3}, or zero."""
    k = {"repeated": 1, "negated": -1, "zero": 0}.get(kind) or rng.choice((-3, -2, 2, 3))
    return [k * x for x in col]


def _parallel_case(rng, side, kind):
    """One seeded (A, c) whose minors' walk meets parallel columns of kind.

    On the row side the vectors drawn are A's columns.  On the kernel
    side they are the rows of an n x d matrix B, and A's rows span the
    vectors orthogonal to B's columns, so a's kernel basis has its rows
    parallel where B's are.  A draw on the wrong side is drawn again.
    """
    while True:
        d = rng.randint(1, 3)
        base = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(rng.randint(d, d + 2))]
        extra = [_parallel_column(rng, rng.choice(base), kind) for _ in range(rng.randint(1, 3))]
        vectors = base + extra
        rng.shuffle(vectors)
        m = IntMatrix(vectors).transpose()
        if m.rank() < d:
            continue
        a = kernel_lattice(m).transpose() if side == "kernel" else m
        r = a.rank()
        if (side == "row") == (a.ncols - r >= r):
            cost = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(a.ncols)]
            return a, cost


PARALLEL_CASES = [
    _parallel_case(random.Random(2900 + seed), side, PARALLEL_KINDS[seed % 4])
    for seed, side in enumerate(["row", "kernel"] * 60)
]


def test_schrijver_bound_matches_the_reference_on_parallel_columns():
    for a, c in PARALLEL_CASES:
        assert schrijver_bound(a, c) == reference_schrijver_bound(a, c), (a.rows, c)


def test_parallel_column_corpus_coverage():
    # the walked matrix is a itself on the row side and the rows of a's
    # kernel basis on the kernel side; each side must meet each kind
    seen = set()
    for a, _ in PARALLEL_CASES:
        r = a.rank()
        side = "row" if a.ncols - r >= r else "kernel"
        cols = a.columns() if side == "row" else kernel_lattice(a).rows
        for i, u in enumerate(cols):
            if not any(u):
                seen.add((side, "zero"))
            for v in cols[i + 1:]:
                j = next((j for j, x in enumerate(u) if x), None)
                if j is None or not v[j] or v[j] % u[j]:
                    continue
                k = v[j] // u[j]
                if [k * x for x in u] == list(v):
                    seen.add((side, {1: "repeated", -1: "negated"}.get(k, "scaled")))
    assert seen == {(side, kind) for side in ("row", "kernel") for kind in PARALLEL_KINDS}


def _bound_of_a_report(a, c):
    """The Schrijver bound as a report on (a, c) reads it, and why it is absent."""
    inst = GapInstance(
        matrix=a,
        lattice_ideal=LatticeIdeal(kernel_lattice(a)),
        cost=tuple(Fraction(x) for x in c),
        groebner=None,
        ideal=None,
        components=(),
    )
    report = GapReport((), Fraction(0), None, (), (), inst)
    return report.schrijver_bound, report.schrijver_bound_reason


def test_schrijver_bound_leaves_the_lattice_memo_alone():
    # direct calls take the kernel basis from kernel_lattice, so the
    # cross-check's matrices cannot evict a held lattice ideal from either
    # memo; a report hands over its instance's kernel basis instead
    memos = (gapcore._of_matrix, gapcore._of_lattice)
    before = [(m.cache_info().hits, m.cache_info().misses) for m in memos]
    kernel_side = [
        (a, c) for a, c in BOUND_CASES[:80] if 0 < a.ncols - a.rank() < a.rank()
    ]
    bounds = [schrijver_bound(a, c) for a, c in kernel_side]
    after = [(m.cache_info().hits, m.cache_info().misses) for m in memos]
    assert after == before
    assert len(kernel_side) >= 5
    for (a, c), bound in zip(kernel_side, bounds):
        assert _bound_of_a_report(a, c) == (bound, None)


@pytest.mark.parametrize("a", [COIN_A, margin_matrix(k4_model())], ids=["row side", "kernel side"])
def test_a_report_walks_the_minors_once(monkeypatch, a):
    # a report walks the minors when its bound is first read, once, on
    # either side of the duality, from its instance's kernel basis, and
    # its bound is what a direct call gives
    n = a.ncols
    c = tuple(Fraction(i, 2) for i in range(n))
    rep = gap_report(GapInstance.from_matrix(a, c))
    walks, kernels = [], []
    walk, kernel = gapcore._max_maximal_minor, gapcore.kernel_lattice

    def counted(rows):
        walks.append(len(rows))
        return walk(rows)

    def counted_kernel(m):
        kernels.append(m)
        return kernel(m)

    monkeypatch.setattr(gapcore, "_max_maximal_minor", counted)
    monkeypatch.setattr(gapcore, "kernel_lattice", counted_kernel)
    assert walks == []
    bound = rep.schrijver_bound
    assert rep.schrijver_bound == bound
    assert len(walks) == 1
    assert kernels == []
    assert bound == schrijver_bound(a, c)
    assert len(walks) == 2


def _sweep_levels(monkeypatch, a):
    """D(A) and the minors each level of its sweep held, as the cap check read them."""
    held = {}
    check = exactmath._check_held

    def record(level, levels, count):
        held[level] = count  # a level only grows while it is built
        check(level, levels, count)

    monkeypatch.setattr(exactmath, "_check_held", record)
    d = gapcore._max_minor(a, None)
    return d, [held[k] for k in sorted(held)]


def _held_by_det(rows):
    """The sweep's level sizes and last nonzero count, one det per subset.

    Level k holds every k-subset of columns reached from a nonzero minor
    of the k - 1 rows above by a nonzero entry of row k.
    """
    held, nonzero = [], {()}
    for k, row in enumerate(rows, 1):
        reached = {tuple(sorted(s + (j,))) for s in nonzero for j, x in enumerate(row) if x and j not in s}
        held.append(len(reached))
        nonzero = {s for s in reached if IntMatrix([[r[j] for j in s] for r in rows[:k]]).det()}
    return held, len(nonzero)


def _up_to_sign(vectors):
    """One of each class of nonzero vectors equal up to sign, first kept."""
    out = {}
    for v in vectors:
        if any(v):
            out.setdefault(max(v, tuple(-x for x in v)), v)
    return list(out.values())


SWEEP_PINS = [
    # model, the side walked (the kernel basis's columns or the kept rows
    # of a), D, the minors held per level, the columns kept of those
    # walked and the nonzero minors of the last level: 3,008 of k4's
    # C(16, 5) = 4,368; 2x3x3's 18 columns fall into 9 classes up to
    # sign; the transportation matrix's nonzero maximal minors are
    # K_{3,4}'s 3^3 4^2 spanning trees
    pytest.param(k4_model(), "kernel", 3, [12, 68, 306, 1132, 3608], (16, 16, 3008), id="k4"),
    pytest.param(
        MarginalModel((2, 3, 3), ((1, 2), (1, 3), (2, 3))), "kernel", 1, [4, 13, 38, 92], (18, 9, 81),
        id="2x3x3",
    ),
    pytest.param(
        transportation_model(3, 4), "row", 1, [4, 16, 64, 144, 300, 504], (12, 12, 3 ** 3 * 4 ** 2),
        id="transport 3x4",
    ),
]


@pytest.mark.parametrize("model, side, d, levels, counts", SWEEP_PINS)
def test_sweep_holds_its_pinned_minors(monkeypatch, model, side, d, levels, counts):
    # a lost pruning (a merged column, a zero entry or a zero minor
    # carried) grows a level here before it shows as time; the counts
    # are checked again with one det per subset
    a = margin_matrix(model)
    assert _sweep_levels(monkeypatch, a) == (d, levels)
    rows = kernel_lattice(a).columns() if side == "kernel" else [a.rows[i] for i, _, _ in _echelon(a.rows)]
    columns = _up_to_sign(zip(*rows))
    held, nonzero = _held_by_det(list(zip(*columns)))
    assert held == levels
    assert (len(rows[0]), len(columns), nonzero) == counts


@pytest.mark.parametrize("cap, held, level", [(100, 104, 3), (306, 313, 4)])
def test_bound_past_the_minor_cap_is_absent(monkeypatch, cap, held, level):
    # k4's sweep holds 68, 306 and 1,132 minors at levels 2 to 4, so a cap
    # of 100 stops it in level 3 and one of 306, which level 3 just meets,
    # in level 4: a direct call raises, naming the level and the count,
    # and a report's bound is None with that reason
    a = margin_matrix(k4_model())
    c = (1,) + (0,) * 15
    monkeypatch.setattr(exactmath, "MINOR_SWEEP_CAP", cap)
    message = (
        f"schrijver bound: the maximal-minor sweep holds {held} minors at level {level} of 5,"
        f" over the cap of {cap}"
    )
    with pytest.raises(MinorCapExceeded) as caught:
        schrijver_bound(a, c)
    assert str(caught.value) == message
    assert _bound_of_a_report(a, c) == (None, message)


@pytest.mark.slow
def test_schrijver_bound_3x3x3_no_three_way():
    # 27 cells, rank 19: 2,220,075 maximal minors of size 19, or C(27, 8)
    # of size 8 on the kernel side; the sweep's last level holds 722,829
    # of those, under the cap, in about 0.6 s of CPU
    a = margin_matrix(MarginalModel((3, 3, 3), ((1, 2), (1, 3), (2, 3))))
    t0 = time.process_time()
    assert schrijver_bound(a, (1,) + (0,) * 26) == 54
    assert time.process_time() - t0 < 1.5


@pytest.mark.slow
def test_schrijver_bound_3x3x4_stops_at_the_minor_cap():
    # 36 cells, kernel rank 12: C(36, 12) = 1,251,677,700 subsets.  The
    # sweep passes MINOR_SWEEP_CAP in level 9, after about 1.4 s of CPU
    a = margin_matrix(MarginalModel((3, 3, 4), ((1, 2), (1, 3), (2, 3))))
    c = (1,) + (0,) * 35
    t0 = time.process_time()
    with pytest.raises(MinorCapExceeded, match=r"at level 9 of 12, over the cap of 1,000,000$"):
        schrijver_bound(a, c)
    assert time.process_time() - t0 < 5.0
    bound, reason = _bound_of_a_report(a, c)
    assert bound is None and "at level 9 of 12" in reason


def test_gap_value_monotone_in_corner():
    # enlarging the corner on a fixed support can only help
    inst = GapInstance.from_matrix(COIN_A, COIN_COST)
    rng = random.Random(3)
    for _ in range(20):
        base = tuple(rng.randrange(4) for _ in range(2))
        bigger = tuple(b + rng.randrange(3) for b in base)
        lo = IrreducibleComponent((0, 1), (base[0], base[1], 0, 0))
        hi = IrreducibleComponent((0, 1), (bigger[0], bigger[1], 0, 0))
        assert gap_value(lo, inst)[0] <= gap_value(hi, inst)[0]


def test_gap_bounded_by_pointwise_programs():
    # every individual right-hand side shows at most the reported gap
    inst = GapInstance.from_matrix(COIN_A, COIN_COST)
    r = gap_report(inst)
    for z in product(range(3), repeat=4):
        b = COIN_A.mul_vector(z)
        sol = lp.lp_value(COIN_A, b, COIN_COST)
        from ipgap.toric import ip_optimum

        opt = ip_optimum(inst.groebner, z)
        ip = sum(c * x for c, x in zip(inst.cost, opt))
        assert ip - sol.value <= r.gap


def test_unbounded_aux_detected():
    # a hand-assembled instance that skips the precondition checks: the
    # cost points down a direction the component's support cannot see
    lattice = IntMatrix([[1], [1]])
    inst = GapInstance(
        matrix=None,
        lattice_ideal=LatticeIdeal(lattice),
        cost=(Fraction(-1), Fraction(0)),
        groebner=None,
        ideal=None,
        components=(),
    )
    comp = IrreducibleComponent((0,), (1, 0))
    with pytest.raises(UnboundedAux):
        gap_value(comp, inst)


def test_unbounded_aux_detected_off_square(monkeypatch):
    # the same instance with both coordinates in the support: t <= 1 and
    # t <= 0 over one lattice dimension, so the simplex decides
    inst = GapInstance(
        matrix=None,
        lattice_ideal=LatticeIdeal(IntMatrix([[1], [1]])),
        cost=(Fraction(-1), Fraction(0)),
        groebner=None,
        ideal=None,
        components=(),
    )
    comp = IrreducibleComponent((0, 1), (1, 0))
    calls = _counted_solves(monkeypatch)
    with pytest.raises(UnboundedAux):
        gap_value(comp, inst)
    assert len(calls) == 1


def test_witness_mismatch_raises():
    inst = GapInstance.from_matrix(COIN_A, COIN_COST)
    r = gap_report(inst)
    broken = GapReport(
        per_component=r.per_component,
        gap=r.gap + 1,
        winner=r.winner,
        attaining=r.attaining,
        witness_z=r.witness_z,
        instance=inst,
    )
    with pytest.raises(WitnessMismatch):
        gap_witness(broken)


def random_bounded_instance(rng):
    while True:
        d = rng.randrange(1, 3)
        n = rng.randrange(2, 4)
        a = IntMatrix([[rng.randrange(0, 4) for _ in range(n)] for _ in range(d)])
        c = tuple(Fraction(rng.randrange(0, 4), rng.randrange(1, 3)) for _ in range(n))
        if any(any(row) for row in a.rows):
            return a, c


def test_random_instances_respect_bound_and_squarefree_rule():
    rng = random.Random(20260822)
    for _ in range(25):
        a, c = random_bounded_instance(rng)
        inst = GapInstance.from_matrix(a, c)
        r = gap_report(inst)
        assert 0 <= r.gap <= r.schrijver_bound
        assert (r.gap == 0) == is_squarefree_generated(inst.ideal)
        # the witness was verified on construction; re-verify through the
        # public entry point for good measure
        assert gap_witness(r).witness_z == r.witness_z


def test_one_saturation_per_lattice(monkeypatch):
    # lattices no other test builds, so the shared memo starts cold for
    # both whatever order the tests run in
    calls = Counter()
    original = gapcore.lattice_ideal_generators

    def counted(basis):
        calls[basis] += 1
        return original(basis)

    monkeypatch.setattr(gapcore, "lattice_ideal_generators", counted)
    a = IntMatrix([[2, 3, 7, 11]])
    GapInstance.from_matrix(a, (1, 2, 3, 4))
    GapInstance.from_matrix(a, (4, 3, 2, 1))
    cones = explore_cones(a, [(7, 19, 31, 53)], budget=4)
    assert len(cones) > 1
    for _, cone in cones:
        GapInstance.from_matrix(a, cone.center)
    model = transportation_model(2, 4)
    for sense in ("max", "min"):
        entry_instance(model, sense)
    assert calls == {
        kernel_lattice(a): 1,
        kernel_lattice(margin_matrix(model)): 1,
    }


def test_rejected_costs_saturate_nothing(monkeypatch):
    # the cost is checked on the lattice basis before the ideal is
    # saturated; a lattice no other test builds, so the memo starts cold
    calls = Counter()
    original = gapcore.lattice_ideal_generators

    def counted(basis):
        calls[basis] += 1
        return original(basis)

    monkeypatch.setattr(gapcore, "lattice_ideal_generators", counted)
    a = IntMatrix([[2, -2, 3, 7]])
    # (1, 1, 0, 0) lies in the kernel: cost -2 along it, then cost 0
    with pytest.raises(UnboundedProgram):
        GapInstance.from_matrix(a, (0, -2, 1, 1))
    with pytest.raises(NonTerminatingOrder):
        GapInstance.from_matrix(a, (1, -1, 2, 4), "lex")
    # an order without cost rows is rejected before any saturation
    for cost in ((), TermOrder((), "grevlex")):
        with pytest.raises(BadParameter, match="order has no cost rows"):
            GapInstance.from_matrix(a, cost)
    assert not calls
    GapInstance.from_matrix(a, (1, -1, 2, 4))
    assert calls == {kernel_lattice(a): 1}


def test_cost_is_checked_once_per_instance(monkeypatch):
    # the verdict on the lattice basis carries over to buchberger on the
    # saturated generators, which span the same space: under lex that is
    # one Farkas system (rank-many equality rows over the 4 coordinates)
    # and one zero-cost-ray system (4 + 2 rows over 2 * 3 + 4 variables)
    # in all, beside saturation's one positive-grading LP (rank-many rows
    # over the 4 coordinates).  Each is in standard form: no ub rows
    calls = []
    solve = lp.solve

    def counted(problem):
        calls.append((len(problem.eq), len(problem.ub), problem.nvars))
        return solve(problem)

    monkeypatch.setattr(lp, "solve", counted)
    inst = GapInstance.from_matrix(IntMatrix([[4, 7, 10, 13]]), (2, 1, 3, 1), "lex")
    assert len(inst.lattice_ideal.generators) > 3
    assert calls == [(3, 0, 4), (6, 0, 10), (3, 0, 4)]
    assert all(ub == 0 for _, ub, _ in calls)


def _counted_solves(monkeypatch) -> list:
    """The problems lp.solve is handed from here on."""
    calls = []
    solve = lp.solve

    def counted(problem):
        calls.append(problem)
        return solve(problem)

    monkeypatch.setattr(lp, "solve", counted)
    return calls


def _square_split(inst) -> tuple[int, int]:
    """(square, other) component counts: square when |support| = rank."""
    rank = inst.lattice.ncols
    square = sum(len(comp.support) == rank for comp in inst.components)
    return square, len(inst.components) - square


@pytest.mark.parametrize("name", ["coin", "tied"])
def test_every_report_lp_goes_through_solve(monkeypatch, name):
    # a square component's program is solved directly; every other
    # component's and the witness's relaxation (n > rank rows here) go
    # through lp.solve, the one simplex entry the tracer times.  Before
    # the direct solve, coin made 4 calls and tied 4
    spec = load_instance(str(DEMOS / f"{name}.txt"))
    inst = GapInstance.from_matrix(spec.matrix, spec.cost)
    square, other = _square_split(inst)
    assert (square, other) == {"coin": (2, 1), "tied": (0, 3)}[name]
    calls = _counted_solves(monkeypatch)
    gap_report(inst)
    assert len(calls) == other + 1
    assert all(len(problem.ub) != problem.nvars for problem in calls)


def test_k4_report_solves_only_its_non_square_programs(monkeypatch, k4):
    # 126 of the 139 components are square; the 13 others and the
    # witness's relaxation make 14 solves, down from 140
    inst, report = k4
    assert _square_split(inst) == (126, 13)
    calls = _counted_solves(monkeypatch)
    assert gap_report(inst) == report
    assert len(calls) == 14


def test_k4_gap_run_counts_its_simplex_solves():
    # a fresh process, so no memo spares the saturation's three
    # feasibility programs: 17 solves in all, down from 143
    script = (
        "import sys\n"
        "from ipgap import cli, lp\n"
        "calls, solve = [], lp.solve\n"
        "lp.solve = lambda problem: calls.append(problem) or solve(problem)\n"
        "cli.main(['gap', sys.argv[1]])\n"
        "print('solves', len(calls))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(DEMOS.parent / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(DEMOS / "k4.txt")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "solves 17"


def _square_programs_against_the_simplex(instances) -> tuple[int, int]:
    """Check each square component's gap_value against lp._coefficient_lp.

    Returns the number of square programs checked and how many of them
    are dual-degenerate, some y_i = 0 in B_tau^T y = B^T c: those have a
    ray of optimal points, of which the direct solve must return the one
    vertex, as the simplex does.  y_i is read off the last column of the
    reduced echelon form of [B_tau^T | B^T c].
    """
    checked = degenerate = 0
    for inst in instances:
        cols = inst.lattice.columns()
        rows = inst.lattice.rows
        objective, _ = _scaled(_dots(inst.cost, cols))
        for comp in inst.components:
            if len(comp.support) != len(cols):
                continue
            sol = lp._coefficient_lp(cols, inst.cost, comp.bound, comp.support)
            t, d = _scaled(sol.x)
            v = tuple(Fraction(u * d - sum(map(mul, r, t)), d) for u, r in zip(comp.bound, rows))
            assert gap_value(comp, inst) == (sol.value, v)
            augmented = [[rows[i][j] for i in comp.support] + [g] for j, g in enumerate(objective)]
            checked += 1
            degenerate += any(row[-1] == 0 for row in _span_basis(augmented))
    return checked, degenerate


def test_square_programs_match_the_simplex_on_the_simplicial_models():
    instances = (
        entry_instance(model, sense)
        for model in simplicial_model_representatives()
        for sense in ("max", "min")
    )
    assert _square_programs_against_the_simplex(instances) == (1426, 1354)


def test_square_programs_match_the_simplex_on_random_instances():
    # the family of perfbench's random batch: d in {1, 2}, n in {2..4},
    # entries in [-6, 6], costs p/q with q in {1, 2}
    rng = random.Random(20261020)
    instances = []
    for _ in range(300):
        d, n = rng.choice((1, 2)), rng.choice((2, 3, 4))
        a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(d)]
        c = [Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n)]
        try:
            instances.append(GapInstance.from_matrix(a, c))
        except IpgapError:
            continue
    assert _square_programs_against_the_simplex(instances) == (257, 0)


def test_singular_square_support_falls_back_to_the_simplex(monkeypatch):
    # |support| = rank 2, but rows 0 and 1 of B are equal: the program is
    # max t_1 s.t. t_1 <= 2, t_1 <= 3 with t_2 free and of zero cost
    lattice = IntMatrix([[1, 0], [1, 0], [0, 1]])
    inst = GapInstance(
        matrix=None,
        lattice_ideal=LatticeIdeal(lattice),
        cost=(Fraction(1), Fraction(0), Fraction(0)),
        groebner=None,
        ideal=None,
        components=(),
    )
    comp = IrreducibleComponent((0, 1), (2, 3, 0))
    sol = lp._coefficient_lp(lattice.columns(), inst.cost, comp.bound, comp.support)
    assert (sol.value, sol.x) == (2, (2, 0))
    calls = _counted_solves(monkeypatch)
    assert gap_value(comp, inst) == (2, (0, 1, 0))
    assert len(calls) == 1
