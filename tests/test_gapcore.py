import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd

import pytest

from _reference import maximal_minors
from _reference import schrijver_bound as reference_schrijver_bound
from ipgap import gapcore, lp
from ipgap.errors import UnboundedAux, WitnessMismatch
from ipgap.exactmath import IntMatrix, kernel_lattice
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
    margin_matrix,
    transportation_model,
)
from ipgap.monomial import IrreducibleComponent
from ipgap.toric import TermOrder

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
    assert r.witness_z == (0, 0, 0)


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


@pytest.mark.slow
def test_schrijver_bound_3x3x3_no_three_way():
    # 27 cells, rank 19: 2,220,075 maximal minors of size 19, or C(27, 8)
    # of size 8 on the kernel side
    a = margin_matrix(MarginalModel((3, 3, 3), ((1, 2), (1, 3), (2, 3))))
    assert schrijver_bound(a, (1,) + (0,) * 26) == 54


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
        lattice_ideal=LatticeIdeal(matrix=None, lattice=lattice),
        cost=(Fraction(-1), Fraction(0)),
        groebner=None,
        ideal=None,
        components=(),
    )
    comp = IrreducibleComponent((0,), (1, 0))
    with pytest.raises(UnboundedAux):
        gap_value(comp, inst)


def test_witness_mismatch_raises():
    inst = GapInstance.from_matrix(COIN_A, COIN_COST)
    r = gap_report(inst)
    broken = GapReport(
        per_component=r.per_component,
        gap=r.gap + 1,
        winner=r.winner,
        attaining=r.attaining,
        witness_z=r.witness_z,
        schrijver_bound=r.schrijver_bound,
    )
    with pytest.raises(WitnessMismatch):
        gap_witness(broken, inst)


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
        assert (r.gap == 0) == inst.ideal.is_squarefree_generated()
        # the witness was verified on construction; re-verify through the
        # public entry point for good measure
        assert gap_witness(r, inst) == r.witness_z


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
