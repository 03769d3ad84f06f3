"""End-to-end checks of the package's headline results, one per test.

Every value here is exact; rationals are compared with ==, never with a
tolerance.  Stated runtime ceilings are asserted too, so a regression in
the algebra or in performance both show up as a failing line.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import prod

import pytest

import test_models
from _reference import entry_degree_bound_check, standard_pairs
from ipgap import lp, oracle
from ipgap.errors import UnboundedProgram
from ipgap.exactmath import IntMatrix
from ipgap.fan import explore_cones, gap_fan_subdivide
from ipgap.gapcore import GapInstance, gap_report, gap_value, gap_witness
from ipgap.models import (
    coin_instance,
    entry_instance,
    k4_model,
    lattice_family,
    transportation_model,
)
from ipgap.monomial import IrreducibleComponent, irreducible_decomposition
from ipgap.toric import TermOrder, ip_optimum

COIN_A, COIN_COST = coin_instance()


def coin():
    return GapInstance.from_matrix(COIN_A, COIN_COST)


def test_01_coin_gap_and_per_component_values():
    t0 = time.monotonic()
    inst = coin()
    rep = gap_report(inst)
    assert rep.gap == Fraction(76, 15)
    assert sorted(e.value for e in rep.per_component) == [
        Fraction(4),
        Fraction(5),
        Fraction(76, 15),
    ]
    assert (rep.winner.support, rep.winner.bound) == ((0, 1), (4, 2, 0, 0))
    assert time.monotonic() - t0 < 1.0


def test_02_coin_basis_and_decomposition():
    t0 = time.monotonic()
    inst = coin()
    basis = {(g.plus, g.minus) for g in inst.groebner.elements}
    assert basis == {
        ((0, 3, 0, 1), (0, 0, 4, 0)),  # n^3 q  - d^4
        ((0, 6, 0, 0), (5, 0, 0, 1)),  # n^6    - p^5 q
        ((0, 3, 4, 0), (5, 0, 0, 2)),  # n^3 d^4 - p^5 q^2
        ((5, 0, 0, 3), (0, 0, 8, 0)),  # p^5 q^3 - d^8
    }
    assert {(c.support, c.bound) for c in inst.components} == {
        ((0, 1), (4, 2, 0, 0)),
        ((1, 2, 3), (0, 5, 3, 0)),
        ((1, 3), (0, 2, 0, 2)),
    }
    assert time.monotonic() - t0 < 1.0


def test_03_coin_witness_and_named_rhs():
    inst = coin()
    rep = gap_report(inst)
    z = gap_witness(rep, inst)
    b = COIN_A.mul_vector(z)
    # the brute-force route must see the same difference at that b
    ip = oracle.brute_ip(COIN_A, b, COIN_COST)
    relax = lp.lp_value(COIN_A, b, COIN_COST)
    assert ip - relax.value == Fraction(76, 15)

    b = (10, 114)
    points = oracle.enumerate_fiber(COIN_A, b)
    values = {p: sum(c * x for c, x in zip(COIN_COST, p)) for p in points}
    best = min(values.values())
    assert best == 6
    assert values[(4, 2, 0, 4)] == 6
    assert ip_optimum(inst.groebner, points[0]) == (4, 2, 0, 4)
    sol = lp.lp_value(COIN_A, b, COIN_COST)
    assert sol.value == Fraction(14, 15)
    assert sol.x == (0, 0, Fraction(136, 15), Fraction(14, 15))


def test_04_lattice_family_decompositions_and_index():
    t0 = time.monotonic()
    for r in range(4, 9):
        basis = lattice_family(r)
        assert abs(basis.det()) == 2 * r * (r - 2)
        inst = GapInstance.from_lattice(basis, TermOrder.degree_lexicographic(3))
        got = {(c.support, c.bound) for c in inst.components}
        want = {((0, 1, 2), (0, j, r - 3 - j)) for j in range(r - 3)} | {
            ((0, 1, 2), (i, 2 * r - 1 - i, 0)) for i in range(r - 2)
        }
        assert got == want
        assert len(inst.components) == 2 * r - 5
    assert time.monotonic() - t0 < 10.0


def test_05_k4_margin_model_stress():
    t0 = time.monotonic()
    inst = entry_instance(k4_model())
    rep = gap_report(inst)

    gens = set(inst.ideal.gens)
    assert len(gens) == 61
    assert (0, 3, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0) in gens
    assert (0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 2) in gens

    assert len(inst.components) == 139
    corner = (0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)
    assert rep.gap == Fraction(5, 3)
    assert rep.winner.support == tuple(range(1, 16))
    assert rep.winner.bound == corner

    value, point = gap_value(rep.winner, inst)
    assert value == Fraction(5, 3)
    want = [Fraction(0)] * 16
    want[0] = Fraction(5, 3)
    for i in (3, 5, 6, 7, 9, 10, 11, 12, 13, 14):
        want[i] = Fraction(1, 3)
    assert point == tuple(want)
    # the relaxed point shares the corner's margins, is nonnegative, and
    # sits one gap below it on the cost
    a = inst.matrix
    assert a.mul_vector(point) == tuple(
        Fraction(x) for x in a.mul_vector(corner)
    )
    assert all(x >= 0 for x in point)
    cost_at = lambda v: sum(c * x for c, x in zip(inst.cost, v))
    assert cost_at(corner) - cost_at(point) == Fraction(5, 3)
    assert time.monotonic() - t0 < 900.0


@pytest.mark.slow
def test_06_other_simplicial_models_stay_below():
    results, over, total = test_models.run_simplicial_sweep()
    assert len(results) + len(over) == total
    assert not [f for f, g in results.items() if g is None]
    six = k4_model().faces
    below = {f: g for f, g in results.items() if f != six}
    assert all(g < Fraction(5, 3) for g in below.values())
    if six in results:
        assert results[six] == Fraction(5, 3)


def test_07_coin_cost_fan():
    t0 = time.monotonic()
    cones = explore_cones(COIN_A, [(1, 2, 3, 4), (4, 3, 2, 1), (1, 1, 2, 3)], 300)
    assert len(cones) == 7
    split_forms = []
    total_pieces = 0
    table = {}
    for _, cone in cones:
        inst = GapInstance.from_matrix(COIN_A, cone.interior_point())
        pieces = gap_fan_subdivide(inst)
        total_pieces += len(pieces)
        table[tuple(sorted(inst.ideal.gens))] = [
            (p.winner.support, p.winner.bound) for p in pieces
        ]
        if len(pieces) == 2:
            split_forms.append((pieces[0].linear_form, pieces[1].linear_form))
    assert total_pieces == 8
    assert len(split_forms) == 1
    f1, f2 = split_forms[0]
    diff = tuple(a - b for a, b in zip(f1, f2))
    hyperplane = (305, -135, -308, 138)
    scale = diff[0] / hyperplane[0]
    assert scale > 0
    assert all(d == scale * h for d, h in zip(diff, hyperplane))
    import test_fan

    assert table == test_fan.COIN_FAN_TABLE
    assert time.monotonic() - t0 < 30.0


def test_08_random_instances_match_the_oracle():
    t0 = time.monotonic()
    rng = random.Random(822)
    done = 0
    while done < 200:
        d = rng.randint(1, 2)
        n = rng.randint(1, 4)
        a = IntMatrix([[rng.randint(-6, 6) for _ in range(n)] for _ in range(d)])
        c = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n))
        try:
            inst = GapInstance.from_matrix(a, c)
            rep = gap_report(inst)
        except UnboundedProgram:
            continue
        box = rep.witness_z
        if prod(x + 1 for x in box) > 200_000:
            continue
        try:
            value, _ = oracle.brute_gap_box(a, c, box)
        except oracle.InfiniteFiber:
            continue
        assert value == rep.gap, (a.rows, c)
        assert rep.gap <= rep.schrijver_bound
        done += 1
    assert time.monotonic() - t0 < 300.0


def test_09_structural_properties():
    # zero gap exactly for squarefree-generated non-optimal ideals
    rng = random.Random(191)
    squarefree_seen = nontrivial_seen = 0
    for _ in range(40):
        d = rng.randint(1, 2)
        n = rng.randint(2, 4)
        a = IntMatrix([[rng.randint(0, 4) for _ in range(n)] for _ in range(d)])
        c = tuple(Fraction(rng.randint(0, 3)) for _ in range(n))
        try:
            inst = GapInstance.from_matrix(a, c)
        except UnboundedProgram:
            continue
        rep = gap_report(inst)
        square = inst.ideal.is_squarefree_generated()
        assert (rep.gap == 0) == square
        squarefree_seen += square
        nontrivial_seen += not square
    assert squarefree_seen and nontrivial_seen

    # enlarging a component's corner never shrinks its value
    inst = coin()
    for hi in product(range(5, 8), range(2, 5)):
        lo = IrreducibleComponent((0, 1), (4, 2, 0, 0))
        up = IrreducibleComponent((0, 1), (hi[0], hi[1], 0, 0))
        assert gap_value(lo, inst)[0] <= gap_value(up, inst)[0]

    # the non-optimal ideal ignores the tiebreak when the cost decides
    gens = {
        tb: set(GapInstance.from_matrix(COIN_A, COIN_COST, tb).ideal.gens)
        for tb in ("grevlex", "grlex", "lex")
    }
    assert gens["grevlex"] == gens["grlex"] == gens["lex"]

    # minimal admissible standard-pair ideals are exactly the components
    ideal = coin().ideal
    cands = {}
    for p in standard_pairs(ideal):
        q = IrreducibleComponent(
            tuple(i for i in range(ideal.nvars) if i not in p.free), p.root
        )
        cands[(q.support, q.bound)] = q
    cands = list(cands.values())
    minimal = {
        q for q in cands if not any(o != q and o.ideal_subset_of(q) for o in cands)
    }
    assert minimal == set(irreducible_decomposition(ideal))

    # the entry-bound gap stays under the generator-degree bound
    for model in (
        k4_model(),
        transportation_model(2, 2),
        transportation_model(2, 3),
    ):
        assert entry_degree_bound_check(model)

    # positive scaling of the cost scales the gap with it
    for lam in (2, 3, Fraction(1, 2)):
        scaled = tuple(lam * x for x in COIN_COST)
        assert gap_report(
            GapInstance.from_matrix(COIN_A, scaled)
        ).gap == lam * Fraction(76, 15)


def test_10_counting_shortcuts_stay_out_of_scope():
    # fiber counts and short-circuit counting methods are deliberately
    # absent: every cross-check above runs on explicit enumeration
    import ipgap

    assert not any("generating" in name for name in dir(ipgap))
    assert not hasattr(oracle, "count_fiber")
