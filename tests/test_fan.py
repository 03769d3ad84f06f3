import random
from fractions import Fraction

import pytest

from ipgap import fan
from ipgap.errors import BadParameter, DegenerateCone, TrivialInstance
from ipgap.exactmath import IntMatrix
from ipgap.fan import (
    Cone,
    explore_cones,
    gap_fan_subdivide,
    gap_function_eval,
    groebner_cone,
)
from ipgap.gapcore import GapInstance, LatticeIdeal, gap, gap_value
from ipgap.toric import Binomial, GroebnerBasis, TermOrder

COIN_A = IntMatrix([[1, 1, 1, 1], [1, 5, 10, 25]])
COIN_COST = (0, 1, 0, 1)
SPLIT = (305, -135, -308, 138)

# the seven marked bases of the coin matrix, keyed by sorted minimal
# generators of the leading ideal, with the winning corners (support, bound)
COIN_FAN_TABLE = {
    ((0, 0, 4, 0), (0, 6, 0, 0)): [((1, 2), (0, 5, 3, 0))],
    ((0, 0, 4, 0), (5, 0, 0, 1)): [((0, 2), (4, 0, 3, 0))],
    ((0, 0, 8, 0), (0, 3, 0, 1), (0, 3, 4, 0), (0, 6, 0, 0)): [
        ((1, 2, 3), (0, 5, 3, 0))
    ],
    ((0, 3, 0, 1), (0, 3, 4, 0), (0, 6, 0, 0), (5, 0, 0, 3)): [
        ((0, 1), (4, 2, 0, 0)),
        ((1, 2, 3), (0, 5, 3, 0)),
    ],
    ((0, 3, 0, 1), (0, 6, 0, 0), (5, 0, 0, 2)): [((0, 1), (4, 2, 0, 0))],
    ((0, 3, 0, 1), (0, 9, 0, 0), (5, 0, 0, 1)): [((0, 1), (4, 2, 0, 0))],
    ((0, 3, 0, 1), (5, 0, 0, 1), (5, 0, 4, 0)): [((0, 1), (4, 2, 0, 0))],
}


def dot(a, b):
    return sum((Fraction(x) * Fraction(y) for x, y in zip(a, b)), Fraction(0))


def coin_cones():
    seeds = [(1, 2, 3, 4), (4, 3, 2, 1), (1, 1, 2, 3)]
    return explore_cones(COIN_A, seeds, budget=300)


def test_cone_normalization_and_contains():
    c = Cone(2, [(2, 4), (1, 2), (0, 0), (-6, 3)])
    assert c.inequalities == ((-2, 1), (1, 2))
    assert c.contains((0, 1))
    assert not c.contains((1, 0))
    with pytest.raises(BadParameter):
        Cone(2, [(1, 2, 3)])


def test_cone_interior_point():
    c = Cone(2, [(1, -1), (0, 1)])
    p = c.interior_point()
    assert dot((1, -1), p) > 0 and dot((0, 1), p) > 0
    assert Cone(2, [(1, -1), (-1, 1)]).interior_point() is None
    assert Cone(3, []).interior_point() == (0, 0, 0)


def test_coin_groebner_cone():
    inst = GapInstance.from_matrix(COIN_A, COIN_COST)
    cone = groebner_cone(inst.groebner)
    assert cone.inequalities == (
        (-5, 3, 4, -2),
        (-5, 6, 0, -1),
        (0, 3, -4, 1),
        (5, 0, -8, 3),
    )
    # the walls 3n + q >= 4d and 5p + 3q >= 8d are facets
    assert (0, 3, -4, 1) in cone.inequalities
    assert (5, 0, -8, 3) in cone.inequalities
    assert cone.contains(COIN_COST)
    p = cone.interior_point()
    assert all(dot(h, p) > 0 for h in cone.inequalities)


def test_coin_subdivision():
    inst = GapInstance.from_matrix(COIN_A, COIN_COST)
    pieces = gap_fan_subdivide(inst)
    assert len(pieces) == 2
    first, second = pieces
    assert (first.winner.support, first.winner.bound) == ((0, 1), (4, 2, 0, 0))
    assert (second.winner.support, second.winner.bound) == (
        (1, 2, 3),
        (0, 5, 3, 0),
    )
    assert first.linear_form == (
        Fraction(4),
        Fraction(2),
        Fraction(-136, 15),
        Fraction(46, 15),
    )
    assert second.linear_form == (
        Fraction(-25, 9),
        Fraction(5),
        Fraction(-20, 9),
        Fraction(0),
    )
    # the split is the stated hyperplane, oriented toward each winner
    assert SPLIT in first.cone.inequalities
    assert tuple(-x for x in SPLIT) in second.cone.inequalities
    diff = tuple(a - b for a, b in zip(first.linear_form, second.linear_form))
    scale = diff[0] / SPLIT[0]
    assert scale > 0
    assert all(d == scale * s for d, s in zip(diff, SPLIT))


def test_coin_eval():
    value, piece = gap_function_eval(COIN_A, COIN_COST)
    assert value == Fraction(76, 15)
    assert (piece.winner.support, piece.winner.bound) == ((0, 1), (4, 2, 0, 0))
    assert dot(piece.linear_form, COIN_COST) == value
    # the coin cost sits on the positive side of the split
    assert dot(SPLIT, COIN_COST) > 0


def test_eval_positive_homogeneity():
    doubled = tuple(2 * x for x in COIN_COST)
    value, piece = gap_function_eval(COIN_A, doubled)
    assert value == Fraction(152, 15)
    assert (piece.winner.support, piece.winner.bound) == ((0, 1), (4, 2, 0, 0))


def test_tie_on_the_split_hyperplane():
    inst = GapInstance.from_matrix(COIN_A, COIN_COST)
    plus, minus = gap_fan_subdivide(inst)
    p = plus.cone.interior_point()
    q = minus.cone.interior_point()
    hp, hq = dot(SPLIT, p), dot(SPLIT, q)
    assert hp > 0 > hq
    t = hp / (hp - hq)
    c = tuple(pi + t * (qi - pi) for pi, qi in zip(p, q))
    assert dot(SPLIT, c) == 0
    assert groebner_cone(inst.groebner).contains(c)
    tied = dot(plus.linear_form, c)
    assert tied == dot(minus.linear_form, c)
    assert gap(COIN_A, c).gap == tied


def test_gap_value_cost_override():
    inst = GapInstance.from_matrix(COIN_A, COIN_COST)
    comp = inst.components[0]
    assert gap_value(comp, inst, cost=COIN_COST) == gap_value(comp, inst)
    other = (Fraction(1, 3), 1, Fraction(1, 2), 2)
    value, v = gap_value(comp, inst, cost=other)
    form = tuple(Fraction(u) - vi for u, vi in zip(comp.bound, v))
    assert value == dot(form, other)


def test_coin_exploration_matches_table():
    cones = coin_cones()
    assert len(cones) == 7
    seen = {}
    total = 0
    split_cones = 0
    for gb, cone in cones:
        interior = cone.interior_point()
        inst = GapInstance.from_matrix(COIN_A, interior)
        key = tuple(sorted(inst.ideal.gens))
        pieces = gap_fan_subdivide(inst)
        total += len(pieces)
        seen[key] = [(p.winner.support, p.winner.bound) for p in pieces]
        if len(pieces) > 1:
            split_cones += 1
            assert key == ((0, 3, 0, 1), (0, 3, 4, 0), (0, 6, 0, 0), (5, 0, 0, 3))
            rows = {tuple(r) for p in pieces for r in p.cone.inequalities}
            assert SPLIT in rows and tuple(-x for x in SPLIT) in rows
    assert seen == COIN_FAN_TABLE
    assert total == 8
    assert split_cones == 1


def test_exploration_budget_partial():
    only_seed = explore_cones(COIN_A, [(1, 2, 3, 4)], budget=0)
    assert len(only_seed) == 1


def test_seed_must_be_generic():
    # cost on a Groebner-cone wall: 3n + q = 4d
    with pytest.raises(BadParameter):
        explore_cones(COIN_A, [(1, 4, 3, 0)], budget=10)


def test_single_relation_matrix():
    cones = explore_cones(IntMatrix([[1, 1]]), [(2, 1), (1, 2)], budget=20)
    assert len(cones) == 2
    rows = sorted(cn.inequalities for _, cn in cones)
    assert rows == [((-1, 1),), ((1, -1),)]
    for _, cn in cones:
        inst = GapInstance.from_matrix([[1, 1]], cn.interior_point())
        pieces = gap_fan_subdivide(inst)
        assert len(pieces) == 1
        assert pieces[0].linear_form == (0, 0)


def test_envelope_identity_on_random_interior_costs():
    rng = random.Random(20260822)
    for gb, cone in coin_cones():
        base = cone.interior_point()
        reference = GapInstance.from_matrix(COIN_A, base)
        pieces = gap_fan_subdivide(reference)
        for _ in range(3):
            jitter = tuple(Fraction(rng.randint(-40, 40), 1000) for _ in base)
            c = tuple(b + j for b, j in zip(base, jitter))
            if not all(dot(h, c) > 0 for h in cone.inequalities):
                continue
            inst = GapInstance.from_matrix(COIN_A, c)
            # same cone, same non-optimal ideal
            assert sorted(inst.ideal.gens) == sorted(reference.ideal.gens)
            envelope = max(dot(p.linear_form, c) for p in pieces)
            assert gap(COIN_A, c).gap == envelope


def test_trivial_instance_has_no_fan():
    inst = GapInstance.from_matrix([[1, 0], [0, 1]], (1, 1))
    with pytest.raises(TrivialInstance):
        gap_fan_subdivide(inst)


def test_degenerate_cone_detected():
    base = GapInstance.from_matrix(COIN_A, COIN_COST)
    order = TermOrder((1, 1), "grevlex")
    flat = GroebnerBasis(
        (Binomial((1, 0), (0, 1)), Binomial((0, 1), (1, 0))), order
    )
    broken = GapInstance(
        lattice_ideal=LatticeIdeal(matrix=None, lattice=IntMatrix([[1], [-1]])),
        cost=(Fraction(1), Fraction(1)),
        groebner=flat,
        ideal=base.ideal,
        components=base.components,
    )
    with pytest.raises(DegenerateCone):
        gap_fan_subdivide(broken)


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_fan_solves_each_center_once(monkeypatch):
    interior = _counting(monkeypatch, Cone, "interior_point")
    values = _counting(monkeypatch, fan, "gap_value")
    cones = coin_cones()
    before = len(interior)
    components = 0
    for _, cone in cones:
        inst = GapInstance.from_matrix(COIN_A, cone.center)
        gap_fan_subdivide(inst, cone)
        components += len(inst.components)
    # exploration already solved some centers; subdividing reuses them all
    assert len(interior) == len(cones) >= before
    # at the center the linearity re-check is skipped: one solve each
    assert len(values) == components


def test_subdivide_off_center_still_checks_linearity(monkeypatch):
    _, cone = coin_cones()[0]
    centered = GapInstance.from_matrix(COIN_A, cone.center)
    scaled = GapInstance.from_matrix(COIN_A, tuple(2 * x for x in cone.center))
    values = _counting(monkeypatch, fan, "gap_value")
    pieces = gap_fan_subdivide(centered, cone)
    assert len(values) == len(centered.components)
    values.clear()
    assert gap_fan_subdivide(scaled, cone) == pieces
    assert len(values) == 2 * len(scaled.components)


def test_subdivide_rejects_a_foreign_cone():
    (_, first), (_, second) = coin_cones()[:2]
    inst = GapInstance.from_matrix(COIN_A, first.center)
    with pytest.raises(BadParameter):
        gap_fan_subdivide(inst, second)
