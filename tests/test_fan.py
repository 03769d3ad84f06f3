import random
from collections import Counter
from fractions import Fraction
from operator import sub

import pytest

from ipgap import fan, lp
from ipgap.errors import BadParameter, DegenerateCone, TrivialInstance, UnboundedProgram
from ipgap.exactmath import IntMatrix
from ipgap.fan import (
    Cone,
    explore_cones,
    gap_fan_subdivide,
    groebner_cone,
)
from ipgap.gapcore import GapInstance, LatticeIdeal, gap, gap_report, gap_value
from ipgap.toric import Binomial, GroebnerBasis, TermOrder, buchberger, is_generic

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


def test_empty_basis_has_its_orders_size_and_the_whole_cone():
    # every order has a cost row, so an empty basis is still sized
    with pytest.raises(BadParameter, match="^order has no cost rows$"):
        TermOrder(())
    gb = GroebnerBasis((), TermOrder((1, 2, 3)))
    assert gb.nvars == 3
    assert groebner_cone(gb) == Cone(3)


def test_cone_interior_point():
    c = Cone(2, [(1, -1), (0, 1)])
    p = c.interior_point()
    assert dot((1, -1), p) > 0 and dot((0, 1), p) > 0
    assert Cone(2, [(1, -1), (-1, 1)]).interior_point() is None
    assert Cone(3, []).interior_point() == (0, 0, 0)


def test_gordan_verdict_matches_the_interior_point_lp():
    # a region is full dimensional exactly when no convex combination of
    # its rows vanishes; the l1 interior-point LP decides the same question
    rng = random.Random(20261026)
    seen = Counter()
    for case in range(600):
        n = rng.randint(1, 5)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(0, 12))]
        if rows and case % 4 == 1:
            rows.append(rng.choice(rows))
        if rows and case % 4 == 2:
            rows.append(tuple(-x for x in rng.choice(rows)))
        if case % 4 == 3:
            rows.append((0,) * n)
        rng.shuffle(rows)
        want = fan._strict_point(n, rows) is not None
        assert fan._full_dimensional(n, rows) == want, (n, rows)
        seen[want, case % 4] += 1
    assert fan._full_dimensional(3, [])
    assert min(seen[True, k] for k in (0, 1)) >= 40
    assert min(seen[False, k] for k in (0, 1, 2, 3)) >= 40


def test_knapsack_pieces_take_one_gordan_system_per_form(monkeypatch):
    # ipgap fan demos/knapsack.txt: 11 cones, 41 distinct forms, 21 pieces;
    # every region test is one Gordan system of n + 1 = 5 equality rows.
    # Each of the 11 cones has one form strictly largest at its center,
    # kept untested: 30 tests.  Every other solve is the auxiliary program
    # of one of the 16 components whose support is not rank-many; the 25
    # square ones are solved directly (71 solves in all before, 46 now)
    a = IntMatrix([[3, 5, 7, 11]])
    cones = explore_cones(a, [(32, 45, 51, 14)], 20)
    instances = [GapInstance.from_matrix(a, cone.center) for _, cone in cones]
    calls = []
    solve = lp.solve

    def counted(problem):
        calls.append(problem)
        return solve(problem)

    monkeypatch.setattr(lp, "solve", counted)
    tests = pieces = others = 0
    for inst, (_, cone) in zip(instances, cones):
        calls.clear()
        pieces += len(gap_fan_subdivide(inst, cone))
        region = [p for p in calls if (len(p.eq), len(p.ub)) == (5, 0)]
        rank = inst.lattice.ncols
        assert len(calls) - len(region) == sum(len(c.support) != rank for c in inst.components)
        tests += len(region)
        others += len(calls) - len(region)
    assert (len(cones), tests, pieces, others) == (11, 30, 21, 16)


def test_walk_basis_is_the_basis_at_each_center():
    # ipgap fan builds each cone's instance at its center from the walk's
    # own basis; on the knapsack walk that basis is what a completion at
    # the center returns, on all 11 cones, and so is the whole instance
    a = IntMatrix([[3, 5, 7, 11]])
    gens = LatticeIdeal.from_matrix(a).generators
    cones = explore_cones(a, [(32, 45, 51, 14)], 20)
    for gb, cone in cones:
        order = TermOrder(cone.center, "grevlex")
        assert buchberger(gens, order).elements == gb.elements
        assert GapInstance.from_basis(a, gb, cone.center) == GapInstance.from_matrix(
            a, cone.center
        )
    assert len(cones) == 11
    # a cost outside the basis's cone marks some element the other way
    (gb, _), (_, other) = cones[:2]
    with pytest.raises(BadParameter):
        GapInstance.from_basis(a, gb, other.center)


def _gordan_pieces(inst, cone):
    """gap_fan_subdivide's pieces with every distinct form's region tested."""
    n = inst.nvars
    forms = {}
    for comp in inst.components:
        _, v = gap_value(comp, inst, cost=cone.center)
        forms.setdefault(tuple(Fraction(u) - x for u, x in zip(comp.bound, v)), comp)
    pieces = []
    for form, comp in forms.items():
        dominance = [tuple(map(sub, form, other)) for other in forms if other != form]
        region = Cone(n, cone.inequalities + tuple(dominance))
        if fan._full_dimensional(n, region.inequalities):
            pieces.append(fan.GapFanPiece(region, comp, form))
    return pieces


def test_center_winner_pieces_match_gordan_on_every_form():
    # the knapsack walk's cones at their centers, and the cones of seeded
    # generic costs, where the linearity check also runs
    a = IntMatrix([[3, 5, 7, 11]])
    cases = [
        (GapInstance.from_matrix(a, cone.center), cone)
        for _, cone in explore_cones(a, [(32, 45, 51, 14)], 20)
    ]
    rng = random.Random(20261019)
    while len(cases) < 23:
        inst = GapInstance.from_matrix(a, tuple(rng.randint(1, 60) for _ in range(4)))
        if inst.components and is_generic(inst.groebner):
            cases.append((inst, groebner_cone(inst.groebner)))
    pieces = 0
    for inst, cone in cases:
        got = gap_fan_subdivide(inst, cone)
        assert got == _gordan_pieces(inst, cone)
        pieces += len(got)
    assert pieces > len(cases)


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
    inst = GapInstance.from_matrix(COIN_A, COIN_COST)
    value = gap_report(inst).gap
    piece = next(p for p in gap_fan_subdivide(inst) if p.cone.contains(COIN_COST))
    assert value == Fraction(76, 15)
    assert (piece.winner.support, piece.winner.bound) == ((0, 1), (4, 2, 0, 0))
    assert dot(piece.linear_form, COIN_COST) == value
    # the coin cost sits on the positive side of the split
    assert dot(SPLIT, COIN_COST) > 0


def test_eval_positive_homogeneity():
    doubled = tuple(2 * x for x in COIN_COST)
    inst = GapInstance.from_matrix(COIN_A, doubled)
    value = gap_report(inst).gap
    piece = next(p for p in gap_fan_subdivide(inst) if p.cone.contains(doubled))
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


def test_forms_tied_at_the_center_are_each_tested(monkeypatch):
    # three forms equal at the center, the first the midpoint of the other
    # two: it is never strictly largest, so only those two are pieces
    for _, cone in coin_cones():
        inst = GapInstance.from_matrix(COIN_A, cone.center)
        if len(inst.components) == 3:
            break
    p = cone.center
    h = (p[1], -p[0], 0, 0)  # h.p = 0, and h cuts the cone through p
    g = (Fraction(1),) * 4
    designed = [g, tuple(map(sum, zip(g, h))), tuple(map(sub, g, h))]
    forms = dict(zip(inst.components, designed))
    monkeypatch.setattr(fan, "_component_form", lambda inst, comp, cost: forms[comp])
    pieces = gap_fan_subdivide(inst, cone)
    assert [piece.linear_form for piece in pieces] == designed[1:]


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
    # the cost is printed as reports print vectors, Fraction entries included
    seed = (Fraction(1), Fraction(0), Fraction(0))
    with pytest.raises(BadParameter) as exc:
        explore_cones(IntMatrix([[1, 2, 3]]), [seed])
    assert str(exc.value) == "seed cost (1, 0, 0) is not generic"


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
        matrix=None,
        lattice_ideal=LatticeIdeal(IntMatrix([[1], [-1]])),
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


def test_walk_skips_costs_past_the_support_boundary(monkeypatch):
    # 3 x1 = x2 + 2 x3 has nonnegative kernel directions, so reflected
    # costs that go negative on one make the fibers unbounded; the walk
    # skips those runs and keeps the cones it found
    a = IntMatrix([[3, -1, -2]])
    unbounded = []
    original = fan.buchberger

    def watched(gens, order):
        try:
            return original(gens, order)
        except UnboundedProgram:
            unbounded.append(order.cost)
            raise

    monkeypatch.setattr(fan, "buchberger", watched)
    cones = explore_cones(a, [(3, 8, 3)], budget=12)
    pieces = [
        len(gap_fan_subdivide(GapInstance.from_matrix(a, cone.center), cone))
        for _, cone in cones
    ]
    assert pieces == [1, 1, 2]
    assert len(unbounded) == 9
