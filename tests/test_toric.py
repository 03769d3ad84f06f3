import pickle
import random
import time
from collections import Counter
from copy import deepcopy
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
from operator import mul

import pytest

import _reference
from _reference import comparator, is_primitive, lattice_contains, leading_ideal
from ipgap import lp, models, toric
from ipgap.errors import BadParameter, NonTerminatingOrder, UnboundedProgram
from ipgap.exactmath import IntMatrix, _span_basis, hermite_normal_form, kernel_lattice
from ipgap.gapcore import GapInstance, gap_report
from ipgap.models import (
    MarginalModel,
    entry_instance,
    k4_model,
    margin_matrix,
    transportation_model,
)
from ipgap.monomial import MonomialIdeal, irreducible_decomposition
from ipgap.toric import (
    TIEBREAKS,
    Binomial,
    GroebnerBasis,
    TermOrder,
    _buchberger_core,
    _graded_revlex_spec,
    _positive_orthogonal_weight,
    buchberger,
    ip_optimum,
    is_generic,
    lattice_ideal_generators,
    non_optimal_ideal,
)

# Coin-system instance used throughout: four coin denominations, minimize
# the number of nickels plus quarters.  Variables (penny, nickel, dime,
# quarter) in that order.
COIN_A = IntMatrix([[1, 1, 1, 1], [1, 5, 10, 25]])
COIN_COST = (0, 1, 0, 1)


def coin_basis():
    gens = lattice_ideal_generators(kernel_lattice(COIN_A))
    return buchberger(gens, TermOrder(COIN_COST, "grevlex"))


def test_binomial_validation():
    b = Binomial((2, 0), (0, 3))
    assert b.vector() == (2, -3)
    assert is_primitive(b)
    assert not is_primitive(Binomial((2, 1), (0, 1)))
    assert Binomial.from_vector((5, -1)) == Binomial((5, 0), (0, 1))
    with pytest.raises(BadParameter):
        Binomial((1, 0), (1, 0))
    with pytest.raises(BadParameter):
        Binomial((1,), (0, 1))
    with pytest.raises(BadParameter):
        Binomial((-1, 0), (0, 0))


def test_term_order_compare():
    grevlex, grlex, lex = (
        comparator(*TermOrder((0, 0, 0), tb).spec(3)) for tb in ("grevlex", "grlex", "lex")
    )
    # same degree, distinguished by the tiebreak family
    assert grevlex((1, 0, 2), (0, 2, 1)) == -1
    assert grlex((1, 0, 2), (0, 2, 1)) == 1
    assert lex((1, 0, 2), (0, 2, 1)) == 1
    # x1 beats x2 in every family
    for cmp in (grevlex, grlex, lex):
        assert cmp((1, 0, 0), (0, 1, 0)) == 1
        assert cmp((0, 1, 0), (0, 1, 0)) == 0
    # cost dominates the tiebreak
    costed = comparator(*TermOrder((5, 1, 1), "grevlex").spec(3))
    assert costed((1, 0, 0), (0, 3, 0)) == 1
    # lex ignores degree entirely
    assert lex((1, 0, 0), (0, 9, 9)) == 1


def test_term_order_validation():
    with pytest.raises(BadParameter):
        TermOrder((1, 2), "sugar")
    with pytest.raises(BadParameter):
        TermOrder(((1, 2), (1, 2, 3)))
    with pytest.raises(BadParameter):
        TermOrder(()).cost
    with pytest.raises(BadParameter):
        TermOrder.refined(())


def test_revgrevlex_compare():
    cmp = comparator(*TermOrder((0, 0, 0), "revgrevlex").spec(3))
    # degree first; ties go to the point with more mass on early variables
    assert cmp((0, 0, 1), (1, 1, 0)) == -1
    assert cmp((1, 0, 2), (0, 2, 1)) == -1
    assert cmp((1, 0, 0), (0, 1, 0)) == -1
    assert cmp((0, 1, 0), (0, 0, 1)) == -1
    assert cmp((0, 0, 1), (1, 0, 0)) == 1
    assert cmp((2, 0, 1), (2, 0, 1)) == 0


def test_refined_orders_sort_like_their_models():
    # refined() must reproduce the plain order exactly, and its trimmed
    # spec must agree with evaluating every weight row
    rng = random.Random(3)
    for cost in [(0, 1, 0, 1), (1, 1, 1, 1), (-1, 0, 0, 0), (2, -1, 3, 0)]:
        for tb in TIEBREAKS:
            refined = TermOrder.refined(cost, tb)
            plain = comparator(*TermOrder(cost, tb).spec(4))
            fast = comparator(*refined.spec(4))
            full = comparator(*TermOrder(refined.costs, "lex").spec(4))
            for _ in range(120):
                a = tuple(rng.randrange(7) for _ in range(4))
                b = tuple(rng.randrange(7) for _ in range(4))
                want = plain(a, b)
                assert fast(a, b) == want, (cost, tb, a, b)
                assert full(a, b) == want, (cost, tb, a, b)


def test_degree_lexicographic_sequence():
    order = TermOrder.degree_lexicographic(3)
    assert order.costs == ((1, 1, 1), (1, 0, 0), (0, 1, 0))
    cmp = comparator(*order.spec(3))
    # degree first, then leftmost coordinate
    assert cmp((0, 0, 1), (2, 0, 0)) == -1
    assert cmp((2, 0, 0), (0, 2, 0)) == 1
    assert cmp((0, 2, 0), (0, 0, 2)) == 1


def test_coin_saturation():
    gens = lattice_ideal_generators(kernel_lattice(COIN_A))
    assert set(g.vector() for g in gens) == {(0, 3, -4, 1), (5, -6, 0, 1)}
    for g in gens:
        assert is_primitive(g)
        assert COIN_A.mul_vector(g.vector()) == (0, 0)


def test_coin_groebner_basis():
    gb = coin_basis()
    expected = (
        ((0, 3, 0, 1), (0, 0, 4, 0)),
        ((0, 6, 0, 0), (5, 0, 0, 1)),
        ((0, 3, 4, 0), (5, 0, 0, 2)),
        ((5, 0, 0, 3), (0, 0, 8, 0)),
    )
    assert tuple((g.plus, g.minus) for g in gb) == expected
    assert is_generic(gb)
    assert leading_ideal(gb).gens == MonomialIdeal(
        4, [e[0] for e in expected]
    ).gens


def test_coin_non_optimal_ideal():
    m = non_optimal_ideal(coin_basis())
    assert m.gens == ((0, 3, 0, 1), (0, 3, 4, 0), (0, 6, 0, 0), (5, 0, 0, 3))


def test_coin_tiebreak_invariance():
    m1 = non_optimal_ideal(coin_basis())
    gens = lattice_ideal_generators(kernel_lattice(COIN_A))
    m2 = non_optimal_ideal(buchberger(gens, TermOrder(COIN_COST, "grlex")))
    assert m1 == m2


def test_confluence_under_input_order():
    gens = list(lattice_ideal_generators(kernel_lattice(COIN_A)))
    reference = coin_basis().elements
    rng = random.Random(11)
    for _ in range(5):
        rng.shuffle(gens)
        gb = buchberger(gens, TermOrder(COIN_COST, "grevlex"))
        assert gb.elements == reference


def test_single_row_instance():
    # one equation p + 5 n = b, cost only on p: optimal plans spend nickels
    gens = lattice_ideal_generators(kernel_lattice(IntMatrix([[1, 5]])))
    assert [g.vector() for g in gens] == [(5, -1)]
    gb = buchberger(gens, TermOrder((1, 0), "grevlex"))
    assert tuple((g.plus, g.minus) for g in gb) == (((5, 0), (0, 1)),)
    assert non_optimal_ideal(gb).gens == ((5, 0),)


def test_doubled_line_lattice():
    # columns generate 2Z inside Z^1; finite index forces the lifted route
    gens = lattice_ideal_generators(IntMatrix([[2]]))
    assert [(g.plus, g.minus) for g in gens] == [((2,), (0,))]
    gb = buchberger(gens, TermOrder((1,), "grevlex"))
    assert non_optimal_ideal(gb).gens == ((2,),)


def test_zero_lattice():
    gens = lattice_ideal_generators(kernel_lattice(IntMatrix.identity(3)))
    assert gens == ()
    gb = buchberger(gens, TermOrder((1, 2, 3), "grevlex"))
    assert len(gb) == 0
    assert non_optimal_ideal(gb).is_zero


SURJECTIVE_WALK = IntMatrix([[4, 3, 0], [4, 5, 0], [4, 3, 2]])


def test_finite_index_lattice_saturation():
    # full-rank sublattice of Z^3 with index 16
    gens = lattice_ideal_generators(SURJECTIVE_WALK)
    assert SURJECTIVE_WALK.det() == 16
    for g in gens:
        assert lattice_contains(SURJECTIVE_WALK, g.vector())
    # saturation adds vectors a raw basis ideal misses, like (-1, 1, 1)
    assert any(g.vector() in ((-1, 1, 1), (1, -1, -1)) for g in gens)


def test_finite_index_non_optimal_ideal_ordered_cost():
    gens = lattice_ideal_generators(SURJECTIVE_WALK)
    gb = buchberger(gens, TermOrder.degree_lexicographic(3))
    assert not is_generic(gb)
    m = non_optimal_ideal(gb)
    assert m.gens == (
        (0, 0, 2),
        (0, 1, 1),
        (0, 8, 0),
        (1, 0, 1),
        (1, 7, 0),
        (2, 0, 0),
    )
    comps = irreducible_decomposition(m)
    got = {(c.support, c.bound) for c in comps}
    assert got == {
        ((0, 1, 2), (0, 0, 1)),
        ((0, 1, 2), (0, 7, 0)),
        ((0, 1, 2), (1, 6, 0)),
    }


def test_finite_index_non_optimal_ideal_plain_degree():
    # a single all-ones cost leaves ties: x^2 and y^2 lie in a common
    # residue class at the same degree, so neither is beaten
    gens = lattice_ideal_generators(SURJECTIVE_WALK)
    gb = buchberger(gens, TermOrder((1, 1, 1), "grevlex"))
    m = non_optimal_ideal(gb)
    assert not m.contains((2, 0, 0))
    assert not m.contains((0, 2, 0))
    assert m.contains((0, 0, 2))
    # the ordered-cost variant does break the tie
    m_seq = non_optimal_ideal(
        buchberger(gens, TermOrder.degree_lexicographic(3))
    )
    assert m_seq.contains((2, 0, 0))
    assert not m_seq.contains((0, 2, 0))


def test_refined_ties_count_as_non_optimal():
    # x^2 and y^2 lie tied in one fiber; a refined order dooms whichever
    # the tiebreak disfavors, and both refinements extend the strict ideal
    gens = lattice_ideal_generators(SURJECTIVE_WALK)
    strict = non_optimal_ideal(buchberger(gens, TermOrder((1, 1, 1), "grevlex")))
    late = non_optimal_ideal(
        buchberger(gens, TermOrder.refined((1, 1, 1), "grevlex"))
    )
    early = non_optimal_ideal(
        buchberger(gens, TermOrder.refined((1, 1, 1), "revgrevlex"))
    )
    assert late.contains((2, 0, 0)) and not late.contains((0, 2, 0))
    assert early.contains((0, 2, 0)) and not early.contains((2, 0, 0))
    for m in (late, early):
        for g in strict.gens:
            assert m.contains(g)


def test_plain_degree_membership_brute_force():
    # confirm the tie-aware ideal point by point: a monomial is in it
    # exactly when some nonnegative translate by the lattice has smaller
    # total degree
    gens = lattice_ideal_generators(SURJECTIVE_WALK)
    m = non_optimal_ideal(buchberger(gens, TermOrder((1, 1, 1), "grevlex")))
    cols = SURJECTIVE_WALK.columns()

    def beaten(z):
        for a, b, c in product(range(-6, 7), repeat=3):
            v = tuple(
                z[i] + a * cols[0][i] + b * cols[1][i] + c * cols[2][i]
                for i in range(3)
            )
            if all(x >= 0 for x in v) and sum(v) < sum(z):
                return True
        return False

    for z in product(range(6), repeat=3):
        assert m.contains(z) == beaten(z), z


def test_unbounded_cost_rejected():
    gens = [Binomial.from_vector((1, 1))]
    with pytest.raises(UnboundedProgram):
        buchberger(gens, TermOrder((-1, 0), "grevlex"))


def test_zero_cost_ray_needs_graded_tiebreak():
    # (1, 1) spans a zero-cost ray for this cost; lex alone cannot order
    # the fibers but a degree-compatible tiebreak can
    gens = [Binomial.from_vector((1, 1))]
    with pytest.raises(NonTerminatingOrder):
        buchberger(gens, TermOrder((1, -1), "lex"))
    gb = buchberger(gens, TermOrder((1, -1), "grevlex"))
    assert len(gb) == 1


def test_farkas_verdict_matches_the_coefficient_lp():
    # B y = B c, y >= 0 is feasible exactly when max (B c).t over
    # B^T t <= 0 is bounded, so the check rejects the same costs
    rng = random.Random(20261025)
    seen = Counter()
    for _ in range(1000):
        n = rng.randint(1, 6)
        span = _span_basis(
            [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, n))]
        )
        if not span:
            continue
        c = tuple(Fraction(rng.randint(-3, 9), rng.randint(1, 4)) for _ in range(n))
        want = lp._coefficient_lp(span, c, (0,) * n, range(n)).status == lp.UNBOUNDED
        try:
            toric._check_span(span, c, "grevlex")
            got = False
        except UnboundedProgram:
            got = True
        assert got == want, (span, c)
        seen[want, min(c) < 0] += 1
    assert min(seen[k] for k in ((False, False), (False, True), (True, True))) >= 200


def test_ip_optimum_coin():
    gb = coin_basis()
    assert ip_optimum(gb, (0, 3, 0, 1)) == (0, 0, 4, 0)
    assert ip_optimum(gb, (4, 2, 0, 4)) == (4, 2, 0, 4)
    assert ip_optimum(gb, (10, 0, 0, 0)) == (10, 0, 0, 0)
    z = ip_optimum(gb, (0, 0, 0, 4))
    assert COIN_A.mul_vector(z) == COIN_A.mul_vector((0, 0, 0, 4))
    assert sum(c * x for c, x in zip(COIN_COST, z)) <= 4
    with pytest.raises(BadParameter):
        ip_optimum(gb, (1, -1, 0, 0))


def test_ip_optimum_past_the_basis_width():
    # z with exponents near 2^80, and z whose steps take a coordinate
    # from 0 to 40, reach the tuple normal form, by the basis and by an
    # equal basis built from its elements.  A coin step keeps the coin
    # count, so it never outgrows the width packed for z; on the row
    # (10, 3, 1), where the optimum trades each x1 for x3^10, the normal
    # form passes that width and the reduction reruns at a wider one
    gb = coin_basis()
    big = 2**80
    assert ip_optimum(gb, (big, 3, 0, 1)) == (big, 0, 4, 0)
    assert ip_optimum(gb, (3, 31, 0, 31)) == (3, 1, 40, 21)
    zs = [(big, 3, 0, 1), (big, 2, 2**70, 4), (3, 31, 0, 31), (0, 30, 31, 0), (31, 0, 0, 31)]
    fresh = GroebnerBasis(gb.elements, gb.order)
    for z in zs:
        want = _reference.normal_form(gb, z)
        assert ip_optimum(gb, z) == want == ip_optimum(fresh, z), z
        assert COIN_A.mul_vector(want) == COIN_A.mul_vector(z)
    a = IntMatrix([[10, 3, 1]])
    wide = buchberger(lattice_ideal_generators(kernel_lattice(a)), TermOrder((1, 1, 0)))
    sides = [m for g in wide for m in (g.plus, g.minus)]
    for z in [(7, 0, 0), (50, 50, 0)]:
        want = _reference.normal_form(wide, z)
        assert ip_optimum(wide, z) == want, z
        assert max(want) >= 2 ** toric._width([z, *sides]), z


def test_ip_optimum_on_one_binomial_matches_the_tuple_normal_form():
    # a one-element basis reduces to the tuple normal form, over many
    # steps; exponents reach 2^70 on coordinates the step does not lower
    rng = random.Random(20261019)
    steps = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        v = [rng.randint(-4, 4) for _ in range(n)]
        v[0], v[-1] = rng.randint(1, 4), -rng.randint(1, 4)
        rng.shuffle(v)
        order = TermOrder(tuple(rng.randint(1, 9) for _ in range(n)), "grevlex")
        gb = buchberger([Binomial.from_vector(v)], order)
        (g,) = gb.elements
        for _ in range(5):
            z = tuple(
                rng.randint(0, 40) if u > w else rng.choice((0, 3, 2**70))
                for u, w in zip(g.plus, g.minus)
            )
            want = _reference.normal_form(gb, z)
            assert ip_optimum(gb, z) == want, (gb, z)
            steps += want != z
    assert steps > 800


def in_normal_form(gb: GroebnerBasis, z) -> bool:
    return all(any(p > x for p, x in zip(g.plus, z)) for g in gb.elements)


def test_ip_optimum_reaches_normal_form():
    gb = coin_basis()
    rng = random.Random(20260822)
    for _ in range(30):
        z = tuple(rng.randrange(8) for _ in range(4))
        opt = ip_optimum(gb, z)
        assert COIN_A.mul_vector(opt) == COIN_A.mul_vector(z)
        assert in_normal_form(gb, opt)


def test_random_kernel_bases_stay_primitive():
    rng = random.Random(7)
    orders = [TermOrder((1, 1, 1), "grevlex"), TermOrder((2, 1, 3), "grlex")]
    for _ in range(25):
        a = IntMatrix(
            [[rng.randrange(0, 5) for _ in range(3)] for _ in range(rng.randrange(1, 3))]
        )
        ker = kernel_lattice(a)
        gens = lattice_ideal_generators(ker)
        for g in gens:
            assert lattice_contains(ker, g.vector())
        for order in orders:
            gb = buchberger(gens, order)
            leads = [g.plus for g in gb]
            assert len(set(leads)) == len(leads)
            for g in gb:
                assert is_primitive(g)
            # reduced: no lead divides another, trails are in normal form
            for g in gb:
                others = [h.plus for h in gb if h is not g]
                if others:
                    assert not MonomialIdeal(3, others).contains(g.plus)
                    assert not MonomialIdeal(3, others).contains(g.minus)


def _random_elements(rng, n):
    elements = []
    for _ in range(rng.randrange(2, 4)):
        a = tuple(rng.randrange(3) for _ in range(n))
        b = tuple(rng.randrange(3) for _ in range(n))
        if a != b:
            elements.append((a, b))
    return elements


def _random_order(rng, n, trial):
    # a cost order, a saturation order or an order without cost rows
    kind = trial % 3
    if kind == 0:
        cost = tuple(rng.randrange(4) for _ in range(n))
        return TermOrder(cost, rng.choice(TIEBREAKS)).spec(n)
    if kind == 1:
        weights = tuple(rng.randrange(1, 4) for _ in range(n))
        return _graded_revlex_spec(weights, rng.randrange(n))
    return TermOrder((), rng.choice(TIEBREAKS)).spec(n)


def _assert_core_matches_references(elements, spec, *extra):
    # the packed core, the same criteria on exponent tuples, and textbook
    # Buchberger without criteria give one reduced basis, element for
    # element; returns the packed core's output.  extra is a saturation
    # round's saturated mask and whether it reduces trails, which only
    # the packed core takes.  A call that reduces no trail must give the
    # reduced basis's leads in its order and interreduce to that basis
    got = _buchberger_core(elements, spec, *extra)
    cmp = comparator(*spec)
    want = _reference.tuple_buchberger_core(elements, cmp)
    assert want == _reference.buchberger_core(elements, cmp), elements
    if extra[1:] == (False,):
        assert [lead for lead, _ in got] == [lead for lead, _ in want], elements
        assert _reference.interreduce(got, cmp) == want, elements
    else:
        assert got == want, elements
    return got


def _start_width(elements):
    return toric._width(m for e in elements for m in e)


def _outgrew_start_width(elements, out):
    # some lead of the output needs more bits than the core started with
    top = max((max(lead) for lead, _ in out), default=0)
    return top >> _start_width(elements) > 0


def test_core_matches_reference_buchberger():
    # the core's pair criteria and packed leads must not change the reduced
    # basis: compare with the tuple core and the unpruned reference on
    # binomials under cost orders, saturation orders and orders without
    # cost rows
    rng = random.Random(20261017)
    for trial in range(300):
        n = rng.randrange(2, 6)
        spec = _random_order(rng, n, trial)
        _assert_core_matches_references(_random_elements(rng, n), spec)


def test_core_matches_references_on_large_exponents():
    # primitive binomials with exponents up to 60, many of whose bases
    # outgrow the starting width, so the completion reruns wider
    rng = random.Random(20261020)
    widened = 0
    for trial in range(150):
        n = rng.randrange(2, 5)
        spec = _random_order(rng, n, trial)
        elements = []
        for _ in range(rng.randrange(2, 5)):
            v = [rng.choice((0, rng.randint(-60, 60))) for _ in range(n)]
            if any(v):
                elements.append(toric._split(v))
        out = _assert_core_matches_references(elements, spec)
        widened += _outgrew_start_width(elements, out)
    assert widened >= 8


def test_core_matches_references_on_lifted_lattices(monkeypatch):
    # every core call of saturating lattices without a positive grading
    # (the lifted branch), finite-index ones among them, with exponents
    # past 60, the rounds that reduce no trail among them; their
    # generators as the one-round-per-variable reference on the tuple
    # core makes them
    rng = random.Random(20261021)
    calls = []
    core = toric._buchberger_core

    def recorded(elements, spec, *extra):
        calls.append((elements, spec, extra))
        return core(elements, spec, *extra)

    monkeypatch.setattr(toric, "_buchberger_core", recorded)
    finite_index = top = unreduced = 0
    for _ in range(40):
        k = rng.randint(2, 3)
        n = k + rng.randint(0, 1)
        while True:
            basis = IntMatrix([[rng.randint(-9, 9) for _ in range(k)] for _ in range(n)], k)
            columns = [c for c in basis.columns() if any(c)]
            if basis.rank() == k and _positive_orthogonal_weight(columns) is None:
                break
        finite_index += n == k
        calls.clear()
        gens = lattice_ideal_generators(basis)
        assert gens == _reference.lattice_ideal_generators(basis), basis.rows
        assert calls
        for elements, spec, extra in calls:
            out = _assert_core_matches_references(elements, spec, *extra)
            top = max(top, max(max(lead) for lead, _ in out))
            unreduced += out != _reference.interreduce(out, comparator(*spec))
    assert finite_index >= 10 and top > 60 and unreduced >= 5


@pytest.mark.parametrize(
    "basis",
    [
        IntMatrix([[-5, -4], [3, -6], [-4, 6]], 2),
        IntMatrix([[-1, -5, 3], [5, -4, 4], [-3, 2, 7], [7, 0, 7]], 3),
    ],
    ids=["3x2", "4x3"],
)
def test_completion_widens_past_the_starting_width(monkeypatch, basis):
    # a lead that outgrows the starting width reruns the completion at
    # twice the width; with any fixed width in its place no core output
    # could hold a lead past the width computed from its input.  Each call
    # is checked as _assert_core_matches_references checks it, so a call
    # that reduces no trail is held to the reduced basis's leads
    calls = []
    core = toric._buchberger_core

    def recorded(elements, spec, *extra):
        calls.append((elements, spec, extra))
        return core(elements, spec, *extra)

    monkeypatch.setattr(toric, "_buchberger_core", recorded)
    gens = lattice_ideal_generators(basis)
    monkeypatch.undo()
    assert gens == _reference.lattice_ideal_generators(basis)
    widened = False
    for elements, spec, extra in calls:
        out = _assert_core_matches_references(elements, spec, *extra)
        widened |= _outgrew_start_width(elements, out)
    assert widened


def test_completion_widens_for_a_trail(monkeypatch):
    # x2 - x1^8 and x2^8 - x3 under a cost that makes x1 cheapest: every
    # lead stays at exponent 1 while interreduction takes the trail of
    # x3 - x2^7 x1^8 to x1^64, past the starting width's largest field
    # value 63, so the completion reruns at twice the width for a trail
    elements = [((0, 1, 0), (8, 0, 0)), ((0, 8, 0), (0, 0, 1))]
    spec = TermOrder((-1, 0, 0), "grevlex").spec(3)
    widths = []
    complete = toric._complete

    def recorded(inputs, spec, packing, saturated):
        widths.append(packing.w)
        return complete(inputs, spec, packing, saturated)

    monkeypatch.setattr(toric, "_complete", recorded)
    out = _assert_core_matches_references(elements, spec)
    assert out == [((0, 0, 1), (64, 0, 0)), ((0, 1, 0), (8, 0, 0))]
    assert _start_width(elements) == 6 and widths == [6, 12]


def _cost_order_case(rng):
    """A kernel lattice's generators and a cost with negative entries.

    The first row is positive in every other case, so every fiber is
    finite and any cost is admissible; the other lattices may hold
    nonnegative directions, and their costs may fail the preconditions.
    """
    n = rng.randint(2, 5)
    rows = [[rng.randint(-4, 5) for _ in range(n)] for _ in range(rng.randint(1, max(1, n - 2)))]
    if rng.random() < 0.5:
        rows[0] = [rng.randint(1, 5) for _ in range(n)]
    gens = lattice_ideal_generators(kernel_lattice(IntMatrix(rows)))
    cost = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n))
    return gens, cost


def test_core_matches_the_tuple_core_under_cost_orders():
    # costs with negative entries under all four tiebreaks, each as the
    # plain order, the refined order and the refined order's rows spelled
    # out under lex, whose drop reads n + 1 rows at once: the packed core
    # and buchberger give the tuple core's reduced basis
    rng = random.Random(20261023)
    seen = Counter()
    for _ in range(120):
        gens, cost = _cost_order_case(rng)
        if not gens:
            continue
        n = gens[0].nvars
        sides = [(g.plus, g.minus) for g in gens]
        for tb in TIEBREAKS:
            refined = TermOrder.refined(cost, tb)
            for kind, order in [
                ("plain", TermOrder(cost, tb)),
                ("refined", refined),
                ("spelled", TermOrder(refined.costs, "lex")),
            ]:
                try:
                    gb = buchberger(gens, order)
                except (UnboundedProgram, NonTerminatingOrder):
                    seen["rejected"] += 1
                    continue
                want = _reference.tuple_buchberger_core(sides, comparator(*order.spec(n)))
                assert _buchberger_core(sides, order.spec(n)) == want, (sides, order)
                assert [(g.plus, g.minus) for g in gb] == want
                seen[kind] += 1
                seen[tb] += 1
                seen["negative"] += min(cost) < 0
    assert min(seen[k] for k in ("plain", "refined", "spelled", *TIEBREAKS)) >= 50
    assert seen["negative"] >= 300 and seen["rejected"] >= 20


def test_packed_orientation_matches_compare():
    # within one fiber, the drop over the order's rows and then one int
    # comparison of the sides packed in sequence order orient a binomial
    # as the order's spec defines; so does the unpacked rule of a core
    # call with one input
    rng = random.Random(20261024)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        basis = kernel_lattice(IntMatrix([[rng.randint(-3, 4) for _ in range(n)]]))
        cost = tuple(rng.randint(-5, 5) for _ in range(n))
        weights = tuple(rng.randint(1, 4) for _ in range(n))
        # (spec oriented by, spec defining the order): a refined order's
        # rows spelled out under lex must orient as the refined order does
        pairs = [(_graded_revlex_spec(weights, rng.randrange(n)),) * 2]
        for tb in TIEBREAKS:
            refined = TermOrder.refined(cost, tb)
            pairs += [(TermOrder(cost, tb).spec(n),) * 2, (refined.spec(n),) * 2]
            pairs += [(TermOrder(refined.costs, "lex").spec(n), refined.spec(n))]
            pairs += [(TermOrder((), tb).spec(n),) * 2]
        specs = [(spec, comparator(*definition)) for spec, definition in pairs]
        for _ in range(20):
            a = tuple(rng.randrange(12) for _ in range(n))
            v = [0] * n
            for col in basis.columns():
                k = rng.randint(-2, 2)
                v = [x + k * y for x, y in zip(v, col)]
            b = tuple(x + y for x, y in zip(a, v))
            if min(b) < 0 or a == b:
                continue
            w = toric._width([a, b])
            for spec, compare in specs:
                rows, degree, sequence = spec
                packing = toric._Packing(n, w, [i for i, _ in sequence])
                star = toric._drop_weights(rows, degree, w)
                drop = sum(map(mul, star, a)) - sum(map(mul, star, b)) if star else 0
                lead = toric._orient(packing.pack(a), packing.pack(b), drop, sequence[0][1] < 0)[0]
                want = a if compare(a, b) > 0 else b
                assert packing.unpack(lead) == want, (spec, a, b)
                assert toric._orient_one(a, b, spec)[0] == want, (spec, a, b)
                checked += 1
    assert checked >= 10_000


def test_packed_pair_degree_matches_the_tuple_degree():
    # a queued pair's degree, deg(lead_new) plus the grading over the
    # nonzero fields of the packed r = (lead_k - lead_new)^+ formed as the
    # core forms it, is the tuple degree of max(lead_k, lead_new): unit
    # and non-unit gradings, entries up to every field's top, and r
    # nonzero in every field
    rng = random.Random(20261030)
    full = 0
    for trial in range(300):
        n = rng.randint(1, 7)
        w = rng.randint(1, 9)
        if trial % 2:
            grading = (1,) * n
        else:
            grading = tuple(rng.randint(1, 9) for _ in range(n))
        packing = toric._Packing(n, w, rng.sample(range(n), n))
        fields = toric._graded_fields(packing, grading)
        guards, top = packing.guards, packing.top
        for _ in range(20):
            new = [rng.randint(0, top) for _ in range(n)]
            if rng.random() < 0.3:
                new = [min(x, top - 1) for x in new]
                k = [rng.randint(x + 1, top) for x in new]
            else:
                k = [rng.randint(0, top) for _ in range(n)]
            d = (packing.pack(k) | guards) - packing.pack(new)
            ge = d & guards
            r = d & (ge - (ge >> w))
            full += all(map(int.__gt__, k, new))
            got = sum(map(mul, grading, new)) + toric._graded(r, fields, packing)
            assert got == sum(map(mul, grading, map(max, k, new))), (grading, k, new)
    assert full >= 1000


def _saturation_case(rng, trial):
    """A graded kernel lattice with n <= 6, or a basis of rank <= n <= 4.

    The kernel matrices have a positive first row, so their lattices take
    the graded branch; the bases, finite-index ones among them, mostly
    take the lifted branch.
    """
    if trial % 2:
        n = rng.randint(2, 6)
        rows = [[rng.randint(1, 4) for _ in range(n)]]
        rows += [[rng.randint(-3, 4) for _ in range(n)] for _ in range(rng.randint(0, n - 2))]
        return kernel_lattice(IntMatrix(rows))
    n = rng.randint(1, 4)
    k = rng.randint(1, n)
    while True:
        basis = IntMatrix([[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)], k)
        if basis.rank() == k:
            return basis


def test_saturation_matches_one_round_per_variable_reference():
    # skipped rounds and the greedy variable order must leave the
    # generator set as one round per variable makes it, on both branches:
    # graded kernel lattices and lifted ones, finite-index lattices among
    # them
    rng = random.Random(20261018)
    lifted = finite_index = 0
    for trial in range(320):
        basis = _saturation_case(rng, trial)
        columns = [c for c in basis.columns() if any(c)]
        if columns and _positive_orthogonal_weight(columns) is None:
            lifted += 1
        if basis.nrows == basis.ncols and abs(basis.det()) > 1:
            finite_index += 1
        want = _reference.lattice_ideal_generators(basis)
        assert lattice_ideal_generators(basis) == want, basis.rows
    assert lifted >= 100 and finite_index >= 50


def _grading_case(rng, trial):
    """A lattice that may or may not have a positive grading.

    Odd trials give the kernel of a random 1-3-row matrix on 3-9 columns,
    even trials a random basis of rank below its 2-7 rows.
    """
    if trial % 2:
        n = rng.randint(3, 9)
        m = rng.randint(1, min(3, n - 1))
        rows = [[rng.randint(-1, 4) for _ in range(n)] for _ in range(m)]
        return kernel_lattice(IntMatrix(rows))
    n = rng.randint(2, 7)
    k = rng.randint(1, n - 1)
    return IntMatrix([[rng.randint(-3, 3) for _ in range(k)] for _ in range(n)], k)


def test_positive_grading_matches_the_free_variable_program():
    # w = 1 + y over y >= 0 in standard form against the program over
    # free w with rows -w_i <= -1: w for w and None for None, since the
    # grading fixes the saturation order.  Both minimize sum(w); where
    # that optimum is not unique the two may stop at different optimal
    # vertices, as on one rank-6 kernel on 9 columns here.  An optimal w
    # has some w_i = 1, so w / min(w) is the rational optimum
    rng = random.Random(20261104)
    table = MarginalModel((2, 3, 3), ((1, 2), (1, 3), (2, 3)))
    models_ = (k4_model(), transportation_model(3, 4), table)
    lattices = [kernel_lattice(margin_matrix(model)) for model in models_]
    lattices += [_grading_case(rng, trial) for trial in range(3100)]
    seen = Counter()
    for basis in lattices:
        columns = [c for c in basis.columns() if any(c)]
        if not columns:
            continue
        seen["lattices"] += 1
        got = _positive_orthogonal_weight(columns)
        want = _reference.positive_orthogonal_weight(columns)
        if got != want:
            assert got and want, basis.rows
            assert not any(sum(map(mul, got, col)) for col in columns), basis.rows
            assert Fraction(sum(got), min(got)) == Fraction(sum(want), min(want)), basis.rows
            seen["tied"] += 1
        seen["none" if got is None else "unit" if set(got) == {1} else "graded"] += 1
    assert seen["lattices"] >= 3000
    assert seen["none"] >= 1000 and seen["graded"] >= 1000 and seen["unit"] >= 50
    assert seen["tied"] == 1


def _lift_case(rng, trial):
    """A lattice of rank 2 or 3 on seven or eight coordinates.

    Odd trials give a kernel lattice on 7 or 8 variables with a positive
    first row, so the graded branch; even trials give a basis on 6 or 7
    rows with no positive grading, saturated on one homogenizing
    coordinate more.  Either way project-and-lift runs.  Small entries,
    and rank 2 on 8 variables, keep the one-round-per-variable reference
    to seconds.
    """
    if trial % 2:
        n = rng.randint(7, 8)
        rows = [[rng.randint(1, 3) for _ in range(n)]]
        rank = rng.randint(2, 10 - n)
        rows += [[rng.randint(-1, 2) for _ in range(n)] for _ in range(n - 1 - rank)]
        return kernel_lattice(IntMatrix(rows))
    n = rng.randint(6, 7)
    k = rng.randint(2, 3)
    while True:
        basis = IntMatrix([[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)], k)
        columns = [c for c in basis.columns() if any(c)]
        if basis.rank() == k and _positive_orthogonal_weight(columns) is None:
            return basis


def test_project_and_lift_matches_one_round_per_variable_reference(monkeypatch):
    # the lifts, their new coordinates and the pointed projection they
    # start from must leave the generators the reference makes.  The
    # corpus lifts hundreds of coordinates, and many of its projections
    # need more than one coordinate past the pivots to be pointed
    rng = random.Random(20261101)
    widths = []
    saturate_all_vars = toric._saturate_all_vars

    def recorded(elements, weights):
        widths.append(len(weights))
        return saturate_all_vars(elements, weights)

    monkeypatch.setattr(toric, "_saturate_all_vars", recorded)
    lifts = wide = 0
    for trial in range(60):
        basis = _lift_case(rng, trial)
        widths.clear()
        gens = lattice_ideal_generators(basis)
        assert gens == _reference.lattice_ideal_generators(basis), basis.rows
        (width,) = widths
        coordinates = basis.nrows + (trial % 2 == 0)
        assert coordinates > toric._DIRECT_COORDINATES
        lifts += coordinates - width
        wide += width > basis.rank() + 1
    assert lifts >= 150 and wide >= 20


def test_rounds_without_trail_reduction_match_reduced_rounds(monkeypatch):
    # a round on any variable but x_0 reduces no trail.  Replayed with
    # trail reduction forced, every such round of graded and lifted
    # lattices must give the same leads in the same order and the same
    # divided flag, and both outputs must interreduce to one basis under
    # the round's order
    rng = random.Random(20261025)
    rounds = []
    saturation_round = toric._saturation_round

    def recorded(*args):
        out = saturation_round(*args)
        rounds.append((args, out))
        return out

    monkeypatch.setattr(toric, "_saturation_round", recorded)
    for trial in range(120):
        lattice_ideal_generators(_saturation_case(rng, trial))
    core = toric._buchberger_core

    def reducing(elements, spec, saturated, reduce):
        return core(elements, spec, saturated, True)

    monkeypatch.setattr(toric, "_buchberger_core", reducing)
    replayed = differ = 0
    for (elements, weights, i, saturated), (got, divided) in rounds:
        if i == 0:
            continue
        want, want_divided = saturation_round(elements, weights, i, saturated)
        assert [lead for lead, _ in got] == [lead for lead, _ in want], elements
        assert divided == want_divided, elements
        cmp = comparator(*_graded_revlex_spec(weights, i))
        assert _reference.interreduce(got, cmp) == _reference.interreduce(want, cmp)
        replayed += 1
        differ += got != want
    assert replayed >= 100 and differ >= 10


def _count_core_work(monkeypatch):
    """Counts of S-elements formed and head reductions begun from now on."""
    calls = {"s": 0, "reduce": 0}
    s_element, head_reduce = toric._s_element, toric._head_reduce

    def counted_s(*args):
        calls["s"] += 1
        return s_element(*args)

    def counted_reduce(*args, **kwargs):
        calls["reduce"] += 1
        return head_reduce(*args, **kwargs)

    monkeypatch.setattr(toric, "_s_element", counted_s)
    monkeypatch.setattr(toric, "_head_reduce", counted_reduce)
    return calls


def _non_unit_graded_lattice(rng):
    """A kernel lattice on 4 or 5 variables whose positive grading is not all ones."""
    while True:
        n = rng.randint(4, 5)
        rows = [[rng.randint(1, 5) for _ in range(n)]]
        rows += [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n - 3))]
        basis = kernel_lattice(IntMatrix(rows))
        columns = [c for c in basis.columns() if any(c)]
        if columns and set(_positive_orthogonal_weight(columns)) != {1}:
            return basis


def test_saturated_variable_skip_on_non_unit_gradings(monkeypatch):
    # fault injection for the skip of S-pairs whose two sides share a
    # variable the ideal is saturated in, where the weights-degree and the
    # plain degree differ; these lattices have at most six coordinates, so
    # they take the direct rounds.  A variable masked that the ideal is
    # not saturated in changes the generators; the heap keyed by plain
    # degree (S-elements 941, reductions 2,230), the skip left out
    # (1,169, 2,465) or the coprime-lead criterion left out (1,110, 2,406)
    # moves the pinned work
    rng = random.Random(20261022)
    calls = _count_core_work(monkeypatch)
    for _ in range(100):
        basis = _non_unit_graded_lattice(rng)
        gens = lattice_ideal_generators(basis)
        assert gens == _reference.lattice_ideal_generators(basis), basis.rows
    assert calls == {"s": 879, "reduce": 2175}


def _hermite_rows(vectors, n):
    h, _ = hermite_normal_form(IntMatrix(list(vectors), n))
    return [r for r in h.rows if any(r)]


def _assert_generate_the_lattice_ideal(basis, gens):
    # an exact certificate, independent of how gens were computed.  Their
    # vectors span the lattice L of the basis (one Hermite normal form),
    # so the ideal J they generate, saturated in every variable, is I_L;
    # and a round on each variable divides nothing, so J is saturated in
    # each (Bayer and Stillman), and J = I_L
    n = basis.nrows
    assert _hermite_rows((g.vector() for g in gens), n) == _hermite_rows(basis.columns(), n)
    weights = _positive_orthogonal_weight([g.vector() for g in gens])
    sides = [(g.plus, g.minus) for g in gens]
    for i in range(n):
        _, divided = toric._saturation_round(sides, weights, i, 0)
        assert not divided, i


@pytest.mark.parametrize(
    "model",
    [k4_model(), MarginalModel((2, 3, 3), ((1, 2), (1, 3), (2, 3)))],
    ids=["k4", "2x3x3"],
)
def test_model_generators_certify_as_the_lattice_ideal(model):
    basis = kernel_lattice(margin_matrix(model))
    _assert_generate_the_lattice_ideal(basis, lattice_ideal_generators(basis))


# the kernel whose projection swells (see the slow test below)
SWELLING_KERNEL = (
    (2, 2, 1, 3, 2, 1, 2, 4, 3),
    (1, -2, -2, -3, -1, 1, 3, 3, 0),
    (1, -3, -2, 2, -2, -1, 2, -1, 0),
    (-2, 2, -3, -2, 0, 3, 1, -1, 3),
    (2, -2, 0, -2, -2, 3, -1, 0, -2),
    (1, 1, 2, 3, 1, -2, 2, 3, 1),
)


def _nine_variable_kernels():
    """Twelve seeded matrices whose kernels project-and-lift saturates.

    Four each give kernels on 9 variables at ranks 2 and 3 and on 8 at
    rank 3; a positive first row puts them on the graded branch.
    """
    rng = random.Random(24)
    for n, rank in [(9, 2)] * 4 + [(9, 3)] * 4 + [(8, 3)] * 4:
        rows = [tuple(rng.randint(1, 4) for _ in range(n))]
        rows += [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n - 1 - rank)]
        yield tuple(rows)


def test_nine_variable_kernels_certify_as_the_lattice_ideal():
    # beyond what the one-round-per-variable reference can check in
    # seconds: the certificate is exact, independent of the rounds.  One
    # kernel of the twelve takes seconds and is certified in a slow test
    kernels = list(_nine_variable_kernels())
    assert SWELLING_KERNEL in kernels
    for rows in kernels:
        if rows == SWELLING_KERNEL:
            continue
        basis = kernel_lattice(IntMatrix(rows))
        assert basis.rank() == len(rows[0]) - len(rows)
        _assert_generate_the_lattice_ideal(basis, lattice_ideal_generators(basis))


@pytest.mark.slow
def test_swelling_nine_variable_kernel_generators_certified():
    # rank 3 on 9 variables: the projection on 6 coordinates grows from
    # 256 to 2,269 elements in its round on x_4 before the x_0 round cuts
    # it to 21, about 3-4.5 s of CPU on a 2-vCPU box, bounded here at
    # about eight times that; the three lifts and the final pass take
    # milliseconds
    basis = kernel_lattice(IntMatrix(SWELLING_KERNEL))
    t0 = time.monotonic()
    gens = lattice_ideal_generators(basis)
    assert time.monotonic() - t0 < 40.0
    assert [g.vector() for g in gens] == [
        (2, -4, 5, -4, -3, -3, -3, -1, 10), (7, 7, -6, -2, -8, -7, -7, 3, 3),
        (5, 11, -11, 2, -5, -4, -4, 4, -7), (9, 3, -1, -6, -11, -10, -10, 2, 13),
        (3, 15, -16, 6, -2, -1, -1, 5, -17), (17, 10, 0, -7, 4, -5, 9, -12, -2),
        (10, 3, 6, -5, 12, 2, 16, -15, -5), (12, -1, 11, -9, 9, -1, 13, -16, 5),
        (19, 6, 5, -11, 1, -8, 6, -13, 8), (15, 14, -5, -3, 7, -2, 12, -11, -12),
        (24, 17, -6, -9, -4, -12, 2, -9, 1), (8, 7, 1, -1, 15, 5, 19, -14, -15),
        (1, 19, -21, 10, 1, 2, 2, 6, -27), (11, -1, 4, -10, -14, -13, -13, 1, 23),
        (22, 21, -11, -5, -1, -9, 5, -8, -9), (12, 18, -17, 0, -13, -11, -11, 7, -4),
        (26, 13, -1, -13, -7, -15, -1, -10, 11), (3, -4, 12, -3, 20, 9, 23, -18, -8),
        (13, 18, -10, 1, 10, 1, 15, -10, -22), (5, -8, 17, -7, 17, 6, 20, -19, 2),
        (20, 25, -16, -1, 2, -6, 8, -7, -19), (1, 0, 7, 1, 23, 12, 26, -17, -18),
        (6, 11, -4, 3, 18, 8, 22, -13, -25), (29, 28, -17, -7, -9, -16, -2, -5, -6),
        (28, 9, 4, -17, -10, -18, -4, -11, 21), (27, 32, -22, -3, -6, -13, 1, -4, -16),
        (31, 24, -12, -11, -12, -19, -5, -6, 4), (1, -4, -2, -5, -26, -15, -29, 16, 28),
        (11, 22, -15, 5, 13, 4, 18, -9, -32), (2, 15, -23, 5, -25, -13, -27, 22, 1),
        (25, 36, -27, 1, -3, -10, 4, -3, -26), (22, 2, 17, -14, 21, 1, 29, -31, 0),
        (29, 9, 11, -16, 13, -6, 22, -28, 3), (4, 15, -9, 7, 21, 11, 25, -12, -35),
        (4, 11, -18, 1, -28, -16, -30, 21, 11), (20, 2, 3, -16, -25, -23, -23, 3, 36),
        (3, -8, 3, -9, -29, -18, -32, 15, 38), (9, 26, -20, 9, 16, 7, 21, -8, -42),
        (15, -5, 23, -12, 29, 8, 36, -34, -3), (37, 12, 3, -23, -21, -28, -14, -9, 34),
    ]
    _assert_generate_the_lattice_ideal(basis, gens)


@pytest.mark.slow
def test_3x3x4_all_2_margins_generators_certified():
    # 36 cells, lattice rank 12: project-and-lift saturates a projection on
    # 13 coordinates and lifts the other 23, in about 7 s on a 2-vCPU box,
    # bounded here at about eight times that.  The certificate's 36
    # rounds take about 30 s more
    model = MarginalModel((3, 3, 4), ((1, 2), (1, 3), (2, 3)))
    basis = kernel_lattice(margin_matrix(model))
    t0 = time.monotonic()
    gens = lattice_ideal_generators(basis)
    assert time.monotonic() - t0 < 60.0
    assert len(gens) == 624
    assert Counter(sum(g.plus) for g in gens) == {
        4: 54, 6: 180, 7: 112, 8: 216, 9: 42, 10: 20
    }
    _assert_generate_the_lattice_ideal(basis, gens)


@pytest.mark.slow
def test_3x3x3_all_2_margins_generators_by_degree():
    # 27 cells, lattice rank 8: project-and-lift saturates a projection on
    # 9 coordinates and lifts the other 18, in about 0.2 s on a 2-vCPU
    # box, bounded here as when the direct rounds took about 5 s.  Of the
    # 110 generators 27 have degree 4, 54 degree 6, 28 degree 7 and 1
    # degree 9; the 27 and 54 are the degree counts of the minimal Markov
    # basis Aoki and Takemura give for this model (Aust. N. Z. J. Stat.
    # 45, 2003)
    model = MarginalModel((3, 3, 3), ((1, 2), (1, 3), (2, 3)))
    t0 = time.monotonic()
    gens = lattice_ideal_generators(kernel_lattice(margin_matrix(model)))
    assert time.monotonic() - t0 < 30.0
    assert Counter(sum(g.plus) for g in gens) == {4: 27, 6: 54, 7: 28, 9: 1}


@pytest.mark.slow
def test_lifted_six_variable_lattice_generators_by_norm():
    # a 6-variable lattice holding a nonnegative vector, so saturated on
    # seven coordinates with a homogenizing one, where the direct rounds
    # grew to thousands of elements and took about 11 s.  Project-and-lift
    # takes about 0.05 s on a 2-vCPU box; the bound is the direct rounds'
    basis = IntMatrix(
        [(1, 0, 0), (0, 1, 0), (1, 8, 54), (0, -2, -6), (-1, -9, -58), (1, 4, 21)]
    )
    t0 = time.monotonic()
    gens = lattice_ideal_generators(basis)
    assert time.monotonic() - t0 < 60.0
    assert len(gens) == 88
    assert Counter(sum(g.plus) + sum(g.minus) for g in gens) == {
        4: 1, 16: 5, 18: 1, 20: 1, 22: 1, 25: 9, 27: 2, 35: 13, 37: 1, 42: 1, 44: 1,
        45: 18, 47: 1, 49: 1, 51: 1, 53: 1, 55: 22, 57: 1, 59: 1, 60: 1, 61: 1, 63: 1,
        65: 1, 67: 1, 69: 1,
    }


@pytest.mark.parametrize(
    "model, core_calls",
    [
        (k4_model(), 13),
        (transportation_model(3, 4), 7),
        (MarginalModel((2, 3, 3), ((1, 2), (1, 3), (2, 3))), 16),
    ],
    ids=["k4", "transport 3x4", "2x3x3"],
)
def test_model_saturation_skips_proven_variables(monkeypatch, model, core_calls):
    # one round per variable runs 16, 12 and 18 Groebner bases here.
    # Project-and-lift runs the base case's rounds on the projection,
    # skipping those of variables the lemma proves saturated, and its
    # final pass (2, 4 and 2 calls), then one round per lifted coordinate
    # (10, 2 and 13) and the final pass on the whole lattice; the
    # generators stay those of the one-round-per-variable reference
    runs = []
    core = toric._buchberger_core

    def counted(elements, spec, *extra):
        runs.append(len(elements))
        return core(elements, spec, *extra)

    basis = kernel_lattice(margin_matrix(model))
    monkeypatch.setattr(toric, "_buchberger_core", counted)
    gens = lattice_ideal_generators(basis)
    monkeypatch.undo()
    assert len(runs) == core_calls
    assert gens == _reference.lattice_ideal_generators(basis)


@pytest.mark.parametrize(
    "model, s_elements, reductions",
    [
        (transportation_model(3, 4), 124, 202),
        (MarginalModel((2, 3, 3), ((1, 2), (1, 3), (2, 3))), 268, 411),
        (k4_model(), 1434, 1688),
    ],
    ids=["transport 3x4", "2x3x3", "k4"],
)
def test_pair_criteria_work_is_pinned(monkeypatch, model, s_elements, reductions):
    # the outputs alone do not show a pair criterion gone.  S-elements
    # formed and head reductions begun (inputs, S-elements and the trails
    # of the rounds on x_0): without the coprime-lead criterion they read
    # (198, 276), (376, 519) and (1,578, 1,832), and without the skip of
    # S-pairs sharing a saturated variable, made when a pair is queued,
    # (160, 238), (316, 459) and (1,919, 2,173).  The lifts mask no
    # variable, so the skip acts in the base case and the final pass
    basis = kernel_lattice(margin_matrix(model))
    calls = _count_core_work(monkeypatch)
    lattice_ideal_generators(basis)
    assert calls == {"s": s_elements, "reduce": reductions}


def _resolved_leads(gb):
    costs = gb.order.costs
    return [g.plus for g in gb if any(sum(map(mul, w, g.vector())) for w in costs)]


def test_non_optimal_ideal_matches_completion_reference():
    # reading the ideal off the reduced basis must give what completing
    # its cost-initial forms under the tiebreak gives, above all on bases
    # with tied elements: kernel lattices and bases as given, every
    # tiebreak, one- and two-row costs
    rng = random.Random(20261019)
    tied = grown = 0
    seen = set()
    for trial in range(500):
        basis = _saturation_case(rng, trial)
        n = basis.nrows
        costs = tuple(
            tuple(rng.randrange(3) for _ in range(n)) for _ in range(rng.randint(1, 2))
        )
        tiebreak = rng.choice(TIEBREAKS)
        try:
            gb = buchberger(lattice_ideal_generators(basis), TermOrder(costs, tiebreak))
        except NonTerminatingOrder:
            continue
        got = non_optimal_ideal(gb)
        assert got == _reference.non_optimal_ideal(gb), (basis.rows, costs, tiebreak)
        leads = _resolved_leads(gb)
        if len(leads) < len(gb):
            tied += 1
            seen |= {("kernel", "basis")[trial % 2 == 0], len(costs), tiebreak}
            grown += got != MonomialIdeal(n, leads)
    assert tied >= 100 and grown >= 10
    assert seen == {"kernel", "basis", 1, 2, *TIEBREAKS}


def test_tied_demo_reads_the_ideal_off_the_basis(monkeypatch):
    # demos/tied.txt: two of the five basis elements tie on the cost, and
    # the pullback along them grows three resolved leads to seven
    # generators without another Groebner basis
    a = IntMatrix([[4, 2, 2, 3]])
    gens = lattice_ideal_generators(kernel_lattice(a))
    gb = buchberger(gens, TermOrder((0, 1, 1, 0)))
    assert len(gb) == 5 and len(_resolved_leads(gb)) == 3
    runs = []
    core = toric._buchberger_core

    def counted(elements, spec, *extra):
        runs.append(len(elements))
        return core(elements, spec, *extra)

    monkeypatch.setattr(toric, "_buchberger_core", counted)
    ideal = non_optimal_ideal(gb)
    assert runs == []
    assert len(ideal.gens) == 7
    assert len(irreducible_decomposition(ideal)) == 3


@pytest.mark.parametrize(
    "sense, tied, size, gap",
    [("max", 25, 40, Fraction(5, 3)), ("min", 26, 35, 1)],
    ids=["max", "min"],
)
def test_k4_unrefined_order_reads_the_tied_ideal(sense, tied, size, gap):
    # k4 under its bare entry cost and revgrevlex leaves many of the 61
    # basis elements tied: the pullback must match the completion
    # reference, and the gap must be the refined order's value
    order = TermOrder(models._entry_cost(k4_model(), sense), "revgrevlex")
    inst = GapInstance.from_matrix(margin_matrix(k4_model()), order)
    assert len(inst.groebner) == 61
    assert len(inst.groebner) - len(_resolved_leads(inst.groebner)) == tied
    assert inst.ideal == _reference.non_optimal_ideal(inst.groebner)
    assert len(inst.ideal.gens) == size
    assert gap_report(inst).gap == gap == gap_report(entry_instance(k4_model(), sense)).gap


def _monomials(n, degree):
    return [m for m in product(range(degree + 1), repeat=n) if sum(m) <= degree]


def _tiebreak_key(tiebreak, m):
    # written out from the definitions, independent of the package: the
    # larger key is the larger monomial
    if tiebreak == "lex":
        return tuple(m)
    if tiebreak == "grlex":
        return (sum(m),) + tuple(m)
    if tiebreak == "grevlex":
        return (sum(m),) + tuple(-x for x in reversed(m))
    return (sum(m),) + tuple(-x for x in m)


def _assert_sorts_like(cmp, key, monomials):
    assert sorted(monomials, key=cmp_to_key(cmp)) == sorted(monomials, key=key)
    for a in monomials:
        for b in monomials:
            ka, kb = key(a), key(b)
            assert cmp(a, b) == (ka > kb) - (ka < kb), (a, b)


def test_orders_match_their_definitions():
    # every spec the package builds, read by the reference comparator,
    # against a sort key written here: each tiebreak with and without cost
    # rows (refined ones included), on every monomial of degree <= 3 in 4
    # variables
    monomials = _monomials(4, 3)
    for tb in TIEBREAKS:
        for n in (2, 4, 5):
            _assert_sorts_like(
                comparator(*TermOrder((), tb).spec(n)),
                lambda m: _tiebreak_key(tb, m),
                _monomials(n, 3),
            )
        for cost in [(1, 0, 2, 1), (Fraction(1, 2), 0, 1, Fraction(1, 2)), (2, -1, 0, 1)]:
            def key(m):
                return (sum(c * x for c, x in zip(cost, m)),) + _tiebreak_key(tb, m)

            for order in (TermOrder(cost, tb), TermOrder.refined(cost, tb)):
                _assert_sorts_like(comparator(*order.spec(4)), key, monomials)
                # a copy through pickle or deepcopy is the same order,
                # spec included: a refined one keeps its base order's rows
                for copy in (pickle.loads(pickle.dumps(order)), deepcopy(order)):
                    assert copy == order
                    assert copy.spec(4) == order.spec(4)
        rows = ((1, 1, 0, 0), (0, 0, 1, 0))
        _assert_sorts_like(
            comparator(*TermOrder(rows, tb).spec(4)),
            lambda m: (m[0] + m[1], m[2]) + _tiebreak_key(tb, m),
            monomials,
        )
    for weights in [(1, 1, 1, 1), (3, 5, 7, 11), (2, 1, 1, 3)]:
        for cheap in range(4):
            def key(m):
                rest = tuple(-m[i] for i in reversed(range(4)) if i != cheap)
                return (sum(w * x for w, x in zip(weights, m)), -m[cheap]) + rest

            cmp = comparator(*_graded_revlex_spec(weights, cheap))
            _assert_sorts_like(cmp, key, monomials)
