import pickle
import random
import time
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
from operator import mul

import pytest

import _reference
from _reference import is_primitive, lattice_contains, leading_ideal
from ipgap import lp, models, toric
from ipgap.errors import BadParameter, NonTerminatingOrder, UnboundedProgram
from ipgap.exactmath import IntMatrix, _span_basis, kernel_lattice
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
    _comparator,
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
    grevlex = TermOrder((0, 0, 0), "grevlex")
    grlex = TermOrder((0, 0, 0), "grlex")
    lex = TermOrder((0, 0, 0), "lex")
    # same degree, distinguished by the tiebreak family
    assert grevlex.compare((1, 0, 2), (0, 2, 1)) == -1
    assert grlex.compare((1, 0, 2), (0, 2, 1)) == 1
    assert lex.compare((1, 0, 2), (0, 2, 1)) == 1
    # x1 beats x2 in every family
    for o in (grevlex, grlex, lex):
        assert o.compare((1, 0, 0), (0, 1, 0)) == 1
        assert o.compare((0, 1, 0), (0, 1, 0)) == 0
    # cost dominates the tiebreak
    costed = TermOrder((5, 1, 1), "grevlex")
    assert costed.compare((1, 0, 0), (0, 3, 0)) == 1
    # lex ignores degree entirely
    assert lex.compare((1, 0, 0), (0, 9, 9)) == 1


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
    o = TermOrder((0, 0, 0), "revgrevlex")
    # degree first; ties go to the point with more mass on early variables
    assert o.compare((0, 0, 1), (1, 1, 0)) == -1
    assert o.compare((1, 0, 2), (0, 2, 1)) == -1
    assert o.compare((1, 0, 0), (0, 1, 0)) == -1
    assert o.compare((0, 1, 0), (0, 0, 1)) == -1
    assert o.compare((0, 0, 1), (1, 0, 0)) == 1
    assert o.compare((2, 0, 1), (2, 0, 1)) == 0


def test_refined_orders_sort_like_their_models():
    # refined() must reproduce the plain order exactly, and its trimmed
    # comparison must agree with evaluating every weight row
    rng = random.Random(3)
    for cost in [(0, 1, 0, 1), (1, 1, 1, 1), (-1, 0, 0, 0), (2, -1, 3, 0)]:
        for tb in TIEBREAKS:
            plain = TermOrder(cost, tb)
            fast = TermOrder.refined(cost, tb)
            full = TermOrder(fast.costs, "lex")
            for _ in range(120):
                a = tuple(rng.randrange(7) for _ in range(4))
                b = tuple(rng.randrange(7) for _ in range(4))
                want = plain.compare(a, b)
                assert fast.compare(a, b) == want, (cost, tb, a, b)
                assert full.compare(a, b) == want, (cost, tb, a, b)


def test_degree_lexicographic_sequence():
    order = TermOrder.degree_lexicographic(3)
    assert order.costs == ((1, 1, 1), (1, 0, 0), (0, 1, 0))
    # degree first, then leftmost coordinate
    assert order.compare((0, 0, 1), (2, 0, 0)) == -1
    assert order.compare((2, 0, 0), (0, 2, 0)) == 1
    assert order.compare((0, 2, 0), (0, 0, 2)) == 1


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
    # the coin basis packs at 5-bit fields; z with exponents near 2^80,
    # z that fit but step past the width on the way (3 dimes become 40),
    # and a fresh basis without the core's packing all reach the tuple
    # normal form
    gb = coin_basis()
    assert gb._reducer[0].w == 5
    big = 2**80
    assert ip_optimum(gb, (big, 3, 0, 1)) == (big, 0, 4, 0)
    assert ip_optimum(gb, (3, 31, 0, 31)) == (3, 1, 40, 21)
    zs = [(big, 3, 0, 1), (big, 2, 2**70, 4), (3, 31, 0, 31), (0, 30, 31, 0), (31, 0, 0, 31)]
    fresh = GroebnerBasis(gb.elements, gb.order)
    for z in zs:
        want = _reference.normal_form(gb, z)
        assert ip_optimum(gb, z) == want == ip_optimum(fresh, z), z
        assert COIN_A.mul_vector(want) == COIN_A.mul_vector(z)


def test_ip_optimum_on_one_binomial_matches_the_tuple_normal_form():
    # a one-element basis is reduced on tuples in one step count, never
    # packed; exponents reach 2^70 on coordinates the step does not lower
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
        assert gb._packed is None
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
    # element; returns it.  extra is a saturation round's saturated mask,
    # which only the packed core takes
    got, _ = _buchberger_core(elements, spec, *extra)
    cmp = _comparator(*spec)
    assert got == _reference.tuple_buchberger_core(elements, cmp), elements
    assert got == _reference.buchberger_core(elements, cmp), elements
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
    # past 60; their generators as the one-round-per-variable reference
    # on the tuple core makes them
    rng = random.Random(20261021)
    calls = []
    core = toric._buchberger_core

    def recorded(elements, spec, *extra):
        calls.append((elements, spec, extra))
        return core(elements, spec, *extra)

    monkeypatch.setattr(toric, "_buchberger_core", recorded)
    finite_index = top = 0
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
    assert finite_index >= 10 and top > 60


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
    # could hold a lead past the width computed from its input
    outputs = []
    core = toric._buchberger_core

    def recorded(elements, spec, *extra):
        out = core(elements, spec, *extra)
        outputs.append((elements, spec, out[0]))
        return out

    monkeypatch.setattr(toric, "_buchberger_core", recorded)
    gens = lattice_ideal_generators(basis)
    monkeypatch.undo()
    assert gens == _reference.lattice_ideal_generators(basis)
    assert any(_outgrew_start_width(elements, out) for elements, _, out in outputs)
    for elements, spec, out in outputs:
        assert out == _reference.tuple_buchberger_core(elements, _comparator(*spec))


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
                want = _reference.tuple_buchberger_core(sides, order.compare)
                assert _buchberger_core(sides, order.spec(n))[0] == want, (sides, order)
                assert [(g.plus, g.minus) for g in gb] == want
                seen[kind] += 1
                seen[tb] += 1
                seen["negative"] += min(cost) < 0
    assert min(seen[k] for k in ("plain", "refined", "spelled", *TIEBREAKS)) >= 50
    assert seen["negative"] >= 300 and seen["rejected"] >= 20


def test_packed_orientation_matches_compare():
    # within one fiber, the drop over the order's rows and then one int
    # comparison of the sides packed in sequence order orient a binomial
    # as TermOrder.compare does; so does the unpacked rule of a core call
    # with one input
    rng = random.Random(20261024)
    checked = 0
    for _ in range(60):
        n = rng.randint(2, 5)
        basis = kernel_lattice(IntMatrix([[rng.randint(-3, 4) for _ in range(n)]]))
        cost = tuple(rng.randint(-5, 5) for _ in range(n))
        weights = tuple(rng.randint(1, 4) for _ in range(n))
        specs = [(_graded_revlex_spec(weights, rng.randrange(n)), None)]
        for tb in TIEBREAKS:
            refined = TermOrder.refined(cost, tb)
            specs += [(TermOrder(cost, tb).spec(n), TermOrder(cost, tb).compare)]
            specs += [(refined.spec(n), refined.compare)]
            specs += [(TermOrder(refined.costs, "lex").spec(n), refined.compare)]
            specs += [(TermOrder((), tb).spec(n), TermOrder((), tb).compare)]
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
                if compare is None:
                    compare = _comparator(*spec)
                packing = toric._Packing(n, w, [i for i, _ in sequence])
                star = toric._drop_weights(rows, degree, w)
                drop = sum(map(mul, star, a)) - sum(map(mul, star, b)) if star else 0
                lead = toric._orient(packing.pack(a), packing.pack(b), drop, sequence[0][1] < 0)[0]
                want = a if compare(a, b) > 0 else b
                assert packing.unpack(lead) == want, (spec, a, b)
                assert toric._orient_one(a, b, spec)[0] == want, (spec, a, b)
                checked += 1
    assert checked >= 10_000


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
    # plain degree differ.  A variable masked that the ideal is not
    # saturated in changes the generators; the heap keyed by plain degree
    # (S-elements 796, reductions 2,507), the skip left out (reductions
    # 2,777), the coprime-lead criterion left out (1,157, 2,783) or
    # criterion B left out (759, 2,500) moves the pinned work
    rng = random.Random(20261022)
    calls = _count_core_work(monkeypatch)
    for _ in range(100):
        basis = _non_unit_graded_lattice(rng)
        gens = lattice_ideal_generators(basis)
        assert gens == _reference.lattice_ideal_generators(basis), basis.rows
    assert calls == {"s": 756, "reduce": 2497}


@pytest.mark.slow
def test_3x3x3_all_2_margins_generators_by_degree():
    # 27 cells, lattice rank 8, 15 saturation rounds from the 8 basis
    # binomials and the 12 short combinations of them that seed the first
    # round: about 7 s on a 2-vCPU box, bounded here at about four times
    # that.  Of the 110 generators 27 have degree 4, 54 degree 6, 28
    # degree 7 and 1 degree 9; the 27 and 54 are the degree counts of the
    # minimal Markov basis Aoki and Takemura give for this model (Aust.
    # N. Z. J. Stat. 45, 2003)
    model = MarginalModel((3, 3, 3), ((1, 2), (1, 3), (2, 3)))
    t0 = time.monotonic()
    gens = lattice_ideal_generators(kernel_lattice(margin_matrix(model)))
    assert time.monotonic() - t0 < 30.0
    assert Counter(sum(g.plus) for g in gens) == {4: 27, 6: 54, 7: 28, 9: 1}


@pytest.mark.slow
def test_lifted_six_variable_lattice_generators_by_norm():
    # a 6-variable lattice holding a nonnegative vector, so the lifted
    # branch, where the rounds still grow to thousands of elements.  About
    # 15 s on a 2-vCPU box, bounded here at four times that.  The 88
    # generators and their 1-norms were computed without the seeds
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
    "model, most_rounds",
    [
        (k4_model(), 9),
        (transportation_model(3, 4), 5),
        (MarginalModel((2, 3, 3), ((1, 2), (1, 3), (2, 3))), 13),
    ],
    ids=["k4", "transport 3x4", "2x3x3"],
)
def test_model_saturation_skips_proven_variables(monkeypatch, model, most_rounds):
    # one round per variable runs 16, 12 and 18 Groebner bases here;
    # rounds for variables the lemma proves saturated are skipped, and
    # the generators stay those of the one-round-per-variable reference
    runs = []
    core = toric._buchberger_core

    def counted(elements, spec, *extra):
        runs.append(len(elements))
        return core(elements, spec, *extra)

    basis = kernel_lattice(margin_matrix(model))
    monkeypatch.setattr(toric, "_buchberger_core", counted)
    gens = lattice_ideal_generators(basis)
    monkeypatch.undo()
    assert len(runs) <= most_rounds
    assert gens == _reference.lattice_ideal_generators(basis)


@pytest.mark.parametrize(
    "model, s_elements, reductions",
    [
        (transportation_model(3, 4), 300, 397),
        (MarginalModel((2, 3, 3), ((1, 2), (1, 3), (2, 3))), 731, 781),
    ],
    ids=["transport 3x4", "2x3x3"],
)
def test_pair_criteria_work_is_pinned(monkeypatch, model, s_elements, reductions):
    # the outputs alone do not show a pair criterion gone.  S-elements
    # formed and head reductions begun (inputs, S-elements and trails):
    # without the coprime-lead criterion they read (314, 404) and
    # (740, 790), without criterion B (300, 397), unmoved, and (805, 837),
    # and without the skip of S-pairs sharing a saturated variable, which
    # comes after the S-element is formed, the reductions read 483 and
    # 1,075
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
    # every comparator the package builds, against a sort key written here:
    # each tiebreak with and without cost rows (refined ones included), on
    # every monomial of degree <= 3 in 4 variables
    monomials = _monomials(4, 3)
    for tb in TIEBREAKS:
        for n in (2, 4, 5):
            _assert_sorts_like(
                TermOrder((), tb).compare,
                lambda m: _tiebreak_key(tb, m),
                _monomials(n, 3),
            )
        for cost in [(1, 0, 2, 1), (Fraction(1, 2), 0, 1, Fraction(1, 2)), (2, -1, 0, 1)]:
            def key(m):
                return (sum(c * x for c, x in zip(cost, m)),) + _tiebreak_key(tb, m)

            for order in (TermOrder(cost, tb), TermOrder.refined(cost, tb)):
                _assert_sorts_like(order.compare, key, monomials)
                # a copy through pickle is the same order
                copy = pickle.loads(pickle.dumps(order))
                assert copy == order
                _assert_sorts_like(copy.compare, key, monomials)
        rows = ((1, 1, 0, 0), (0, 0, 1, 0))
        _assert_sorts_like(
            TermOrder(rows, tb).compare,
            lambda m: (m[0] + m[1], m[2]) + _tiebreak_key(tb, m),
            monomials,
        )
    for weights in [(1, 1, 1, 1), (3, 5, 7, 11), (2, 1, 1, 3)]:
        for cheap in range(4):
            def key(m):
                rest = tuple(-m[i] for i in reversed(range(4)) if i != cheap)
                return (sum(w * x for w, x in zip(weights, m)), -m[cheap]) + rest

            cmp = _comparator(*_graded_revlex_spec(weights, cheap))
            _assert_sorts_like(cmp, key, monomials)
