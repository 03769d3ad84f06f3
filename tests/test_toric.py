import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, product

import pytest

from _reference import lattice_contains
from ipgap.errors import BadParameter, NonTerminatingOrder, UnboundedProgram
from ipgap.exactmath import IntMatrix, kernel_lattice
from ipgap.monomial import MonomialIdeal, irreducible_decomposition
from ipgap.toric import (
    TIEBREAKS,
    Binomial,
    GroebnerBasis,
    TermOrder,
    _buchberger_core,
    _graded_revlex_cmp,
    _orient,
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
    assert b.is_primitive
    assert not Binomial((2, 1), (0, 1)).is_primitive
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
        assert g.is_primitive
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
    assert gb.leading_ideal().gens == MonomialIdeal(
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
                assert g.is_primitive
            # reduced: no lead divides another, trails are in normal form
            for g in gb:
                others = [h.plus for h in gb if h is not g]
                if others:
                    assert not MonomialIdeal(3, others).contains(g.plus)
                    assert not MonomialIdeal(3, others).contains(g.minus)


def _reference_buchberger(elements, cmp):
    """Reduced basis by textbook Buchberger on polynomials as dicts.

    Every pair is reduced (no criterion prunes any), divisibility is tested
    coordinate by coordinate, and the basis is made minimal and reduced
    only at the end.  Returns the core's format: (lead, trail) with trail
    None for a monomial, sorted by lead degree, then lead.
    """
    key = cmp_to_key(cmp)

    def lead(f):
        return max(f, key=key)

    def shift(m, q):
        return tuple(a + b for a, b in zip(m, q))

    def normal_form(f, basis):
        f, out = dict(f), {}
        while f:
            m = lead(f)
            for g in basis:
                gl = lead(g)
                if all(a <= b for a, b in zip(gl, m)):
                    q = tuple(b - a for a, b in zip(gl, m))
                    r = f[m] / g[gl]
                    for t, c in g.items():
                        t = shift(t, q)
                        f[t] = f.get(t, 0) - r * c
                        if not f[t]:
                            del f[t]
                    break
            else:
                out[m] = f.pop(m)
        return out

    polys = []
    for l, t in elements:
        f = {l: Fraction(1)}
        if t is not None:
            f[t] = Fraction(-1)
        polys.append(f)
    pairs = list(combinations(range(len(polys)), 2))
    while pairs:
        # smallest lcm degree first: a selection order only, nothing is pruned
        pairs.sort(
            key=lambda p: -sum(map(max, lead(polys[p[0]]), lead(polys[p[1]])))
        )
        i, j = pairs.pop()
        f, g = polys[i], polys[j]
        lcm_e = tuple(map(max, lead(f), lead(g)))
        s = {}
        for p, sign in ((f, 1), (g, -1)):
            pl = lead(p)
            q = tuple(a - b for a, b in zip(lcm_e, pl))
            for t, c in p.items():
                t = shift(t, q)
                s[t] = s.get(t, 0) + sign * c / p[pl]
        r = normal_form({t: c for t, c in s.items() if c}, polys)
        if r:
            polys.append(r)
            pairs += [(k, len(polys) - 1) for k in range(len(polys) - 1)]
    polys = [{t: c / p[lead(p)] for t, c in p.items()} for p in polys]
    minimal = []
    for p in polys:
        pl = lead(p)
        if not any(
            all(a <= b for a, b in zip(lead(q), pl)) for q in minimal
        ):
            minimal = [
                q for q in minimal if not all(a <= b for a, b in zip(pl, lead(q)))
            ]
            minimal.append(p)
    out = []
    for p in minimal:
        pl = lead(p)
        tail = normal_form({t: c for t, c in p.items() if t != pl}, minimal)
        assert set(tail.values()) <= {Fraction(-1)} and len(tail) <= 1
        out.append((pl, next(iter(tail), None)))
    out.sort(key=lambda e: (sum(e[0]), e[0]))
    return out


def _random_elements(rng, n, cmp, monomials=False):
    elements = []
    for _ in range(rng.randrange(2, 4)):
        a = tuple(rng.randrange(3) for _ in range(n))
        if monomials and rng.random() < 0.3:
            if any(a):
                elements.append((a, None))
            continue
        b = tuple(rng.randrange(3) for _ in range(n))
        e = _orient(a, b, cmp)
        if e is not None:
            elements.append(e)
    return elements


def test_core_matches_reference_buchberger():
    # the core's pair criteria and support-mask prefilters must not change
    # the reduced basis: compare with the unpruned reference on the three
    # kinds of order the pipeline uses
    rng = random.Random(20261017)
    for trial in range(300):
        n = rng.randrange(2, 6)
        kind = trial % 3
        if kind == 0:
            cost = tuple(rng.randrange(4) for _ in range(n))
            cmp = TermOrder(cost, rng.choice(TIEBREAKS)).compare
        elif kind == 1:
            weights = tuple(rng.randrange(1, 4) for _ in range(n))
            cmp = _graded_revlex_cmp(weights, rng.randrange(n))
        else:
            cmp = TermOrder((), rng.choice(TIEBREAKS)).compare
        elements = _random_elements(rng, n, cmp, monomials=kind == 2)
        want = _reference_buchberger(elements, cmp)
        assert _buchberger_core(elements, cmp) == want, (trial, elements)
