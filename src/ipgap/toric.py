"""Lattice ideals, cost-refined term orders, Buchberger, non-optimal ideals.

A lattice program's algebra lives here: binomials x^plus - x^minus encode
lattice vectors, a TermOrder compares exponent vectors by one or more cost
rows and then a fixed tiebreak, buchberger() produces the unique reduced
basis, and non_optimal_ideal() extracts the monomial ideal of all exponent
vectors that lose to a cheaper point in their own fiber.

Cost rows may have negative entries, so the refined comparison is not a
global well-order.  Every comparison Buchberger makes here is between two
monomials in the same fiber, where the precondition checks (no direction of
negative cost in the nonnegative kernel cone, and a graded tiebreak when a
zero-cost nonnegative direction exists) make the order well-founded; the
checks run up front and reject bad inputs instead of looping forever.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .errors import BadParameter, NonTerminatingOrder, UnboundedProgram
from .exactmath import LatticeBasis, _scaled
from .monomial import Monomial, MonomialIdeal, divides


@dataclass(frozen=True)
class Binomial:
    """x^plus - x^minus; the exponent difference is the lattice vector.

    Inside a GroebnerBasis, plus is the marked leading side under the
    basis's order.  Primitive means the two supports are disjoint, which
    reduced bases of saturated lattice ideals always satisfy.
    """

    plus: Monomial
    minus: Monomial

    def __init__(self, plus, minus):
        plus = tuple(int(x) for x in plus)
        minus = tuple(int(x) for x in minus)
        if len(plus) != len(minus):
            raise BadParameter("exponent vectors of unequal length")
        if plus == minus:
            raise BadParameter("zero binomial")
        if any(x < 0 for x in plus + minus):
            raise BadParameter("negative exponent")
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    @classmethod
    def from_vector(cls, v) -> "Binomial":
        return cls(*_split(v))

    @property
    def nvars(self) -> int:
        return len(self.plus)

    def vector(self) -> tuple[int, ...]:
        return tuple(p - m for p, m in zip(self.plus, self.minus))

    @property
    def is_primitive(self) -> bool:
        return all(p == 0 or m == 0 for p, m in zip(self.plus, self.minus))


TIEBREAKS = ("grevlex", "grlex", "lex", "revgrevlex")


def _tiebreak_cmp(a: Monomial, b: Monomial, kind: str) -> int:
    if a == b:
        return 0
    if kind != "lex":
        da, db = sum(a), sum(b)
        if da != db:
            return 1 if da > db else -1
    if kind == "grevlex":
        for x, y in zip(reversed(a), reversed(b)):
            if x != y:
                return 1 if x < y else -1
        return 0
    if kind == "revgrevlex":
        for x, y in zip(a, b):
            if x != y:
                return 1 if x < y else -1
        return 0
    for x, y in zip(a, b):
        if x != y:
            return 1 if x > y else -1
    return 0


@dataclass(frozen=True)
class TermOrder:
    """Compare exponent vectors by cost rows in sequence, then a tiebreak.

    cost may be a single rational vector (the usual case) or a sequence of
    vectors applied lexicographically; the latter expresses optimality
    notions like "degree lexicographically smallest", where the ordering
    itself defines the optimum.  The tiebreak is grevlex, grlex, or lex,
    all reading the variables as x1 > x2 > ... > xn, or revgrevlex, which
    is grevlex over the reversed variable list: after degree, ties go to
    the point with more mass on early variables.
    """

    costs: tuple[tuple[Fraction, ...], ...]
    tiebreak: str

    def __init__(self, cost=(), tiebreak: str = "grevlex"):
        if tiebreak not in TIEBREAKS:
            raise BadParameter(f"unknown tiebreak {tiebreak!r}")
        cost = tuple(cost)
        if cost and not isinstance(cost[0], (tuple, list)):
            cost = (cost,)
        rows = tuple(tuple(Fraction(x) for x in row) for row in cost)
        widths = {len(r) for r in rows}
        if len(widths) > 1:
            raise BadParameter("cost rows of unequal length")
        object.__setattr__(self, "costs", rows)
        object.__setattr__(self, "tiebreak", tiebreak)
        object.__setattr__(
            self, "_int_costs", tuple(tuple(_scaled(r)[0]) for r in rows)
        )
        # rows actually consulted by compare(); refined() trims rows that
        # restate the tiebreak, which compare() then handles directly
        object.__setattr__(self, "_cmp_costs", self._int_costs)

    @classmethod
    def degree_lexicographic(cls, n: int) -> "TermOrder":
        """Order whose optimum is the degree-lexicographically smallest point."""
        rows = [(1,) * n]
        for i in range(n - 1):
            rows.append(tuple(1 if j == i else 0 for j in range(n)))
        return cls(tuple(rows), "lex")

    @classmethod
    def refined(cls, cost, tiebreak: str = "grevlex") -> "TermOrder":
        """Total order with the tiebreak spelled out as weight rows.

        Sorts points exactly like TermOrder(cost, tiebreak), but because
        the tiebreak rows are part of the cost sequence, tie resolution
        counts as optimality: the non-optimal ideal becomes the full
        leading-term ideal rather than its strictly-suboptimal part.
        """
        cost = tuple(cost)
        if cost and not isinstance(cost[0], (tuple, list)):
            cost = (cost,)
        if not cost:
            raise BadParameter("refined order needs at least one cost row")
        n = len(cost[0])
        rows = list(cost)
        if tiebreak == "lex":
            rows += [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        elif tiebreak == "grlex":
            rows.append((1,) * n)
            rows += [tuple(1 if j == i else 0 for j in range(n)) for i in range(n - 1)]
        elif tiebreak == "grevlex":
            rows.append((1,) * n)
            rows += [
                tuple(-1 if j == i else 0 for j in range(n))
                for i in range(n - 1, 0, -1)
            ]
        elif tiebreak == "revgrevlex":
            rows.append((1,) * n)
            rows += [
                tuple(-1 if j == i else 0 for j in range(n))
                for i in range(n - 1)
            ]
        else:
            raise BadParameter(f"unknown tiebreak {tiebreak!r}")
        order = cls(tuple(rows), tiebreak)
        object.__setattr__(order, "_cmp_costs", order._int_costs[: len(cost)])
        return order

    @property
    def cost(self) -> tuple[Fraction, ...]:
        """The primary cost row (what gap values are measured in)."""
        if not self.costs:
            raise BadParameter("order has no cost rows")
        return self.costs[0]

    @property
    def nvars(self) -> int | None:
        return len(self.costs[0]) if self.costs else None

    def compare(self, a: Monomial, b: Monomial) -> int:
        for w in self._cmp_costs:
            da = sum(wi * ai for wi, ai in zip(w, a))
            db = sum(wi * bi for wi, bi in zip(w, b))
            if da != db:
                return 1 if da > db else -1
        return _tiebreak_cmp(a, b, self.tiebreak)

    def cost_drop(self, g: Binomial) -> Fraction:
        """Primary-cost difference lead minus trail (> 0 means strict win)."""
        v = g.vector()
        return sum((ci * vi for ci, vi in zip(self.cost, v)), Fraction(0))


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced basis; each element's plus side is its leading term."""

    elements: tuple[Binomial, ...]
    order: TermOrder

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    @property
    def nvars(self) -> int | None:
        return self.elements[0].nvars if self.elements else self.order.nvars

    def leading_ideal(self) -> MonomialIdeal:
        if not self.elements:
            raise BadParameter("empty basis has no variable count on its own")
        return MonomialIdeal(self.nvars, (g.plus for g in self.elements))


# internal Buchberger elements: (lead, trail) with trail None for a monomial
_Elt = tuple[Monomial, "Monomial | None"]


def _orient(a: Monomial, b: Monomial, cmp) -> _Elt | None:
    c = cmp(a, b)
    if c == 0:
        return None
    return (a, b) if c > 0 else (b, a)


def _support(m: Monomial) -> int:
    """Bitmask of the variables m uses.

    divides(a, b) needs _support(a) & ~_support(b) == 0, so a nonzero
    result proves that a does not divide b without a look at the exponents.
    """
    mask = 0
    for i, x in enumerate(m):
        if x:
            mask |= 1 << i
    return mask


def _head_reduce(
    elt: _Elt, basis: list[_Elt], masks: list[int], cmp, skip: int = -1
) -> _Elt | None:
    lead, trail = elt
    changed = True
    while changed:
        changed = False
        outside = ~_support(lead)
        for i, mask in enumerate(masks):
            if mask & outside or i == skip:
                continue
            gl, gt = basis[i]
            if not divides(gl, lead):
                continue
            if gt is None:
                if trail is None:
                    return None
                lead, trail = trail, None
            else:
                lead = tuple(l - a + b for l, a, b in zip(lead, gl, gt))
                if trail is not None:
                    c = cmp(lead, trail)
                    if c == 0:
                        return None
                    if c < 0:
                        lead, trail = trail, lead
            changed = True
            break
    return (lead, trail)


def _tail_reduce(
    elt: _Elt, basis: list[_Elt], masks: list[int], cmp, skip: int = -1
) -> _Elt | None:
    lead, trail = elt
    changed = True
    while changed and trail is not None:
        changed = False
        outside = ~_support(trail)
        for i, mask in enumerate(masks):
            if mask & outside or i == skip:
                continue
            gl, gt = basis[i]
            if not divides(gl, trail):
                continue
            if gt is None:
                trail = None
            else:
                trail = tuple(t - a + b for t, a, b in zip(trail, gl, gt))
                if trail == lead:
                    return None
            changed = True
            break
    return (lead, trail)


def _s_element(f: _Elt, g: _Elt, cmp) -> _Elt | None:
    fl, ft = f
    gl, gt = g
    lcm_e = tuple(max(a, b) for a, b in zip(fl, gl))
    if ft is None and gt is None:
        return None
    if ft is None:
        return (tuple(l - a + b for l, a, b in zip(lcm_e, gl, gt)), None)
    if gt is None:
        return (tuple(l - a + b for l, a, b in zip(lcm_e, fl, ft)), None)
    m1 = tuple(l - a + b for l, a, b in zip(lcm_e, fl, ft))
    m2 = tuple(l - a + b for l, a, b in zip(lcm_e, gl, gt))
    return _orient(m2, m1, cmp)


def _buchberger_core(elements: list[_Elt], cmp) -> list[_Elt]:
    """Completion plus full interreduction; deterministic output order.

    Pair selection is the normal strategy: smallest lcm degree first, ties
    by the lcm exponent vector.  Pairs are pruned by the criteria of
    Gebauer and Moeller (J. Symbolic Comput. 6, 1988).  When an element is
    added, its pairs with the earlier elements are queued one per minimal
    lcm (criteria M and F), and not at all for an lcm that a pair with
    coprime leads attains.  A queued pair (i, j) is dropped when it comes
    up if some element k added after it has a lead dividing lcm(i, j)
    while lcm(i, k) and lcm(j, k) both differ from it (criterion B; the
    elements added while the pair waited are exactly those after j).

    masks[k] is the support bitmask of basis[k]'s lead.  A divisor's
    support is a subset of its multiple's, so ``masks[k] & ~support(m)``
    being nonzero rules out ``divides(lead_k, m)``; every scan over the
    basis makes that test before it calls divides.
    """
    basis: list[_Elt] = []
    for e in elements:
        if e is not None and e not in basis:
            basis.append(e)
    masks = [_support(lead) for lead, _ in basis]

    heap: list = []
    counter = itertools.count()

    def add_pairs(new):
        # the minimal lcms of the pairs (k, new) seen so far, each as
        # [lcm, lead_c where it exceeds lead_new else 0, support of that,
        #  first k with this lcm, whether a coprime pair has it];
        # lcm(c, new) divides lcm(k, new) exactly when lead_k reaches
        # lead_c wherever lead_c exceeds lead_new, so a dominated pair is
        # recognised without forming its lcm
        lead, mask = basis[new][0], masks[new]
        classes: list = []
        for k in range(new):
            gk, mk = basis[k][0], masks[k]
            outside = ~mk
            for cls in classes:
                if not cls[2] & outside and divides(cls[1], gk):
                    if not mk & mask and tuple(map(max, gk, lead)) == cls[0]:
                        cls[4] = True
                    break
            else:
                l = tuple(map(max, gk, lead))
                r = tuple(x if x > y else 0 for x, y in zip(gk, lead))
                classes = [cls for cls in classes if not divides(l, cls[0])]
                classes.append([l, r, _support(r), k, not mk & mask])
        for l, _, _, k, coprime in classes:
            if not coprime:
                heapq.heappush(heap, (sum(l), l, next(counter), k, new))

    for i in range(len(basis)):
        add_pairs(i)

    while heap:
        _, l, _, i, j = heapq.heappop(heap)
        # criterion B
        outside = ~(masks[i] | masks[j])
        li, lj = basis[i][0], basis[j][0]
        if any(
            not masks[k] & outside
            and divides(basis[k][0], l)
            and tuple(map(max, li, basis[k][0])) != l
            and tuple(map(max, lj, basis[k][0])) != l
            for k in range(j + 1, len(basis))
        ):
            continue
        s = _s_element(basis[i], basis[j], cmp)
        if s is None:
            continue
        s = _head_reduce(s, basis, masks, cmp)
        if s is None:
            continue
        basis.append(s)
        masks.append(_support(s[0]))
        add_pairs(len(basis) - 1)

    # interreduce: drop head-reducible elements, then fully reduce tails;
    # among equal leads a monomial element outranks a binomial, then the
    # earlier survives, so exactly one per minimal lead remains
    def outranked(e, i, other, j):
        if other[0] != e[0]:
            return True  # strict divisor
        if (other[1] is None) != (e[1] is None):
            return other[1] is None
        return j < i

    keep: list[_Elt] = []
    kept_masks: list[int] = []
    for i, e in enumerate(basis):
        outside = ~masks[i]
        if not any(
            not masks[j] & outside
            and i != j
            and divides(other[0], e[0])
            and outranked(e, i, other, j)
            for j, other in enumerate(basis)
        ):
            keep.append(e)
            kept_masks.append(masks[i])
    out: list[_Elt] = []
    for i, e in enumerate(keep):
        r = _head_reduce(e, keep, kept_masks, cmp, skip=i)
        if r is None:
            continue
        r = _tail_reduce(r, keep, kept_masks, cmp, skip=i)
        if r is None:
            continue
        out.append(r)
    out.sort(key=lambda e: (sum(e[0]), e[0]))
    return out


def check_order_preconditions(gens, order: TermOrder) -> None:
    """Reject cost/order combinations for which no optimum need exist.

    Over the real span of the generators' vectors, the nonnegative cone is
    the recession cone of every fiber polyhedron.  A direction of negative
    primary cost there makes fibers unbounded below (UnboundedProgram); a
    nonzero direction of zero cost leaves infinitely many equal-cost points,
    which only a degree-compatible tiebreak well-orders (otherwise
    NonTerminatingOrder).  Both tests are exact LPs over the coefficients
    of the generators' vectors; the second runs only under lex, the one
    tiebreak it can reject.
    """
    vectors = [v for v in (g.vector() for g in gens) if any(v)]
    if not vectors or not order.costs:
        return
    n = len(vectors[0])
    if order.nvars != n:
        raise BadParameter("cost length does not match the variable count")
    c, zero = order.cost, (0,) * n
    # v = -sum t_k vec_k over free t: max -c.v is unbounded on v >= 0
    # exactly when some nonnegative direction has negative cost
    if lp._coefficient_lp(vectors, c, zero, range(n)).status == lp.UNBOUNDED:
        raise UnboundedProgram(
            "the nonnegative kernel cone has a direction of negative cost; "
            "fibers are unbounded below"
        )
    if order.tiebreak != "lex":
        return
    # zero-cost ray: maximize the coordinate sum at cost <= 0, capped at 1
    sol = lp._coefficient_lp(
        vectors, (-1,) * n, zero, range(n), extra=((c, 0), ((1,) * n, 1))
    )
    if sol.status == lp.OPTIMAL and sol.value > 0:
        raise NonTerminatingOrder(
            "a nonzero nonnegative direction of zero cost exists; "
            "use a degree-compatible tiebreak (grevlex, grlex, or revgrevlex)"
        )


def buchberger(gens, order: TermOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal the binomials generate.

    Checks the order preconditions first; see check_order_preconditions.
    """
    gens = tuple(gens)
    check_order_preconditions(gens, order)
    elements = []
    for g in gens:
        e = _orient(g.plus, g.minus, order.compare)
        if e is not None:
            elements.append(e)
    out = _buchberger_core(elements, order.compare)
    binomials = []
    for lead, trail in out:
        if trail is None:
            raise BadParameter("generators produced a monomial element; "
                              "input did not generate a lattice ideal")
        binomials.append(Binomial(lead, trail))
    return GroebnerBasis(tuple(binomials), order)


def _graded_revlex_cmp(weights: tuple[int, ...], cheap: int):
    """w-graded order whose tiebreak makes variable `cheap` revlex-last.

    For w-homogeneous ideals this gives the classic saturation property:
    if the cheap variable divides a leading term it divides the whole
    element.
    """
    def cmp(a: Monomial, b: Monomial) -> int:
        if a == b:
            return 0
        da = sum(w * x for w, x in zip(weights, a))
        db = sum(w * x for w, x in zip(weights, b))
        if da != db:
            return 1 if da > db else -1
        if a[cheap] != b[cheap]:
            return 1 if a[cheap] < b[cheap] else -1
        for i in range(len(a) - 1, -1, -1):
            if i != cheap and a[i] != b[i]:
                return 1 if a[i] < b[i] else -1
        return 0

    return cmp


def _positive_orthogonal_weight(columns) -> tuple[int, ...] | None:
    """A strictly positive integer vector orthogonal to all columns, if any."""
    if not columns:
        return None
    n = len(columns[0])
    prob = lp.LPProblem(
        objective=(Fraction(1),) * n,
        sense="min",
        eq=tuple(
            (tuple(Fraction(col[i]) for i in range(n)), Fraction(0))
            for col in columns
        ),
        ub=tuple(
            (tuple(Fraction(-1) if j == i else Fraction(0) for j in range(n)), Fraction(-1))
            for i in range(n)
        ),
        free=(True,) * n,
    )
    sol = lp.solve(prob)
    if sol.status != lp.OPTIMAL:
        return None
    return tuple(_scaled(sol.x)[0])


def _split(v) -> tuple[Monomial, Monomial]:
    """Positive and negative parts of an integer vector, as two exponents."""
    return tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v)


def _saturate_all_vars(elements: list[_Elt], weights: tuple[int, ...]) -> list[_Elt]:
    """Saturate by every variable in turn, highest index first.

    elements must be weights-homogeneous binomials.  Each round runs one
    Groebner basis under the weights-graded order with the target variable
    revlex-cheapest and divides that variable out of every element.
    """
    n = len(weights)
    for i in range(n - 1, -1, -1):
        cmp = _graded_revlex_cmp(weights, i)
        oriented = []
        for lead, trail in elements:
            e = _orient(lead, trail, cmp)
            if e is not None:
                oriented.append(e)
        gb = _buchberger_core(oriented, cmp)
        elements = []
        for lead, trail in gb:
            k = min(lead[i], trail[i])
            if k:
                lead = tuple(x - k if j == i else x for j, x in enumerate(lead))
                trail = tuple(x - k if j == i else x for j, x in enumerate(trail))
            if lead != trail:
                elements.append((lead, trail))
    return elements


def lattice_ideal_generators(basis: LatticeBasis) -> tuple[Binomial, ...]:
    """Generators of the saturated ideal of the lattice the columns span.

    The lattice itself is taken as given (no enlargement); saturation is of
    the ideal, removing the spurious components a raw basis ideal carries.
    When a strictly positive grading orthogonal to the lattice exists the
    per-variable saturation runs directly; otherwise (finite-index
    lattices) the computation is lifted by one homogenizing variable,
    saturated there, and mapped back.
    """
    columns = [c for c in basis.columns() if any(c)]
    if not columns:
        return ()
    n = basis.nrows
    weights = _positive_orthogonal_weight(columns)
    if weights is None:
        columns = [v + (-sum(v),) for v in columns]
        weights = (1,) * (n + 1)
    elements = _saturate_all_vars([_split(v) for v in columns], weights)
    vectors = set()
    for lead, trail in elements:
        v = tuple(a - b for a, b in zip(lead[:n], trail[:n]))
        if any(v):
            vectors.add(max(v, tuple(-x for x in v)))
    out = map(Binomial.from_vector, vectors)
    return tuple(sorted(out, key=lambda b: (sum(b.plus) + sum(b.minus), b.plus, b.minus)))


def is_generic(gb: GroebnerBasis) -> bool:
    """True iff every element strictly drops the primary cost lead to trail."""
    if not gb.order.costs:
        return True
    return all(gb.order.cost_drop(g) > 0 for g in gb.elements)


def _resolved_by_costs(order: TermOrder, g: Binomial) -> bool:
    v = g.vector()
    for w in order.costs:
        if sum(wi * vi for wi, vi in zip(w, v)) != 0:
            return True
    return False


def non_optimal_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    """The ideal of all monomials beaten within their fiber.

    A point is non-optimal when some fiber-mate is strictly better under
    the order's cost rows (the tiebreak does not participate).  When every
    basis element is resolved by the cost rows this is the leading-term
    ideal.  Otherwise the unresolved elements survive as binomials in the
    cost-initial ideal: the leading forms are completed to a basis of that
    ideal under the pure tiebreak order, and the monomials it contains are
    grown from the monomial elements by colon pullback until stable.
    """
    if not gb.elements:
        if gb.nvars is None:
            raise BadParameter("cannot size the zero ideal without cost rows")
        return MonomialIdeal(gb.nvars)
    n = gb.nvars
    forms: list[_Elt] = []
    all_monomial = True
    for g in gb.elements:
        if _resolved_by_costs(gb.order, g):
            forms.append((g.plus, None))
        else:
            forms.append((g.plus, g.minus))
            all_monomial = False
    if all_monomial:
        return MonomialIdeal(n, (g.plus for g in gb.elements))
    pure = TermOrder((), gb.order.tiebreak)
    completed = _buchberger_core(forms, pure.compare)
    monomials = [lead for lead, trail in completed if trail is None]
    binomials = [(lead, trail) for lead, trail in completed if trail is not None]
    ideal = MonomialIdeal(n, monomials)
    if ideal.is_zero:
        return ideal
    while True:
        grown = ideal
        for lead, trail in binomials:
            part1 = grown.colon_monomial(trail)
            part2 = grown.colon_monomial(lead)
            extra = [tuple(a + b for a, b in zip(g, lead)) for g in part1.gens]
            extra += [tuple(a + b for a, b in zip(g, trail)) for g in part2.gens]
            grown = grown.add(extra)
        if grown == ideal:
            return ideal
        ideal = grown


def ip_optimum(gb: GroebnerBasis, z) -> tuple[int, ...]:
    """Normal form of the exponent z: the optimal point of z's fiber."""
    cur = tuple(int(x) for x in z)
    if gb.nvars is not None and len(cur) != gb.nvars:
        raise BadParameter("starting point length does not match the variable count")
    if any(x < 0 for x in cur):
        raise BadParameter("negative exponent in starting point")
    changed = True
    while changed:
        changed = False
        for g in gb.elements:
            if divides(g.plus, cur):
                cur = tuple(c - p + m for c, p, m in zip(cur, g.plus, g.minus))
                changed = True
                break
    return cur
