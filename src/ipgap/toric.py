"""Lattice ideals, cost-refined term orders, Buchberger, non-optimal ideals.

A lattice program's algebra lives here: binomials x^plus - x^minus encode
lattice vectors, a TermOrder compares exponent vectors by one or more cost
rows and then a fixed tiebreak, buchberger() produces the unique reduced
basis, and non_optimal_ideal() reads off that basis the monomial ideal of
all exponent vectors that lose to a cheaper point in their own fiber: the
leads the cost rows resolve, closed in one worklist pass under pullback
along the elements they leave tied.  The Groebner core only ever holds
binomials.

Every order here is weight rows followed by a tiebreak sequence of
(variable, direction) pairs (Robbiano 1985): the triple (rows, degree row
or None, sequence) that TermOrder.spec holds, the one form in which the
Groebner core reads an order.  A TermOrder has at least one cost row;
saturation's graded orders are triples with no row, built directly
(_graded_revlex_spec).  The first of the rows, then the degree row, on
which two monomials differ decides, the larger dot product
winning; between monomials equal on every row, the first variable of the
sequence in which they differ decides: direction 1 favours the larger
exponent, -1 the smaller.  Every sequence here has one direction
throughout.  On n variables, lex is (x1, 1), ..., (xn, 1); grlex is the
same after the degree row (1, ..., 1); grevlex is (xn, -1), ...,
(x1, -1) after the degree row, and revgrevlex (x1, -1), ..., (xn, -1).
TermOrder.refined spells the same sequence as rows after the costs: the
degree row, if any, then the row direction * e_x for each pair, the last
pair dropped when the degree fixes it.  Saturation uses the w-graded
order with sequence (x_cheap, -1), then (x, -1) for the other variables
from xn down.

The lattice ideal is the saturation of the ideal of a lattice basis by
every variable.  A lattice on more than six coordinates is saturated by
project-and-lift (Hemmecke and Malkin 2009): the ideal of its projection
onto a pointed coordinate set first, then one round per other
coordinate, each saturating only that coordinate's new variable.  A
smaller lattice, and the projection, are saturated variable by
variable, and a variable needs no round of its own once the lemma of
_close_saturated proves the current ideal saturated in it: if I is
saturated in the variables of S and holds x^u - x^w with supp(u) in S,
then I is saturated in supp(w).  The generators returned are the reduced
basis under one fixed order, the grading with the first variable
revlex-cheapest, so they do not depend on which rounds ran.  Each round
completes homogeneously: its inputs, the basis the round before left,
enter one by one in order of weights-degree and are dropped when the
basis so far already reduces them to zero, and an S-pair whose two
sides share a variable the ideal is proven saturated in is never queued
(_buchberger_core states why that is sound).  Only rounds on x_0 reduce
trails (_saturation_round).

Inside the Groebner core both sides of every binomial are held as ints,
exactmath._Packing's layout: n fields of w bits, each under a guard bit,
laid out in the order's sequence, its first variable in the most
significant field.  Every exponent is below 2^w, so divisibility, the
lcm of two leads and the fields where a monomial is nonzero are each a
few big-int operations whatever n is, and so are the S-binomial of f and
g at their lcm l, x^(T_g + l - L_g) - x^(T_f + l - L_f), and a reduction
step q -> q - L_k + T_k.  Fields compare from the top, so between two
monomials tied on every row the order is one int comparison: the larger
int is the larger monomial for direction 1, the smaller int for -1,
which covers every saturation round, grevlex and revgrevlex.  The rows
are carried instead of recomputed: each binomial holds its drop
D = W*.(lead - trail), where W* (_drop_weights) packs the order's rows,
the degree row last, into one int row at a spacing that no drop of
exponents below 2^w reaches, so the sign of D is that of the first row
on which the sides differ.  The S-binomial of f and g has drop
D_f - D_g, a step by g turns D into D - D_g, and only a zero drop leaves
the decision to the packed comparison.  A saturation round's inputs are
homogeneous in its only row, so its drops are all zero.  Each basis
element keeps its lead's weights-degree as an int, and a queued pair's
degree is that of the newer lead plus the grading over the nonzero
fields of the packed (lead_k - lead_new)^+, the part of the lcm the
newer lead lacks.  The width starts two bits above the input's largest
exponent, and any side of any binomial that outgrows it, lead or trail,
reruns the completion at twice the width, so no field width caps an
exponent.

Cost rows may have negative entries, so the refined comparison is not a
global well-order.  Every comparison Buchberger makes here is between two
monomials in the same fiber, where the precondition checks (no direction of
negative cost in the nonnegative kernel cone, and a graded tiebreak when a
zero-cost nonnegative direction exists) make the order well-founded; the
checks run up front and reject bad inputs instead of looping forever.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain
from math import gcd, lcm
from operator import mul

from . import lp
from .errors import BadParameter, NonTerminatingOrder, UnboundedProgram, Value
from .exactmath import LatticeBasis, _dots, _Packing, _scaled, _span_basis
from .monomial import Monomial, MonomialIdeal, divides


class Binomial(Value):
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


TIEBREAKS = ("grevlex", "grlex", "lex", "revgrevlex")


def _tiebreak(name: str, n: int):
    """A tiebreak on n variables as (degree row or None, sequence).

    The one place a tiebreak's name is read; see the module docstring.
    """
    if name not in TIEBREAKS:
        raise BadParameter(f"unknown tiebreak {name!r}")
    degree = None if name == "lex" else (1,) * n
    if name in ("lex", "grlex"):
        return degree, tuple((i, 1) for i in range(n))
    variables = reversed(range(n)) if name == "grevlex" else range(n)
    return degree, tuple((i, -1) for i in variables)


class TermOrder(Value):
    """Compare exponent vectors by cost rows in sequence, then a tiebreak.

    cost may be a single rational vector (the usual case) or a sequence of
    vectors applied lexicographically; the latter expresses optimality
    notions like "degree lexicographically smallest", where the ordering
    itself defines the optimum.  Every order has at least one cost row:
    an empty cost raises BadParameter.  The tiebreak is grevlex, grlex or
    lex, all reading the variables as x1 > x2 > ... > xn, or revgrevlex,
    which is grevlex over the reversed variable list: after degree, ties
    go to the point with more mass on early variables.

    spec is the order as the Groebner core reads it (see the module
    docstring): the cost rows scaled to integers, then the tiebreak's
    degree row and sequence.  Equality and hashing read costs and
    tiebreak only.
    """

    costs: tuple[tuple[Fraction, ...], ...]
    tiebreak: str

    def __init__(self, cost, tiebreak: str = "grevlex"):
        cost = tuple(cost)
        if not cost:
            raise BadParameter("order has no cost rows")
        if not isinstance(cost[0], (tuple, list)):
            cost = (cost,)
        rows = tuple(tuple(Fraction(x) for x in row) for row in cost)
        if len({len(r) for r in rows}) > 1:
            raise BadParameter("cost rows of unequal length")
        object.__setattr__(self, "costs", rows)
        object.__setattr__(self, "tiebreak", tiebreak)
        ints = tuple(tuple(_scaled(r)[0]) for r in rows)
        object.__setattr__(self, "spec", (ints,) + _tiebreak(tiebreak, len(rows[0])))

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

        Its spec is TermOrder(cost, tiebreak)'s, which sorts points as the
        spelled-out rows do with fewer rows to weigh.  But because the
        tiebreak rows are part of the cost sequence, tie resolution counts
        as optimality: the non-optimal ideal becomes the full leading-term
        ideal rather than its strictly-suboptimal part.
        """
        base = cls(cost, tiebreak)
        n = base.nvars
        _, degree, sequence = base.spec
        rows = list(base.costs)
        if degree is not None:
            rows.append(degree)
        # a fixed degree determines the sequence's last variable
        for i, s in sequence[: n - (degree is not None)]:
            rows.append(tuple(s if j == i else 0 for j in range(n)))
        order = cls(tuple(rows), tiebreak)
        object.__setattr__(order, "spec", base.spec)
        return order

    @property
    def cost(self) -> tuple[Fraction, ...]:
        """The primary cost row (what gap values are measured in)."""
        return self.costs[0]

    @property
    def nvars(self) -> int:
        return len(self.costs[0])


class GroebnerBasis(Value):
    """Reduced basis; each element's plus side is its leading term."""

    elements: tuple[Binomial, ...]
    order: TermOrder

    @property
    def nvars(self) -> int:
        return self.elements[0].nvars if self.elements else self.order.nvars


# inside the Groebner core a binomial is (lead, trail, drop): both sides
# packed, drop = W*.(lead - trail) (see the module docstring); a monomial
# being reduced is (m, None, 0).  A basis packed for monomial reduction
# alone (ip_optimum) keeps every drop 0, since that reads none
_Elt = tuple[int, int, int]


class _Overflow(Exception):
    """A monomial of a completion or a normal form outgrew the field width."""


def _support(m: Monomial) -> int:
    """Bitmask of the variables m uses."""
    mask = 0
    for i, x in enumerate(m):
        if x:
            mask |= 1 << i
    return mask


def _width(monomials) -> int:
    """Starting field width: two bits above the largest exponent."""
    return max(4, max(map(max, monomials)).bit_length() + 2)


def _drop_weights(rows, degree, w: int):
    """W*, one int row that reads every row of rows and degree at once.

    With W the rows followed by the degree row (if any), W* = sum over k
    of W_k 2^(m (R - 1 - k)) for R rows, m one bit above the largest
    |W_k.(a - b)| that exponents below 2^w allow, so the sign of W*.(a - b)
    is that of the first nonzero W_k.(a - b).  W has a row: every spec
    carries a cost row or a degree row.
    """
    if degree is not None:
        rows = rows + (degree,)
    if len(rows) < 2:
        return rows[0]
    m = w + 1 + max(sum(map(abs, r)) for r in rows).bit_length()
    star = rows[0]
    for r in rows[1:]:
        star = tuple((s << m) + x for s, x in zip(star, r))
    return star


def _orient(a: int, b: int, drop: int, rev: bool) -> _Elt | None:
    """x^a - x^b with its larger side first, for drop = W*.(a - b); None if zero.

    A nonzero drop decides; between sides tied on every row the packed
    ints decide, the smaller one larger when rev (direction -1).
    """
    if drop > 0:
        return a, b, drop
    if drop < 0:
        return b, a, -drop
    if a == b:
        return None
    return (a, b, 0) if (a < b) == rev else (b, a, 0)


def _orient_one(a: Monomial, b: Monomial, spec) -> tuple[Monomial, Monomial]:
    """The nonzero binomial x^a - x^b with its larger side first, unpacked.

    _orient's rule read off the tuples, for a core call too small to
    pack: the first row of spec, the degree row last, on which a and b
    differ decides, and then the sides read in layout order, which
    compare as lists as their packed ints would.
    """
    rows, degree, sequence = spec
    for r in rows if degree is None else rows + (degree,):
        d = sum(map(mul, r, a)) - sum(map(mul, r, b))
        if d:
            return (a, b) if d > 0 else (b, a)
    smaller = [a[i] for i, _ in sequence] < [b[i] for i, _ in sequence]
    return (a, b) if smaller == (sequence[0][1] < 0) else (b, a)


def _divisor(q: int, packed: list[int], guards: int, skip: int = -1):
    """Index of the first packed lead but skip that divides the packed q.

    None if there is none.  A lead p divides q exactly when no field of
    (q | guards) - p borrows its guard.
    """
    q |= guards
    for i, p in enumerate(packed):
        if (q - p) & guards == guards and i != skip:
            return i
    return None


def _graded_fields(packing: _Packing, grading) -> dict[int, tuple[int, int]]:
    """The guard bit of each variable's field -> (the field's shift, its grading)."""
    return {1 << s + packing.w: (s, g) for s, g in zip(packing.shifts, grading)}


def _graded(r: int, fields: dict[int, tuple[int, int]], packing: _Packing) -> int:
    """grading . r for a packed r, one product per nonzero field of r.

    fields is _graded_fields(packing, grading); ((r | guards) - ones) &
    guards holds the guard bit of every nonzero field.
    """
    top, guards = packing.top, packing.guards
    nonzero = ((r | guards) - packing.ones) & guards
    total = 0
    while nonzero:
        bit = nonzero & -nonzero
        s, g = fields[bit]
        total += g * (r >> s & top)
        nonzero ^= bit
    return total


def _head_reduce(
    elt: tuple[int, int | None, int], basis: list[_Elt], packed: list[int],
    guards: int, rev: bool, skip: int = -1,
) -> tuple[int, int | None, int] | None:
    """Reduce elt until no lead of basis divides its lead; None for zero.

    packed holds basis's leads.  A step by element k turns the lead q
    into q - lead_k + trail_k and the drop D into D - D_k, and a binomial
    is then reoriented as _orient does; a monomial (m, None, 0) reduces
    to its normal form.  Raises _Overflow when a step leaves the field
    width.
    """
    lead, trail, drop = elt
    while (k := _divisor(lead, packed, guards, skip)) is not None:
        gl, gt, gd = basis[k]
        lead = lead - gl + gt
        if lead & guards:
            raise _Overflow
        drop -= gd
        if trail is None or drop > 0:
            continue
        if drop < 0:
            lead, trail, drop = trail, lead, -drop
        elif lead == trail:
            return None
        elif (lead < trail) != rev:
            lead, trail = trail, lead
    return lead, trail, drop


def _s_element(f: _Elt, g: _Elt, lcm: int, guards: int, rev: bool) -> _Elt | None:
    """The S-binomial of f and g at their packed lead lcm, oriented.

    x^(lcm - lead_g + trail_g) - x^(lcm - lead_f + trail_f), whose drop is
    D_f - D_g.  Raises _Overflow when a side leaves the field width.
    """
    fl, ft, fd = f
    gl, gt, gd = g
    m1 = ft + (lcm - fl)
    m2 = gt + (lcm - gl)
    if (m1 | m2) & guards:
        raise _Overflow
    return _orient(m2, m1, fd - gd, rev)


def _buchberger_core(
    elements: list[tuple[Monomial, Monomial]], spec, saturated: int = 0,
    reduce: bool = True,
) -> list[tuple[Monomial, Monomial]]:
    """Completion plus interreduction; deterministic output order.

    elements are binomials as (a, b) exponent pairs in either orientation;
    zero ones (a == b) are skipped.  spec is the order as TermOrder.spec
    gives it, (rows, degree, sequence), the sequence's pairs all of one
    direction.  Returns the reduced basis as (lead, trail) pairs; fewer
    than two inputs are oriented without a packing (_orient_one).
    reduce=False leaves trails unreduced: the minimal basis.

    Inputs and pairs wait in one heap, smallest degree first (the
    weights-degree of the degree row when spec has one, else the plain
    degree), ties by the packed lead or lcm: an input is head-reduced
    when it comes up and joins the basis only if it does not reduce to
    zero, so an input the earlier ones already generate queues no pairs.
    Pairs are pruned by the criteria of Gebauer and Moeller (J. Symbolic
    Comput. 6, 1988).  When an element is added, its pairs with the
    earlier elements are queued one per minimal lcm (criteria M and F),
    and not at all for an lcm that a pair with coprime leads attains.
    Criterion B is left out: on k4 it pruned 214 of 5,061 S-pairs at
    about a fifth of the completion's time.

    A saturation round passes a spec with no rows and its positive
    grading as the degree row, which its inputs are homogeneous in, and
    saturated, a bitmask of variables the ideal I the inputs generate is
    saturated in: homogeneous Buchberger (Bigatti, La Scala and Robbiano,
    J. Symbolic Comput. 27, 1999).  A pair whose S-binomial S has both
    sides divisible by some x_v of saturated is then never queued.
    Sound: taking inputs and pairs by nondecreasing weights-degree under
    a weights-graded order, when a pair of degree d comes up the basis is
    a Groebner basis of I in every degree below d.  S = x_v S', S' is in
    I because I is saturated in x_v, and S' has lower degree; so S' has a
    standard representation, and x_v times it is one of S.  The test
    reads S's sides before S is formed: an overflowed field reads as its
    low bits, nonzero only if the exponent is, so no pair is dropped
    wrongly, and a dropped S needs no widening.

    Every binomial is held packed, both sides, with its drop (see the
    module docstring).  When any side does not fit the width, which
    starts two bits above the input's largest exponent (_width), the
    completion reruns from the input at twice the width.
    """
    inputs = list(dict.fromkeys(e for e in elements if e[0] != e[1]))
    if len(inputs) < 2:
        # a single binomial is its own reduced basis
        return [_orient_one(a, b, spec) for a, b in inputs]
    layout = [i for i, _ in spec[2]]
    n = len(layout)
    w = _width(chain.from_iterable(inputs))
    while True:
        packing = _Packing(n, w, layout)
        try:
            return _reduced(inputs, spec, packing, saturated, reduce)
        except _Overflow:
            w *= 2


def _reduced(inputs, spec, packing: _Packing, saturated: int, reduce: bool):
    """_buchberger_core at one width; raises _Overflow past it.

    Interreduction: one element per minimal lead survives, the earliest
    among equal leads.  Visited by lead weights-degree (the grading is
    positive, so a proper divisor comes first), an element is kept iff no
    lead kept before it divides its own.  No kept lead divides another,
    so only the trails are reduced, and only when reduce is true: each to
    its normal form modulo the kept elements, a Groebner basis, so the
    reducers' order is immaterial.  A reduction step lowers a monomial in
    the order, so a trail's normal form stays below its lead.
    """
    basis, packed, degrees = _complete(inputs, spec, packing, saturated)
    guards, rev = packing.guards, spec[2][0][1] < 0
    keep: list[_Elt] = []
    kept: list[int] = []
    for i in sorted(range(len(basis)), key=degrees.__getitem__):
        if _divisor(packed[i], kept, guards) is None:
            keep.append(basis[i])
            kept.append(packed[i])
    out = []
    for i, (lead, trail, _) in enumerate(keep):
        if reduce:
            trail = _head_reduce((trail, None, 0), keep, kept, guards, rev, skip=i)[0]
        out.append((packing.unpack(lead), packing.unpack(trail)))
    out.sort(key=lambda e: (sum(e[0]), e[0]))
    return out


def _complete(
    inputs, spec, packing: _Packing, saturated: int
) -> tuple[list[_Elt], list[int], list[int]]:
    """The completed basis, its packed leads and their weights-degrees.

    For a pair (k, new) with d = (p_k | guards) - p_new, the guard bits
    ge = d & guards mark the fields where lead_k >= lead_new, ge - (ge >> w)
    fills those fields' exponent bits, and r = d & that mask is
    (lead_k - lead_new)^+; the lcm is p_new + r.  lcm(c, new) divides
    lcm(k, new) exactly when r_c divides r_k, and a divisor packs to a
    smaller int, so one pass over the distinct r in ascending order keeps
    the minimal ones.  The coprime pairs are those with r = p_k.  The
    degree is linear, so a queued pair's is the new lead's plus
    _graded(r); no lead is unpacked.  Raises _Overflow when a binomial
    leaves the field width.
    """
    rows, degree, sequence = spec
    w, guards, ones, pack = packing.w, packing.guards, packing.ones, packing.pack
    rev = sequence[0][1] < 0
    star = _drop_weights(rows, degree, w)
    grading = degree or (1,) * len(sequence)
    fields = _graded_fields(packing, grading)
    # the guard bits of the saturated variables' fields
    masked = sum(1 << s + w for v, s in enumerate(packing.shifts) if saturated >> v & 1)
    # the inputs oriented, a binomial given twice (in either orientation)
    # kept once
    oriented: dict[_Elt, None] = {}
    for a, b in inputs:
        drop = sum(map(mul, star, a)) - sum(map(mul, star, b))
        oriented.setdefault(_orient(pack(a), pack(b), drop, rev))
    starts = list(oriented)
    basis: list[_Elt] = []
    packed: list[int] = []
    degrees: list[int] = []
    # (degree, packed lcm, j, i) for a pair, (degree, packed lead, -1, i)
    # for input i: pairs pushed for one j have distinct lcms and j grows
    # with every push, so entries come up in the order of (degree, packed
    # monomial), inputs first, and then of queueing
    heap = [(_graded(e[0], fields, packing), e[0], -1, i) for i, e in enumerate(starts)]
    heapq.heapify(heap)

    def add_pairs(new):
        p_new, t_new, _ = basis[new]
        first: dict[int, int] = {}
        coprime = set()
        for k, p in enumerate(packed[:new]):
            d = (p | guards) - p_new
            ge = d & guards
            r = d & (ge - (ge >> w))
            first.setdefault(r, k)
            if r == p:
                coprime.add(r)
        minimal: list[int] = []
        deg_new = degrees[new]
        for r in sorted(first):
            rg = r | guards
            for q in minimal:
                if (rg - q) & guards == guards:
                    break
            else:
                minimal.append(r)
                k = first[r]
                # no pair for a coprime lcm, nor when S's sides t_new + r
                # and t_k + lcm - p_k share a saturated variable, whose
                # guard then survives subtracting ones in both
                if r in coprime or masked and (
                    (((t_new + r) | guards) - ones)
                    & (((basis[k][1] + p_new + r - packed[k]) | guards) - ones)
                    & masked
                ):
                    continue
                # lcm = lead_new + r, and the degree is linear
                l = deg_new + _graded(r, fields, packing)
                heapq.heappush(heap, (l, p_new + r, new, k))

    while heap:
        _, l, j, i = heapq.heappop(heap)
        if j < 0:
            s = starts[i]
        else:
            s = _s_element(basis[i], basis[j], l, guards, rev)
            if s is None:
                continue
        s = _head_reduce(s, basis, packed, guards, rev)
        if s is None:
            continue
        basis.append(s)
        packed.append(s[0])
        degrees.append(_graded(s[0], fields, packing))
        add_pairs(len(basis) - 1)
    return basis, packed, degrees


def check_order_preconditions(vectors, order: TermOrder) -> None:
    """Reject cost/order combinations for which no optimum need exist.

    Over the real span of the lattice vectors, the nonnegative cone is the
    recession cone of every fiber polyhedron.  A direction of negative
    primary cost there makes fibers unbounded below (UnboundedProgram); a
    nonzero direction of zero cost leaves infinitely many equal-cost points,
    which only a degree-compatible tiebreak well-orders (otherwise
    NonTerminatingOrder).  Both tests read the span's reduced echelon
    basis B, rank-many rows however many vectors come in.  The first is a
    feasibility system of rank-many equality rows: by Farkas's lemma no
    such direction has negative cost exactly when B y = B c has a solution
    y >= 0, a nonnegative cost agreeing with c on the span.  The second,
    run only under lex (the one tiebreak it can reject), is feasibility
    too: a zero-cost ray is some s = B^T (p - q) with c.s = 0 and
    sum(s) = 1 over p, q, s >= 0.  A passed check is remembered per
    span, primary cost and tiebreak, the only parts of the order it reads
    (the memo holds no TermOrder): a lattice basis checked before
    saturation spares the check of its saturated generators.
    """
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return
    if order.nvars != len(vectors[0]):
        raise BadParameter("cost length does not match the variable count")
    _check_span(_span_basis(vectors), order.cost, order.tiebreak)


@lru_cache(maxsize=64)
def _check_span(span: tuple[tuple[int, ...], ...], c, tiebreak: str) -> None:
    n = len(span[0])
    c = _scaled(c)[0]  # a positive multiple of c gives both systems' verdicts
    # some v = -B^T t >= 0 has c.v < 0 exactly when max (B c).t over
    # B^T t <= 0 is unbounded, that is (Farkas) when its dual
    # {y >= 0 : B y = B c} is empty
    if not lp.feasible(span, _dots(c, span)):
        raise UnboundedProgram(
            "the nonnegative kernel cone has a direction of negative cost; "
            "fibers are unbounded below"
        )
    if _tiebreak(tiebreak, n)[0] is not None:
        return  # a graded tiebreak well-orders the zero-cost directions
    # zero-cost ray: B^T p - B^T q - s = 0, c.s = 0, sum(s) = 1 over (p, q, s)
    r = len(span)
    rows = [
        [v[i] for v in span] + [-v[i] for v in span] + [-(j == i) for j in range(n)]
        for i in range(n)
    ]
    rows += [[0] * 2 * r + list(c), [0] * 2 * r + [1] * n]
    if lp.feasible(rows, (0,) * (n + 1) + (1,)):
        raise NonTerminatingOrder(
            "a nonzero nonnegative direction of zero cost exists; "
            "use a degree-compatible tiebreak (grevlex, grlex, or revgrevlex)"
        )


def buchberger(gens, order: TermOrder) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal the binomials generate.

    Checks the order preconditions first; see check_order_preconditions.
    """
    gens = tuple(gens)
    if len({g.nvars for g in gens}) > 1:
        raise BadParameter("binomials of unequal length")
    check_order_preconditions((g.vector() for g in gens), order)
    if not gens:
        return GroebnerBasis((), order)
    sides = [(g.plus, g.minus) for g in gens]
    core = _buchberger_core(sides, order.spec)
    return GroebnerBasis(tuple(Binomial(lead, trail) for lead, trail in core), order)


def _graded_revlex_spec(weights: tuple[int, ...], cheap: int) -> tuple:
    """w-graded order whose tiebreak makes variable `cheap` revlex-last.

    For w-homogeneous ideals this gives the classic saturation property:
    if the cheap variable divides a leading term it divides the whole
    element.
    """
    rest = tuple((i, -1) for i in reversed(range(len(weights))) if i != cheap)
    return (), tuple(weights), ((cheap, -1),) + rest


def _positive_orthogonal_weight(columns) -> tuple[int, ...] | None:
    """A strictly positive integer vector orthogonal to all columns, if any.

    w = 1 + y, y >= 0 the least-sum vertex of col.y = -col.1, scaled.
    """
    n = len(columns[0])
    sol = lp.lp_value(columns, [-sum(col) for col in columns], (1,) * n)
    if sol.status != lp.OPTIMAL:
        return None
    return tuple(_scaled([1 + y for y in sol.x])[0])


def _split(v) -> tuple[Monomial, Monomial]:
    """Positive and negative parts of an integer vector, as two exponents."""
    return tuple(max(x, 0) for x in v), tuple(max(-x, 0) for x in v)


def _saturation_round(
    elements: list[_Elt], weights: tuple[int, ...], i: int, saturated: int
) -> tuple[list[_Elt], bool]:
    """Generators of I : x_i^oo from weights-homogeneous generators of I.

    One Groebner basis under the weights-graded order with x_i
    revlex-cheapest, then x_i divided out of every element.  I must be
    saturated in the variables of the bitmask saturated, which lets the
    core drop the S-pairs those variables divide (see _buchberger_core).
    Also says whether any element was divided; if none was, I is
    saturated in x_i and the generators are its Groebner basis.

    Only a round on x_0 reduces trails: its basis may be the final one.
    Another divides its minimal basis, which suffices: x_i divided out of
    any Groebner basis of I under this order leaves one of I : x_i^oo
    (Bayer and Stillman).  That basis has the reduced one's leads, and x_i
    divides an element iff it divides its lead, so divided is unchanged;
    and it generates I, so the next round's mask and sides stay valid.
    """
    out = []
    divided = False
    basis = _buchberger_core(elements, _graded_revlex_spec(weights, i), saturated, i == 0)
    for lead, trail in basis:
        k = min(lead[i], trail[i])
        if k:
            divided = True
            lead = tuple(x - k if j == i else x for j, x in enumerate(lead))
            trail = tuple(x - k if j == i else x for j, x in enumerate(trail))
        if lead != trail:
            out.append((lead, trail))
    return out, divided


def _close_saturated(saturated: int, sides: list[tuple[int, int]]) -> int:
    """Every variable the lemma proves saturated, as a bitmask.

    If I is saturated in the variables of `saturated` and holds
    x^u - x^w with supp(u) among them, then I is saturated in supp(w):
    f x_j^k in I with w_j >= 1 gives f x^(kw) in I, x^(kw) = x^(ku)
    modulo I, so f x^(ku) is in I and f is.  sides holds the support
    masks (supp(u), supp(w)) of generators of I; either side may be u.
    """
    changed = True
    while changed:
        changed = False
        for a, b in sides:
            if not a & ~saturated and b & ~saturated:
                saturated |= b
                changed = True
            elif not b & ~saturated and a & ~saturated:
                saturated |= a
                changed = True
    return saturated


def _saturate_all_vars(elements: list[_Elt], weights: tuple[int, ...]) -> list[_Elt]:
    """Saturate in every variable, running rounds only where needed.

    elements must be weights-homogeneous binomials, x^(v+) - x^(v-) for
    the vectors v of a lattice basis.  The set S of variables the current
    ideal is proven saturated in starts at those no element uses and is
    closed by _close_saturated after every round; no round runs for a
    variable of S.  The next round's variable is the one whose addition
    to S grows the closure over the current elements most, ties to the
    highest index.  Saturation in one variable keeps the others, so once
    S holds every variable the ideal is the full saturation.  The result
    is its reduced basis under the graded order with x_0 revlex-cheapest:
    a final pass, unless the last round, on x_0, already left that basis.
    """
    n = len(weights)
    full = (1 << n) - 1
    sides = [(_support(lead), _support(trail)) for lead, trail in elements]
    saturated = full
    for a, b in sides:
        saturated &= ~(a | b)
    reduced = False
    while saturated != full:
        grown, i = max(
            (
                (_close_saturated(saturated | 1 << i, sides), i)
                for i in range(n)
                if not saturated >> i & 1
            ),
            key=lambda t: (t[0].bit_count(), t[1]),
        )
        elements, divided = _saturation_round(elements, weights, i, saturated)
        # a round on x_0 is the final pass already when it divided nothing
        # (its basis is the reduced one) or when it ran last in the
        # one-round-per-variable order, on an ideal saturated in the rest
        reduced = i == 0 and (not divided or saturated | 1 == full)
        sides = [(_support(lead), _support(trail)) for lead, trail in elements]
        saturated = _close_saturated(grown, sides)
    if elements and not reduced:
        elements, _ = _saturation_round(elements, weights, 0, full)
    return elements


# lattices on at most this many coordinates saturate in _saturate_all_vars
# alone, six because lifting does not pay below seven.  On kernels of random
# one- and two-row matrices (entries in [-6, 6], 150 per column count 3-7
# and seed, seeds 1-4, CPU on a 2-vCPU box), grouped by coordinates after
# homogenization, forced lifting took 1.3-2.6 times the direct CPU on three
# to five coordinates and tied on six (1.03-1.21 times on three seeds, 0.63-
# 0.69 on one).  Most six-column kernels homogenize to seven and are lifted.
_DIRECT_COORDINATES = 6


def _project_and_lift(columns, weights: tuple[int, ...]) -> list[_Elt]:
    """_saturate_all_vars's result for the lattice L the columns span.

    Project-and-lift (Hemmecke and Malkin, J. Symbolic Comput. 44, 2009).
    The pivot columns R of L's reduced echelon basis (_span_basis) fix a
    lattice vector, v_j = lam_j . v_R / den in ints for every coordinate
    j; so L projects one-to-one onto every coordinate set T holding R.
    T starts as R plus the highest-index other coordinates, as few as give
    the projection pi_T(L) a positive grading (_positive_orthogonal_weight,
    tried from one added coordinate up), and _saturate_all_vars gives
    generators of I_pi_T(L).  The other coordinates are then lifted from
    the highest index down.  A lift of j gives each generator its j
    exponents, v_j's positive part on the lead and negative part on the
    trail, and runs one _saturation_round on x_j alone, with no variable
    masked.  That round is sound: the lifted generators J satisfy
    J : x_j^oo = I_pi_T+j(L).  J lies in that lattice ideal, which is
    saturated.  Conversely, the two sides of a binomial of it have
    T-parts in one fiber of pi_T(L), joined by a path of moves along the
    generators; each move lifts to the one vector of L it comes from,
    whose j-coordinate injectivity fixes, so the lifted path joins the two
    sides, and times a high enough power of x_j it keeps the j-exponent
    nonnegative.  The round's weights-graded order needs a grading of the
    lifted lattice, made without a linear program from the grading w so
    far: a w - lam_j on T (lam_j sitting on R), with a the least positive
    integer that keeps it positive, and den on j.  A final pass on x_0
    under the weights of L itself then leaves the reduced basis the
    direct rounds leave, which is unique.
    """
    n = len(weights)
    span = _span_basis(columns)
    pivots = [next(j for j, x in enumerate(row) if x) for row in span]
    den = lcm(*(row[p] for row, p in zip(span, pivots)))
    rest = [j for j in reversed(range(n)) if j not in pivots]
    for t in range(1, len(rest) + 1):
        coords = sorted(pivots + rest[:t])
        grading = _positive_orthogonal_weight([[v[j] for j in coords] for v in columns])
        if grading is not None:
            break
    elements = _saturate_all_vars([_split([v[j] for j in coords]) for v in columns], grading)
    for j in rest[t:]:
        lam = [den // row[p] * row[j] for row, p in zip(span, pivots)]
        places = [coords.index(p) for p in pivots]
        at = bisect_left(coords, j)
        lifted = []
        for lead, trail in elements:
            vj = sum(c * (lead[q] - trail[q]) for c, q in zip(lam, places)) // den
            lifted.append((
                lead[:at] + (max(vj, 0),) + lead[at:],
                trail[:at] + (max(-vj, 0),) + trail[at:],
            ))
        a = 1 + max(0, *(c // grading[q] for c, q in zip(lam, places)))
        g = [a * x for x in grading]
        for c, q in zip(lam, places):
            g[q] -= c
        g.insert(at, den)
        content = reduce(gcd, g)
        grading = tuple(x // content for x in g)
        coords.insert(at, j)
        elements, _ = _saturation_round(lifted, grading, at, 0)
    elements, _ = _saturation_round(elements, weights, 0, (1 << n) - 1)
    return elements


def lattice_ideal_generators(basis: LatticeBasis) -> tuple[Binomial, ...]:
    """Generators of the saturated ideal of the lattice the columns span.

    The lattice itself is taken as given (no enlargement); saturation is of
    the ideal, removing the spurious components a raw basis ideal carries.
    When a strictly positive grading orthogonal to the lattice exists the
    saturation runs on the lattice itself; otherwise (finite-index
    lattices, say) on the lattice lifted by one homogenizing variable,
    mapped back after.  A lattice on at most _DIRECT_COORDINATES
    coordinates is saturated in every variable by _saturate_all_vars;
    a larger one by project-and-lift (_project_and_lift), which saturates
    a projection that needs few rounds and then one new variable per
    lifted coordinate.  The generators are those of the reduced basis
    under the grading with the first variable revlex-cheapest, whichever
    rounds ran.
    """
    columns = [c for c in basis.columns() if any(c)]
    if not columns:
        return ()
    n = basis.nrows
    weights = _positive_orthogonal_weight(columns)
    if weights is None:
        columns = [v + (-sum(v),) for v in columns]
        weights = (1,) * (n + 1)
    if len(weights) > _DIRECT_COORDINATES:
        elements = _project_and_lift(columns, weights)
    else:
        elements = _saturate_all_vars([_split(v) for v in columns], weights)
    vectors = set()
    for lead, trail in elements:
        v = tuple(a - b for a, b in zip(lead[:n], trail[:n]))
        if any(v):
            vectors.add(max(v, tuple(-x for x in v)))
    out = map(Binomial.from_vector, vectors)
    return tuple(sorted(out, key=lambda b: (sum(b.plus) + sum(b.minus), b.plus, b.minus)))


def is_generic(gb: GroebnerBasis) -> bool:
    """True iff the primary cost marks every element strictly.

    Each lead costs more than its trail.
    """
    return all(d > 0 for d in _dots(gb.order.cost, (g.vector() for g in gb.elements)))


def non_optimal_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    """The ideal of all monomials beaten within their fiber.

    A point is non-optimal when some fiber-mate is strictly better under
    the order's cost rows (the tiebreak does not participate): this is
    the monomial part of the cost-initial ideal in_c(I).  The cost-initial
    forms of the reduced basis are the reduced basis of in_c(I) under the
    tiebreak (Sturmfels, Groebner Bases and Convex Polytopes, Prop. 1.13):
    the lead of an element some cost row resolves, and an element tied on
    every cost row as it stands.  So the ideal is generated by the resolved
    leads, closed under pullback along the tied binomials: x^u - x^w in
    in_c(I), u its lead, and x^w m beaten make x^u m beaten.  One worklist
    pass builds that closure: each generator m found, in turn, has the
    image u + (m - w)^+ for every tied (u, w), and an image joins the list
    unless a generator found so far divides it.  The images are monotone
    in m, so those of a skipped multiple are multiples of images already
    formed; every join strictly grows the ideal, so the pass ends.  These
    images alone reach every beaten monomial M: the resolved leads and the
    tied binomials, each with its lead u first, are a Groebner basis of
    in_c(I) under the tiebreak, so M reduces to zero by steps
    M -> M - u + w along tied elements that end on a multiple of a
    resolved lead.  Walk that chain back: if M - u + w is a multiple of a
    listed generator g, then M - u >= (g - w)^+, so M is a multiple of
    g's image, which a listed generator divides.  When every element is
    resolved this is the leading-term ideal.
    """
    gens: list[Monomial] = []
    tied: list[_Elt] = []
    vectors = [g.vector() for g in gb.elements]
    drops = [_dots(w, vectors) for w in gb.order.costs]
    for k, g in enumerate(gb.elements):
        if any(d[k] for d in drops):
            gens.append(g.plus)
        else:
            tied.append((g.plus, g.minus))
    for m in gens:  # the list grows while it is walked: it is the worklist
        for u, w in tied:
            image = tuple(a + max(x - y, 0) for a, x, y in zip(u, m, w))
            if not any(divides(g, image) for g in gens):
                gens.append(image)
    return MonomialIdeal(gb.nvars, gens)


def ip_optimum(gb: GroebnerBasis, z) -> tuple[int, ...]:
    """Normal form of the exponent z: the optimal point of z's fiber.

    The basis and z are packed together at the width _width gives for
    both, and z is head-reduced as a monomial; a step past that width
    reduces again from z at twice the width, as _buchberger_core does.
    """
    cur = tuple(map(int, z))
    n = gb.nvars
    if len(cur) != n:
        raise BadParameter("starting point length does not match the variable count")
    if min(cur, default=0) < 0:
        raise BadParameter("negative exponent in starting point")
    if not gb.elements:
        return cur
    sides = [(g.plus, g.minus) for g in gb.elements]
    w = _width(chain([cur], *sides))
    while True:
        packing = _Packing(n, w)
        pack = packing.pack
        basis = [(pack(lead), pack(trail), 0) for lead, trail in sides]
        leads = [e[0] for e in basis]
        q = pack(cur)
        try:
            m = _head_reduce((q, None, 0), basis, leads, packing.guards, False)[0]
        except _Overflow:
            w *= 2
        else:
            return cur if m == q else packing.unpack(m)
