"""Test-side reference implementations and cross-check oracles.

Nothing in the package uses these: they restate lattice membership, the
positive grading as its own linear program, saturation by every variable
in turn, rational solving, the comparison a term order's spec defines,
the Buchberger core, interreduction and normal forms on exponent tuples,
Buchberger without pair criteria, the non-optimal ideal by completing
the cost-initial forms, the maximal corners of a monomial ideal on
exponent tuples, standard pairs, colon, sum and intersection of monomial
ideals, the containment tests on monomial ideals and components, the
throwing form of the relaxation value, the Schrijver bound over every
maximal minor and the degree-bound link of a table model directly, so
tests can check the package's answers against them.  Each favours
the plain textbook construction over speed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from operator import le, lt, mul

from ipgap import lp
from ipgap.errors import BadParameter, EmptyFiber, UnboundedProgram
from ipgap.exactmath import IntMatrix, LatticeBasis, _scaled, hermite_normal_form
from ipgap.gapcore import gap_report
from ipgap.models import MarginalModel, entry_instance
from ipgap.monomial import IrreducibleComponent, MonomialIdeal, divides
from ipgap.toric import (
    Binomial,
    GroebnerBasis,
    TermOrder,
    _graded_revlex_spec,
    _split,
    _support,
)


# ------------------------------------------------------------------ lattices


def lattice_contains(basis: LatticeBasis, v) -> bool:
    """Does v lie in the integer column span of basis?"""
    if len(v) != basis.nrows:
        raise ValueError("length mismatch")
    h, _ = hermite_normal_form(basis.transpose())
    vec = list(v)
    rows = [r for r in h.rows if any(r)]
    for row in rows:
        c = next(j for j, x in enumerate(row) if x)
        if vec[c] % row[c] != 0:
            return False
        q = vec[c] // row[c]
        if q:
            vec = [a - q * b for a, b in zip(vec, row)]
    return not any(vec)


def lattice_span_equal(b1: LatticeBasis, b2: LatticeBasis) -> bool:
    """Do two column bases generate the same sublattice of Z^n?"""
    if b1.nrows != b2.nrows:
        return False

    def canon(b: LatticeBasis):
        h, _ = hermite_normal_form(b.transpose())
        return tuple(r for r in h.rows if any(r))

    return canon(b1) == canon(b2)


def positive_orthogonal_weight(columns) -> tuple[int, ...] | None:
    """toric._positive_orthogonal_weight as a program of its own.

    min sum(w) over n free w with col.w = 0 for every column and the rows
    -w_i <= -1, its optimal point scaled to integers; None if infeasible.
    """
    n = len(columns[0])
    prob = lp.LPProblem(
        objective=(1,) * n,
        sense="min",
        eq=tuple((tuple(col), 0) for col in columns),
        ub=tuple(
            (tuple(-1 if j == i else 0 for j in range(n)), -1) for i in range(n)
        ),
        free=(True,) * n,
    )
    sol = lp.solve(prob)
    if sol.status != lp.OPTIMAL:
        return None
    return tuple(_scaled(sol.x)[0])


def lattice_ideal_generators(basis: LatticeBasis) -> tuple[Binomial, ...]:
    """toric.lattice_ideal_generators with one round per variable.

    Saturates by every variable in turn, highest index first, each round
    one Groebner basis by tuple_buchberger_core under the weights-graded
    order with the target variable revlex-cheapest, then that variable
    divided out; finite-index lattices are lifted by one homogenizing
    variable.  Returns the same generator set in the same order as the
    package.
    """
    columns = [c for c in basis.columns() if any(c)]
    if not columns:
        return ()
    n = basis.nrows
    weights = positive_orthogonal_weight(columns)
    if weights is None:
        columns = [v + (-sum(v),) for v in columns]
        weights = (1,) * (n + 1)
    elements = [_split(v) for v in columns]
    for i in range(len(weights) - 1, -1, -1):
        cmp = comparator(*_graded_revlex_spec(weights, i))
        reduced = tuple_buchberger_core(elements, cmp)
        elements = []
        for lead, trail in reduced:
            k = min(lead[i], trail[i])
            lead = tuple(x - k if j == i else x for j, x in enumerate(lead))
            trail = tuple(x - k if j == i else x for j, x in enumerate(trail))
            if lead != trail:
                elements.append((lead, trail))
    vectors = set()
    for lead, trail in elements:
        v = tuple(a - b for a, b in zip(lead[:n], trail[:n]))
        if any(v):
            vectors.add(max(v, tuple(-x for x in v)))
    out = map(Binomial.from_vector, vectors)
    return tuple(sorted(out, key=lambda b: (sum(b.plus) + sum(b.minus), b.plus, b.minus)))


def solve_rational(a: IntMatrix, b) -> tuple[Fraction, ...] | None:
    """One rational solution x of a.x = b, or None if inconsistent.

    Free coordinates are set to zero.
    """
    nr, nc = a.nrows, a.ncols
    m = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a.rows, b)]
    piv_cols: list[int] = []
    r = 0
    for c in range(nc):
        sel = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, nr):
        if m[i][nc] != 0:
            return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(piv_cols):
        x[c] = m[i][nc]
    return tuple(x)


# ------------------------------------------------------------------ groebner


def orient(a, b, cmp):
    """(a, b) with its larger side first under cmp; None if a == b."""
    c = cmp(a, b)
    if c == 0:
        return None
    return (a, b) if c > 0 else (b, a)


def _tuple_divisor(m, basis, masks, skip=-1):
    outside = ~_support(m)
    for i, mask in enumerate(masks):
        if not mask & outside and i != skip and divides(basis[i][0], m):
            return i
    return None


def _tuple_head_reduce(elt, basis, masks, cmp, skip=-1):
    lead, trail = elt
    while (k := _tuple_divisor(lead, basis, masks, skip)) is not None:
        gl, gt = basis[k]
        lead = tuple(l - a + b for l, a, b in zip(lead, gl, gt))
        if trail is not None:
            c = cmp(lead, trail)
            if c == 0:
                return None
            if c < 0:
                lead, trail = trail, lead
    return (lead, trail)


def comparator(rows, degree, sequence):
    """cmp(a, b) in {-1, 0, 1} for the order TermOrder.spec spells.

    From the order's definition: the first of rows, then degree unless
    None, on which a and b differ decides, the larger dot product
    winning; then the first (variable, direction) pair of sequence whose
    variable's exponents differ, the larger exponent winning for
    direction 1 and losing for -1.
    """
    weights = rows if degree is None else rows + (degree,)

    def cmp(a, b) -> int:
        for w in weights:
            d = sum(map(mul, w, a)) - sum(map(mul, w, b))
            if d:
                return 1 if d > 0 else -1
        for i, s in sequence:
            if a[i] != b[i]:
                return s if a[i] > b[i] else -s
        return 0

    return cmp


def normal_form(gb: GroebnerBasis, z) -> tuple[int, ...]:
    """toric.ip_optimum by reduction on exponent tuples: no field width."""
    basis = [(g.plus, g.minus) for g in gb.elements]
    masks = [_support(lead) for lead, _ in basis]
    return _tuple_head_reduce((tuple(z), None), basis, masks, None)[0]


def tuple_buchberger_core(elements, cmp):
    """toric._buchberger_core on exponent tuples and a comparator.

    elements are binomials (a, b) in either orientation, zero ones
    skipped; cmp is the order, comparator of the core's spec.  The same
    pair criteria as the package's core, Gebauer and Moeller's M and F
    and the coprime-lead criterion, and the same interreduction, but
    every input is inserted up front, no pair is skipped for a saturated
    variable, every binomial is a pair of tuples oriented by cmp, and
    leads are compared coordinate by coordinate through divides and lcm
    tuples, behind support bitmasks, instead of as packed ints: no field
    width, so no widening.  Returns the reduced basis the package's core
    returns, element for element, since it is unique.
    """
    basis = []
    for a, b in elements:
        e = orient(a, b, cmp)
        if e is not None and e not in basis:
            basis.append(e)
    masks = [_support(lead) for lead, _ in basis]
    heap: list = []
    counter = itertools.count()

    def add_pairs(new):
        # the minimal lcms of the pairs (k, new) seen so far, each as
        # [lcm, lead_c where it exceeds lead_new else 0, support of that,
        #  first k with this lcm, whether a coprime pair has it]
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
        (fl, ft), (gl, gt) = basis[i], basis[j]
        m1 = tuple(x - a + b for x, a, b in zip(l, fl, ft))
        m2 = tuple(x - a + b for x, a, b in zip(l, gl, gt))
        s = orient(m2, m1, cmp)
        if s is None:
            continue
        s = _tuple_head_reduce(s, basis, masks, cmp)
        if s is None:
            continue
        basis.append(s)
        masks.append(_support(s[0]))
        add_pairs(len(basis) - 1)
    return interreduce(basis, cmp)


def interreduce(basis, cmp):
    """The reduced basis of the ideal a Groebner basis generates.

    basis holds oriented binomials (lead, trail), cmp the order.  One
    element per minimal lead is kept, the earliest among equal leads,
    and each trail is reduced to its normal form modulo the kept ones;
    sorted as the package's core sorts its output.
    """
    masks = [_support(lead) for lead, _ in basis]
    keep: list = []
    kept_masks: list = []
    for i in sorted(range(len(basis)), key=lambda i: sum(basis[i][0])):
        if _tuple_divisor(basis[i][0], keep, kept_masks) is None:
            keep.append(basis[i])
            kept_masks.append(masks[i])
    out = [
        (lead, _tuple_head_reduce((trail, None), keep, kept_masks, cmp, skip=i)[0])
        for i, (lead, trail) in enumerate(keep)
    ]
    out.sort(key=lambda e: (sum(e[0]), e[0]))
    return out


def buchberger_core(elements, cmp):
    """toric._buchberger_core by textbook Buchberger on polynomials as dicts.

    elements are nonzero binomials (a, b) in either orientation, or
    monomials (m, None), which the package's core does not take; cmp
    finds each polynomial's lead.  Every pair is reduced (no
    criterion prunes any), divisibility is tested coordinate by
    coordinate, and the basis is made minimal and reduced only at the
    end.  Returns (lead, trail) pairs, trail None for a monomial, sorted
    by lead degree, then lead.
    """
    key = cmp_to_key(cmp)

    def lead(f):
        return max(f, key=key)

    def shift(m, q):
        return tuple(a + b for a, b in zip(m, q))

    def normal_form(f, basis):
        # basis holds (polynomial, its lead) pairs
        f, out = dict(f), {}
        while f:
            m = lead(f)
            for g, gl in basis:
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

    basis = []
    for l, t in elements:
        f = {l: Fraction(1)}
        if t is not None:
            f[t] = Fraction(-1)
        basis.append((f, lead(f)))
    # smallest lcm degree first: a selection order only, nothing is pruned
    pairs = []

    def add_pairs(j):
        for i in range(j):
            heapq.heappush(pairs, (sum(map(max, basis[i][1], basis[j][1])), i, j))

    for j in range(len(basis)):
        add_pairs(j)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        (f, fl), (g, gl) = basis[i], basis[j]
        lcm_e = tuple(map(max, fl, gl))
        s = {}
        for p, pl, sign in ((f, fl, 1), (g, gl, -1)):
            q = tuple(a - b for a, b in zip(lcm_e, pl))
            for t, c in p.items():
                t = shift(t, q)
                s[t] = s.get(t, 0) + sign * c / p[pl]
        r = normal_form({t: c for t, c in s.items() if c}, basis)
        if r:
            basis.append((r, lead(r)))
            add_pairs(len(basis) - 1)
    polys = [p for p, _ in basis]
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
    minimal = [(p, lead(p)) for p in minimal]
    out = []
    for p, pl in minimal:
        tail = normal_form({t: c for t, c in p.items() if t != pl}, minimal)
        assert set(tail.values()) <= {Fraction(-1)} and len(tail) <= 1
        out.append((pl, next(iter(tail), None)))
    out.sort(key=lambda e: (sum(e[0]), e[0]))
    return out


def non_optimal_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    """toric.non_optimal_ideal by completing the cost-initial forms.

    Each element's cost-initial form, its lead as a monomial when some
    cost row resolves it and the binomial itself when every row ties, is
    completed by buchberger_core under the pure tiebreak order to the
    reduced basis of in_c(I); its monomials are then grown by colon
    pullback along its binomials until stable.
    """
    if not gb.elements:
        if gb.nvars is None:
            raise BadParameter("cannot size the zero ideal without cost rows")
        return MonomialIdeal(gb.nvars)
    n = gb.nvars
    forms = []
    for g in gb.elements:
        v = g.vector()
        if any(sum(map(mul, w, v)) for w in gb.order.costs):
            forms.append((g.plus, None))
        else:
            forms.append((g.plus, g.minus))
    if all(trail is None for _, trail in forms):
        return MonomialIdeal(n, (g.plus for g in gb.elements))
    completed = buchberger_core(forms, comparator(*TermOrder((), gb.order.tiebreak).spec(n)))
    monomials = [lead for lead, trail in completed if trail is None]
    binomials = [(lead, trail) for lead, trail in completed if trail is not None]
    ideal = MonomialIdeal(n, monomials)
    if ideal.is_zero:
        return ideal
    while True:
        grown = ideal
        for lead, trail in binomials:
            part1 = colon_monomial(grown, trail)
            part2 = colon_monomial(grown, lead)
            extra = [tuple(a + b for a, b in zip(g, lead)) for g in part1.gens]
            extra += [tuple(a + b for a, b in zip(g, trail)) for g in part2.gens]
            grown = add_generators(grown, extra)
        if grown == ideal:
            return ideal
        ideal = grown


# ------------------------------------------------------------------- programs


def relaxation_value(a, b, c) -> Fraction:
    """lp.lp_value for callers that require an optimum to exist.

    Raises EmptyFiber when infeasible, UnboundedProgram when unbounded.
    """
    sol = lp.lp_value(a, b, c)
    if sol.status == lp.INFEASIBLE:
        raise EmptyFiber("relaxation is infeasible for this right-hand side")
    if sol.status == lp.UNBOUNDED:
        raise UnboundedProgram("relaxation is unbounded below")
    return sol.value


def maximal_minors(a: IntMatrix) -> list[int]:
    """Every maximal minor of a, in column-subset order, at its rank.

    The minors are those of the first maximal set of linearly independent
    rows, kept greedily in row order; the zero-rank matrix has none.
    """
    r = a.rank()
    if r == 0:
        return []
    kept: list = []
    for row in a.rows:
        trial = kept + [row]
        if IntMatrix(trial, a.ncols).rank() == len(trial):
            kept.append(row)
        if len(kept) == r:
            break
    return [
        IntMatrix([[row[j] for j in cols] for row in kept], r).det()
        for cols in itertools.combinations(range(a.ncols), r)
    ]


def schrijver_bound(a: IntMatrix, c) -> Fraction:
    """n D(A) sum|c_i| with D(A) the largest |maximal minor|, one det per subset."""
    c = tuple(Fraction(x) for x in c)
    if len(c) != a.ncols:
        raise BadParameter("cost length does not match the column count")
    minors = maximal_minors(a)
    if not minors:
        return Fraction(0)
    total = sum((abs(x) for x in c), Fraction(0))
    return a.ncols * max(map(abs, minors)) * total


# ---------------------------------------------------------- monomial ideals


def monomial_lcm(a, b) -> tuple[int, ...]:
    return tuple(max(x, y) for x, y in zip(a, b))


def add_generators(ideal: MonomialIdeal, gens) -> MonomialIdeal:
    """The sum of ideal and the ideal the monomials gens generate."""
    return MonomialIdeal(ideal.nvars, ideal.gens + tuple(tuple(g) for g in gens))


def colon_monomial(ideal: MonomialIdeal, q) -> MonomialIdeal:
    """The ideal quotient by a single monomial: (I : x^q)."""
    return MonomialIdeal(
        ideal.nvars,
        (tuple(max(gi - qi, 0) for gi, qi in zip(g, q)) for g in ideal.gens),
    )


def intersect(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    if i.nvars != j.nvars:
        raise BadParameter("variable count mismatch")
    if i.is_zero or j.is_zero:
        return MonomialIdeal(i.nvars)
    return MonomialIdeal(i.nvars, (monomial_lcm(g, h) for g in i.gens for h in j.gens))


def subset_of(i: MonomialIdeal, j: MonomialIdeal) -> bool:
    return all(j.contains(g) for g in i.gens)


def is_squarefree_generated(ideal: MonomialIdeal) -> bool:
    return all(x <= 1 for g in ideal.gens for x in g)


def leading_ideal(gb: GroebnerBasis) -> MonomialIdeal:
    return MonomialIdeal(gb.nvars, (g.plus for g in gb.elements))


def is_primitive(b: Binomial) -> bool:
    """The two supports are disjoint."""
    return all(p == 0 or m == 0 for p, m in zip(b.plus, b.minus))


def component_ideal(q: IrreducibleComponent) -> MonomialIdeal:
    """<x_i^(bound_i + 1) : i in support>."""
    n = q.nvars
    return MonomialIdeal(
        n, (tuple(q.bound[i] + 1 if j == i else 0 for j in range(n)) for i in q.support)
    )


def excludes(q: IrreducibleComponent, m) -> bool:
    """True when m is outside the component ideal (inside the box)."""
    return all(m[i] <= q.bound[i] for i in q.support)


def ideal_subset_of(q: IrreducibleComponent, other: IrreducibleComponent) -> bool:
    """Containment of the component ideals."""
    return set(q.support) <= set(other.support) and all(
        other.bound[i] <= q.bound[i] for i in q.support
    )


def intersection_of_components(comps, nvars: int) -> MonomialIdeal:
    ideal = None
    for q in comps:
        ideal = component_ideal(q) if ideal is None else intersect(ideal, component_ideal(q))
    if ideal is None:
        raise BadParameter("no components to intersect")
    return ideal


def tuple_maximal_corners(gens, nvars: int) -> list[tuple]:
    """monomial._maximal_corners on exponent tuples, rows in the same order.

    Each generator g splits the rows into those avoiding it (some
    coordinate below g's) and the stale rest; each stale row spawns one
    candidate per variable of g's support, capped at g_i - 1 there, and a
    candidate is kept when no other row or candidate dominates it.  Every
    comparison is coordinate by coordinate: no packing, no field width.
    """
    free = tuple(max(g[i] for g in gens) for i in range(nvars))
    rows = [free]
    for g in gens:
        keep, stale = [], []
        for row in rows:
            (keep if any(map(lt, row, g)) else stale).append(row)
        cands = list(
            dict.fromkeys(
                row[:i] + (gi - 1,) + row[i + 1 :]
                for row in stale
                for i, gi in enumerate(g)
                if gi
            )
        )
        pool = keep + cands
        rows = keep + [
            c
            for c in cands
            if not any(c != p and all(map(le, c, p)) for p in pool)
        ]
    return [tuple(None if x == f else x for x, f in zip(row, free)) for row in rows]


@dataclass(frozen=True, order=True)
class StandardPair:
    """A maximal free set of monomials outside an ideal.

    root is an exponent vector supported off free; the pair stands for all
    monomials root + w with w supported on free, none of which lie in the
    ideal, and no larger pair (bigger free set after zeroing, or different
    root giving a strictly larger family) stays outside.
    """

    root: tuple[int, ...]
    free: tuple[int, ...]


def _admissible(gens, root, free_set) -> bool:
    for g in gens:
        if not any(g[i] > root[i] for i in range(len(root)) if i not in free_set):
            return False
    return True


def standard_pairs(ideal: MonomialIdeal) -> tuple[StandardPair, ...]:
    """All standard pairs, by direct enumeration (exponential; small inputs).

    For the zero ideal this is the single pair with every variable free.
    The unit ideal has none.
    """
    n = ideal.nvars
    if ideal.is_zero:
        return (StandardPair((0,) * n, tuple(range(n))),)
    if ideal.is_unit:
        return ()
    gens = ideal.gens
    degree_cap = [max((g[i] for g in gens), default=0) for i in range(n)]
    pairs = []
    for free in itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(n + 1)
    ):
        free_set = set(free)
        fixed = [i for i in range(n) if i not in free_set]
        ranges = [range(max(degree_cap[i], 1)) for i in fixed]
        for combo in itertools.product(*ranges):
            root = [0] * n
            for i, v in zip(fixed, combo):
                root[i] = v
            root = tuple(root)
            if not _admissible(gens, root, free_set):
                continue
            maximal = True
            for i in fixed:
                bigger = root[:i] + (0,) + root[i + 1 :]
                if _admissible(gens, bigger, free_set | {i}):
                    maximal = False
                    break
            if maximal:
                pairs.append(StandardPair(root, tuple(free)))
    return tuple(sorted(pairs))


# ------------------------------------------------------------------ models


def entry_degree_bound_check(model: MarginalModel) -> bool:
    """Lower-bound sanity link between the gap and the generators.

    The minimization-sense gap plus one must cover the largest degree of
    the first variable in any minimal generator of the non-optimal ideal.
    """
    inst = entry_instance(model, "min")
    report = gap_report(inst)
    maxdeg = max((g[0] for g in inst.ideal.gens), default=0)
    return report.gap + 1 >= maxdeg
