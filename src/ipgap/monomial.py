"""Monomial ideals on exponent vectors.

Monomials are plain tuples of nonnegative ints.  A MonomialIdeal stores its
unique minimal generating set in a canonical order, so equality of objects
is equality of ideals.  irreducible_decomposition returns the irredundant
components ``<x_i^(bound_i + 1) : i in support>``; these are the data the
gap computation optimizes over.  Its inner loop, the maximal corners, runs
on exponent vectors packed into single ints (exactmath._Packing), so each
coordinatewise comparison is a few big-int operations whatever the
number of variables.  The layer reads nothing from the algebra above it:
it imports only errors and exactmath.
"""

from __future__ import annotations

from operator import le

from .errors import BadParameter, UnitIdeal, Value, ZeroIdeal
from .exactmath import _Packing

Monomial = tuple[int, ...]


def divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def minimal_generators(gens) -> tuple[Monomial, ...]:
    """Keep a generator unless one kept before it in degree order divides it.

    A proper divisor has the smaller degree, so it comes first; the kept
    generators are returned in canonical order.
    """
    keep: list[Monomial] = []
    for g in sorted(set(tuple(g) for g in gens), key=sum):
        if not any(divides(h, g) for h in keep):
            keep.append(g)
    return tuple(sorted(keep))


class MonomialIdeal(Value):
    nvars: int
    gens: tuple[Monomial, ...]

    def __init__(self, nvars: int, gens=()):
        gens = tuple(tuple(int(x) for x in g) for g in gens)
        for g in gens:
            if len(g) != nvars or any(x < 0 for x in g):
                raise BadParameter(f"bad exponent vector {g} for {nvars} variables")
        object.__setattr__(self, "nvars", int(nvars))
        object.__setattr__(self, "gens", minimal_generators(gens))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.nvars,)

    def contains(self, m: Monomial) -> bool:
        return any(divides(g, m) for g in self.gens)

    def __str__(self):
        return "<" + ", ".join(str(g) for g in self.gens) + ">"


class IrreducibleComponent(Value, order=True):
    """One component ``<x_i^(bound_i + 1) : i in support>``.

    bound is a full-length exponent vector, zero off the support.  The
    monomials OUTSIDE the component ideal are exactly those with
    ``m_i <= bound_i`` for every i in support, free elsewhere.
    """

    support: tuple[int, ...]
    bound: tuple[int, ...]

    def __init__(self, support, bound):
        support = tuple(sorted(int(i) for i in set(support)))
        bound = tuple(int(x) for x in bound)
        if support and not 0 <= support[0] <= support[-1] < len(bound):
            raise BadParameter("support indices must index the bound")
        for i, x in enumerate(bound):
            if x < 0 or (x > 0 and i not in support):
                raise BadParameter("bound must be nonnegative and live on the support")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "bound", bound)

    @property
    def nvars(self) -> int:
        return len(self.bound)


def _maximal_corners(gens: tuple[Monomial, ...], nvars: int) -> list[tuple]:
    """Maximal bound vectors whose box misses every generator.

    A box ``{m : m_i <= u_i for all i}`` (with u_i = None meaning no cap)
    avoids the generator g exactly when u_i < g_i somewhere, so the boxes
    avoiding the whole ideal form a downward-closed set.  Its maximal
    elements are built one generator at a time: rows already avoiding g
    survive unchanged, and each stale row R (one with R >= g) spawns one
    candidate per variable i in g's support, R capped just below g there.
    The rows form an antichain, so a candidate is maximal exactly when no
    old row but R dominates it: a candidate c' of R' that dominates c
    gives R' >= c' >= c, and no two candidates coincide.  An old row q
    other than R dominates R's candidate at i exactly when q >= R on every
    variable but i, where q_i < R_i, and q_i >= g_i - 1; so one pass over
    the old rows per stale row, keeping the largest q_i of such rows for
    each i, decides all of R's candidates at once.  Surviving old rows
    never become dominated because candidates only shrink existing rows.

    While building, "no cap" on variable i is the largest exponent of x_i
    among the generators: no generator exceeds it, so it avoids none, and
    every real cap g_i - 1 lies below it.  Rows and generators are ints
    of exactmath._Packing at a width that holds those largest exponents,
    so R >= g, the variables where q falls below R and a candidate are
    each a few big-int operations; rows are unpacked only at the end.
    """
    free = tuple(map(max, *gens)) if len(gens) > 1 else gens[0]
    packing = _Packing(nvars, max(free).bit_length() or 1)
    w, top, guards, shifts = packing.w, packing.top, packing.guards, packing.shifts
    rows = [packing.pack(free)]
    for g in gens:
        p = packing.pack(g)
        # (shift, cap g_i - 1, guard bit) of each variable in g's support
        caps = [(s, gi - 1, 1 << s + w) for s, gi in zip(shifts, g) if gi]
        pool = [row | guards for row in rows]
        keep = []
        cands = []
        for row, rg in zip(rows, pool):
            if (rg - p) & guards != guards:
                keep.append(row)
                continue
            # guard bit of i -> the largest q_i of the rows q that fall
            # below row on the one variable i
            reach: dict[int, int] = {}
            for q in pool:
                below = ~(q - row) & guards
                if below and not below & (below - 1):
                    x = q >> below.bit_length() - 1 - w & top
                    if x > reach.get(below, -1):
                        reach[below] = x
            for s, cap, bit in caps:
                if reach.get(bit, -1) < cap:
                    cands.append(row - ((row >> s & top) - cap << s))
        rows = keep + cands
    return [
        tuple(None if x == f else x for x, f in zip(packing.unpack(row), free))
        for row in rows
    ]


def irreducible_decomposition(ideal: MonomialIdeal) -> tuple[IrreducibleComponent, ...]:
    """Irredundant irreducible components, canonically ordered.

    The monomials outside each component form a box, and the intersection
    of the components equals the ideal exactly when those boxes are the
    maximal boxes inside the complement of the staircase.  Maximality
    makes the list irredundant: an irreducible ideal containing an
    intersection of monomial ideals contains one of them.
    """
    if ideal.is_zero:
        raise ZeroIdeal("the zero ideal has no irreducible decomposition")
    if ideal.is_unit:
        raise UnitIdeal("the unit ideal has no irreducible decomposition")
    comps = []
    for row in _maximal_corners(ideal.gens, ideal.nvars):
        support = [i for i, x in enumerate(row) if x is not None]
        bound = [0 if x is None else x for x in row]
        comps.append(IrreducibleComponent(support, bound))
    return tuple(sorted(comps))
