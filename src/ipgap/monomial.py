"""Monomial ideals on exponent vectors.

Monomials are plain tuples of nonnegative ints.  A MonomialIdeal stores its
unique minimal generating set in a canonical order, so equality of objects
is equality of ideals.  irreducible_decomposition returns the irredundant
components ``<x_i^(bound_i + 1) : i in support>``; these are the data the
gap computation optimizes over.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le, lt

from .errors import BadParameter, UnitIdeal, ZeroIdeal

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


@dataclass(frozen=True)
class MonomialIdeal:
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


@dataclass(frozen=True, order=True)
class IrreducibleComponent:
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
    survive unchanged, and each stale row spawns one candidate per
    variable in g's support, capped just below g there.  Candidates are
    kept only when nothing else dominates them; surviving old rows never
    become dominated because candidates only shrink existing rows.

    While building, "no cap" on variable i is the largest exponent of x_i
    among the generators: no generator exceeds it, so it avoids none, and
    every real cap g_i - 1 lies below it.
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
