"""Cost-space structure of the gap: cones, subdivision, exploration.

The reduced basis, hence the non-optimal ideal, is constant on full
dimensional cones of cost space.  On one such cone the gap is the maximum
of finitely many linear forms, one per irreducible component, so the cone
subdivides into full-dimensional pieces on which a single component wins
and the gap function is linear.  A piece is found by a feasibility test:
by Gordan's theorem of the alternative, {c : h.c > 0 for every row h} is
nonempty exactly when no convex combination of the rows h is zero.  The
one form strictly largest at the cone's center, when there is one, skips
the test: the center is interior to the cone, so that form's region holds
it with every inequality strict.  This module computes the cone of a
basis and that subdivision, and walks cone to cone by reflecting
interior points across facets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul

from . import lp
from .errors import (
    BadParameter,
    DegenerateCone,
    MathDomainError,
    TrivialInstance,
    VerificationError,
)
from .exactmath import _primitive_vector, _scaled
from .gapcore import GapInstance, LatticeIdeal, gap_value
from .monomial import IrreducibleComponent
from .toric import GroebnerBasis, TermOrder, buchberger, is_generic


@dataclass(frozen=True)
class Cone:
    """Intersection of half-spaces {c : h.c >= 0}, h integral primitive."""

    nvars: int
    inequalities: tuple[tuple[int, ...], ...]

    def __init__(self, nvars: int, inequalities=()):
        rows = []
        for h in inequalities:
            h = _primitive_vector(h)
            if len(h) != nvars:
                raise BadParameter("inequality length does not match dimension")
            if any(h) and h not in rows:
                rows.append(h)
        object.__setattr__(self, "nvars", int(nvars))
        object.__setattr__(self, "inequalities", tuple(sorted(rows)))

    def contains(self, c) -> bool:
        c = tuple(Fraction(x) for x in c)
        if len(c) != self.nvars:
            raise BadParameter("point length does not match the cone's dimension")
        return all(
            sum((hi * ci for hi, ci in zip(h, c)), Fraction(0)) >= 0
            for h in self.inequalities
        )

    def interior_point(self) -> tuple[Fraction, ...] | None:
        """A canonical point with every inequality strict, or None.

        Minimizes the l1 norm subject to h.c >= 1; the scaled system is
        feasible exactly when the cone is full dimensional.
        """
        return _strict_point(self.nvars, self.inequalities)

    @cached_property
    def center(self) -> tuple[Fraction, ...] | None:
        """interior_point(), solved once per Cone object and kept."""
        return self.interior_point()


def _strict_point(n, rows) -> tuple[Fraction, ...] | None:
    if not rows:
        return (Fraction(0),) * n
    # variables (c, s): minimize sum s with -s <= c <= s and h.c >= 1
    zero_n = (0,) * n
    ub = [(tuple(-x for x in h) + zero_n, -1) for h in rows]
    for i in range(n):
        for sign in (1, -1):
            e = [0] * (2 * n)
            e[i], e[n + i] = sign, -1
            ub.append((tuple(e), 0))
    prob = lp.LPProblem(
        objective=zero_n + (1,) * n,
        sense="min",
        ub=tuple(ub),
        free=(True,) * n + (False,) * n,
    )
    sol = lp.solve(prob)
    if sol.status != lp.OPTIMAL:
        return None
    return sol.x[:n]


def _full_dimensional(n, rows) -> bool:
    """Whether {c : h.c > 0 for every row h} is nonempty (Gordan, 1873).

    It is empty exactly when some y >= 0 with sum y = 1 has sum y_h h = 0:
    n + 1 equality rows over one variable per row h.
    """
    cols = [tuple(h[j] for h in rows) for j in range(n)]
    return not lp.feasible(cols + [(1,) * len(rows)], (0,) * n + (1,))


@dataclass(frozen=True)
class GapFanPiece:
    """Sub-cone of a Groebner cone where one component's form is maximal."""

    cone: Cone
    winner: IrreducibleComponent
    linear_form: tuple[Fraction, ...]


def groebner_cone(gb: GroebnerBasis) -> Cone:
    """Closure of the costs reproducing this marked reduced basis."""
    n = gb.nvars
    if n is None:
        raise BadParameter("cannot size the cone of an empty basis without costs")
    return Cone(n, (g.vector() for g in gb.elements))


def _component_form(inst: GapInstance, comp, cost) -> tuple[Fraction, ...]:
    _, v = gap_value(comp, inst, cost=cost)
    return tuple(Fraction(u) - vi for u, vi in zip(comp.bound, v))


def gap_fan_subdivide(inst: GapInstance, cone: Cone | None = None) -> list[GapFanPiece]:
    """Split the instance's Groebner cone by which component wins.

    Every component's auxiliary optimum is computed once at the cone's
    canonical interior point, giving a linear form; the full-dimensional
    regions of the resulting max-of-linear-forms envelope are the pieces.
    A form's region (the cone's inequalities and the form's dominance over
    every other form) is tested by one Gordan system of n + 1 equality
    rows (_full_dimensional); no point of it is computed.  The form that
    is strictly largest at the center, if one is, needs no test: the
    center satisfies every inequality of its region strictly.
    When the instance's own cost is another point, linearity of each
    component's value is re-verified there, so a vertex jump inside the
    cone cannot pass silently.  cone, when given, must be the instance's
    Groebner cone; its kept center is then reused.
    """
    if not inst.components:
        raise TrivialInstance("the non-optimal ideal is zero; nothing to subdivide")
    own = groebner_cone(inst.groebner)
    if cone is None:
        cone = own
    elif cone != own:
        raise BadParameter("the cone given is not the instance's Groebner cone")
    center = cone.center
    if center is None:
        raise DegenerateCone("the Groebner cone has empty interior")
    # at the center itself the check is an identity, value = form . center,
    # and the instance's own set-up serves the forms
    check_linear = tuple(inst.cost) != center
    at = center if check_linear else None
    forms = []
    for comp in inst.components:
        form = _component_form(inst, comp, at)
        if check_linear:
            value_here, _ = gap_value(comp, inst)
            linear_here = sum(
                (fi * ci for fi, ci in zip(form, inst.cost)), Fraction(0)
            )
            if value_here != linear_here:
                raise VerificationError(
                    f"auxiliary optimum of the component on support {comp.support} "
                    "moves within the cone; its gap value is not linear here"
                )
        forms.append((comp, form))
    distinct = []
    for comp, form in forms:
        if form not in (f for _, f in distinct):
            distinct.append((comp, form))
    at_center = [sum(map(mul, form, center)) for _, form in distinct]
    top = max(at_center)
    winner = at_center.index(top) if at_center.count(top) == 1 else None
    pieces = []
    for k, (comp, form) in enumerate(distinct):
        dominance = [
            tuple(a - b for a, b in zip(form, other))
            for _, other in distinct
            if other != form
        ]
        region = cone.inequalities + tuple(_primitive_vector(d) for d in dominance)
        if k != winner and not _full_dimensional(inst.nvars, region):
            continue
        pieces.append(GapFanPiece(Cone(inst.nvars, region), comp, form))
    return pieces


# exploration runs after the seeds when neither caller nor instance caps them
DEFAULT_BUDGET = 200


def explore_cones(
    a, seeds, budget: int = DEFAULT_BUDGET
) -> list[tuple[GroebnerBasis, Cone]]:
    """Discover distinct marked bases by reflecting across cone facets.

    Runs the basis computation at every seed, then repeatedly takes a
    discovered cone's interior point and pushes it across each facet
    (progressively further when the first landing spot is degenerate),
    recomputing at each new cost.  budget caps the exploration runs after
    the seeds.  Complete exactly when the walk closes; callers asserting
    completeness must know their fan.
    """
    if budget < 0:
        raise BadParameter("the exploration budget must be nonnegative")
    gens = LatticeIdeal.from_matrix(a).generators
    found: dict = {}
    queue: list = []

    def register(gb: GroebnerBasis):
        key = tuple((g.plus, g.minus) for g in gb.elements)
        if key not in found:
            found[key] = (gb, groebner_cone(gb))
            queue.append(key)
        return key

    for seed in seeds:
        gb = buchberger(gens, TermOrder(seed, "grevlex"))
        if not is_generic(gb):
            raise BadParameter(f"seed cost ({', '.join(map(str, seed))}) is not generic")
        register(gb)

    runs = 0
    while queue:
        key = queue.pop(0)
        gb, cone = found[key]
        center = cone.center
        if center is None:
            continue
        p, _ = _scaled(center)
        for h in cone.inequalities:
            hh = sum(x * x for x in h)
            hp = sum(x * y for x, y in zip(h, p))
            for k in (2, 3, 4, 5, 6):
                if runs >= budget:
                    return _sorted_cones(found)
                cand = tuple(hh * pi - k * hp * hi for pi, hi in zip(p, h))
                if not any(cand):
                    continue
                runs += 1
                try:
                    nxt = buchberger(gens, TermOrder(cand, "grevlex"))
                except MathDomainError:
                    continue
                if not is_generic(nxt):
                    continue
                if register(nxt) != key:
                    break
    return _sorted_cones(found)


def _sorted_cones(found) -> list[tuple[GroebnerBasis, Cone]]:
    return [found[k] for k in sorted(found)]
