"""Worst-case gap between integer programs and their linear relaxations.

For a matrix A and cost c, every right-hand side b defines an integer
program over the fiber {z >= 0 integer : Az = b} and a relaxation over the
same polyhedron without integrality.  The gap of the instance is the
supremum of IP(b) - LP(b) over all feasible b.  It is computed here
without touching any b at all: the non-optimal monomial ideal is
decomposed into irreducible components, each component contributes the
value of one small linear program over the lattice coefficients, and the
gap is the largest contribution.  A witness right-hand side attaining the
gap is reconstructed from the winning component's optimum and re-checked
exactly before it is reported.

Everything also works for a plain lattice in place of ker(A): fibers are
then residue classes z + L, which is the strictly wider setting (finite
index lattices are kernels of no integer matrix).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import floor
from operator import mul
from typing import NamedTuple

from . import lp
from .errors import BadParameter, UnboundedAux, UnboundedProgram, WitnessMismatch
from .exactmath import (
    IntMatrix,
    LatticeBasis,
    _dots,
    _echelon,
    _max_maximal_minor,
    _scaled,
    kernel_lattice,
)
from .monomial import (
    IrreducibleComponent,
    MonomialIdeal,
    irreducible_decomposition,
)
from .toric import (
    Binomial,
    GroebnerBasis,
    TermOrder,
    buchberger,
    check_order_preconditions,
    ip_optimum,
    lattice_ideal_generators,
    non_optimal_ideal,
)


def _as_order(cost, tiebreak: str) -> TermOrder:
    if isinstance(cost, TermOrder):
        return cost
    return TermOrder(cost, tiebreak)


LATTICE_MEMO_SIZE = 64


@dataclass(frozen=True)
class LatticeIdeal:
    """The cost-independent layer: a lattice and its saturated ideal.

    matrix is None for a lattice given directly, else lattice is its
    canonical kernel basis; lattice columns generate the fibers'
    difference set.  generators are saturated on first read, a matrix's
    by the ideal of its kernel basis, and max_minor, the D(A) of the
    Schrijver bound, is computed on first read too, so every cost's bound
    shares one minor walk.  from_matrix and from_lattice share one object
    per matrix or basis via a bounded memo.
    """

    matrix: IntMatrix | None
    lattice: LatticeBasis

    @classmethod
    def from_matrix(cls, a: IntMatrix) -> "LatticeIdeal":
        return _lattice_ideal(a if isinstance(a, IntMatrix) else IntMatrix(a), None)

    @classmethod
    def from_lattice(cls, l: LatticeBasis) -> "LatticeIdeal":
        return _lattice_ideal(None, l if isinstance(l, IntMatrix) else IntMatrix(l))

    @cached_property
    def generators(self) -> tuple[Binomial, ...]:
        if self.matrix is not None:
            return LatticeIdeal.from_lattice(self.lattice).generators
        return lattice_ideal_generators(self.lattice)

    @cached_property
    def max_minor(self) -> int:
        """D(A), the largest |det| over the matrix's maximal minors.

        See schrijver_bound; a lattice given directly has no matrix.
        """
        return _max_minor(self.matrix, self.lattice)


@lru_cache(maxsize=LATTICE_MEMO_SIZE)
def _lattice_ideal(a, lattice) -> LatticeIdeal:
    return LatticeIdeal(a, kernel_lattice(a) if lattice is None else lattice)


@dataclass(frozen=True)
class GapInstance:
    """Everything the gap computation derives from one (A, c) or (L, c).

    lattice_ideal is the part no cost changes; groebner is the reduced
    basis under the cost-refined order, ideal the non-optimal monomial
    ideal, components its irredundant irreducible decomposition (empty
    exactly when the ideal is zero).
    """

    lattice_ideal: LatticeIdeal
    cost: tuple[Fraction, ...]
    groebner: GroebnerBasis
    ideal: MonomialIdeal
    components: tuple[IrreducibleComponent, ...]

    @classmethod
    def from_matrix(cls, a: IntMatrix, cost, tiebreak: str = "grevlex") -> "GapInstance":
        return cls._build(LatticeIdeal.from_matrix(a), cost, tiebreak)

    @classmethod
    def from_lattice(cls, l: LatticeBasis, cost, tiebreak: str = "grevlex") -> "GapInstance":
        return cls._build(LatticeIdeal.from_lattice(l), cost, tiebreak)

    @classmethod
    def _build(cls, lattice_ideal: LatticeIdeal, cost, tiebreak) -> "GapInstance":
        order = _as_order(cost, tiebreak)
        n = lattice_ideal.lattice.nrows
        if order.nvars is not None and order.nvars != n:
            raise BadParameter("cost length does not match the variable count")
        # a rejected cost saturates nothing; a passed check is remembered,
        # so buchberger does not repeat it on the saturated generators
        check_order_preconditions(lattice_ideal.lattice.columns(), order)
        gb = buchberger(lattice_ideal.generators, order)
        ideal = non_optimal_ideal(gb) if gb.elements else MonomialIdeal(n)
        comps = () if ideal.is_zero else irreducible_decomposition(ideal)
        return cls(lattice_ideal, order.cost, gb, ideal, comps)

    @property
    def matrix(self) -> IntMatrix | None:
        return self.lattice_ideal.matrix

    @property
    def lattice(self) -> LatticeBasis:
        return self.lattice_ideal.lattice

    @property
    def nvars(self) -> int:
        return self.lattice.nrows


class ComponentGap(NamedTuple):
    component: IrreducibleComponent
    value: Fraction
    aux_optimum: tuple[Fraction, ...]


@dataclass(frozen=True)
class GapReport:
    """Result of a gap computation.

    per_component parallels the instance's component list; gap is the
    maximum value; winner is the first component attaining it in the
    canonical component order and attaining lists all of them; witness_z
    is a nonnegative integer point whose program exhibits the gap;
    instance is the instance reported on.
    """

    per_component: tuple[ComponentGap, ...]
    gap: Fraction
    winner: IrreducibleComponent | None
    attaining: tuple[IrreducibleComponent, ...]
    witness_z: tuple[int, ...]
    instance: GapInstance = field(repr=False, compare=False)

    @cached_property
    def schrijver_bound(self) -> Fraction | None:
        """The a-priori bound n D(A) sum|c_i|, None for a lattice instance.

        Computed on first read, so a report that does not print it does
        not pay for the minors.
        """
        inst = self.instance
        if inst.matrix is None:
            return None
        return schrijver_bound(inst.lattice_ideal, inst.cost)


def gap_value(
    comp: IrreducibleComponent, inst: GapInstance, *, cost=None
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Gap contribution of one irreducible component, with its optimum.

    The component's corner u and support tau define the program
        max  sum_{i in tau} c_i u_i - c.v
        over v congruent to u modulo the lattice, v_i >= 0 for i in tau.
    Writing v = u - Bt over the lattice coefficients t turns it into
        max  (B^T c).t  subject to (row i of B).t <= u_i for i in tau,
    a program in only rank-many free variables.  Returns the exact value
    and the attaining v.  cost overrides the instance's cost row, for
    callers probing other points of the same cone.

    v is the vertex lp.solve's pivot path reaches, and reports print it
    as aux_optimum.  Most of these programs have more than one optimal
    point (120 of the k4 report's 140), so that path is part of the output.
    """
    cols = inst.lattice.columns()
    u = comp.bound
    c = inst.cost if cost is None else tuple(Fraction(x) for x in cost)
    if not cols:
        return Fraction(0), tuple(Fraction(x) for x in u)
    sol = lp._coefficient_lp(cols, c, u, comp.support)
    if sol.status == lp.UNBOUNDED:
        raise UnboundedAux(
            f"auxiliary program unbounded for the component on support "
            f"{comp.support}; the instance violates the boundedness precondition"
        )
    t, d = _scaled(sol.x)
    v = tuple(
        Fraction(ui * d - sum(map(mul, row, t)), d)
        for ui, row in zip(u, inst.lattice.rows)
    )
    return sol.value, v


def _relaxation_value(inst: GapInstance, z) -> int | Fraction:
    """min c.v over v >= 0 congruent to z modulo the lattice's real span."""
    cols = inst.lattice.columns()
    base = _dots(inst.cost, (z,))[0]
    if not cols:
        return base
    sol = lp._coefficient_lp(cols, inst.cost, z, range(inst.nvars))
    if sol.status != lp.OPTIMAL:
        raise UnboundedProgram("relaxation unbounded below; preconditions violated")
    return base - sol.value


def _integer_value(inst: GapInstance, z) -> int | Fraction:
    return _dots(inst.cost, (ip_optimum(inst.groebner, z),))[0]


def gap_witness(report: GapReport, inst: GapInstance) -> tuple[int, ...]:
    """A nonnegative integer point whose program attains the reported gap.

    Rounds the winning component's optimum v* up coordinatewise to kill
    negative entries (z = u + v' with v'_i = max(0, -floor(v*_i))) and
    verifies IP(z) - LP(z) = gap by an independent exact solve of both
    sides; any disagreement is an internal error, never silent.
    """
    if report.winner is None:
        return (0,) * inst.nvars
    entry = next(e for e in report.per_component if e.component == report.winner)
    u = entry.component.bound
    vprime = tuple(max(0, -floor(v)) for v in entry.aux_optimum)
    z = tuple(int(a) + b for a, b in zip(u, vprime))
    achieved = _integer_value(inst, z) - _relaxation_value(inst, z)
    if achieved != report.gap:
        raise WitnessMismatch(
            f"constructed witness attains {achieved}, expected {report.gap}"
        )
    return z


def gap_report(inst: GapInstance) -> GapReport:
    """Report for an already-built instance (matrix or lattice flavored).

    Equals the maximum gap value over the irreducible components of the
    non-optimal ideal; zero (with an empty component list) when that
    ideal is zero.
    """
    if not inst.components:
        return GapReport((), Fraction(0), None, (), (0,) * inst.nvars, inst)
    per = tuple(
        ComponentGap(comp, *gap_value(comp, inst)) for comp in inst.components
    )
    best = max(e.value for e in per)
    attaining = tuple(e.component for e in per if e.value == best)
    report = GapReport(per, best, attaining[0], attaining, (), inst)
    witness = gap_witness(report, inst)
    return dataclasses.replace(report, witness_z=witness)


def gap(a, c, tiebreak: str = "grevlex") -> GapReport:
    """The integer programming gap of (A, c): worst case over all b.

    The one-call form: its report comes back with the Schrijver bound
    already computed.
    """
    report = gap_report(GapInstance.from_matrix(a, c, tiebreak))
    report.schrijver_bound  # computed on first read, so read it here
    return report


def gap_lattice(l, c, tiebreak: str = "grevlex") -> GapReport:
    """The lattice programming gap: fibers are residue classes z + L."""
    return gap_report(GapInstance.from_lattice(l, c, tiebreak))


def schrijver_bound(a: "IntMatrix | LatticeIdeal", c) -> Fraction:
    """A-priori bound n D(A) sum|c_i|, D(A) the largest maximal minor.

    a is the matrix, or a matrix's LatticeIdeal, which holds D(A) (its
    max_minor) once computed, so bounds for other costs on it reuse it.
    """
    if isinstance(a, LatticeIdeal):
        n = a.lattice.nrows
    else:
        a = a if isinstance(a, IntMatrix) else IntMatrix(a)
        n = a.ncols
    c = tuple(Fraction(x) for x in c)
    if len(c) != n:
        raise BadParameter("cost length does not match the column count")
    d = a.max_minor if isinstance(a, LatticeIdeal) else _max_minor(a, None)
    return n * d * sum((abs(x) for x in c), Fraction(0))


def _max_minor(a: IntMatrix | None, lattice: LatticeBasis | None) -> int:
    """D(A) for schrijver_bound; lattice, if given, is a's kernel basis.

    Maximal minors are taken at the matrix's rank r, on the rows a greedy
    pass keeps: each row in order is kept iff it is independent of those
    already kept (redundant rows change neither the fibers nor the gap,
    and the bound is only valid for a full-row-rank presentation).  That
    pass, exactmath._echelon, also yields pivot columns P with A_P
    nonsingular.  No row is kept for a zero matrix, and D is then 0.

    D is the largest |det| over r-subsets of the kept rows' columns or,
    when k = n - r is smaller than r, over k-subsets of the rows of the
    saturated kernel basis B: Pluecker duality gives |det A_S| =
    g |det B_(S^c)| for every S, with g = |det A_P| / |det B_(P^c)|.
    Either way one depth-first walk shares the elimination of common
    prefixes and skips every subset extending a prefix whose minors all
    vanish (see exactmath._max_maximal_minor).
    """
    if a is None:
        raise BadParameter("the Schrijver bound needs a matrix")
    n = a.ncols
    echelon = _echelon(a.rows)
    kept = [a.rows[i] for i, _, _ in echelon]
    pivots = [p for _, p, _ in echelon]
    r = len(kept)
    if r == 0:
        return 0
    if n - r >= r:
        return _max_maximal_minor(kept)
    b = kernel_lattice(a) if lattice is None else lattice
    free = sorted(set(range(n)) - set(pivots))
    g = abs(IntMatrix([[row[p] for p in pivots] for row in kept], r).det())
    g //= abs(IntMatrix([b.rows[i] for i in free], n - r).det())
    return g * _max_maximal_minor(b.columns())
