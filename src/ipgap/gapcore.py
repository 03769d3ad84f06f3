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

from fractions import Fraction
from functools import cached_property, lru_cache
from math import floor
from operator import mul
from typing import NamedTuple

from . import lp
from .errors import (
    BadParameter,
    MinorCapExceeded,
    UnboundedAux,
    UnboundedProgram,
    Value,
    WitnessMismatch,
)
from .exactmath import (
    IntMatrix,
    LatticeBasis,
    _as_matrix,
    _dots,
    _echelon,
    _max_maximal_minor,
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
    is_generic,
    lattice_ideal_generators,
    non_optimal_ideal,
)


LATTICE_MEMO_SIZE = 64


class LatticeIdeal(Value):
    """The cost-independent layer: a lattice and its saturated ideal.

    lattice's columns generate the fibers' difference set, and generators
    are its lattice ideal, saturated on first read.  from_lattice shares
    one object per basis and from_matrix one per matrix, the object of
    its canonical kernel basis, via two bounded memos.
    """

    lattice: LatticeBasis

    @classmethod
    def from_matrix(cls, a: IntMatrix) -> "LatticeIdeal":
        return _of_matrix(_as_matrix(a))

    @classmethod
    def from_lattice(cls, l: LatticeBasis) -> "LatticeIdeal":
        return _of_lattice(_as_matrix(l))

    @cached_property
    def generators(self) -> tuple[Binomial, ...]:
        return lattice_ideal_generators(self.lattice)


@lru_cache(maxsize=LATTICE_MEMO_SIZE)
def _of_lattice(l: LatticeBasis) -> LatticeIdeal:
    return LatticeIdeal(l)


@lru_cache(maxsize=LATTICE_MEMO_SIZE)
def _of_matrix(a: IntMatrix) -> LatticeIdeal:
    return _of_lattice(kernel_lattice(a))


class GapInstance(Value):
    """Everything the gap computation derives from one (A, c) or (L, c).

    matrix is A, None for a lattice given directly; lattice_ideal is the
    part no cost changes; groebner is the reduced basis under the
    cost-refined order, ideal the non-optimal monomial ideal, components
    its irredundant irreducible decomposition (empty exactly when the
    ideal is zero).
    """

    matrix: IntMatrix | None
    lattice_ideal: LatticeIdeal
    cost: tuple[Fraction, ...]
    groebner: GroebnerBasis
    ideal: MonomialIdeal
    components: tuple[IrreducibleComponent, ...]

    @classmethod
    def from_matrix(cls, a: IntMatrix, cost, tiebreak: str = "grevlex") -> "GapInstance":
        a = _as_matrix(a)
        return cls._build(a, LatticeIdeal.from_matrix(a), cost, tiebreak)

    @classmethod
    def from_lattice(cls, l: LatticeBasis, cost, tiebreak: str = "grevlex") -> "GapInstance":
        return cls._build(None, LatticeIdeal.from_lattice(l), cost, tiebreak)

    @classmethod
    def from_basis(cls, a: IntMatrix, gb: GroebnerBasis, cost) -> "GapInstance":
        """a's instance at cost, with gb's elements as its reduced basis.

        gb must be a reduced basis of a's lattice ideal under some order,
        and cost must mark it strictly: every lead costs more than its
        trail, so cost lies inside gb's Groebner cone.  The leads then
        stay leads under cost refined by gb's tiebreak, so gb's elements
        are that order's reduced basis too and no completion runs; this
        is how the fan builds each cone's instance at its center.  A cost
        that does not mark every element so raises BadParameter; the
        precondition check runs as in from_matrix.
        """
        a = _as_matrix(a)
        return cls._build(a, LatticeIdeal.from_matrix(a), cost, gb.order.tiebreak, gb)

    @classmethod
    def _build(
        cls, matrix, lattice_ideal: LatticeIdeal, cost, tiebreak, known: GroebnerBasis | None = None
    ) -> "GapInstance":
        order = cost if isinstance(cost, TermOrder) else TermOrder(cost, tiebreak)
        c = order.cost  # an order without cost rows stops here, before any completion
        if len(c) != lattice_ideal.lattice.nrows:
            raise BadParameter("cost length does not match the variable count")
        # a rejected cost saturates nothing; a passed check is remembered,
        # so buchberger does not repeat it on the saturated generators
        check_order_preconditions(lattice_ideal.lattice.columns(), order)
        if known is None:
            gb = buchberger(lattice_ideal.generators, order)
        else:
            gb = GroebnerBasis(known.elements, order)
            if not is_generic(gb):
                raise BadParameter("the cost does not mark every element of the basis given")
        ideal = non_optimal_ideal(gb)
        comps = () if ideal.is_zero else irreducible_decomposition(ideal)
        return cls(matrix, lattice_ideal, c, gb, ideal, comps)

    @property
    def lattice(self) -> LatticeBasis:
        return self.lattice_ideal.lattice

    @property
    def nvars(self) -> int:
        return self.lattice.nrows

    @cached_property
    def _aux_setup(self) -> lp.CoefficientSetup:
        """What every auxiliary program at the instance's own cost shares."""
        return lp.coefficient_setup(self.lattice, self.cost)


class ComponentGap(NamedTuple):
    component: IrreducibleComponent
    value: Fraction
    aux_optimum: tuple[Fraction, ...]


class GapReport(
    Value,
    uncompared=("instance", "witness_optimum", "witness_ip", "witness_lp"),
    unshown=("instance",),
):
    """Result of a gap computation.

    per_component parallels the instance's component list; gap is the
    maximum value; winner is the first component attaining it in the
    canonical component order and attaining lists all of them; witness_z
    is a nonnegative integer point whose program exhibits the gap;
    instance is the instance reported on.  witness_optimum is the optimal
    point of witness_z's fiber, and witness_ip and witness_lp are the
    values of the program and its relaxation there, as gap_witness
    verified them; like instance they take no part in equality.
    """

    per_component: tuple[ComponentGap, ...]
    gap: Fraction
    winner: IrreducibleComponent | None
    attaining: tuple[IrreducibleComponent, ...]
    witness_z: tuple[int, ...]
    instance: GapInstance
    witness_optimum: tuple[int, ...] = ()
    witness_ip: int | Fraction = 0
    witness_lp: int | Fraction = 0

    @cached_property
    def _schrijver(self) -> tuple[Fraction | None, str | None]:
        inst = self.instance
        if inst.matrix is None:
            return None, None
        try:
            return schrijver_bound(inst.matrix, inst.cost, lattice=inst.lattice), None
        except MinorCapExceeded as e:
            return None, str(e)

    @property
    def schrijver_bound(self) -> Fraction | None:
        """The a-priori bound n D(A) sum|c_i|, None for a lattice instance.

        Computed on first read, so a report that does not print it does
        not pay for the minors.  The instance's kernel basis goes along,
        so no second kernel is computed for it.  It is None too when the
        minors outgrow exactmath.MINOR_SWEEP_CAP; schrijver_bound_reason
        then says where they stopped.
        """
        return self._schrijver[0]

    @property
    def schrijver_bound_reason(self) -> str | None:
        """Why a matrix instance's report has no Schrijver bound, else None."""
        return self._schrijver[1]


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

    v is reported as aux_optimum.  A square component, |tau| = rank (a
    minimal prime's, 126 of the k4 report's 139), poses a program with one
    vertex, which lp.coefficient_optimum solves for directly; 120 of those
    126 have a ray of optimal points, and v is its vertex.  Only the other
    programs run lp.solve, and where one has several optimal vertices the
    pivot path picks v, so that path is part of the output.
    """
    u = comp.bound
    if cost is None:
        setup = inst._aux_setup
    else:
        c = tuple(Fraction(x) for x in cost)
        if len(c) != inst.nvars:
            raise BadParameter("cost length does not match the variable count")
        setup = lp.coefficient_setup(inst.lattice, c)
    if len(u) != inst.nvars:
        raise BadParameter("bound length does not match the variable count")
    opt = lp.coefficient_optimum(setup, u, comp.support)
    if opt is None:
        raise UnboundedAux(
            f"auxiliary program unbounded for the component on support "
            f"{comp.support}; the instance violates the boundedness precondition"
        )
    value, t, d = opt
    v = tuple(Fraction(ui * d - sum(map(mul, row, t)), d) for ui, row in zip(u, setup.rows))
    return value, v


def _relaxation_value(inst: GapInstance, z) -> int | Fraction:
    """min c.v over v >= 0 congruent to z modulo the lattice's real span."""
    opt = lp.coefficient_optimum(inst._aux_setup, z, range(inst.nvars))
    if opt is None:
        raise UnboundedProgram("relaxation unbounded below; preconditions violated")
    return _dots(inst.cost, (z,))[0] - opt[0]


def _integer_optimum(inst: GapInstance, z) -> tuple[tuple[int, ...], int | Fraction]:
    """The optimal point of z's fiber and its cost."""
    point = ip_optimum(inst.groebner, z)
    return point, _dots(inst.cost, (point,))[0]


def gap_witness(report: GapReport) -> GapReport:
    """The report with a witness: a point whose program attains the gap.

    Rounds the winning component's optimum v* up coordinatewise to kill
    negative entries (z = u + v' with v'_i = max(0, -floor(v*_i))) and
    verifies IP(z) - LP(z) = gap on the report's instance by an
    independent exact solve of both sides; any disagreement is an
    internal error, never silent.  The report returned holds z, z's
    optimal point and both values.
    """
    inst = report.instance
    head = report.per_component, report.gap, report.winner, report.attaining
    if report.winner is None:
        zero = (0,) * inst.nvars
        return GapReport(*head, zero, inst, zero, 0, 0)
    entry = next(e for e in report.per_component if e.component == report.winner)
    u = entry.component.bound
    vprime = tuple(max(0, -floor(v)) for v in entry.aux_optimum)
    z = tuple(int(a) + b for a, b in zip(u, vprime))
    point, ip = _integer_optimum(inst, z)
    relax = _relaxation_value(inst, z)
    if ip - relax != report.gap:
        raise WitnessMismatch(
            f"constructed witness attains {ip - relax}, expected {report.gap}"
        )
    return GapReport(*head, z, inst, point, ip, relax)


def gap_report(inst: GapInstance) -> GapReport:
    """Report for an already-built instance (matrix or lattice flavored).

    Equals the maximum gap value over the irreducible components of the
    non-optimal ideal; zero (with an empty component list) when that
    ideal is zero.
    """
    per = tuple(ComponentGap(comp, *gap_value(comp, inst)) for comp in inst.components)
    best = max((e.value for e in per), default=Fraction(0))
    attaining = tuple(e.component for e in per if e.value == best)
    winner = attaining[0] if attaining else None
    return gap_witness(GapReport(per, best, winner, attaining, (), inst))


def gap(a, c, tiebreak: str = "grevlex") -> GapReport:
    """The integer programming gap of (A, c): worst case over all b.

    The one-call form: its report comes back with the Schrijver bound
    already computed.
    """
    report = gap_report(GapInstance.from_matrix(a, c, tiebreak))
    report.schrijver_bound  # computed on first read, so read it here
    return report


def schrijver_bound(a: IntMatrix, c, *, lattice: LatticeBasis | None = None) -> Fraction:
    """A-priori bound n D(A) sum|c_i|, D(A) the largest maximal minor.

    lattice, if given, is a's kernel basis, which the sweep may read
    (see _max_minor); a report hands over its instance's, and without it
    the bound computes kernel_lattice(a) when it needs one.  Raises
    MinorCapExceeded, naming the level and the count reached, when the
    minors outgrow exactmath.MINOR_SWEEP_CAP: the bound is exact or absent.
    """
    a = _as_matrix(a)
    c = tuple(Fraction(x) for x in c)
    if len(c) != a.ncols:
        raise BadParameter("cost length does not match the column count")
    return a.ncols * _max_minor(a, lattice) * sum((abs(x) for x in c), Fraction(0))


def _max_minor(a: IntMatrix, lattice: LatticeBasis | None) -> int:
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
    Either way one Laplace sweep builds the minors row by row over
    column subsets, the nonzero ones only, after merging columns equal up
    to sign (see exactmath._max_maximal_minor).  Nothing is kept between
    calls: each sweeps the minors anew.
    """
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
