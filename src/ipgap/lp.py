"""Exact rational linear programming by two-phase primal simplex.

There is no floating point anywhere, so optima and infeasibility /
unboundedness verdicts are exact.  The tableau is kept fraction-free
(Edmonds 1967; Bareiss 1968): each row is a list of Python ints whose last
entry is a positive common denominator, and the row is divided by the gcd
of all its entries after every update, so one row has one canonical form.
Signs are read from numerators and ratios are compared by integer
cross-products.  Inputs are kept exact as given (ints stay ints until the
tableau scales each row); Fractions are built for the returned value and
point.  Bland's smallest-index rule is used for both the entering and the
leaving choice, which guarantees termination and makes every run
byte-reproducible.

The solver is written for the small dense problems this package produces
(auxiliary programs over a lattice basis, relaxations of table problems,
cone interior searches, feasibility systems); it is not a general-purpose
LP code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd

from .errors import BadParameter
from .exactmath import _dots, _scaled

Vec = tuple[int | Fraction, ...]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _exact(x) -> int | Fraction:
    """x itself if it is an int or a Fraction, else its exact Fraction."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


@dataclass(frozen=True)
class LPProblem:
    """min or max of objective.x subject to eq rows, ub rows and signs.

    eq rows are pairs (row, rhs) meaning row.x == rhs; ub rows mean
    row.x <= rhs.  free[i] marks variable i as unrestricted in sign;
    everything else is >= 0.  There are no other bound forms: callers shift
    or split variables themselves if they need them.  int and Fraction
    entries are kept as given; any other number becomes its exact Fraction.
    """

    objective: Vec
    sense: str = "min"
    eq: tuple[tuple[Vec, int | Fraction], ...] = ()
    ub: tuple[tuple[Vec, int | Fraction], ...] = ()
    free: tuple[bool, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "objective", tuple(map(_exact, self.objective)))
        if self.sense not in ("min", "max"):
            raise BadParameter(f"sense must be min or max, got {self.sense!r}")
        n = len(self.objective)
        object.__setattr__(
            self, "eq", tuple((tuple(map(_exact, r)), _exact(b)) for r, b in self.eq)
        )
        object.__setattr__(
            self, "ub", tuple((tuple(map(_exact, r)), _exact(b)) for r, b in self.ub)
        )
        for r, _ in self.eq + self.ub:
            if len(r) != n:
                raise BadParameter("constraint row length disagrees with objective")
        fr = tuple(bool(f) for f in self.free) if self.free else (False,) * n
        if len(fr) != n:
            raise BadParameter("free flag length disagrees with objective")
        object.__setattr__(self, "free", fr)

    @property
    def nvars(self) -> int:
        return len(self.objective)


@dataclass(frozen=True)
class LPSolution:
    """Outcome of solve().

    x and value refer to the caller's variables and sense.  pivots counts
    the simplex pivots of both phases, including those that drive leftover
    artificials out of the basis.
    """

    status: str
    value: Fraction | None = None
    x: Vec | None = None
    pivots: int = field(default=0, compare=False)


# Tableau rows (and the reduced-cost row) are int lists laid out as
# [columns..., rhs, d]: the entries stand for the rationals v / d, d > 0.
# There are no artificial columns: an artificial is only a basis index
# ncol + i, the one unit column of row i that the pivots never read.


def _reduced(row):
    """row divided by the gcd of its entries, the denominator included."""
    if row[-1] == 1:
        return row
    # not gcd(*row): on CPython 3.11, star-calls with exactly 20 arguments
    # fill the tuple free list without reusing it, up to 0.37 MB
    g = reduce(gcd, row)
    return row if g == 1 else [v // g for v in row]


def _eliminate(row, p0, j):
    """row minus row[j] times the pivot row, whose entry j is 1.

    p0 is the pivot row with 0 in its denominator slot, so the result's
    denominator comes out as row's denominator times p0[j].
    """
    pj, f = p0[j], row[j]
    return _reduced([a * pj - f * b for a, b in zip(row, p0)])


def _pivot(rows, obj, r, j):
    p = rows[r]
    pj = p[j]
    if pj < 0:
        # a negative pivot (phase-1 cleanup) flips the row's sign so that
        # its denominator stays positive
        p = [-v for v in p]
        pj = -pj
    p = _reduced(p[:-1] + [pj])
    rows[r] = p
    p0 = p[:-1] + [0]
    for i, row in enumerate(rows):
        if i != r and row[j]:
            rows[i] = _eliminate(row, p0, j)
    if obj[j]:
        obj[:] = _eliminate(obj, p0, j)


def _leaving_row(rows, basis, enter):
    """Minimum-ratio row for the entering column, ties to the lowest basic index.

    The ratio of row i is rhs_i / a_i in the row's own denominator, so two
    ratios compare by cross-multiplying numerators (a_i > 0 throughout).
    """
    leave = None
    for i, row in enumerate(rows):
        a = row[enter]
        if a > 0:
            if leave is None:
                leave, num, den = i, row[-2], a
                continue
            lhs, rhs = row[-2] * den, num * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave, num, den = i, row[-2], a
    return leave


def _run_simplex(rows, obj, basis):
    """Minimize until every reduced cost is nonnegative.

    Returns (optimal, pivots): optimal is False on unboundedness.  obj is
    the reduced cost row (rhs entry: minus the current value).  Bland's rule
    throughout.
    """
    pivots = 0
    ncol = len(obj) - 2
    while True:
        enter = next((j for j in range(ncol) if obj[j] < 0), None)
        if enter is None:
            return True, pivots
        leave = _leaving_row(rows, basis, enter)
        if leave is None:
            return False, pivots
        _pivot(rows, obj, leave, enter)
        basis[leave] = enter
        pivots += 1


def solve(problem: LPProblem) -> LPSolution:
    """Solve exactly; statuses optimal / infeasible / unbounded."""
    n = problem.nvars
    minimize = problem.sense == "min"
    c0 = problem.objective if minimize else tuple(-x for x in problem.objective)

    # column layout: the n variables, then for each free variable a minus
    # column, then one slack per ub row
    minus = {}
    ncol = n
    for i in range(n):
        if problem.free[i]:
            minus[i] = ncol
            ncol += 1
    neq = len(problem.eq)
    cons = problem.eq + problem.ub
    m = len(cons)
    ncol += m - neq

    rows = []
    for k, (r, b) in enumerate(cons):
        # negative right-hand sides are flipped so the artificial basis is
        # feasible
        sign = -1 if b < 0 else 1
        nums, scale = _scaled(r + (b,))
        row = [sign * v for v in nums[:n]] + [0] * (ncol - n) + [sign * nums[n], scale]
        for i, col in minus.items():
            row[col] = -row[i]
        if k >= neq:
            row[ncol - m + k] = sign * scale
        rows.append(_reduced(row))

    # phase 1: minimize the sum of artificials, whose reduced costs are
    # minus the sum of the rows
    basis = [ncol + i for i in range(m)]
    obj = [0] * (ncol + 1) + [1]
    for row in rows:
        od, rd = obj[-1], row[-1]
        obj = _reduced([a * rd - v * od for a, v in zip(obj[:-1], row[:-1])] + [od * rd])
    _, pivots = _run_simplex(rows, obj, basis)
    if obj[-2]:
        return LPSolution(status=INFEASIBLE, pivots=pivots)

    # drive leftover artificials out of the basis; rows that cannot pivot
    # are redundant originals and get dropped
    drop = []
    for i in range(m):
        if basis[i] >= ncol:
            j = next((j for j in range(ncol) if rows[i][j]), None)
            if j is None:
                drop.append(i)
            else:
                _pivot(rows, obj, i, j)
                basis[i] = j
                pivots += 1
    if drop:
        rows = [row for i, row in enumerate(rows) if i not in drop]
        basis = [bv for i, bv in enumerate(basis) if i not in drop]

    # phase 2: the real objective
    nums, scale = _scaled(c0)
    obj = nums + [0] * (ncol - n + 1) + [scale]
    for i, col in minus.items():
        obj[col] = -obj[i]
    obj = _reduced(obj)
    for row, bv in zip(rows, basis):
        if obj[bv]:
            obj = _eliminate(obj, row[:-1] + [0], bv)
    ok, more = _run_simplex(rows, obj, basis)
    pivots += more
    if not ok:
        return LPSolution(status=UNBOUNDED, pivots=pivots)

    xstd = [Fraction(0)] * ncol
    for row, bv in zip(rows, basis):
        xstd[bv] = Fraction(row[-2], row[-1])
    x = tuple(xstd[i] - xstd[minus[i]] if i in minus else xstd[i] for i in range(n))
    value = Fraction(-obj[-2], obj[-1])
    return LPSolution(
        status=OPTIMAL, value=value if minimize else -value, x=x, pivots=pivots
    )


def lp_value(a, b, c) -> LPSolution:
    """Solve the relaxation min{c.x : a.x = b, x >= 0} exactly.

    a is an IntMatrix (or row iterable), b and c plain sequences.  Returns
    the full LPSolution; statuses cover infeasible and unbounded outcomes.
    """
    rows = a.rows if hasattr(a, "rows") else tuple(tuple(r) for r in a)
    if len(b) != len(rows):
        raise BadParameter("right-hand side length does not match the row count")
    return solve(LPProblem(objective=c, eq=tuple(zip(rows, b))))


def feasible(rows, rhs) -> bool:
    """Whether some y >= 0 solves M y = rhs, M given by its (nonempty) rows.

    The objective is zero, so phase 1 decides; only the status is read.
    """
    problem = LPProblem((0,) * len(rows[0]), eq=tuple(zip(rows, rhs)))
    return solve(problem).status == OPTIMAL


def _coefficient_lp(vectors, cost, base, rows, extra=()) -> LPSolution:
    """max cost.(base - v) over v = base - B t, t free, B = vectors as columns.

    The constraints are v_i >= 0 for i in rows and a.v <= r for each (a, r)
    in extra.  Posed over the coefficients t this is
        max (B^T cost).t  s.t.  (row i of B).t <= base_i,
                                -(B^T a).t <= r - a.base,
    a program in only len(vectors) free variables; the solution's x is t.
    vectors and base are integer; B^T a and a.base are summed in ints over
    a's common denominator (exactmath._dots).
    """
    brows = tuple(zip(*vectors))
    prob = LPProblem(
        objective=_dots(cost, vectors),
        sense="max",
        ub=tuple((brows[i], base[i]) for i in rows)
        + tuple(
            (tuple(-x for x in _dots(a, vectors)), r - _dots(a, (base,))[0])
            for a, r in extra
        ),
        free=(True,) * len(vectors),
    )
    return solve(prob)
