"""Exact rational linear programming by two-phase primal simplex.

No floating point anywhere: optima and infeasibility / unboundedness
verdicts are exact.  The tableau is fraction-free (Edmonds 1967; Bareiss
1968): each row is a list of ints ending in a positive common denominator,
divided by the gcd of its entries after every update, so one row has one
canonical form.  Signs are read from numerators and ratios are compared by
integer cross-products.  Inputs stay exact as given; Fractions are built
for the returned value and point only.

Bland's smallest-index rule picks the entering and the leaving column,
which ensures termination.  Where a program has several optimal
vertices the pivot path picks the one returned, so the path is part of
the output: the cone center the fan walk reads, the grading saturation
runs under, and the aux_optimum reports print for a component whose
support is not rank-many.  The square auxiliary programs do not come
here: each has one vertex, which gapcore solves for directly, so only 14
of the k4 report's 140 programs and 4 of perfbench ladder's 135 reach
the simplex.  (120 of k4's have more than one optimal point, but all of
those are square, and their optimal sets are rays from that vertex.)
A faster solve must take the same pivots; tests/test_lp.py pins them.

Three set-ups pose every program of the package: the standard form
min{c.x : a.x = b, x >= 0} of lp_value and feasible (the oracle's bounds
and relaxations, Farkas's, Gordan's and the zero-cost-ray tests, the
positive grading), the lattice-coefficient form of _coefficient_lp (the
auxiliary programs and the witness relaxation that are not square) and
fan._strict_point (the cone's center).

The solver is written for the small dense problems this package produces;
it is not a general-purpose LP code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from math import gcd, lcm

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
    everything else is >= 0.  int and Fraction entries are kept as given;
    any other number becomes its exact Fraction.
    """

    objective: Vec
    sense: str = "min"
    eq: tuple[tuple[Vec, int | Fraction], ...] = ()
    ub: tuple[tuple[Vec, int | Fraction], ...] = ()
    free: tuple[bool, ...] = ()

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        put("objective", tuple(map(_exact, self.objective)))
        if self.sense not in ("min", "max"):
            raise BadParameter(f"sense must be min or max, got {self.sense!r}")
        n = len(self.objective)
        for name in ("eq", "ub"):
            rows = getattr(self, name)
            put(name, tuple((tuple(map(_exact, r)), _exact(b)) for r, b in rows))
        for r, _ in self.eq + self.ub:
            if len(r) != n:
                raise BadParameter("constraint row length disagrees with objective")
        fr = tuple(bool(f) for f in self.free) if self.free else (False,) * n
        if len(fr) != n:
            raise BadParameter("free flag length disagrees with objective")
        put("free", fr)

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
# Columns are (j, sign), stored column j read with sign: a free variable's
# minus column is its column negated, not stored.  An artificial is only a
# basis index ncol + i, row i's unit column, which no pivot reads.


def _reduced(row):
    """row divided by the gcd of its entries, the denominator included."""
    if row[-1] == 1:
        return row
    # not gcd(*row): on CPython 3.11, star-calls with exactly 20 arguments
    # fill the tuple free list without reusing it, up to 0.37 MB
    g = reduce(gcd, row)
    return row if g == 1 else [v // g for v in row]


def _eliminate(row, p0, j):
    """row minus row[j] times the pivot row, whose entry j is +1 or -1.

    p0 is the pivot row with its denominator slot 0, so the result's
    denominator is row's times |p0[j]|.
    """
    pj, f = p0[j], row[j]
    if pj < 0:
        pj, f = -pj, -f
    return _reduced([a * pj - f * b for a, b in zip(row, p0)])


def _pivot(rows, obj, r, j, sign):
    """Pivot column (j, sign) into row r: its entry there becomes 1."""
    p = rows[r]
    pj = sign * p[j]
    if pj < 0:
        # a negative pivot (phase-1 cleanup) flips the row: d stays > 0
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


def _leaving_row(rows, basis, j, sign):
    """Minimum-ratio row for column (j, sign), ties to the lowest basic index.

    Ratios rhs_i / a_i (a_i > 0) compare by cross-multiplied numerators.
    """
    leave = None
    for i, row in enumerate(rows):
        a = sign * row[j]
        if a > 0:
            if leave is None:
                leave, num, den = i, row[-2], a
                continue
            lhs, rhs = row[-2] * den, num * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave, num, den = i, row[-2], a
    return leave


def _run_simplex(rows, obj, basis, cols):
    """Minimize by Bland's rule until every reduced cost is nonnegative.

    Returns (optimal, pivots): optimal is False on unboundedness.  obj is
    the reduced cost row (rhs entry: minus the current value); cols lists
    the columns (j, sign) in Bland's order.
    """
    pivots = 0
    while True:
        enter = next((k for k, (j, sign) in enumerate(cols) if sign * obj[j] < 0), None)
        if enter is None:
            return True, pivots
        leave = _leaving_row(rows, basis, *cols[enter])
        if leave is None:
            return False, pivots
        _pivot(rows, obj, leave, *cols[enter])
        basis[leave] = enter
        pivots += 1


def solve(problem: LPProblem) -> LPSolution:
    """Solve exactly; statuses optimal / infeasible / unbounded."""
    n = problem.nvars
    minimize = problem.sense == "min"
    c0 = problem.objective if minimize else tuple(-x for x in problem.objective)
    neq = len(problem.eq)
    cons = problem.eq + problem.ub
    m = len(cons)
    width = n + m - neq
    # Bland's order: variables, a minus column per free one, slacks
    cols = [(i, 1) for i in range(n)] + [(i, -1) for i in range(n) if problem.free[i]]
    cols += [(j, 1) for j in range(n, width)]
    ncol = len(cols)

    rows = []
    for k, (r, b) in enumerate(cons):
        # negative right-hand sides are flipped so the artificial basis is
        # feasible; integer rows enter as they are
        sign = -1 if b < 0 else 1
        nums, scale = _scaled(r + (b,))
        row = [sign * v for v in nums[:n]] + [0] * (width - n) + [sign * nums[n], scale]
        if k >= neq:
            row[n + k - neq] = sign * scale
        rows.append(_reduced(row))

    # phase 1: minimize the sum of artificials, whose reduced costs are
    # minus the column sums over the rows' common denominator
    d = lcm(*(row[-1] for row in rows))
    obj = [
        -sum(col)
        for col in zip(*(r if r[-1] == d else [v * (d // r[-1]) for v in r] for r in rows))
    ] or [0] * (width + 2)
    obj[-1] = d
    obj = _reduced(obj)
    basis = [ncol + i for i in range(m)]
    _, pivots = _run_simplex(rows, obj, basis, cols)
    if obj[-2]:
        return LPSolution(status=INFEASIBLE, pivots=pivots)

    # drive leftover artificials out of the basis (never into a minus
    # column: its variable's comes first); rows that cannot pivot are
    # redundant originals and get dropped
    drop = []
    for i in range(m):
        if basis[i] >= ncol:
            j = next((j for j in range(width) if rows[i][j]), None)
            if j is None:
                drop.append(i)
            else:
                _pivot(rows, obj, i, j, 1)
                basis[i] = j if j < n else j + ncol - width
                pivots += 1
    if drop:
        rows = [row for i, row in enumerate(rows) if i not in drop]
        basis = [bv for i, bv in enumerate(basis) if i not in drop]

    # phase 2: the real objective
    nums, scale = _scaled(c0)
    obj = _reduced(nums + [0] * (width - n + 1) + [scale])
    for row, bv in zip(rows, basis):
        j = cols[bv][0]
        if obj[j]:
            obj = _eliminate(obj, row[:-1] + [0], j)
    ok, more = _run_simplex(rows, obj, basis, cols)
    pivots += more
    if not ok:
        return LPSolution(status=UNBOUNDED, pivots=pivots)

    x = [Fraction(0)] * n
    for row, bv in zip(rows, basis):
        j, sign = cols[bv]
        if j < n:
            x[j] = Fraction(sign * row[-2], row[-1])
    value = Fraction(-obj[-2], obj[-1])
    return LPSolution(
        status=OPTIMAL, value=value if minimize else -value, x=tuple(x), pivots=pivots
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
    return lp_value(rows, rhs, (0,) * len(rows[0])).status == OPTIMAL


def _coefficient_lp(vectors, cost, base, rows) -> LPSolution:
    """max cost.(base - v) over v = base - B t, t free, B = vectors as columns.

    The constraints are v_i >= 0 for i in rows.  Posed over the
    coefficients t this is
        max (B^T cost).t  s.t.  (row i of B).t <= base_i,
    in len(vectors) free variables; the solution's x is t.  vectors and
    base are integer; B^T cost is summed in ints (_dots).
    """
    brows = tuple(zip(*vectors))
    prob = LPProblem(
        objective=_dots(cost, vectors),
        sense="max",
        ub=tuple((brows[i], base[i]) for i in rows),
        free=(True,) * len(vectors),
    )
    return solve(prob)
