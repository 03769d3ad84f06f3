"""Exact rational linear programming by two-phase primal simplex.

There is no floating point anywhere, so optima, duals and
infeasibility/unboundedness verdicts are exact.  The tableau is kept
fraction-free (Edmonds 1967; Bareiss 1968): each row is a list of Python
ints whose last entry is a positive common denominator, and the row is
divided by the gcd of all its entries after every update, so one row has
one canonical form.  Signs are read from numerators and ratios are compared
by integer cross-products; fractions.Fraction appears only in the returned
values, duals and certificate.  Bland's smallest-index rule is used for
both the entering and the leaving choice, which guarantees termination and
makes every run byte-reproducible.

The solver is written for the small dense problems this package produces
(auxiliary programs over a lattice basis, relaxations of table problems,
cone interior searches); it is not a general-purpose LP code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from .errors import BadParameter, EmptyFiber, UnboundedProgram

Vec = tuple[Fraction, ...]

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def _fracvec(v) -> Vec:
    return tuple(Fraction(x) for x in v)


@dataclass(frozen=True)
class LPProblem:
    """min or max of objective.x subject to eq rows, ub rows and signs.

    eq rows are pairs (row, rhs) meaning row.x == rhs; ub rows mean
    row.x <= rhs.  free[i] marks variable i as unrestricted in sign;
    everything else is >= 0.  There are no other bound forms: callers shift
    or split variables themselves if they need them.
    """

    objective: Vec
    sense: str = "min"
    eq: tuple[tuple[Vec, Fraction], ...] = ()
    ub: tuple[tuple[Vec, Fraction], ...] = ()
    free: tuple[bool, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "objective", _fracvec(self.objective))
        if self.sense not in ("min", "max"):
            raise BadParameter(f"sense must be min or max, got {self.sense!r}")
        n = len(self.objective)
        object.__setattr__(
            self, "eq", tuple((_fracvec(r), Fraction(b)) for r, b in self.eq)
        )
        object.__setattr__(
            self, "ub", tuple((_fracvec(r), Fraction(b)) for r, b in self.ub)
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

    x and value refer to the caller's variables and sense.  dual holds one
    multiplier per constraint row of the problem (eq rows first, then ub
    rows) for the minimization reading of the problem; certificate() exposes
    the standard-form data the multipliers verify against.  pivots counts
    the simplex pivots of both phases, including those that drive leftover
    artificials out of the basis.
    """

    status: str
    value: Fraction | None = None
    x: Vec | None = None
    dual: Vec | None = None
    pivots: int = field(default=0, compare=False)
    _std: tuple | None = field(default=None, repr=False, compare=False)

    def certificate(self):
        """Return (a, b, c, y, xstd) in standard form: min c.x, a.x=b, x>=0.

        At optimality these satisfy a.xstd == b, xstd >= 0, y.b == c.xstd,
        and componentwise c - y.a >= 0.  None unless status is optimal.
        """
        if self._std is None:
            return None
        rows, cost, y, xstd = self._std
        ncol = len(xstd)
        a = [[Fraction(v, row[-1]) for v in row[:ncol]] for row in rows]
        b = [Fraction(row[-2], row[-1]) for row in rows]
        c = [Fraction(v, cost[-1]) for v in cost[:ncol]]
        return a, b, c, list(y), list(xstd)


# Tableau rows (and the reduced-cost row) are int lists laid out as
# [columns..., rhs, d]: the entries stand for the rationals v / d, d > 0.


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


def _run_simplex(rows, obj, basis, eligible):
    """Minimize until reduced costs on eligible columns are nonnegative.

    Returns (optimal, pivots): optimal is False on unboundedness.  obj is
    the reduced cost row (rhs entry: minus the current value).  Bland's rule
    throughout.
    """
    pivots = 0
    while True:
        enter = next((j for j in eligible if obj[j] < 0), None)
        if enter is None:
            return True, pivots
        leave = _leaving_row(rows, basis, enter)
        if leave is None:
            return False, pivots
        _pivot(rows, obj, leave, enter)
        basis[leave] = enter
        pivots += 1


def _scaled(coeffs):
    """Numerators of a Fraction sequence over its least common denominator."""
    scale = lcm(*(x.denominator for x in coeffs))
    return [x.numerator * (scale // x.denominator) for x in coeffs], scale


def solve(problem: LPProblem) -> LPSolution:
    """Solve exactly; statuses optimal / infeasible / unbounded."""
    n = problem.nvars
    minimize = problem.sense == "min"
    c0 = problem.objective if minimize else tuple(-x for x in problem.objective)

    # column layout: the n variables, then for each free variable a minus
    # column, then one slack per ub row, then one artificial per row; the
    # artificials double as the B-inverse tracker the dual is read from
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
    rhs = ncol + m
    width = rhs + 2

    rows = []
    flipped = []
    for k, (r, b) in enumerate(cons):
        # negative right-hand sides are flipped so the artificial basis is
        # feasible; the artificial's own entry keeps its sign
        sign = -1 if b < 0 else 1
        nums, scale = _scaled(r + (b,))
        row = [sign * v for v in nums[:n]] + [0] * (width - n)
        for i, col in minus.items():
            row[col] = -row[i]
        if k >= neq:
            row[ncol - m + k] = sign * scale
        row[ncol + k] = scale
        row[rhs] = sign * nums[n]
        row[-1] = scale
        rows.append(_reduced(row))
        flipped.append(sign < 0)
    # the standard form for certificate(); pivots replace rows, never edit them
    start = list(rows)

    # phase 1: minimize the sum of artificials, priced out of the start basis
    basis = [ncol + i for i in range(m)]
    obj = [0] * ncol + [1] * m + [0, 1]
    for i, row in enumerate(rows):
        obj = _eliminate(obj, row[:-1] + [0], ncol + i)
    eligible = range(ncol)
    _, pivots = _run_simplex(rows, obj, basis, eligible)
    if obj[rhs]:
        return LPSolution(status=INFEASIBLE, pivots=pivots)

    # drive leftover artificials out of the basis; rows that cannot pivot
    # are redundant originals and get dropped
    drop = []
    for i in range(m):
        if basis[i] >= ncol:
            j = next((j for j in eligible if rows[i][j]), None)
            if j is None:
                drop.append(i)
            else:
                _pivot(rows, obj, i, j)
                basis[i] = j
                pivots += 1
    if drop:
        rows = [row for i, row in enumerate(rows) if i not in drop]
        basis = [bv for i, bv in enumerate(basis) if i not in drop]

    # phase 2: the real objective, artificial columns frozen out
    nums, scale = _scaled(c0)
    cost = nums + [0] * (width - n - 1) + [scale]
    for i, col in minus.items():
        cost[col] = -cost[i]
    cost = _reduced(cost)
    std_cost = cost[:]  # obj below is updated in place
    obj = cost
    for row, bv in zip(rows, basis):
        if obj[bv]:
            obj = _eliminate(obj, row[:-1] + [0], bv)
    ok, more = _run_simplex(rows, obj, basis, eligible)
    pivots += more
    if not ok:
        return LPSolution(status=UNBOUNDED, pivots=pivots)

    xstd = [Fraction(0)] * ncol
    for row, bv in zip(rows, basis):
        xstd[bv] = Fraction(row[rhs], row[-1])
    x = tuple(xstd[i] - xstd[minus[i]] if i in minus else xstd[i] for i in range(n))
    value = Fraction(-obj[rhs], obj[-1])

    # dual per standard row: minus the reduced cost at that row's artificial
    # column (artificial cost is 0 in phase 2); dropped rows carry 0
    ystd = [
        Fraction(0) if i in drop else Fraction(-obj[ncol + i], obj[-1])
        for i in range(m)
    ]
    # undo the sign flips so multipliers refer to the rows as entered
    dual = tuple(-y if f else y for y, f in zip(ystd, flipped))
    return LPSolution(
        status=OPTIMAL,
        value=value if minimize else -value,
        x=x,
        dual=dual,
        pivots=pivots,
        _std=(start, std_cost, ystd, xstd),
    )


def lp_value(a, b, c) -> LPSolution:
    """Solve the relaxation min{c.x : a.x = b, x >= 0} exactly.

    a is an IntMatrix (or row iterable), b and c plain sequences.  Returns
    the full LPSolution; statuses cover infeasible and unbounded outcomes.
    """
    rows = a.rows if hasattr(a, "rows") else tuple(tuple(r) for r in a)
    prob = LPProblem(
        objective=_fracvec(c),
        sense="min",
        eq=tuple((_fracvec(r), Fraction(x)) for r, x in zip(rows, b)),
    )
    return solve(prob)


def relaxation_value(a, b, c) -> Fraction:
    """lp_value for callers that require an optimum to exist.

    Raises EmptyFiber when infeasible, UnboundedProgram when unbounded.
    """
    sol = lp_value(a, b, c)
    if sol.status == INFEASIBLE:
        raise EmptyFiber("relaxation is infeasible for this right-hand side")
    if sol.status == UNBOUNDED:
        raise UnboundedProgram("relaxation is unbounded below")
    return sol.value
