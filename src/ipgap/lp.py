"""Exact rational linear programming by two-phase primal simplex.

No floating point anywhere: optima and infeasibility / unboundedness
verdicts are exact.  The tableau is fraction-free (Edmonds 1967; Bareiss
1968): all rows share one positive denominator, the last pivot, and each
row is one Python int holding its entries as signed fields of a fixed
width, which Hadamard's bound sizes before the first pivot (_Tableau).  A
pivot updates a row by two products and one exact division of packed
ints; no gcd is taken.  Signs are read from the fields and ratios are
compared by integer cross-products.  Inputs stay exact as given;
Fractions are built for the returned value and point only.

Bland's smallest-index rule picks the entering and the leaving column,
which ensures termination.  Where a program has several optimal
vertices the pivot path picks the one returned, so the path is part of
the output: the cone center the fan walk reads, the grading saturation
runs under, and the aux_optimum reports print for a component whose
support is not rank-many.  The square auxiliary programs skip the
simplex: each has one vertex, which coefficient_optimum solves for
directly by _Tableau's pivots, so only 14 of the k4 report's 140
programs and 4 of perfbench ladder's 135 reach the simplex.  (120 of
k4's have more than one optimal point, but all of those are square, and
their optimal sets are rays from that vertex.)  A faster solve must take
the same pivots; tests/test_lp.py pins them.

Three set-ups pose every program of the package: the standard form
min{c.x : a.x = b, x >= 0} of lp_value and feasible (the oracle's bounds
and relaxations, Farkas's, Gordan's and the zero-cost-ray tests, the
positive grading), the lattice-coefficient form of coefficient_optimum
over one CoefficientSetup per basis and cost (every auxiliary program
and the witness relaxation: the square ones by one Gauss-Jordan pass,
the others by _coefficient_lp's simplex) and fan._strict_point (the
cone's center).

The solver is written for the small dense problems this package produces;
it is not a general-purpose LP code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from math import isqrt, lcm, prod
from operator import mul
from typing import NamedTuple

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


# Tableau rows (and the reduced-cost row) are packed: the entries v_0 ..
# v_width of a row, its columns and then its rhs, are the one int
# sum v_k 2^(k w), in signed fields of w bits.  They stand for the
# rationals v_k / d, where d > 0, the last pivot, is shared by every row;
# the objective row stands for its rationals over d times a fixed positive
# scale of its own.  Columns are (j, sign), stored column j read with sign:
# a free variable's minus column is its column negated, not stored.  An
# artificial is only a basis index ncol + i, row i's unit column, which no
# pivot reads.


def _norms2(rows) -> list[int]:
    """Each int row's squared norm, at least 1: the factors of Hadamard's bound."""
    return [max(sum(map(mul, row, row)), 1) for row in rows]


def _phase1_factor2(weights, least) -> int:
    """F^2 for an F such that phase 1's row stays within F times the rows' bound.

    The row is minus the weighted sum of the rows whose artificial is
    basic, so each of its entries is a minor of the other rows and that
    sum (the bordered determinant, expanded along the artificials): at
    most H sum_T w_k / least^((|T| - 1) / 2) for the set T of those rows,
    H the product of the row norms and least the smallest squared norm.
    Returns the largest square of that factor over |T|, rounded up.
    """
    best = acc = 0
    scale = 1
    for wt in sorted(weights, reverse=True):
        acc += wt
        bound = -(-acc * acc // scale)
        if bound > best:
            best = bound
        scale *= least
    return best


class _Tableau:
    """Packed integer rows under one positive denominator d (Edmonds 1967).

    A pivot on (r, j) with entry p sets every other row R_i, entry f_i
    there, to (p R_i - f_i R_r) // d and then d to p: two products and one
    exact division per row, no gcd.  The division is exact field by field,
    so it is exact on the packed int.  Every entry the tableau ever holds
    is a minor of the initial rows with at most one objective row added,
    so Hadamard's bound (the product of the row norms, _norms2) fixes the
    width w of a field before the first pivot; no field can overflow.
    """

    __slots__ = ("rows", "obj", "d", "w", "mask", "half", "off", "top")

    def __init__(self, rows, count, bound2):
        """rows are int lists [columns..., rhs], count entries each.

        bound2 is at least the square of every entry the tableau will hold,
        the objective row's included; obj starts at 0.
        """
        self.w = w = isqrt(bound2).bit_length() + 1
        self.mask = mask = (1 << w) - 1
        self.half = 1 << (w - 1)
        self.top = (count - 1) * w
        # half in every field: adding it makes each field's bits its
        # entry plus half, a number in [1, 2^w), with no borrow between
        self.off = self.half * (((1 << (count * w)) - 1) // mask)
        self.rows = [self.pack(row) for row in rows]
        self.obj = 0
        self.d = 1

    def pack(self, values) -> int:
        """The packed row of an int list (fields past its end are zero)."""
        x = shift = 0
        for v in values:
            if v:
                x += v << shift
            shift += self.w
        return x

    def entry(self, x, k) -> int:
        """Field k of the packed row x."""
        return ((x + self.off) >> (k * self.w) & self.mask) - self.half

    def rhs(self, x) -> int:
        """The last field of the packed row x."""
        return ((x + self.off) >> self.top) - self.half

    def column(self, j, sign=1) -> list[int]:
        """Field j of every row, read with sign."""
        off, s, mask, half = self.off, j * self.w, self.mask, self.half
        if sign > 0:
            return [((x + off) >> s & mask) - half for x in self.rows]
        return [half - ((x + off) >> s & mask) for x in self.rows]

    def pivot(self, r, j, sign, col) -> None:
        """Pivot column (j, sign) into row r; col is self.column(j, sign).

        A negative pivot (the phase-1 cleanup, gapcore's square solve)
        negates row r, so d stays > 0.  Rows whose entry j is 0 are
        rescaled to the new denominator too.
        """
        rows, d = self.rows, self.d
        p, pr = col[r], rows[r]
        if p < 0:
            p, pr = -p, -pr
            rows[r] = pr
        for i, f in enumerate(col):
            if f:
                if i != r:
                    rows[i] = (p * rows[i] - f * pr) // d
            elif p != d:
                rows[i] = rows[i] * p // d
        obj = self.obj
        f = sign * self.entry(obj, j)
        self.obj = (p * obj - f * pr) // d if f else obj * p // d
        self.d = p


def _entering(tab, scans):
    """Index of the first column in Bland's order with a negative reduced cost.

    scans splits Bland's order into runs of one sign: (sign, tops, index)
    each, tops the top bit of each of the run's fields and index the map
    from a field to its column's index.  A field plus half keeps its top
    bit exactly when the entry is >= 0, so one complement and one mask
    mark the run's negative entries, and the lowest mark is the column.
    """
    obj, off = tab.obj, tab.off
    for sign, tops, index in scans:
        neg = ~(obj + off if sign > 0 else off - obj) & tops
        if neg:
            return index[((neg & -neg).bit_length() - 1) // tab.w]
    return None


@lru_cache(maxsize=256)
def _bland_order(n, free, width):
    """Bland's order over n variables, free[i] marking a free one, and slacks.

    Returns (cols, minus): cols lists the columns (j, sign) in that order,
    the variables, then a minus column per free variable, then the slacks
    (fields n to width - 1); minus maps each free variable to the index of
    its minus column.  Both are shared by every program of the same shape
    and never mutated.
    """
    fr = [i for i in range(n) if free[i]]
    cols = [(i, 1) for i in range(n)] + [(i, -1) for i in fr] + [(j, 1) for j in range(n, width)]
    return tuple(cols), dict(zip(fr, range(n, n + len(fr))))


def _scans(tab, n, minus):
    """_bland_order's columns as _entering reads them, at tab's field width."""
    w, every = tab.w, tab.off & ((1 << tab.top) - 1)
    if not minus:
        return ((1, every, range(tab.top // w)),)
    low = every & ((1 << n * w) - 1)
    return (
        (1, low, range(n)),
        (-1, sum([tab.half << i * w for i in minus]), minus),
        (1, every ^ low, range(len(minus), len(minus) + tab.top // w)),
    )


def _leaving_row(tab, basis, col):
    """Minimum-ratio row for a column, ties to the lowest basic index.

    col is the column's signed field in every row.  Ratios rhs_i / a_i
    (a_i > 0) compare by cross-multiplied numerators; the rows' common
    denominator cancels.
    """
    leave = None
    rows, off, top, half = tab.rows, tab.off, tab.top, tab.half
    for i, a in enumerate(col):
        if a > 0:
            b = ((rows[i] + off) >> top) - half
            if leave is None:
                leave, num, den = i, b, a
                continue
            lhs, rhs = b * den, num * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave, num, den = i, b, a
    return leave


def _run_simplex(tab, basis, cols, scans):
    """Minimize by Bland's rule until every reduced cost is nonnegative.

    Returns (optimal, pivots): optimal is False on unboundedness.  tab.obj
    is the reduced cost row (rhs entry: minus the current value); cols
    lists the columns (j, sign) in Bland's order, scans the same order as
    _entering reads it.
    """
    pivots = 0
    while True:
        enter = _entering(tab, scans)
        if enter is None:
            return True, pivots
        j, sign = cols[enter]
        col = tab.column(j, sign)
        leave = _leaving_row(tab, basis, col)
        if leave is None:
            return False, pivots
        tab.pivot(leave, j, sign, col)
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
    cols, minus = _bland_order(n, problem.free, width)
    ncol = len(cols)

    rows, scales, norms = [], [], []
    for k, (r, b) in enumerate(cons):
        # each row is scaled to integers by its own denominator, and
        # negative right-hand sides are flipped so the artificial basis is
        # feasible; neither changes a ratio or a pivot
        sign = -1 if b < 0 else 1
        nums, scale = _scaled(r + (b,))
        if sign < 0:
            nums = [-v for v in nums]
        row = nums[:n] + [0] * (width - n) + nums[n:]
        norm = sum(map(mul, nums, nums))
        if k >= neq:
            row[n + k - neq] = sign * scale
            norm += scale * scale
        rows.append(row)
        scales.append(scale)
        norms.append(norm or 1)  # Hadamard's factors, as _norms2 has them
    # phase 1 minimizes the sum of artificials: its reduced costs are minus
    # the unscaled rows' sum, here over their common denominator; phase 2's
    # row is the cost row, over its own
    d = lcm(*scales)
    weights = [d // s for s in scales]
    nums, scale = _scaled(c0)
    factor2 = max(_phase1_factor2(weights, min(norms, default=1)), sum(map(mul, nums, nums)))
    tab = _Tableau(rows, width + 1, prod(norms) * factor2)
    tab.obj = -sum(map(mul, weights, tab.rows))
    scans = _scans(tab, n, minus)
    basis = [ncol + i for i in range(m)]
    _, pivots = _run_simplex(tab, basis, cols, scans)
    if tab.rhs(tab.obj):
        return LPSolution(status=INFEASIBLE, pivots=pivots)

    # drive leftover artificials out of the basis (never into a minus
    # column: its variable's comes first); rows that cannot pivot are
    # redundant originals and get dropped
    drop = []
    for i in range(m):
        if basis[i] >= ncol:
            row = tab.rows[i]
            j = next((j for j in range(width) if tab.entry(row, j)), None)
            if j is None:
                drop.append(i)
            else:
                tab.pivot(i, j, 1, tab.column(j))
                basis[i] = j if j < n else j + ncol - width
                pivots += 1
    if drop:
        tab.rows = [row for i, row in enumerate(tab.rows) if i not in drop]
        basis = [bv for i, bv in enumerate(basis) if i not in drop]

    # phase 2: the real objective, over scale; a basic column (j, sign)
    # holds sign * d in its row, so sign * c_j of that row clears it
    obj = tab.d * tab.pack(nums)
    for row, bv in zip(tab.rows, basis):
        j, sign = cols[bv]
        if j < n and nums[j]:
            obj -= sign * nums[j] * row
    tab.obj = obj
    ok, more = _run_simplex(tab, basis, cols, scans)
    pivots += more
    if not ok:
        return LPSolution(status=UNBOUNDED, pivots=pivots)

    x = [Fraction(0)] * n
    for row, bv in zip(tab.rows, basis):
        j, sign = cols[bv]
        if j < n:
            x[j] = Fraction(sign * tab.rhs(row), tab.d)
    value = Fraction(-tab.rhs(tab.obj), tab.d * scale)
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


class CoefficientSetup(NamedTuple):
    """What the lattice-coefficient programs over one basis B at cost c share.

    rows are B's, image is B^T c, summed in ints (_dots), and objective
    is image as ints over scale.  gapcore.GapInstance keeps one at its own
    cost.
    """

    rows: tuple[tuple[int, ...], ...]
    image: list
    objective: list[int]
    scale: int


def coefficient_setup(basis, cost) -> CoefficientSetup:
    """The CoefficientSetup of the IntMatrix basis, its columns B's, at cost."""
    image = _dots(cost, basis.columns())
    return CoefficientSetup(basis.rows, image, *_scaled(image))


def _coefficient_lp(setup: CoefficientSetup, base, rows) -> LPSolution:
    """max c.(base - v) over v = base - B t, t free, by the simplex.

    The constraints are v_i >= 0 for i in rows.  Posed over the
    coefficients t this is
        max (B^T c).t  s.t.  (row i of B).t <= base_i,
    in rank-many free variables; the solution's x is t.  base is integer.
    """
    prob = LPProblem(
        objective=setup.image,
        sense="max",
        ub=tuple((setup.rows[i], base[i]) for i in rows),
        free=(True,) * len(setup.image),
    )
    return solve(prob)


def coefficient_optimum(
    setup: CoefficientSetup, base, support
) -> tuple[Fraction, list[int], int] | None:
    """max (B^T c).t subject to (row i of B).t <= base_i for i in support.

    Returns (value, t, d), the optimal t as ints over d, or None when the
    program is unbounded.  A square program, one row per lattice
    dimension with B_tau nonsingular, has the one vertex
    t* = B_tau^-1 base_tau, and is bounded exactly when the y with
    B_tau^T y = B^T c is >= 0; t* is then optimal.  One Gauss-Jordan pass
    of the simplex's own fraction-free pivots (_Tableau) over the packed
    rows [B_tau | I | base_tau] yields t* over the tableau's denominator
    d and, in the objective row's slack entries, y.  The objective row
    counts in the Hadamard bound that sizes the fields.  Every other
    program, a singular B_tau included, goes to the simplex
    (_coefficient_lp).
    """
    r = len(setup.image)
    if len(support) == r:
        rows = [
            [*setup.rows[i], *(int(k == m) for m in range(r)), base[i]]
            for k, i in enumerate(support)
        ]
        tab = _Tableau(rows, 2 * r + 1, prod(_norms2(rows + [setup.objective])))
        tab.obj = -tab.pack(setup.objective)
        live = list(range(r))
        pivoted = []  # the row each column j was pivoted into
        for j in range(r):
            col = tab.column(j)
            k = next((k for k in live if col[k]), None)
            if k is None:
                break
            live.remove(k)
            pivoted.append(k)
            tab.pivot(k, j, 1, col)
        else:
            if any(tab.entry(tab.obj, j) < 0 for j in range(r, 2 * r)):
                return None
            d = tab.d
            return (
                Fraction(tab.rhs(tab.obj), setup.scale * d),
                [tab.rhs(tab.rows[k]) for k in pivoted],
                d,
            )
    sol = _coefficient_lp(setup, base, support)
    if sol.status != OPTIMAL:
        return None
    t, d = _scaled(sol.x)
    return sol.value, t, d
