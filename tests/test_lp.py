import random
from collections import Counter, namedtuple
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import relaxation_value
from ipgap import cli, gapcore, lp, toric
from ipgap.errors import BadParameter, EmptyFiber, NonTerminatingOrder, UnboundedProgram
from ipgap.exactmath import IntMatrix, _dots, _scaled, _span_basis


def test_simple_min():
    # min x+y st x+2y = 4, x,y >= 0 -> y=2
    sol = lp.solve(
        lp.LPProblem(objective=(1, 1), eq=(((1, 2), 4),))
    )
    assert sol.status == lp.OPTIMAL
    assert sol.value == 2
    assert sol.x == (Fraction(0), Fraction(2))


def test_max_with_ub_rows():
    # max 3x+2y st x+y <= 4, x+3y <= 6 -> (4,0) value 12
    sol = lp.solve(
        lp.LPProblem(objective=(3, 2), sense="max", ub=(((1, 1), 4), ((1, 3), 6)))
    )
    assert sol.status == lp.OPTIMAL
    assert sol.value == 12
    assert sol.x == (Fraction(4), Fraction(0))


def test_free_variable():
    # min y st y >= x - 3, y >= -x + 1, x free, y free: min at x=2, y=-1
    prob = lp.LPProblem(
        objective=(0, 1),
        ub=(((1, -1), 3), ((-1, -1), -1)),
        free=(True, True),
    )
    sol = lp.solve(prob)
    assert sol.status == lp.OPTIMAL
    assert sol.value == -1
    assert sol.x == (Fraction(2), Fraction(-1))


def test_infeasible():
    sol = lp.solve(lp.LPProblem(objective=(1,), eq=(((1,), -2),)))
    assert sol.status == lp.INFEASIBLE


def test_unbounded():
    sol = lp.solve(lp.LPProblem(objective=(-1,), ub=()))
    assert sol.status == lp.UNBOUNDED
    sol = lp.solve(lp.LPProblem(objective=(1,), sense="max", ub=(((-1,), 0),)))
    assert sol.status == lp.UNBOUNDED


def test_unknown_sense_is_rejected():
    with pytest.raises(BadParameter):
        lp.LPProblem(objective=(1,), sense="up")


def test_degenerate_cycling_guard():
    # classic Beale-style degenerate setup; Bland's rule must terminate
    prob = lp.LPProblem(
        objective=(Fraction(-3, 4), 150, Fraction(-1, 50), 6),
        ub=(
            ((Fraction(1, 4), -60, Fraction(-1, 25), 9), 0),
            ((Fraction(1, 2), -90, Fraction(-1, 50), 3), 0),
            ((0, 0, 1, 0), 1),
        ),
    )
    sol = lp.solve(prob)
    assert sol.status == lp.OPTIMAL
    assert sol.value == Fraction(-1, 20)


def test_coin_relaxation_value_and_point():
    a = IntMatrix([[1, 1, 1, 1], [1, 5, 10, 25]])
    c = (0, 1, 0, 1)
    sol = lp.lp_value(a, (10, 114), c)
    assert sol.value == Fraction(14, 15)
    assert sol.x == (Fraction(0), Fraction(0), Fraction(136, 15), Fraction(14, 15))
    assert lp.lp_value(a, (0, 0), c).value == 0
    assert lp.lp_value(a, (1, 1), c).x == (1, 0, 0, 0)


def test_lp_value_statuses():
    a = IntMatrix([[1, 1]])
    assert lp.lp_value(a, (-1,), (1, 1)).status == lp.INFEASIBLE
    assert lp.lp_value(IntMatrix([[1, -1]]), (0,), (-1, 0)).status == lp.UNBOUNDED
    with pytest.raises(EmptyFiber):
        relaxation_value(a, (-1,), (1, 1))
    with pytest.raises(UnboundedProgram):
        relaxation_value(IntMatrix([[1, -1]]), (0,), (-1, 0))


def _assert_proven_optimal(prob, sol):
    """sol.x is feasible and attains sol.value, the reference's proven optimum.

    The reference's certificate (standard form min c.x, a.x = b, x >= 0)
    proves its optimum: y.b == c.xstd and c - y.a >= 0.
    """
    assert sol.status == lp.OPTIMAL
    x = sol.x
    for r, rhs in prob.eq:
        assert sum(map(mul, r, x)) == rhs
    for r, rhs in prob.ub:
        assert sum(map(mul, r, x)) <= rhs
    assert all(xi >= 0 for xi, free in zip(x, prob.free) if not free)
    assert sum(map(mul, prob.objective, x)) == sol.value
    ref = reference_solve(prob)
    a, b, c, y, xstd = ref.certificate
    assert sum(map(mul, y, b)) == sum(map(mul, c, xstd))
    for j in range(len(c)):
        assert c[j] - sum(y[i] * a[i][j] for i in range(len(a))) >= 0
    assert sol.value == ref.value


def test_certificate_on_optimum():
    prob = lp.LPProblem(
        objective=(2, 3, 1),
        eq=(((1, 1, 1), 6),),
        ub=(((1, 0, 2), 5),),
    )
    _assert_proven_optimal(prob, lp.solve(prob))


small_lp = st.tuples(
    st.integers(1, 3),
    st.integers(1, 3),
    st.data(),
)


@settings(max_examples=120, deadline=None)
@given(small_lp)
def test_duality_certificate_random(args):
    n, m, data = args
    ints = st.integers(-5, 5)
    obj = data.draw(st.lists(ints, min_size=n, max_size=n))
    rows = data.draw(
        st.lists(st.lists(ints, min_size=n, max_size=n), min_size=m, max_size=m)
    )
    rhs = data.draw(st.lists(st.integers(0, 8), min_size=m, max_size=m))
    prob = lp.LPProblem(
        objective=tuple(obj),
        ub=tuple((tuple(r), h) for r, h in zip(rows, rhs)),
    )
    sol = lp.solve(prob)
    # origin is feasible (rhs >= 0), so never infeasible
    assert sol.status in (lp.OPTIMAL, lp.UNBOUNDED)
    if sol.status == lp.OPTIMAL:
        _assert_proven_optimal(prob, sol)
        assert sol.value <= 0  # origin gives 0


def test_float_oracle_agreement():
    scipy = pytest.importorskip("scipy")
    from scipy.optimize import linprog

    a = IntMatrix([[1, 1, 1, 1], [1, 5, 10, 25]])
    c = (0, 1, 0, 1)
    for b in [(10, 114), (7, 52), (12, 300), (4, 40)]:
        res = linprog(c, A_eq=[list(r) for r in a.rows], b_eq=list(b), method="highs")
        sol = lp.lp_value(a, b, c)
        if res.status == 0:
            assert sol.status == lp.OPTIMAL
            assert abs(float(sol.value) - res.fun) < 1e-7
        else:
            assert sol.status == lp.INFEASIBLE


# ------------------------------------------------ textbook reference tableau
#
# The two-phase simplex on a tableau of Fraction cells, with the same
# column layout, Bland's rule, artificial cleanup and drop path as lp.solve.
# lp.solve must agree with it on everything, pivot count included, which
# pins the pivot sequence.  `seen` collects the paths a problem exercised.


def _ref_pivot(rows, obj, r, j):
    inv = Fraction(1) / rows[r][j]
    rows[r] = pr = [x * inv for x in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[j]:
            f = row[j]
            rows[i] = [a - f * p for a, p in zip(row, pr)]
    if obj[j]:
        f = obj[j]
        obj[:] = [a - f * p for a, p in zip(obj, pr)]


def _ref_simplex(rows, obj, basis, eligible, seen, minus_cols):
    rhs = len(obj) - 1
    pivots = 0
    while True:
        enter = next((j for j in eligible if obj[j] < 0), None)
        if enter is None:
            return True, pivots
        if enter in minus_cols:
            seen.add("minus column entered")
        leave = best = None
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                ratio = row[rhs] / a
                if best is not None and ratio == best:
                    seen.add("tie")
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            return False, pivots
        _ref_pivot(rows, obj, leave, enter)
        basis[leave] = enter
        pivots += 1


Reference = namedtuple("Reference", "status value x dual certificate pivots")


def reference_solve(problem, seen=None):
    """A Reference(status, value, x, dual, certificate, pivots) from the Fraction tableau.

    dual holds one multiplier per row as entered (eq rows, then ub rows) for
    the minimization reading; certificate is (a, b, c, y, xstd) in standard
    form min c.x, a.x = b, x >= 0, where y.b == c.xstd and c - y.a >= 0.
    """
    seen = set() if seen is None else seen
    n = problem.nvars
    minimize = problem.sense == "min"
    c0 = problem.objective if minimize else tuple(-x for x in problem.objective)
    minus = {}
    ncol = n
    for i in range(n):
        if problem.free[i]:
            minus[i] = ncol
            ncol += 1
    slack = {}
    for k in range(len(problem.ub)):
        slack[k] = ncol
        ncol += 1
    c = [Fraction(0)] * ncol
    for i in range(n):
        c[i] = c0[i]
        if i in minus:
            c[minus[i]] = -c0[i]
    arows, brhs = [], []
    for k, (r, b) in enumerate(problem.eq + problem.ub):
        row = [Fraction(0)] * ncol
        for i, a in enumerate(r):
            row[i] = a
            if i in minus:
                row[minus[i]] = -a
        if k >= len(problem.eq):
            row[slack[k - len(problem.eq)]] = Fraction(1)
        arows.append(row)
        brhs.append(b)
    m = len(arows)
    entries = [x for r in arows for x in r] + brhs
    if arows and all(Fraction(x).denominator == 1 for x in entries):
        seen.add("integral rows")
    flipped = [b < 0 for b in brhs]
    if any(flipped):
        seen.add("flip")
    arows = [[-x for x in r] if f else r for r, f in zip(arows, flipped)]
    brhs = [-b if f else b for b, f in zip(brhs, flipped)]
    T = ncol + m + 1
    rows = [
        arows[i] + [Fraction(int(j == i)) for j in range(m)] + [brhs[i]]
        for i in range(m)
    ]
    basis = [ncol + i for i in range(m)]
    obj = [Fraction(0)] * ncol + [Fraction(1)] * m + [Fraction(0)]
    for row in rows:
        obj = [a - b for a, b in zip(obj, row)]
    eligible = range(ncol)
    _, pivots = _ref_simplex(rows, obj, basis, eligible, seen, minus.values())
    if obj[T - 1] != 0:
        seen.add("infeasible")
        return Reference(lp.INFEASIBLE, None, None, None, None, pivots)
    drop = []
    for i in range(m):
        if basis[i] >= ncol:
            j = next((j for j in eligible if rows[i][j] != 0), None)
            if j is None:
                drop.append(i)
            else:
                if rows[i][j] < 0:
                    seen.add("negative cleanup pivot")
                _ref_pivot(rows, obj, i, j)
                basis[i] = j
                pivots += 1
    if drop:
        seen.add("drop")
        rows = [row for i, row in enumerate(rows) if i not in drop]
        basis = [bv for i, bv in enumerate(basis) if i not in drop]
    obj = c + [Fraction(0)] * (m + 1)
    for i, bv in enumerate(basis):
        if obj[bv]:
            f = obj[bv]
            obj = [a - f * p for a, p in zip(obj, rows[i])]
    ok, more = _ref_simplex(rows, obj, basis, eligible, seen, minus.values())
    pivots += more
    if not ok:
        seen.add("unbounded")
        return Reference(lp.UNBOUNDED, None, None, None, None, pivots)
    xstd = [Fraction(0)] * ncol
    for i, bv in enumerate(basis):
        xstd[bv] = rows[i][T - 1]
    x = tuple(xstd[i] - xstd[minus[i]] if i in minus else xstd[i] for i in range(n))
    value = sum((ci * xi for ci, xi in zip(c0, x)), Fraction(0))
    ystd = [Fraction(0) if i in drop else -obj[ncol + i] for i in range(m)]
    dual = tuple(-y if f else y for y, f in zip(ystd, flipped))
    cert = ([r[:ncol] for r in arows], brhs, c, ystd, xstd)
    return Reference(lp.OPTIMAL, value if minimize else -value, x, dual, cert, pivots)


def _fields(sol):
    """What lp.solve returns, read off an LPSolution or a Reference."""
    return sol.status, sol.value, sol.x, sol.pivots


def _random_problem(rng):
    """A small LP mixing every path of the solver; see test_cross_check_coverage."""
    n = rng.randint(1, 5)

    def coeff():
        r = rng.random()
        if r < 0.3:
            return 0
        if r < 0.9:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-10**15, 10**15), rng.randint(1, 10**15))

    x0 = [rng.choice((0, 0, 1, 2, Fraction(1, 3))) for _ in range(n)]

    def rhs(row, slack):
        r = rng.random()
        if r < 0.15:
            return coeff()  # arbitrary: may be infeasible
        dot = sum(a * x for a, x in zip(row, x0))
        return dot + (slack if r < 0.5 else 0)  # 0 slack: degenerate vertex

    eq = []
    for _ in range(rng.randint(0, 3)):
        row = [coeff() for _ in range(n)]
        eq.append((row, rhs(row, 0)))
    if eq and rng.random() < 0.35:
        # redundant row: a combination of existing ones, consistent or not
        k = rng.randint(-2, 2) or 1
        (r1, b1), (r2, b2) = rng.choice(eq), rng.choice(eq)
        eq.append(([k * a + b for a, b in zip(r1, r2)], k * b1 + b2))
    ub = []
    for _ in range(rng.randint(0, 3)):
        row = [coeff() for _ in range(n)]
        ub.append((row, rhs(row, rng.randint(0, 3))))
    return lp.LPProblem(
        objective=[coeff() for _ in range(n)],
        sense=rng.choice(("min", "max")),
        eq=tuple((tuple(r), b) for r, b in eq),
        ub=tuple((tuple(r), b) for r, b in ub),
        free=tuple(rng.random() < 0.3 for _ in range(n)),
    )


CROSS_CHECK = [_random_problem(random.Random(seed)) for seed in range(320)]


class _Runaway(Exception):
    pass


def _disagreements(problems):
    """Indices of the problems on which lp.solve differs from the reference."""
    bad = []
    for k, prob in enumerate(problems):
        want = _fields(reference_solve(prob))
        try:
            got = _fields(lp.solve(prob))
        except _Runaway:
            got = None
        if got != want:
            bad.append(k)
    return bad


def _capped(pivot):
    """Wrap a pivot function so a cycling faulty kernel raises instead of hanging."""
    calls = iter(range(50_000))

    def wrapped(*args):
        if next(calls, None) is None:
            raise _Runaway
        pivot(*args)

    return wrapped


def test_cross_check_against_fraction_tableau():
    assert _disagreements(CROSS_CHECK) == []


def test_cross_check_coverage():
    seen = set()
    for prob in CROSS_CHECK:
        reference_solve(prob, seen)
        if prob.eq:
            seen.add("eq")
        if any(prob.free):
            seen.add("free")
        if any(b < 0 for _, b in prob.ub):
            seen.add("negative ub rhs")
        if any(Fraction(a).denominator > 10**6 for r, _ in prob.eq + prob.ub for a in r):
            seen.add("large denominators")
    assert seen >= {
        "eq", "free", "negative ub rhs", "large denominators", "flip", "tie",
        "drop", "negative cleanup pivot", "infeasible", "unbounded",
        "minus column entered", "integral rows",
    }


def test_cross_check_catches_inverted_tie_break(monkeypatch):
    leaving = lp._leaving_row
    # ties then go to the largest basic index instead of the smallest
    monkeypatch.setattr(
        lp, "_leaving_row", lambda tab, basis, col: leaving(tab, [-b for b in basis], col)
    )
    monkeypatch.setattr(lp._Tableau, "pivot", _capped(lp._Tableau.pivot))
    assert _disagreements(CROSS_CHECK)


def test_cross_check_catches_negative_denominator(monkeypatch):
    pivot = lp._Tableau.pivot

    def negated(tab, r, *col):
        # the packed pivot row negated: it then stands for its rationals
        # over -d, a row the kernel, reading signs off the fields against
        # the one positive d, takes for minus itself
        pivot(tab, r, *col)
        tab.rows[r] = -tab.rows[r]

    monkeypatch.setattr(lp._Tableau, "pivot", _capped(negated))
    assert _disagreements(CROSS_CHECK)


def test_cross_check_catches_unrescaled_zero_rows(monkeypatch):
    pivot = lp._Tableau.pivot

    def unrescaled(tab, r, j, sign, col):
        # rows with a zero in the pivot column left over the old d
        kept = {i: x for i, (x, f) in enumerate(zip(tab.rows, col)) if not f}
        pivot(tab, r, j, sign, col)
        for i, x in kept.items():
            tab.rows[i] = x

    monkeypatch.setattr(lp._Tableau, "pivot", _capped(unrescaled))
    assert _disagreements(CROSS_CHECK)


def test_exact_near_2_to_the_70():
    # max x + y st (a+1)x + ay <= a^2, ax + (a+1)y <= a^2: optimum at
    # x = y = a^2/(2a+1), both rows tight
    a = 2**70
    prob = lp.LPProblem(
        objective=(1, 1),
        sense="max",
        ub=(((a + 1, a), a * a), ((a, a + 1), a * a)),
    )
    sol = lp.solve(prob)
    t = Fraction(a * a, 2 * a + 1)
    assert sol.status == lp.OPTIMAL
    assert sol.value == 2 * t
    assert sol.x == (t, t)
    assert _fields(sol) == _fields(reference_solve(prob))


def _sylvester(k):
    """The 2^k x 2^k Sylvester-Hadamard matrix, as row tuples."""
    rows = [(1,)]
    for _ in range(k):
        rows = [r + r for r in rows] + [r + tuple(-x for x in r) for r in rows]
    return rows


def test_tableau_reaching_hadamards_bound(monkeypatch):
    # the rows of the 8 x 8 Sylvester-Hadamard matrix as equality rows with
    # zero right-hand sides: |det| = 4096 is the product of the row norms,
    # and with a unit or zero cost row it is the whole bound the field
    # width is sized by.  The last basis is all eight columns, so the
    # common denominator and every basic entry reach it: a width one bit
    # narrower cannot hold those fields
    h = _sylvester(3)
    assert prod(sum(x * x for x in r) for r in h) == 4096**2
    largest = []
    pivot = lp._Tableau.pivot

    def watched(tab, *args):
        pivot(tab, *args)
        largest.append(max(abs(tab.entry(x, k)) for x in tab.rows for k in range(9)))

    monkeypatch.setattr(lp._Tableau, "pivot", watched)
    unit = (1, 0, 0, 0, 0, 0, 0, 0)
    for sense, c in [("min", unit), ("max", tuple(-x for x in unit[::-1])), ("min", (0,) * 8)]:
        largest.clear()
        prob = lp.LPProblem(objective=c, sense=sense, eq=tuple((r, 0) for r in h))
        sol = lp.solve(prob)
        assert _fields(sol) == _fields(reference_solve(prob))
        assert sol.x == (0,) * 8 and sol.pivots == 8
        assert max(largest) == largest[-1] == 4096


DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _posed(monkeypatch, capsys, argv):
    """Every program lp.solve is given while `ipgap argv` runs from cold memos."""
    for name in ("_of_matrix", "_of_lattice"):
        memo = lru_cache(maxsize=gapcore.LATTICE_MEMO_SIZE)(getattr(gapcore, name).__wrapped__)
        monkeypatch.setattr(gapcore, name, memo)
    monkeypatch.setattr(toric, "_check_span", lru_cache(maxsize=64)(toric._check_span.__wrapped__))
    problems = []
    solve = lp.solve

    def recorded(problem):
        problems.append(problem)
        return solve(problem)

    monkeypatch.setattr(lp, "solve", recorded)
    assert cli.main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(lp, "solve", solve)
    return problems


def test_cross_check_on_the_programs_the_package_poses(monkeypatch, capsys):
    # CROSS_CHECK's programs have at most 5 variables; the programs of the
    # fan's cone centers have 8, 4 of them free, and k + 8 rows, and k4's
    # auxiliary programs up to 16 rows over 5 free variables
    fan = _posed(monkeypatch, capsys, ["fan", str(DEMOS / "knapsack.txt")])
    k4 = _posed(monkeypatch, capsys, ["gap", str(DEMOS / "k4.txt")])
    centers = [p for p in fan if p.nvars == 8 and sum(p.free) == 4]
    assert len(centers) == 11 and len(k4) == 17
    assert max(len(p.ub) for p in k4) == 16
    for prob in fan + k4:
        assert _fields(lp.solve(prob)) == _fields(reference_solve(prob))


# ------------------------------------------------------- exact inputs as given


def _recast(prob, as_number):
    """prob with every objective, row and right-hand-side entry mapped."""
    vec = lambda v: tuple(map(as_number, v))
    return lp.LPProblem(
        objective=vec(prob.objective),
        sense=prob.sense,
        eq=tuple((vec(r), as_number(b)) for r, b in prob.eq),
        ub=tuple((vec(r), as_number(b)) for r, b in prob.ub),
        free=prob.free,
    )


def _int_if_integral(x):
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def test_integral_entries_as_ints_solve_alike():
    # the rows are scaled to integers only in the tableau, so equal
    # rationals give equal tableaux whichever type carries them
    ints = 0
    for prob in CROSS_CHECK:
        as_ints = _recast(prob, _int_if_integral)
        as_fractions = _recast(prob, Fraction)
        entries = as_ints.objective + tuple(
            x for r, b in as_ints.eq + as_ints.ub for x in r + (b,)
        )
        assert not any(type(x) is Fraction and x.denominator == 1 for x in entries)
        ints += sum(type(x) is int for x in entries)
        assert all(type(x) is Fraction for x in as_fractions.objective)
        assert _fields(lp.solve(as_ints)) == _fields(lp.solve(as_fractions))
    assert ints > 1000


def test_other_numbers_are_converted_exactly():
    # a float is read as the binary rational it holds, a Decimal as its
    # decimal; ints stay ints
    prob = lp.LPProblem(
        objective=(1, Decimal("0.7"), 0),
        sense="max",
        ub=(((1, 1, 1), Decimal("2.5")), ((0.1, 0, 0), Fraction(1, 5))),
    )
    assert [type(x) for x in prob.objective] == [int, Fraction, int]
    assert prob.objective == (1, Fraction(7, 10), 0)
    assert prob.ub == (((1, 1, 1), Fraction(5, 2)), ((Fraction(0.1), 0, 0), Fraction(1, 5)))
    assert Fraction(0.1) != Fraction(1, 10)
    # x1 = 0.2 / float(0.1), just under 2, and x2 takes the rest of 2.5
    t = Fraction(1, 5) / Fraction(0.1)
    sol = lp.solve(prob)
    assert t < 2
    assert sol.x == (t, Fraction(5, 2) - t, 0)
    assert sol.value == t + Fraction(7, 10) * (Fraction(5, 2) - t)


def _fraction_coefficient_problem(vectors, cost, base, rows, extra=()):
    """The all-Fraction LPProblem _coefficient_lp once built, written out.

    Each (a, r) in extra adds the row a.v <= r, as the zero-cost-ray test
    once did.
    """

    def image(a):  # B^T a
        return tuple(
            sum((Fraction(x) * y for x, y in zip(a, col)), Fraction(0)) for col in vectors
        )

    def dot(a, v):
        return sum((Fraction(x) * y for x, y in zip(a, v)), Fraction(0))

    return lp.LPProblem(
        objective=image(cost),
        sense="max",
        ub=tuple((tuple(Fraction(v[i]) for v in vectors), Fraction(base[i])) for i in rows)
        + tuple((tuple(-x for x in image(a)), Fraction(r) - dot(a, base)) for a, r in extra),
        free=(True,) * len(vectors),
    )


def _coefficient_case(rng):
    n, k = rng.randint(1, 5), rng.randint(1, 3)
    vectors = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(k)]
    base = tuple(rng.randint(-2, 3) for _ in range(n))
    rows = sorted(rng.sample(range(n), rng.randint(0, n)))

    def rational():
        if rng.random() < 0.4:
            return rng.randint(-4, 4)
        return Fraction(rng.randint(-10**15, 10**15), rng.randint(1, 10**15))

    cost = tuple(rational() for _ in range(n))
    return vectors, cost, base, rows


COEFFICIENT_CASES = [_coefficient_case(random.Random(seed)) for seed in range(300)]


def _coefficient_disagreements():
    bad = []
    for k, case in enumerate(COEFFICIENT_CASES):
        want = _fields(reference_solve(_fraction_coefficient_problem(*case)))
        vectors, cost, base, rows = case
        setup = lp.coefficient_setup(IntMatrix(vectors).transpose(), cost)
        if _fields(lp._coefficient_lp(setup, base, rows)) != want:
            bad.append(k)
    return bad


def test_coefficient_lp_matches_the_fraction_problem():
    assert _coefficient_disagreements() == []


def test_coefficient_cases_cover_the_paths():
    seen = set()
    for case in COEFFICIENT_CASES:
        vectors, cost, base, rows = case
        seen.add(reference_solve(_fraction_coefficient_problem(*case)).status)
        if any(base[i] < 0 for i in rows):
            seen.add("negative base")
        if any(Fraction(x).denominator > 10**6 for x in cost):
            seen.add("large denominators")
        if all(type(x) is int for x in cost):
            seen.add("integral cost")
    assert seen == {
        lp.OPTIMAL, lp.UNBOUNDED, lp.INFEASIBLE,
        "negative base", "large denominators", "integral cost",
    }


def test_coefficient_cross_check_catches_an_unscaled_image(monkeypatch):
    # B^T a left over a's common denominator instead of divided by it
    def unscaled(a, vectors):
        nums, _ = _scaled(a)
        return [sum(map(mul, nums, w)) for w in vectors]

    monkeypatch.setattr(lp, "_dots", unscaled)
    assert _coefficient_disagreements()


def _ray_case(rng):
    """A span's reduced echelon basis on 2-4 coordinates and a cost."""
    n = rng.choice((2, 3, 3, 4))
    vectors = [tuple(rng.randint(-2, 3) for _ in range(n)) for _ in range(rng.randint(1, n))]
    weights = (0, 0, 1, 2, -1, Fraction(rng.randint(1, 7), rng.randint(1, 5)))
    return _span_basis(vectors), tuple(rng.choice(weights) for _ in range(n))


def test_zero_cost_ray_verdict_matches_the_old_program():
    # toric._check_span's feasibility system (s = B^T (p - q) >= 0,
    # c.s = 0, sum s = 1) against the program it replaced, solved on the
    # Fraction tableau: max sum v over v = -B^T t >= 0 with the extra rows
    # c.v <= 0 and sum v <= 1.  Only spans that pass Farkas's test reach
    # the ray test; among them are spans whose nonnegative directions all
    # cost more than zero, where only the c.s row says no
    rng = random.Random(20261104)
    done = set()
    seen = Counter()
    while len(done) < 4000:
        span, c = _ray_case(rng)
        n = len(c)
        if not span or (span, c) in done or not lp.feasible(span, _dots(c, span)):
            continue
        done.add((span, c))
        ones, zeros = (1,) * n, (0,) * n
        old = _fraction_coefficient_problem(span, (-1,) * n, zeros, range(n), ((c, 0), (ones, 1)))
        sol = reference_solve(old)
        want = sol.status == lp.OPTIMAL and sol.value > 0
        try:
            toric._check_span(span, c, "lex")
            got = False
        except NonTerminatingOrder:
            got = True
        assert got == want, (span, c)
        if want:
            seen["ray"] += 1
        else:
            setup = lp.coefficient_setup(IntMatrix(span).transpose(), (-1,) * n)
            if lp._coefficient_lp(setup, zeros, range(n)).status == lp.UNBOUNDED:
                seen["positive-cost direction"] += 1
    assert seen["ray"] >= 300 and seen["positive-cost direction"] >= 300, seen
