"""Test-side reference implementations and cross-check oracles.

Nothing in the package uses these: they restate lattice membership, rational
solving, standard pairs, component intersection, the throwing form of the
relaxation value, the Schrijver bound over every maximal minor and the
degree-bound link of a table model directly, so tests can check the
package's answers against them.  Each favours the plain textbook
construction over speed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ipgap import lp
from ipgap.errors import BadParameter, EmptyFiber, UnboundedProgram
from ipgap.exactmath import IntMatrix, LatticeBasis, hermite_normal_form
from ipgap.gapcore import gap_report
from ipgap.models import MarginalModel, entry_instance
from ipgap.monomial import MonomialIdeal


# ------------------------------------------------------------------ lattices


def lattice_contains(basis: LatticeBasis, v) -> bool:
    """Does v lie in the integer column span of basis?"""
    if len(v) != basis.nrows:
        raise ValueError("length mismatch")
    h, _ = hermite_normal_form(basis.transpose())
    vec = list(v)
    rows = [r for r in h.rows if any(r)]
    for row in rows:
        c = next(j for j, x in enumerate(row) if x)
        if vec[c] % row[c] != 0:
            return False
        q = vec[c] // row[c]
        if q:
            vec = [a - q * b for a, b in zip(vec, row)]
    return not any(vec)


def lattice_span_equal(b1: LatticeBasis, b2: LatticeBasis) -> bool:
    """Do two column bases generate the same sublattice of Z^n?"""
    if b1.nrows != b2.nrows:
        return False

    def canon(b: LatticeBasis):
        h, _ = hermite_normal_form(b.transpose())
        return tuple(r for r in h.rows if any(r))

    return canon(b1) == canon(b2)


def solve_rational(a: IntMatrix, b) -> tuple[Fraction, ...] | None:
    """One rational solution x of a.x = b, or None if inconsistent.

    Free coordinates are set to zero.
    """
    nr, nc = a.nrows, a.ncols
    m = [[Fraction(x) for x in row] + [Fraction(bv)] for row, bv in zip(a.rows, b)]
    piv_cols: list[int] = []
    r = 0
    for c in range(nc):
        sel = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
    for i in range(r, nr):
        if m[i][nc] != 0:
            return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(piv_cols):
        x[c] = m[i][nc]
    return tuple(x)


# ------------------------------------------------------------------- programs


def relaxation_value(a, b, c) -> Fraction:
    """lp.lp_value for callers that require an optimum to exist.

    Raises EmptyFiber when infeasible, UnboundedProgram when unbounded.
    """
    sol = lp.lp_value(a, b, c)
    if sol.status == lp.INFEASIBLE:
        raise EmptyFiber("relaxation is infeasible for this right-hand side")
    if sol.status == lp.UNBOUNDED:
        raise UnboundedProgram("relaxation is unbounded below")
    return sol.value


def maximal_minors(a: IntMatrix) -> list[int]:
    """Every maximal minor of a, in column-subset order, at its rank.

    The minors are those of the first maximal set of linearly independent
    rows, kept greedily in row order; the zero-rank matrix has none.
    """
    r = a.rank()
    if r == 0:
        return []
    kept: list = []
    for row in a.rows:
        trial = kept + [row]
        if IntMatrix(trial, a.ncols).rank() == len(trial):
            kept.append(row)
        if len(kept) == r:
            break
    return [
        IntMatrix([[row[j] for j in cols] for row in kept], r).det()
        for cols in itertools.combinations(range(a.ncols), r)
    ]


def schrijver_bound(a: IntMatrix, c) -> Fraction:
    """n D(A) sum|c_i| with D(A) the largest |maximal minor|, one det per subset."""
    c = tuple(Fraction(x) for x in c)
    if len(c) != a.ncols:
        raise BadParameter("cost length does not match the column count")
    minors = maximal_minors(a)
    if not minors:
        return Fraction(0)
    total = sum((abs(x) for x in c), Fraction(0))
    return a.ncols * max(map(abs, minors)) * total


# ---------------------------------------------------------- monomial ideals


def intersection_of_components(comps, nvars: int) -> MonomialIdeal:
    ideal = None
    for q in comps:
        ideal = q.ideal() if ideal is None else ideal.intersect(q.ideal())
    if ideal is None:
        raise BadParameter("no components to intersect")
    return ideal


@dataclass(frozen=True, order=True)
class StandardPair:
    """A maximal free set of monomials outside an ideal.

    root is an exponent vector supported off free; the pair stands for all
    monomials root + w with w supported on free, none of which lie in the
    ideal, and no larger pair (bigger free set after zeroing, or different
    root giving a strictly larger family) stays outside.
    """

    root: tuple[int, ...]
    free: tuple[int, ...]


def _admissible(gens, root, free_set) -> bool:
    for g in gens:
        if not any(g[i] > root[i] for i in range(len(root)) if i not in free_set):
            return False
    return True


def standard_pairs(ideal: MonomialIdeal) -> tuple[StandardPair, ...]:
    """All standard pairs, by direct enumeration (exponential; small inputs).

    For the zero ideal this is the single pair with every variable free.
    The unit ideal has none.
    """
    n = ideal.nvars
    if ideal.is_zero:
        return (StandardPair((0,) * n, tuple(range(n))),)
    if ideal.is_unit:
        return ()
    gens = ideal.gens
    degree_cap = [max((g[i] for g in gens), default=0) for i in range(n)]
    pairs = []
    for free in itertools.chain.from_iterable(
        itertools.combinations(range(n), k) for k in range(n + 1)
    ):
        free_set = set(free)
        fixed = [i for i in range(n) if i not in free_set]
        ranges = [range(max(degree_cap[i], 1)) for i in fixed]
        for combo in itertools.product(*ranges):
            root = [0] * n
            for i, v in zip(fixed, combo):
                root[i] = v
            root = tuple(root)
            if not _admissible(gens, root, free_set):
                continue
            maximal = True
            for i in fixed:
                bigger = root[:i] + (0,) + root[i + 1 :]
                if _admissible(gens, bigger, free_set | {i}):
                    maximal = False
                    break
            if maximal:
                pairs.append(StandardPair(root, tuple(free)))
    return tuple(sorted(pairs))


# ------------------------------------------------------------------ models


def entry_degree_bound_check(model: MarginalModel) -> bool:
    """Lower-bound sanity link between the gap and the generators.

    The minimization-sense gap plus one must cover the largest degree of
    the first variable in any minimal generator of the non-optimal ideal.
    """
    inst = entry_instance(model, "min")
    report = gap_report(inst)
    maxdeg = max((g[0] for g in inst.ideal.gens), default=0)
    return report.gap + 1 >= maxdeg
