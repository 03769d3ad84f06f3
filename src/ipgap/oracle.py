"""Brute-force verification path, kept independent of the algebraic route.

Nothing here touches Groebner bases or monomial ideals: fibers are
enumerated by bounding every coordinate with an exact LP and filtering the
resulting integer box, and programs are solved by exhaustion.  Slower by
orders of magnitude, but each answer is checkable by hand, which is the
point: the main pipeline is tested against these functions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import floor, prod
from operator import itemgetter

from . import lp
from .errors import BadParameter, EmptyFiber, FiberCapExceeded, InfiniteFiber
from .exactmath import IntMatrix

DEFAULT_POINT_CAP = 10_000_000


def _as_matrix(a) -> IntMatrix:
    return a if isinstance(a, IntMatrix) else IntMatrix(a)


def _coordinate_bounds(a: IntMatrix, b) -> list[int] | None:
    """Exact per-coordinate maxima over the fiber polytope, or None if empty."""
    n = a.ncols
    eq = tuple(
        (tuple(Fraction(x) for x in row), Fraction(bi)) for row, bi in zip(a.rows, b)
    )
    bounds = []
    for i in range(n):
        obj = tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
        sol = lp.solve(lp.LPProblem(objective=obj, sense="max", eq=eq))
        if sol.status == lp.INFEASIBLE:
            return None
        if sol.status == lp.UNBOUNDED:
            raise InfiniteFiber(
                f"coordinate {i} is unbounded on the fiber; enumeration impossible"
            )
        bounds.append(floor(sol.value))
    return bounds


def enumerate_fiber(a, b, cap: int = DEFAULT_POINT_CAP) -> list[tuple[int, ...]]:
    """All nonnegative integer points z with A z = b, lexicographically.

    The box defined by the per-coordinate LP maxima is scanned in Python
    ints over every coordinate but the last, which the remaining right-hand
    side then determines; a box larger than cap points aborts instead of
    grinding.
    """
    a = _as_matrix(a)
    b = tuple(int(x) for x in b)
    if len(b) != a.nrows:
        raise BadParameter("right-hand side length does not match the row count")
    if a.ncols == 0:
        return [()] if not any(b) else []
    bounds = _coordinate_bounds(a, b)
    if bounds is None:
        return []
    total = prod(x + 1 for x in bounds)
    if total > cap:
        raise FiberCapExceeded(
            f"fiber box holds {total} candidate points, over the cap of {cap}"
        )
    *head, last = a.columns()
    # a zero last column would have made its coordinate bound unbounded
    pivot = next(k for k, x in enumerate(last) if x)
    out = []

    def scan(z, rest):
        if len(z) == len(head):
            t, r = divmod(rest[pivot], last[pivot])
            if not r and 0 <= t <= bounds[-1] and all(
                x == t * c for x, c in zip(rest, last)
            ):
                out.append(z + (t,))
            return
        col = head[len(z)]
        for t in range(bounds[len(z)] + 1):
            scan(z + (t,), rest)
            rest = tuple(x - c for x, c in zip(rest, col))

    scan((), b)
    return out


def brute_ip(a, b, c, cap: int = DEFAULT_POINT_CAP) -> Fraction:
    """Optimal integer value min c.z over the fiber of b, by exhaustion."""
    a = _as_matrix(a)
    if len(c) != a.ncols:
        raise BadParameter("cost length does not match the column count")
    points = enumerate_fiber(a, b, cap)
    if not points:
        raise EmptyFiber(f"no nonnegative integer point solves A z = {tuple(b)}")
    c = tuple(Fraction(x) for x in c)
    return min(sum((ci * zi for ci, zi in zip(c, z)), Fraction(0)) for z in points)


def _gap_slice(a: IntMatrix, c, box, head: tuple, cap: int, seen=None):
    """Worst IP-minus-LP difference over the points of the box starting with head.

    Returns (value, first z attaining it), scanning lexicographically.  seen
    caches each fiber's difference by b = A z and may be shared across
    slices; the parallel CLI scan maps this function over a worker pool.
    """
    seen = {} if seen is None else seen
    best = best_z = None
    for rest in product(*(range(x + 1) for x in box[len(head):])):
        z = head + rest
        b = a.mul_vector(z)
        if b not in seen:
            ip = brute_ip(a, b, c, cap)
            relax = lp.lp_value(a, b, c)
            if relax.status != lp.OPTIMAL:
                raise InfiniteFiber("relaxation unbounded below on a box fiber")
            seen[b] = ip - relax.value
        if best is None or seen[b] > best:
            best, best_z = seen[b], z
    return best, best_z


def _check_box(a: IntMatrix, box) -> tuple[int, ...]:
    """box as ints, one nonnegative bound per column of a."""
    box = tuple(int(x) for x in box)
    if len(box) != a.ncols:
        raise BadParameter(f"box has {len(box)} bounds for {a.ncols} columns")
    if any(x < 0 for x in box):
        raise BadParameter("box bounds must be nonnegative")
    return box


def brute_gap_box(a, c, box, cap: int = DEFAULT_POINT_CAP) -> tuple[Fraction, tuple[int, ...]]:
    """Worst IP-minus-LP difference over right-hand sides seen in a box.

    Scans every z below the componentwise bounds, one slice per value of
    the first coordinate, groups by b = A z, and exhausts each fiber once
    (one cache serves every slice).  The result is a lower bound on the
    true gap, exact whenever the box contains a gap-attaining point.
    Returns the value and the first z (lexicographically) attaining it.
    """
    a = _as_matrix(a)
    box = _check_box(a, box)
    c = tuple(Fraction(x) for x in c)
    seen: dict[tuple[int, ...], Fraction] = {}
    heads = product(*(range(x + 1) for x in box[:1]))
    slices = (_gap_slice(a, c, box, head, cap, seen) for head in heads)
    # max keeps the first of equal values, so ties go to the earliest slice
    return max(slices, key=itemgetter(0))
