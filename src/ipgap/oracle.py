"""Brute-force verification path, kept independent of the algebraic route.

Nothing here touches Groebner bases or monomial ideals: the module imports
nothing from ipgap but lp, errors and exactmath.  Fibers are enumerated by
bounding every coordinate with an exact LP and filtering the resulting
integer box, and programs are solved by exhaustion; a box scan over a
matrix with nonnegative entries and no zero column instead solves every
fiber from one recursion over right-hand sides.  Slower than the algebra by
orders of magnitude, but each answer is checkable by hand, which is the
point: the main pipeline is tested against these functions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import floor, prod

from . import lp
from .errors import BadParameter, EmptyFiber, FiberCapExceeded, InfiniteFiber
from .exactmath import IntMatrix, _as_matrix, _echelon, _Packing, _scaled

DEFAULT_POINT_CAP = 10_000_000


def _coordinate_bounds(a: IntMatrix, b) -> list[int] | None:
    """Exact per-coordinate maxima over the fiber polytope, or None if empty."""
    n = a.ncols
    bounds = []
    for i in range(n):
        # max z_i is minus min -z_i
        sol = lp.lp_value(a, b, tuple(-1 if j == i else 0 for j in range(n)))
        if sol.status == lp.INFEASIBLE:
            return None
        if sol.status == lp.UNBOUNDED:
            raise InfiniteFiber(
                f"coordinate {i} is unbounded on the fiber; enumeration impossible"
            )
        bounds.append(floor(-sol.value))
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


def _check_box(a: IntMatrix, box) -> tuple[int, ...]:
    """box as ints, one nonnegative bound per column of a."""
    box = tuple(int(x) for x in box)
    if len(box) != a.ncols:
        raise BadParameter(f"box has {len(box)} bounds for {a.ncols} columns")
    if any(x < 0 for x in box):
        raise BadParameter("box bounds must be nonnegative")
    return box


def _ip_memo(a: IntMatrix, c, cap: int, box):
    """IP(b) = min c.z over the fiber of b, for a >= 0 with no zero column.

    Solves IP(b) = min over columns a_i <= b of c_i + IP(b - a_i), IP(0) = 0
    (Papadimitriou, "On the complexity of integer programming", JACM 28,
    1981): a nonzero point of the fiber has some z_i > 0, and lowering it by
    one leaves a point of the fiber of b - a_i.  Each b - a_i lies below b,
    so the walk ends; it runs depth first on an explicit stack, in ints over
    the costs' common denominator, and fills one memo (None marks an empty
    fiber) that serves every later call.  More than cap memo entries raise
    FiberCapExceeded.  Returns the function b -> IP(b) for nonempty fibers
    b = A z, z below box.

    Every right-hand side the walk meets lies below A box, so it is held
    as one int of exactmath._Packing at a width that fits A box and every
    column: a_i <= b is one guarded subtraction, b - a_i one more, and a
    memo key is one int instead of a tuple.
    """
    nums, scale = _scaled(c)
    columns = a.columns()
    top = max(max(a.mul_vector(box)), max(map(max, columns)))
    packing = _Packing(a.nrows, max(1, top.bit_length()))
    guards = packing.guards
    moves = tuple(zip(map(packing.pack, columns), nums))
    memo = {0: 0}

    def ip(b) -> Fraction:
        b = packing.pack(b)
        stack = [(b, None)]
        while stack:
            s, subs = stack.pop()
            if subs is not None:
                memo[s] = min((memo[t] + ci for t, ci in subs if memo[t] is not None), default=None)
                if len(memo) > cap:
                    raise FiberCapExceeded(
                        f"right-hand-side recursion reached {len(memo)} states, over the cap of {cap}"
                    )
            elif s not in memo:
                # first visit: queue s again, under its unsolved successors
                sg = s | guards
                subs = [(s - col, ci) for col, ci in moves if (sg - col) & guards == guards]
                stack.append((s, subs))
                stack += ((t, None) for t, _ in subs if t not in memo)
        return Fraction(memo[b], scale)

    return ip


def brute_gap_box(a, c, box, cap: int = DEFAULT_POINT_CAP) -> tuple[Fraction, tuple[int, ...]]:
    """Worst IP-minus-LP difference over right-hand sides seen in a box.

    Scans every z below the componentwise bounds in lexicographic order,
    groups by b = A z, and solves each fiber once, by the recursion of
    _ip_memo when every entry of A is >= 0 and no column is zero, else by
    exhausting it with brute_ip.  Each relaxation is posed over a full-row-
    rank subset of A's rows: every b here is A z, so it satisfies the rows
    left out, and the LP value is the same.  The result is a lower bound on
    the true gap, exact whenever the box contains a gap-attaining point.
    Returns the value and the first z (lexicographically) attaining it.
    """
    a = _as_matrix(a)
    box = _check_box(a, box)
    c = tuple(Fraction(x) for x in c)
    if len(c) != a.ncols:
        raise BadParameter("cost length does not match the column count")
    recursive = all(min(col, default=0) >= 0 and any(col) for col in a.columns())
    ip = _ip_memo(a, c, cap, box) if recursive else lambda b: brute_ip(a, b, c, cap)
    keep = [i for i, _, _ in _echelon(a.rows)]
    rows = [a.rows[i] for i in keep]
    seen: dict[tuple[int, ...], Fraction] = {}
    best = best_z = None
    for z in product(*(range(x + 1) for x in box)):
        b = a.mul_vector(z)
        if b not in seen:
            value = ip(b)
            relax = lp.lp_value(rows, [b[i] for i in keep], c)
            if relax.status != lp.OPTIMAL:
                raise InfiniteFiber("relaxation unbounded below on a box fiber")
            seen[b] = value - relax.value
        if best is None or seen[b] > best:
            best, best_z = seen[b], z
    return best, best_z
