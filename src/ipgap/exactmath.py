"""Exact integer linear algebra: matrices, Hermite normal form, kernel lattices.

Everything here runs on Python ints (arbitrary precision) and
fractions.Fraction, as does the rest of the package: no fixed-width integer
type is used anywhere, so no result ever depends on machine word width.
The two workhorses are:

* hermite_normal_form -- row-style HNF H = U.M with unimodular U,
* kernel_lattice      -- a canonical basis of ker(A) intersected with Z^n.

Rational vectors become integer ones in one place, _scaled (over the least
common denominator), with _primitive_vector and _dots on top of it.
Nonnegative integer vectors become single ints in one place too, _Packing,
which the Groebner core and the oracle's memo share.

Convention for the HNF used throughout the package: nonzero rows first,
pivot columns strictly increasing, pivots positive, and every entry above a
pivot reduced into [0, pivot).  This makes the HNF of a given row lattice
unique, which is what lets kernel bases serve as fixtures in tests.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import lshift, mul, neg

from .errors import BadParameter, MinorCapExceeded, Value


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class IntMatrix(Value):
    """Immutable integer matrix stored as a tuple of row tuples.

    Rows may be empty (0 x n) and columns may be empty (m x 0); both occur
    naturally as kernels of injective or zero maps.  ncols must be supplied
    for matrices with no rows so the ambient dimension is not lost.
    """

    rows: tuple[tuple[int, ...], ...]
    width: int

    def __init__(self, rows, width=None):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise BadParameter("ragged rows")
            if width is not None and width != w:
                raise BadParameter("width disagrees with rows")
            width = w
        elif width is None:
            raise BadParameter("width required for an empty matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "width", int(width))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.width

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.column(j) for j in range(self.ncols))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.columns(), self.nrows)

    def mul_vector(self, v) -> tuple[int, ...]:
        if len(v) != self.ncols:
            raise BadParameter("length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def rank(self) -> int:
        return len(_echelon(self.rows))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        n = self.nrows
        if n != self.ncols:
            raise BadParameter("determinant of a non-square matrix")
        if n == 0:
            return 1
        m = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


# A lattice is handed around as the integer matrix whose columns generate it.
LatticeBasis = IntMatrix


def _as_matrix(a) -> IntMatrix:
    return a if isinstance(a, IntMatrix) else IntMatrix(a)


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (h, u) with u . m = h (the matrix product), u unimodular, h in the convention
    documented at module top.  Runs in exact integer arithmetic; entries can
    grow but never overflow.
    """
    nr, nc = m.nrows, m.ncols
    rows = [list(r) for r in m.rows]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    piv_row = 0
    pivots: list[tuple[int, int]] = []
    for col in range(nc):
        # pick a row at or below piv_row with a nonzero entry in this column
        sel = None
        for i in range(piv_row, nr):
            if rows[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[piv_row], rows[sel] = rows[sel], rows[piv_row]
        u[piv_row], u[sel] = u[sel], u[piv_row]
        for i in range(piv_row + 1, nr):
            if rows[i][col] == 0:
                continue
            a, b = rows[piv_row][col], rows[i][col]
            x, y, g = xgcd(a, b)
            ag, bg = a // g, b // g
            # 2x2 unimodular combination: new pivot row gets gcd, row i gets 0
            rp, ri = rows[piv_row], rows[i]
            rows[piv_row] = [x * p + y * q for p, q in zip(rp, ri)]
            rows[i] = [-bg * p + ag * q for p, q in zip(rp, ri)]
            up, ui = u[piv_row], u[i]
            u[piv_row] = [x * p + y * q for p, q in zip(up, ui)]
            u[i] = [-bg * p + ag * q for p, q in zip(up, ui)]
        if rows[piv_row][col] < 0:
            rows[piv_row] = [-x for x in rows[piv_row]]
            u[piv_row] = [-x for x in u[piv_row]]
        pivots.append((piv_row, col))
        piv_row += 1
        if piv_row == nr:
            break
    # reduce entries above each pivot into [0, pivot)
    for r, c in pivots:
        p = rows[r][c]
        for i in range(r):
            q = rows[i][c] // p
            if q:
                rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                u[i] = [a - q * b for a, b in zip(u[i], u[r])]
    return IntMatrix(rows, nc), IntMatrix(u, nr)


def kernel_lattice(a: IntMatrix) -> LatticeBasis:
    """Canonical basis of the saturated lattice ker(a) over the integers.

    The result is an n x m matrix whose columns generate
    {v in Z^n : a.v = 0}; saturation is automatic because the basis comes
    from the unimodular factor of an HNF computation.  The basis itself is
    canonicalized through a second HNF so equal kernels compare equal.
    """
    h, u = hermite_normal_form(a.transpose())
    r = sum(1 for row in h.rows if any(row))
    ker_rows = u.rows[r:]
    n = a.ncols
    if not ker_rows:
        # trivial kernel: the n x 0 matrix
        return IntMatrix(tuple(() for _ in range(n)), 0)
    canon, _ = hermite_normal_form(IntMatrix(ker_rows, n))
    basis_rows = tuple(row for row in canon.rows if any(row))
    return IntMatrix(basis_rows, n).transpose()


# The most minors one level of _max_maximal_minor's sweep may hold.  The
# 3x3x3 table with all 2-margins peaks at 722,829 (about 123 MB of peak
# RSS on CPython 3.11); 3x3x4's passes the cap at level 9 of 12, at about
# 190 MB.
MINOR_SWEEP_CAP = 1_000_000


def _max_maximal_minor(rows) -> int:
    """Largest |det| over the r x r column submatrices of an r x n matrix.

    rows are r integer sequences of length n >= r; no rows give 1, the
    empty determinant.  Zero columns are dropped and of columns equal up
    to sign one is kept: a subset holding both has determinant 0, and a
    sign flip leaves |det| alone.  Then one Laplace sweep goes down the
    rows.  Level k maps each k-subset T of the columns, a bitmask, to the
    minor of the first k rows on T, up to one sign shared by the level;
    row k + 1 expands it into T + {j} for each nonzero entry j outside T,
    signed by the parity of the bits of T below j.  So each subset's minor
    is computed once for all rows, zero entries spawn nothing, and zero
    minors are dropped after each level.  _check_held sees the size of
    the level being built once per minor read from the level before.
    """
    r = len(rows)
    if r == 0:
        return 1
    distinct = {}
    for col in zip(*rows):
        if any(col):
            distinct.setdefault(max(col, tuple(map(neg, col))), col)
    if len(distinct) < r:
        return 0
    level = {0: 1}
    for k, row in enumerate(zip(*distinct.values()), 1):
        entries = [(1 << j, (1 << j) - 1, x) for j, x in enumerate(row) if x]
        held = {}
        get = held.get
        for t, m in level.items():
            for bit, below, x in entries:
                if not t & bit:
                    v = x * m
                    if (t & below).bit_count() & 1:
                        v = -v
                    key = t | bit
                    held[key] = get(key, 0) + v
            _check_held(k, r, len(held))
        level = {t: m for t, m in held.items() if m}
    return max(map(abs, level.values()), default=0)


def _check_held(level: int, levels: int, held: int) -> None:
    """Raise MinorCapExceeded once a level holds more than MINOR_SWEEP_CAP minors."""
    if held > MINOR_SWEEP_CAP:
        raise MinorCapExceeded(
            f"schrijver bound: the maximal-minor sweep holds {held:,} minors at"
            f" level {level} of {levels}, over the cap of {MINOR_SWEEP_CAP:,}"
        )


class _Packing:
    """Nonnegative integer vectors of length n as ints of n guarded fields.

    Each field is w bits under one guard bit; layout lists the
    coordinates from the most significant field down (0, ..., n - 1 if
    not given).  guards holds every guard bit, ones the lowest bit of
    every field, top = 2^w - 1 the largest entry a field holds, and shifts
    the offset of each coordinate's field.  For packed a and b whose
    entries are all at most top:
      * a <= b coordinatewise exactly when ((b | guards) - a) & guards ==
        guards: each field of (b | guards) - a holds 2^w + b_i - a_i, which
        neither borrows from the next field nor overflows into it;
      * then b - a is the packed difference;
      * a + b is the packed sum exactly when (a + b) & guards is 0, the
        carry of a field going into its own guard bit and no further;
      * ((a | guards) - ones) & guards marks the fields where a_i > 0;
      * fields compare from the top, so a < b as ints compares the
        vectors, read in layout order, lexicographically.
    """

    __slots__ = ("w", "top", "guards", "ones", "shifts")

    def __init__(self, n: int, w: int, layout=None):
        stride = w + 1
        self.w = w
        self.top = (1 << w) - 1
        # the sum of 2^(stride i) for i < n
        self.ones = ((1 << stride * n) - 1) // ((1 << stride) - 1)
        self.guards = self.ones << w
        offsets = range(stride * (n - 1), -1, -stride)
        if layout is None:
            self.shifts = tuple(offsets)
        else:
            shifts = [0] * n
            for i, s in zip(layout, offsets):
                shifts[i] = s
            self.shifts = tuple(shifts)

    def pack(self, v) -> int:
        """v as one int; every entry must be at most top."""
        return sum(map(lshift, v, self.shifts))

    def unpack(self, p: int) -> tuple[int, ...]:
        top = self.top
        return tuple([p >> s & top for s in self.shifts])


def _scaled(v) -> tuple[list[int], int]:
    """Numerators of an int/Fraction sequence over its least common denominator.

    Returns (numerators, denominator); integral entries need no scaling.
    """
    scale = lcm(*(x.denominator for x in v))
    if scale == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (scale // x.denominator) for x in v], scale


def _dots(a, vectors) -> list:
    """a.w for each integer w, summed in ints over a's common denominator.

    Ints when the int/Fraction vector a is integral, else Fractions.
    """
    nums, scale = _scaled(a)
    dots = [sum(map(mul, nums, w)) for w in vectors]
    return dots if scale == 1 else [Fraction(d, scale) for d in dots]


def _primitive_vector(v) -> tuple[int, ...]:
    """The shortest integer vector on the ray of a rational vector (zero stays zero)."""
    ints, _ = _scaled([x if type(x) in (int, Fraction) else Fraction(x) for x in v])
    g = reduce(gcd, ints, 0)
    return tuple(x // g for x in ints) if g else tuple(ints)


def _echelon(vectors) -> list[tuple[int, int, list[int]]]:
    """Fraction-free forward elimination over the vectors, in order given.

    Returns (index, pivot, row) for each vector independent of those
    before it: the vector cleared at the earlier pivots, made primitive
    with a positive pivot, its first nonzero column.
    """
    rows: list[tuple[int, int, list[int]]] = []
    for i, v in enumerate(vectors):
        v = list(v)
        for _, p, e in rows:
            f = v[p]
            if f:
                v = [x * e[p] - f * y for x, y in zip(v, e)]
        content = reduce(gcd, v, 0)
        if content:
            p = next(j for j, x in enumerate(v) if x)
            rows.append((i, p, [x // (content if v[p] > 0 else -content) for x in v]))
    return rows


def _span_basis(vectors) -> tuple[tuple[int, ...], ...]:
    """The reduced row echelon basis of the vectors' real span.

    Rows are primitive integer vectors with a positive pivot, ordered by
    pivot column, so vectors with equal real spans give equal bases.
    _echelon's rows, sorted by pivot, have each pivot column cleared from
    the rows above it, in increasing pivot order.
    """
    rows = sorted((p, v) for _, p, v in _echelon(vectors))
    for k, (p, v) in enumerate(rows):
        for j in range(k):
            q, e = rows[j]
            f = e[p]
            if f:
                e = [x * v[p] - f * y for x, y in zip(e, v)]
                content = reduce(gcd, e, 0)
                rows[j] = (q, [x // content for x in e])
    return tuple(tuple(v) for _, v in rows)
