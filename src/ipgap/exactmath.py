"""Exact integer linear algebra: matrices, Hermite normal form, kernel lattices.

Everything here runs on Python ints (arbitrary precision) and
fractions.Fraction, as does the rest of the package: no fixed-width integer
type is used anywhere, so no result ever depends on machine word width.
The two workhorses are:

* hermite_normal_form -- row-style HNF H = U.M with unimodular U,
* kernel_lattice      -- a canonical basis of ker(A) intersected with Z^n.

Rational vectors become integer ones in one place, _scaled (over the least
common denominator), with _primitive_vector on top of it.

Convention for the HNF used throughout the package: nonzero rows first,
pivot columns strictly increasing, pivots positive, and every entry above a
pivot reduced into [0, pivot).  This makes the HNF of a given row lattice
unique, which is what lets kernel bases serve as fixtures in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, lcm


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


@dataclass(frozen=True)
class IntMatrix:
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
                raise ValueError("ragged rows")
            if width is not None and width != w:
                raise ValueError("width disagrees with rows")
            width = w
        elif width is None:
            raise ValueError("width required for an empty matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "width", int(width))

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.width

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.rows)

    def columns(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.column(j) for j in range(self.ncols))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.columns(), self.nrows)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ot = other.columns()
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in ot) for row in self.rows),
            other.ncols,
        )

    def mul_vector(self, v) -> tuple[int, ...]:
        if len(v) != self.ncols:
            raise ValueError("length mismatch")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)

    def rank(self) -> int:
        h, _ = hermite_normal_form(self)
        return sum(1 for r in h.rows if any(r))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
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

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in r) for r in self.rows) or f"(0x{self.ncols})"


# A lattice is handed around as the integer matrix whose columns generate it.
LatticeBasis = IntMatrix


def hermite_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (h, u) with u.mul(m) == h, u unimodular, h in the convention
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


def _scaled(v) -> tuple[list[int], int]:
    """Numerators of an int/Fraction sequence over its least common denominator.

    Returns (numerators, denominator).
    """
    scale = lcm(*(x.denominator for x in v))
    return [x.numerator * (scale // x.denominator) for x in v], scale


def _primitive_vector(v) -> tuple[int, ...]:
    """The shortest integer vector on the ray of a rational vector (zero stays zero)."""
    ints, _ = _scaled([Fraction(x) for x in v])
    g = reduce(gcd, ints, 0)
    return tuple(x // g for x in ints) if g else tuple(ints)
