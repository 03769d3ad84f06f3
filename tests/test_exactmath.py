from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import lattice_contains, lattice_span_equal, solve_rational
from ipgap.exactmath import IntMatrix, hermite_normal_form, kernel_lattice, xgcd


def test_xgcd_small():
    for a, b in [(0, 0), (0, 5), (5, 0), (12, 18), (-12, 18), (7, -3), (-4, -6)]:
        x, y, g = xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_intmatrix_basics():
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.nrows == 2 and m.ncols == 2
    assert m.transpose().rows == ((1, 3), (2, 4))
    assert m.mul_vector((1, 1)) == (3, 7)
    assert m.mul(IntMatrix.identity(2)).rows == m.rows
    assert m.det() == -2
    assert m.rank() == 2
    with pytest.raises(ValueError):
        IntMatrix([[1, 2], [3]])


def test_hnf_known_2x2():
    h, u = hermite_normal_form(IntMatrix([[2, 4], [6, 8]]))
    assert h.rows == ((2, 0), (0, 4))
    assert u.mul(IntMatrix([[2, 4], [6, 8]])).rows == h.rows
    assert abs(u.det()) == 1


def test_hnf_coin_constraints():
    a = IntMatrix([[1, 1, 1, 1], [1, 5, 10, 25]])
    h, u = hermite_normal_form(a)
    assert h.rows == ((1, 1, 1, 1), (0, 4, 9, 24))
    assert u.mul(a).rows == h.rows


def _hnf_shape_ok(h: IntMatrix) -> bool:
    pivots = []
    seen_zero = False
    for row in h.rows:
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            seen_zero = True
            continue
        if seen_zero:
            return False
        if pivots and nz <= pivots[-1]:
            return False
        if row[nz] <= 0:
            return False
        pivots.append(nz)
    for k, j in enumerate(pivots):
        p = h.rows[k][j]
        for i in range(k):
            if not (0 <= h.rows[i][j] < p):
                return False
    return True


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_hnf_properties(rows):
    a = IntMatrix(rows)
    h, u = hermite_normal_form(a)
    assert u.mul(a).rows == h.rows
    assert abs(u.det()) == 1
    assert _hnf_shape_ok(h)


def test_kernel_lattice_coin():
    a = IntMatrix([[1, 1, 1, 1], [1, 5, 10, 25]])
    basis = kernel_lattice(a)
    assert basis.nrows == 4 and basis.ncols == 2
    for col in basis.columns():
        assert a.mul_vector(col) == (0, 0)
    known = IntMatrix([[5, 5], [-9, -6], [4, 0], [0, 1]])
    assert lattice_span_equal(basis, known)
    assert lattice_contains(basis, (5, -9, 4, 0))
    assert lattice_contains(basis, (10, -15, 4, 1))
    assert not lattice_contains(basis, (1, 0, 0, 0))
    assert not lattice_contains(basis, (5, -9, 4, 1))


def test_kernel_lattice_single_row():
    for a_val in (2, 3, 7):
        b = kernel_lattice(IntMatrix([[1, a_val]]))
        assert b.ncols == 1
        col = b.column(0)
        assert col[0] + a_val * col[1] == 0
        assert sorted(map(abs, col)) == [1, a_val]


def test_kernel_lattice_full_rank_square():
    b = kernel_lattice(IntMatrix([[2, 1], [1, 1]]))
    assert b.ncols == 0
    assert b.nrows == 2


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_kernel_properties(rows):
    a = IntMatrix(rows)
    b = kernel_lattice(a)
    assert b.nrows == a.ncols
    zero = (0,) * a.nrows
    for col in b.columns():
        assert a.mul_vector(col) == zero
    assert b.ncols == a.ncols - a.rank()
    # saturated: any rational kernel vector scaled to integers lies inside
    cols = b.columns()
    if cols:
        v = tuple(sum(2 * c[i] for c in cols) + cols[0][i] for i in range(b.nrows))
        assert lattice_contains(b, v)


def test_lattice_span_equal_rejects_sublattice():
    b1 = IntMatrix([[2], [0]])
    b2 = IntMatrix([[4], [0]])
    assert not lattice_span_equal(b1, b2)
    assert lattice_span_equal(b1, IntMatrix([[-2], [0]]))


def test_solve_rational():
    a = IntMatrix([[1, 1], [1, 5]])
    x = solve_rational(a, (3, 7))
    assert x == (Fraction(2), Fraction(1))
    assert solve_rational(IntMatrix([[1, 1], [2, 2]]), (1, 3)) is None
    x = solve_rational(IntMatrix([[1, 1, 1]]), (2,))
    assert x is not None and sum(x) == 2
