"""Relations between instances whose gaps are known from one another.

Each test builds a second instance from a first one and checks the
pipeline's exact answer against what the first one's answer implies,
with no oracle: an added column that is a copy of a column, or the sum
of two columns at no less than their summed cost, changes neither IP(b)
nor LP(b) for any b; a direct sum of two instances has the sum of their
gaps and the product of their component counts; and an instance whose
largest maximal minor D(A) is 1 has integral fiber polytopes, so gap 0
(Veinott and Dantzig 1968).  The corpus is the random-instance family of
test_acceptance's test_08: one or two rows, one to four columns, entries
in [-6, 6], costs p/q with q in {1, 2}.
"""

import random
from fractions import Fraction

import pytest

from ipgap import gapcore
from ipgap.errors import UnboundedProgram
from ipgap.exactmath import IntMatrix
from ipgap.gapcore import GapInstance, gap, gap_report
from ipgap.models import _entry_cost, k4_model, margin_matrix
from ipgap.toric import TermOrder
from test_acceptance import _own_lattice_memo


@pytest.fixture(autouse=True)
def _own_memo(monkeypatch):
    _own_lattice_memo(monkeypatch)


def _corpus(seed: int, count: int) -> list:
    """count bounded instances (rows, cost, report) of the test_08 family."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, 2)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(d)]
        c = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(n))
        try:
            out.append((rows, c, gap(IntMatrix(rows), c)))
        except UnboundedProgram:
            continue
    return out


def _with_column(rows, c, column, cost):
    return IntMatrix([r + [x] for r, x in zip(rows, column)]), c + (cost,)


def test_added_columns_leave_the_gap_unchanged():
    rng = random.Random(34001)
    checks = nonzero = 0
    for rows, c, report in _corpus(34001, 150):
        n = len(c)
        nonzero += report.gap != 0
        j = rng.randrange(n)
        i, k = rng.randrange(n), rng.randrange(n)
        copy = [r[j] for r in rows]
        summed = [r[i] + r[k] for r in rows]
        variants = [_with_column(rows, c, copy, c[j])]
        for delta in (0, Fraction(1, 2)):
            variants.append(_with_column(rows, c, summed, c[i] + c[k] + delta))
        for a, cost in variants:
            assert gap(a, cost).gap == report.gap, (rows, c, a.rows, cost)
            checks += 1
    assert checks == 450 and nonzero == 60


def _direct_sum(first, second):
    rows1, c1, _ = first
    rows2, c2, _ = second
    n1, n2 = len(c1), len(c2)
    rows = [r + [0] * n2 for r in rows1] + [[0] * n1 + r for r in rows2]
    return IntMatrix(rows), c1 + c2


def test_direct_sums_add_gaps_and_multiply_components():
    rng = random.Random(34002)
    parts = [inst for inst in _corpus(34002, 120) if inst[2].gap != 0]
    assert len(parts) == 51
    for _ in range(60):
        first, second = rng.choice(parts), rng.choice(parts)
        (_, _, r1), (_, _, r2) = first, second
        a, c = _direct_sum(first, second)
        inst = GapInstance.from_matrix(a, c)
        assert gap_report(inst).gap == r1.gap + r2.gap, (a.rows, c)
        k1, k2 = len(r1.instance.components), len(r2.instance.components)
        assert len(inst.components) == k1 * k2, (a.rows, c)


def test_unimodular_instances_have_gap_zero():
    unimodular = 0
    for rows, c, report in _corpus(34001, 150):
        if gapcore._max_minor(IntMatrix(rows), None) == 1:
            unimodular += 1
            assert report.gap == 0, (rows, c)
    assert unimodular == 7


@pytest.mark.parametrize("sense, want", [("max", Fraction(5, 3)), ("min", 1)], ids=["max", "min"])
def test_k4_with_a_duplicated_column_keeps_its_gaps(sense, want):
    # the last cell's column again, at the last cell's cost 0, under the
    # refined order entry_instance uses: the lattice changes and the
    # basis gains an element; the gap stays, and here the 139 components
    # do too
    a = margin_matrix(k4_model())
    rows = [list(r) for r in a.rows]
    dup, cost = _with_column(rows, _entry_cost(k4_model(), sense), [r[-1] for r in rows], 0)
    inst = GapInstance.from_matrix(dup, TermOrder.refined(cost, "revgrevlex"))
    assert len(inst.groebner.elements) == 62 and len(inst.components) == 139
    assert gap_report(inst).gap == want
