from fractions import Fraction
from math import prod

import pytest

from _reference import entry_degree_bound_check, is_squarefree_generated
from ipgap.errors import BadParameter
from ipgap.gapcore import GapInstance, gap_report, gap_value
from ipgap.models import (
    MarginalModel,
    _entry_cost,
    cells,
    coin_instance,
    entry_instance,
    k4_model,
    lattice_family,
    margin_matrix,
    simplicial_model_representatives,
    transportation_model,
)
from ipgap.toric import TermOrder

# Margin matrix of the six-face 2x2x2x2 model, one digit per cell, row
# blocks in face order {1,2},{1,3},{1,4},{2,3},{2,4},{3,4}.
K4_MATRIX = """
1111000000000000
0000111100000000
0000000011110000
0000000000001111
1100110000000000
0011001100000000
0000000011001100
0000000000110011
1010101000000000
0101010100000000
0000000010101010
0000000001010101
1100000011000000
0011000000110000
0000110000001100
0000001100000011
1010000010100000
0101000001010000
0000101000001010
0000010100000101
1000100010001000
0100010001000100
0010001000100010
0001000100010001
"""

# The two reported minimal generators and the reported component of the
# six-face model's non-optimal ideal, cells in lexicographic order.
K4_GEN_A = (0, 3, 0, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 0, 0)
K4_GEN_B = (0, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 2)
K4_CORNER = (0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)
K4_SUPPORT = tuple(range(1, 16))


def test_model_validation():
    with pytest.raises(BadParameter):
        MarginalModel((1, 2), ((1,),))
    with pytest.raises(BadParameter):
        MarginalModel((), ((1,),))
    with pytest.raises(BadParameter):
        MarginalModel((2, 2), ())
    with pytest.raises(BadParameter):
        MarginalModel((2, 2), ((0, 1),))
    with pytest.raises(BadParameter):
        MarginalModel((2, 2), ((1, 3),))
    m = MarginalModel((2, 3), ((2, 1, 2), (2,)))
    assert m.faces == ((1, 2), (2,))
    assert m.ncells == 6


def test_cells_order():
    assert cells((2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    got = cells((2, 3))
    assert got[0] == (1, 1) and got[1] == (1, 2) and got[3] == (2, 1)
    assert len(got) == 6


def test_k4_margin_matrix_golden():
    a = margin_matrix(k4_model())
    want = [[int(ch) for ch in line] for line in K4_MATRIX.split()]
    assert [list(row) for row in a.rows] == want
    assert a.rank() == 11


def test_margin_rows_partition_cells():
    # within one face's row block every cell is counted exactly once
    for model in (
        k4_model(),
        transportation_model(3, 4),
        MarginalModel((2, 2, 3), ((1, 2), (3,))),
    ):
        a = margin_matrix(model)
        start = 0
        for face in model.faces:
            size = prod(model.dims[j - 1] for j in face)
            block = a.rows[start : start + size]
            for col in range(a.ncols):
                assert sum(row[col] for row in block) == 1
            start += size
        assert start == a.nrows


def test_transportation_gap_zero():
    for d1, d2 in ((2, 2), (2, 3), (3, 3)):
        model = transportation_model(d1, d2)
        for sense in ("max", "min"):
            assert gap_report(entry_instance(model, sense)).gap == 0
        assert entry_degree_bound_check(model)


def test_transportation_ideal_squarefree():
    inst = entry_instance(transportation_model(2, 3))
    assert is_squarefree_generated(inst.ideal)


def test_full_face_model_is_trivial():
    rep = gap_report(entry_instance(MarginalModel((2, 2, 2, 2), ((1, 2, 3, 4),))))
    assert rep.gap == 0
    assert rep.winner is None


def test_entry_sense_validation():
    with pytest.raises(BadParameter):
        entry_instance(transportation_model(2, 2), "avg")


def test_coin_instance_fixture():
    a, cost = coin_instance()
    assert [list(r) for r in a.rows] == [[1, 1, 1, 1], [1, 5, 10, 25]]
    assert cost == (0, 1, 0, 1)
    rep = gap_report(GapInstance.from_matrix(a, cost))
    assert rep.gap == Fraction(76, 15)


def test_lattice_family_index():
    for r in range(4, 9):
        assert abs(lattice_family(r).det()) == 2 * r * (r - 2)
    with pytest.raises(BadParameter):
        lattice_family(3)


def expected_family_bounds(r):
    low = {(0, j, r - 3 - j) for j in range(r - 3)}
    high = {(i, 2 * r - 1 - i, 0) for i in range(r - 2)}
    return low | high


def test_lattice_family_decomposition():
    for r in (4, 5, 6):
        inst = GapInstance.from_lattice(
            lattice_family(r), TermOrder.degree_lexicographic(3)
        )
        rep = gap_report(inst)
        assert len(inst.components) == 2 * r - 5
        assert all(c.support == (0, 1, 2) for c in inst.components)
        assert {c.bound for c in inst.components} == expected_family_bounds(r)
        assert rep.gap == 2 * r - 1
        assert rep.winner.bound == (0, 2 * r - 1, 0)


def test_lattice_family_r4_explicit():
    inst = GapInstance.from_lattice(
        lattice_family(4), TermOrder.degree_lexicographic(3)
    )
    assert {c.bound for c in inst.components} == {(0, 0, 1), (0, 7, 0), (1, 6, 0)}


def test_simplicial_representatives():
    reps = simplicial_model_representatives()
    assert len(reps) == 28
    seen = set()
    for m in reps:
        assert m.dims == (2, 2, 2, 2)
        assert m.faces not in seen
        seen.add(m.faces)
    assert k4_model().faces in seen
    assert ((1, 2, 3, 4),) in seen


def _refined_and_unrefined_gaps(model, sense):
    # entry_instance's refined order and the bare entry cost under the
    # same tiebreak: the gap is a property of (A, c), so both must agree
    # though they read different non-optimal ideals
    unrefined = TermOrder(_entry_cost(model, sense), "revgrevlex")
    plain = gap_report(GapInstance.from_matrix(margin_matrix(model), unrefined))
    return gap_report(entry_instance(model, sense)).gap, plain.gap


def test_simplicial_gaps_do_not_depend_on_the_refinement():
    gaps = {
        (model.faces, sense): _refined_and_unrefined_gaps(model, sense)
        for model in simplicial_model_representatives()
        for sense in ("max", "min")
    }
    assert len(gaps) == 56
    assert {key: pair for key, pair in gaps.items() if pair[0] != pair[1]} == {}


@pytest.mark.slow
@pytest.mark.parametrize("sense", ["max", "min"])
def test_3x3x3_gap_does_not_depend_on_the_refinement(sense):
    model = MarginalModel((3, 3, 3), ((1, 2), (1, 3), (2, 3)))
    refined, unrefined = _refined_and_unrefined_gaps(model, sense)
    assert refined == unrefined


def test_k4_groebner_and_generators(k4):
    inst, _ = k4
    assert len(inst.groebner.elements) == 61
    assert len(inst.ideal.gens) == 61
    assert K4_GEN_A in inst.ideal.gens
    assert K4_GEN_B in inst.ideal.gens


def test_k4_decomposition(k4):
    inst, _ = k4
    assert len(inst.components) == 139
    hits = [
        c
        for c in inst.components
        if c.support == K4_SUPPORT and c.bound == K4_CORNER
    ]
    assert len(hits) == 1


def test_k4_gap_winner_and_witness(k4):
    inst, rep = k4
    assert rep.gap == Fraction(5, 3)
    assert rep.winner.support == K4_SUPPORT
    assert rep.winner.bound == K4_CORNER
    assert rep.witness_z == K4_CORNER
    assert rep.schrijver_bound == 48


def test_k4_relaxation_point(k4):
    inst, rep = k4
    value, point = gap_value(rep.winner, inst)
    assert value == Fraction(5, 3)
    want = [Fraction(0)] * 16
    want[0] = Fraction(5, 3)
    for i in (3, 5, 6, 7, 9, 10, 11, 12, 13, 14):
        want[i] = Fraction(1, 3)
    assert point == tuple(want)
