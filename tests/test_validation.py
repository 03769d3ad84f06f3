"""Vectors of the wrong length are rejected, never silently truncated."""

import pytest

from ipgap import lp, oracle
from ipgap.errors import BadParameter
from ipgap.exactmath import IntMatrix, kernel_lattice
from ipgap.fan import Cone
from ipgap.gapcore import GapInstance, gap_value, schrijver_bound
from ipgap.models import coin_instance, lattice_family
from ipgap.monomial import IrreducibleComponent, MonomialIdeal
from ipgap.toric import Binomial, TermOrder, buchberger, ip_optimum, lattice_ideal_generators

COIN_A, COIN_COST = coin_instance()
COIN_GENS = lattice_ideal_generators(kernel_lattice(COIN_A))
COIN = GapInstance.from_matrix(COIN_A, COIN_COST)
# the first component, on support (0, 1) with corner (4, 2, 0, 0): value 76/15
FIRST = COIN.components[0]


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda: ip_optimum(buchberger(COIN_GENS, TermOrder(COIN_COST)), (4, 2)),
            id="ip_optimum-short-z",
        ),
        pytest.param(lambda: lp.lp_value(COIN_A, (10,), COIN_COST), id="lp_value-short-b"),
        pytest.param(lambda: oracle.brute_ip(COIN_A, (10, 114), (0, 1)), id="brute_ip-short-c"),
        pytest.param(
            lambda: oracle.brute_ip(COIN_A, (10, 114), COIN_COST + (1,)), id="brute_ip-long-c"
        ),
        pytest.param(lambda: Cone(2, [(1, 0), (0, 1)]).contains((1,)), id="contains-short-c"),
        pytest.param(lambda: buchberger(COIN_GENS, TermOrder((0, 1))), id="buchberger-short-cost"),
        pytest.param(
            lambda: buchberger(
                [Binomial((1, 0), (0, 1)), Binomial((1, 0, 0), (0, 0, 1))], TermOrder((1, 1))
            ),
            id="buchberger-unequal-binomials",
        ),
        pytest.param(lambda: gap_value(FIRST, COIN, cost=(1, 2)), id="gap_value-short-cost"),
        pytest.param(
            lambda: gap_value(FIRST, COIN, cost=(1, 0, 0, 1, 0)), id="gap_value-long-cost"
        ),
        pytest.param(
            lambda: gap_value(IrreducibleComponent((0, 1), (1, 1, 0, 0, 0)), COIN),
            id="gap_value-long-bound",
        ),
        pytest.param(
            lambda: gap_value(IrreducibleComponent((0,), (1, 0)), COIN), id="gap_value-short-bound"
        ),
        pytest.param(
            lambda: IrreducibleComponent((7,), (0, 0, 0, 0)), id="component-support-past-bound"
        ),
        pytest.param(lambda: IrreducibleComponent((5,), (0, 0)), id="component-support-outside"),
        pytest.param(
            lambda: GapInstance.from_lattice(lattice_family(5), (1, 1)),
            id="gap_lattice-short-cost",
        ),
        pytest.param(lambda: schrijver_bound(COIN_A, (1,)), id="schrijver_bound-short-cost"),
        pytest.param(
            lambda: oracle.brute_gap_box(COIN_A, (0, 1, 0), (1, 1, 1, 1)),
            id="brute_gap_box-short-c",
        ),
        pytest.param(
            lambda: lp.LPProblem(objective=(1, 1), ub=(((1,), 0),)), id="LPProblem-short-row"
        ),
        pytest.param(
            lambda: lp.LPProblem(objective=(1, 1), free=(True,)), id="LPProblem-short-free"
        ),
        pytest.param(lambda: MonomialIdeal(2, [(1, 2, 3)]), id="MonomialIdeal-long-generator"),
        pytest.param(lambda: IntMatrix([[1, 2]], 3), id="IntMatrix-width"),
        pytest.param(lambda: IntMatrix([]), id="IntMatrix-empty-without-width"),
        pytest.param(lambda: COIN_A.mul(COIN_A), id="mul-shape"),
        pytest.param(lambda: COIN_A.mul_vector((1, 2)), id="mul_vector-short-v"),
        pytest.param(lambda: COIN_A.det(), id="det-non-square"),
    ],
)
def test_mis_sized_vectors_raise(call):
    with pytest.raises(BadParameter):
        call()
