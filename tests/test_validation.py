"""Vectors of the wrong length are rejected, never silently truncated."""

import pytest

from ipgap import lp, oracle
from ipgap.errors import BadParameter
from ipgap.exactmath import kernel_lattice
from ipgap.fan import Cone
from ipgap.models import coin_instance
from ipgap.toric import TermOrder, buchberger, ip_optimum, lattice_ideal_generators

COIN_A, COIN_COST = coin_instance()
COIN_GENS = lattice_ideal_generators(kernel_lattice(COIN_A))


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
    ],
)
def test_mis_sized_vectors_raise(call):
    with pytest.raises(BadParameter):
        call()
