import random
from fractions import Fraction

import pytest

from ipgap.errors import (
    BadParameter,
    EmptyFiber,
    FiberCapExceeded,
    InfiniteFiber,
)
from ipgap.exactmath import IntMatrix
from ipgap.oracle import brute_gap_box, brute_ip, enumerate_fiber

COIN_A = IntMatrix([[1, 1, 1, 1], [1, 5, 10, 25]])
COIN_COST = (0, 1, 0, 1)


def test_enumerate_fiber_golden():
    assert enumerate_fiber(COIN_A, (10, 114)) == [(4, 2, 0, 4)]
    assert enumerate_fiber(COIN_A, (2, 6)) == [(1, 1, 0, 0)]
    assert enumerate_fiber(COIN_A, (0, 0)) == [(0, 0, 0, 0)]


def test_enumerate_fiber_empty_cases():
    # integer-empty but real-feasible
    assert enumerate_fiber(COIN_A, (1, 3)) == []
    # real-infeasible outright
    assert enumerate_fiber(COIN_A, (1, 30)) == []


def test_enumerate_fiber_matches_direct_scan():
    b = (6, 51)
    got = set(enumerate_fiber(COIN_A, b))
    direct = set()
    for p in range(7):
        for n in range(7):
            for d in range(7):
                for q in range(3):
                    if p + n + d + q == 6 and p + 5 * n + 10 * d + 25 * q == 51:
                        direct.add((p, n, d, q))
    assert got == direct and direct


def test_enumerate_fiber_exact_past_machine_words():
    # A z = b must hold in exact integers, not modulo 2^64
    a = [[1, 1, 1], [0, 2**62, -(2**62)]]
    assert enumerate_fiber(a, (8, 0)) == [
        (0, 4, 4), (2, 3, 3), (4, 2, 2), (6, 1, 1), (8, 0, 0)
    ]


def test_enumerate_fiber_guards():
    with pytest.raises(InfiniteFiber):
        enumerate_fiber(IntMatrix([[1, -1]]), (0,))
    with pytest.raises(FiberCapExceeded):
        enumerate_fiber(COIN_A, (10, 114), cap=100)
    with pytest.raises(BadParameter):
        enumerate_fiber(COIN_A, (1, 2, 3))


def test_brute_ip():
    assert brute_ip(COIN_A, (10, 114), COIN_COST) == 6
    assert brute_ip(COIN_A, (0, 0), COIN_COST) == 0
    assert brute_ip(IntMatrix([[1, 5]]), (9,), (1, 0)) == 4
    with pytest.raises(EmptyFiber):
        brute_ip(COIN_A, (1, 3), COIN_COST)


def test_brute_gap_box_toy():
    value, z = brute_gap_box(IntMatrix([[1, 5]]), (1, 0), (9, 2))
    assert value == 4
    assert z == (4, 0)


def test_brute_gap_box_coin():
    value, z = brute_gap_box(COIN_A, COIN_COST, (4, 2, 0, 4))
    assert value == Fraction(76, 15)
    assert z == (4, 2, 0, 4)
    assert COIN_A.mul_vector(z) == (10, 114)


def test_brute_gap_box_degenerate():
    value, z = brute_gap_box(COIN_A, COIN_COST, (0, 0, 0, 0))
    assert value == 0 and z == (0, 0, 0, 0)


def test_brute_agrees_with_groebner_route():
    # exhaustion versus algebraic reduction on random right-hand sides
    from ipgap.gapcore import GapInstance
    from ipgap.toric import ip_optimum

    inst = GapInstance.from_matrix(COIN_A, COIN_COST)
    rng = random.Random(5)
    for _ in range(15):
        z = tuple(rng.randrange(5) for _ in range(4))
        b = COIN_A.mul_vector(z)
        opt = ip_optimum(inst.groebner, z)
        algebraic = sum(c * x for c, x in zip(inst.cost, opt))
        assert algebraic == brute_ip(COIN_A, b, COIN_COST)
