import ast
import random
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from ipgap import lp, oracle
from ipgap.errors import (
    BadParameter,
    EmptyFiber,
    FiberCapExceeded,
    InfiniteFiber,
)
from ipgap.exactmath import IntMatrix
from ipgap.models import _entry_cost, k4_model, margin_matrix
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


def test_brute_gap_box_rejects_a_negative_box():
    with pytest.raises(BadParameter):
        brute_gap_box(COIN_A, COIN_COST, (1, -1, 0, 0))


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


def _fiber_by_fiber_gap(a, c, box):
    """brute_gap_box's answer from brute_ip and lp_value, one fiber at a time."""
    best = best_z = None
    for z in product(*(range(x + 1) for x in box)):
        b = a.mul_vector(z)
        value = brute_ip(a, b, c) - lp.lp_value(a, b, c).value
        if best is None or value > best:
            best, best_z = value, z
    return best, best_z


def _nonnegative_corpus(seed=16, count=80):
    """Small nonnegative matrices without a zero column, with costs and boxes.

    Entries are zero half the time, so zero rows and repeated columns
    come up among the random cases; two fixed cases hold both for sure.
    """
    rng = random.Random(seed)
    cases = [
        (IntMatrix([[1, 1, 2], [0, 0, 3]]), (1, Fraction(1, 2), -1), (2, 2, 1)),
        (IntMatrix([[2, 0, 2, 1], [0, 0, 0, 0], [1, 3, 1, 0]]), (3, -2, 1, 0), (1, 2, 2, 2)),
    ]
    while len(cases) < count:
        d, n = rng.randint(1, 3), rng.randint(1, 4)
        cols = []
        while len(cols) < n:
            col = [rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(d)]
            if any(col):
                cols.append(rng.choice(cols) if cols and rng.random() < 0.2 else col)
        a = IntMatrix(list(zip(*cols)))
        c = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        cases.append((a, c, tuple(rng.randint(0, 3) for _ in range(n))))
    return cases


def test_recursion_matches_fiber_by_fiber_reference():
    cases = _nonnegative_corpus()
    assert any(0 in map(any, a.rows) for a, _, _ in cases)
    assert any(len(set(a.columns())) < a.ncols for a, _, _ in cases)
    for a, c, box in cases:
        assert brute_gap_box(a, c, box) == _fiber_by_fiber_gap(a, c, box), (a, c, box)


def test_only_nonnegative_matrices_without_zero_columns_take_the_recursion(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_fiber(*args)

    monkeypatch.setattr(oracle, "enumerate_fiber", counted)
    brute_gap_box(COIN_A, COIN_COST, (2, 1, 1, 1))
    assert calls == []
    brute_gap_box(IntMatrix([[1, 2, -1], [0, 1, 1]]), (1, 1, 0), (1, 1, 1))
    assert calls
    calls.clear()
    with pytest.raises(InfiniteFiber):
        brute_gap_box(IntMatrix([[1, 0], [2, 0]]), (1, 0), (1, 1))
    assert calls


def test_recursion_cap_names_the_states_reached():
    with pytest.raises(FiberCapExceeded, match="reached 11 states, over the cap of 10"):
        brute_gap_box(COIN_A, COIN_COST, (4, 2, 0, 4), cap=10)


def test_oracle_imports_only_lp_errors_and_exactmath():
    # the module docstring promises independence from the algebraic route
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else (x.name for x in node.names))
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("ipgap"):
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names.update(x.name for x in node.names if x.name.startswith("ipgap"))
    assert names <= {"lp", "errors", "exactmath"}


# Bound monomials of k4's winning components, from
# gap_report(entry_instance(k4_model(), sense)): the max one is the
# golden's witness z.  Under min the box holds a lexicographically
# earlier point of the same difference, so the scan stops there and the
# winner's bound is checked on its own fiber.
K4_MAX_WINNER = (0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1)
K4_MIN_WINNER = (1, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0)
K4_MIN_FIRST = (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 0)


@pytest.mark.slow
def test_k4_box_one_reaches_the_algebra_gap():
    # about 125 s of CPU for both senses on a 2-vCPU box (191 s while each
    # of the 61,419 fiber relaxations kept all 24 rows of A, not the 11
    # independent ones); bounded at 600 s for both senses
    model = k4_model()
    a = margin_matrix(model)
    t0 = time.monotonic()
    got = {sense: brute_gap_box(a, _entry_cost(model, sense), (1,) * 16) for sense in ("max", "min")}
    assert time.monotonic() - t0 < 600.0
    assert got == {"max": (Fraction(5, 3), K4_MAX_WINNER), "min": (Fraction(1), K4_MIN_FIRST)}
    assert K4_MIN_FIRST < K4_MIN_WINNER
    b, c = a.mul_vector(K4_MIN_WINNER), _entry_cost(model, "min")
    assert brute_ip(a, b, c) - lp.lp_value(a, b, c).value == 1
