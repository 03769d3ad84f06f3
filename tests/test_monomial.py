import ast
import itertools
import random
import time
from pathlib import Path

import pytest

from _reference import (
    StandardPair,
    colon_monomial,
    component_ideal,
    excludes,
    ideal_subset_of,
    intersect,
    intersection_of_components,
    standard_pairs,
    subset_of,
    tuple_maximal_corners,
)
from ipgap import monomial
from ipgap.errors import BadParameter, UnitIdeal, ZeroIdeal
from ipgap.gapcore import LatticeIdeal
from ipgap.models import MarginalModel, entry_instance, k4_model, margin_matrix
from ipgap.monomial import (
    IrreducibleComponent,
    MonomialIdeal,
    _maximal_corners,
    irreducible_decomposition,
    minimal_generators,
)
from ipgap.toric import TermOrder, buchberger, non_optimal_ideal


def test_monomial_imports_only_errors_and_exactmath():
    # the monomial layer sits below the algebra: no toric, no gapcore
    tree = ast.parse(Path(monomial.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else (x.name for x in node.names))
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("ipgap"):
            names.add(node.module)
        elif isinstance(node, ast.Import):
            names.update(x.name for x in node.names if x.name.startswith("ipgap"))
    assert names <= {"errors", "exactmath"}


def test_minimal_generators():
    gens = [(2, 0), (3, 0), (2, 0), (0, 1), (1, 1)]
    assert minimal_generators(gens) == ((0, 1), (2, 0))


def test_ideal_basics():
    ideal = MonomialIdeal(2, [(2, 0), (0, 3)])
    assert ideal.contains((2, 5))
    assert ideal.contains((0, 3))
    assert not ideal.contains((1, 2))
    assert not ideal.is_zero and not ideal.is_unit
    assert MonomialIdeal(2).is_zero
    assert MonomialIdeal(2, [(0, 0)]).is_unit
    assert colon_monomial(ideal, (1, 0)).gens == ((0, 3), (1, 0))
    inter = intersect(ideal, MonomialIdeal(2, [(1, 1)]))
    assert inter.gens == ((1, 3), (2, 1))
    assert subset_of(MonomialIdeal(2, [(2, 1)]), ideal)
    assert not subset_of(ideal, MonomialIdeal(2, [(2, 1)]))


def test_component_object():
    q = IrreducibleComponent((1, 0), (3, 2, 0, 0))
    assert q.support == (0, 1)
    assert component_ideal(q).gens == ((0, 3, 0, 0), (4, 0, 0, 0))
    assert excludes(q, (3, 2, 9, 9))
    assert not excludes(q, (4, 0, 0, 0))


def test_decompose_pure_power_ideal():
    ideal = MonomialIdeal(2, [(2, 0)])
    comps = irreducible_decomposition(ideal)
    assert comps == (IrreducibleComponent((0,), (1, 0)),)


def test_decompose_exponents_past_machine_words():
    # exponents at or above 2^30 and 2^64 are ordinary caps, not "no cap"
    for e in (2**30 + 3, 2**64):
        comps = irreducible_decomposition(MonomialIdeal(2, [(e, 0), (0, 2)]))
        assert comps == (IrreducibleComponent((0, 1), (e - 1, 1)),)


def test_decompose_rejects_trivial():
    with pytest.raises(ZeroIdeal):
        irreducible_decomposition(MonomialIdeal(2))
    with pytest.raises(UnitIdeal):
        irreducible_decomposition(MonomialIdeal(2, [(0, 0)]))


def test_component_bound_lives_on_its_support():
    with pytest.raises(BadParameter):
        IrreducibleComponent((0,), (0, 1))


def test_decompose_coin_nonoptimal_ideal():
    # variables ordered (penny, nickel, dime, quarter)
    ideal = MonomialIdeal(4, [(0, 3, 0, 1), (0, 6, 0, 0), (0, 3, 4, 0), (5, 0, 0, 3)])
    comps = irreducible_decomposition(ideal)
    assert set(comps) == {
        IrreducibleComponent((0, 1), (4, 2, 0, 0)),
        IrreducibleComponent((1, 3), (0, 2, 0, 2)),
        IrreducibleComponent((1, 2, 3), (0, 5, 3, 0)),
    }
    assert intersection_of_components(comps, 4) == ideal


def test_standard_pairs_single_power():
    pairs = standard_pairs(MonomialIdeal(2, [(2, 0)]))
    assert pairs == (
        StandardPair((0, 0), (1,)),
        StandardPair((1, 0), (1,)),
    )


def test_standard_pairs_trivial_ideals():
    assert standard_pairs(MonomialIdeal(3)) == (
        StandardPair((0, 0, 0), (0, 1, 2)),
    )
    assert standard_pairs(MonomialIdeal(3, [(0, 0, 0)])) == ()


def _random_ideal(rng, nvars, maxexp, ngens):
    gens = []
    for _ in range(ngens):
        g = tuple(rng.randint(0, maxexp) for _ in range(nvars))
        if any(g):
            gens.append(g)
    return MonomialIdeal(nvars, gens)


def test_decomposition_random_cross_check():
    rng = random.Random(20260822)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        ideal = _random_ideal(rng, nvars, 3, rng.randint(1, 4))
        if ideal.is_zero:
            continue
        comps = irreducible_decomposition(ideal)
        assert intersection_of_components(comps, nvars) == ideal
        # no component may be dropped
        for k in range(len(comps)):
            rest = comps[:k] + comps[k + 1 :]
            if rest:
                assert intersection_of_components(rest, nvars) != ideal
        cap = [max(g[i] for g in ideal.gens) + 1 for i in range(nvars)]
        for m in itertools.product(*(range(c + 1) for c in cap)):
            inside = ideal.contains(m)
            assert inside == all(not excludes(q, m) for q in comps)


def test_standard_pairs_random_cross_check():
    rng = random.Random(7)
    for _ in range(30):
        nvars = rng.randint(1, 3)
        ideal = _random_ideal(rng, nvars, 3, rng.randint(1, 4))
        if ideal.is_zero or ideal.is_unit:
            continue
        pairs = standard_pairs(ideal)
        cap = [max(g[i] for g in ideal.gens) + 1 for i in range(nvars)]
        for m in itertools.product(*(range(c + 1) for c in cap)):
            covered = any(
                all(m[i] == p.root[i] for i in range(nvars) if i not in p.free)
                for p in pairs
            )
            assert covered == (not ideal.contains(m))
        # minimal candidate ideals from the pairs are the components
        cands = {}
        for p in pairs:
            q = IrreducibleComponent(
                tuple(i for i in range(nvars) if i not in p.free), p.root
            )
            cands[(q.support, q.bound)] = q
        cands = list(cands.values())
        minimal = {
            q
            for q in cands
            if not any(o != q and ideal_subset_of(o, q) for o in cands)
        }
        assert minimal == set(irreducible_decomposition(ideal))


def _corner_corpus():
    """Seeded ideals for the packed corners: one generator, largest
    exponents at, just below and just past a power of two (the packing's
    field width is that of the largest), and small random ideals in one
    to five variables."""
    rng = random.Random(20261019)
    corpus = [MonomialIdeal(3, [(0, 5, 0)]), MonomialIdeal(4, [(1, 2, 3, 4)])]
    for k in (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 63):
        e = 1 << k
        corpus.append(MonomialIdeal(2, [(e - 1, 0), (0, e), (e - 1, 1)]))
        corpus.append(MonomialIdeal(3, [(e, 0, 0), (1, e - 1, 0), (0, 1, e), (e, e, e)]))
        corpus.append(MonomialIdeal(2, [(e, 0), (e - 1, e + 1), (0, e + 1)]))
        # every largest exponent e - 1 fills its field
        corpus.append(MonomialIdeal(3, [(e - 1, 1, 0), (0, e - 1, 1), (1, 0, e - 1)]))
    while len(corpus) < 150:
        nvars = rng.randint(1, 5)
        ideal = _random_ideal(rng, nvars, rng.choice((1, 3, 8, 16)), rng.randint(1, 8))
        if not ideal.is_zero and not ideal.is_unit:
            corpus.append(ideal)
    return corpus


def test_packed_corners_match_the_tuple_walk():
    for ideal in _corner_corpus():
        got = _maximal_corners(ideal.gens, ideal.nvars)
        assert got == tuple_maximal_corners(ideal.gens, ideal.nvars), ideal.gens


@pytest.mark.parametrize("sense", ["max", "min"])
def test_packed_corners_match_the_tuple_walk_on_k4(sense):
    ideal = entry_instance(k4_model(), sense).ideal
    got = _maximal_corners(ideal.gens, ideal.nvars)
    assert len(got) == 139
    assert got == tuple_maximal_corners(ideal.gens, ideal.nvars)


@pytest.mark.slow
def test_3x3x3_refined_decompositions():
    # the refined non-optimal ideals of 3x3x3 with all 2-margins, cell 1's
    # upper and lower bound (110 generators each): about 1 s and 6 s of
    # CPU on a 2-vCPU box for the two decompositions, bounded here at
    # about four times that; the max ideal is also checked against the
    # tuple walk (about 6 s)
    model = MarginalModel((3, 3, 3), ((1, 2), (1, 3), (2, 3)))
    gens = LatticeIdeal.from_matrix(margin_matrix(model)).generators
    elapsed = 0.0
    for lead in (-1, 1):
        order = TermOrder.refined((lead,) + (0,) * 26, "revgrevlex")
        ideal = non_optimal_ideal(buchberger(gens, order))
        assert len(ideal.gens) == 110
        t0 = time.process_time()
        comps = irreducible_decomposition(ideal)
        elapsed += time.process_time() - t0
        assert len(comps) == 2457
        if lead < 0:
            got = _maximal_corners(ideal.gens, 27)
            assert got == tuple_maximal_corners(ideal.gens, 27)
    assert elapsed < 30.0
