import itertools
import random

import pytest

from _reference import StandardPair, intersection_of_components, standard_pairs
from ipgap.errors import UnitIdeal, ZeroIdeal
from ipgap.monomial import (
    IrreducibleComponent,
    MonomialIdeal,
    irreducible_decomposition,
    minimal_generators,
)


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
    assert ideal.colon_monomial((1, 0)).gens == ((0, 3), (1, 0))
    inter = ideal.intersect(MonomialIdeal(2, [(1, 1)]))
    assert inter.gens == ((1, 3), (2, 1))
    assert MonomialIdeal(2, [(2, 1)]).subset_of(ideal)
    assert not ideal.subset_of(MonomialIdeal(2, [(2, 1)]))


def test_component_object():
    q = IrreducibleComponent((1, 0), (3, 2, 0, 0))
    assert q.support == (0, 1)
    assert q.ideal().gens == ((0, 3, 0, 0), (4, 0, 0, 0))
    assert q.excludes((3, 2, 9, 9))
    assert not q.excludes((4, 0, 0, 0))


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
            assert inside == all(not q.excludes(m) for q in comps)


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
            if not any(o != q and o.ideal_subset_of(q) for o in cands)
        }
        assert minimal == set(irreducible_decomposition(ideal))
